"""The ``Extend`` procedure (system S15; paper Figure 3).

``Extend(g, φ)`` grows a set φ of pairwise-parallel minimal separators
of g into a *maximal* such set:

1. saturate the separators of φ, producing ``g[φ]``;
2. triangulate ``g[φ]`` with any polynomial-time heuristic
   (``Triangulate``);
3. if the heuristic does not guarantee minimality, shrink the result to
   a minimal triangulation of ``g[φ]`` (``MinTriSandwich``);
4. return the minimal separators of the resulting chordal graph h
   (``ExtractMinSeps``, linear time via the clique forest).

Correctness (paper Lemma 4.6) rests on Heggernes' theorem: a minimal
triangulation of ``g[φ]`` is a minimal triangulation of g, its minimal
separator set is a maximal pairwise-parallel family, and it contains φ.

The enumeration layers call the mask-level :func:`extend_masks`.  With
MCS-M (Berry, Blair, Heggernes & Peyton) and the compiled kernels
available it is one native call — saturation, MCS-M and the
clique-forest scan fused in C — on every graph core; otherwise the
int-mask pipeline :func:`extend_masks_reference` runs, which stays the
oracle the native step is tested against.

Answers are materialised at the same level: :func:`materialise_masks`
saturates an answer's separator masks and returns the fill of g[φ] as
label-rank pairs together with its width, in one native call when the
kernels load and through :func:`materialise_masks_reference` otherwise.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.chordal.chordal_separators import ordered_separator_masks
from repro.chordal.cliques import clique_forest_masks
from repro.chordal.sandwich import minimal_triangulation_sandwich
from repro.chordal.triangulate import MCS_M, Triangulator, get_triangulator
from repro.graph import fused_kernels
from repro.graph.graph import Graph, Node

__all__ = [
    "extend_masks",
    "extend_masks_reference",
    "extend_tier",
    "extend_parallel_set",
    "materialise_masks",
    "materialise_masks_reference",
    "minimal_triangulation_via",
]

Separator = frozenset[Node]


def minimal_triangulation_via(
    graph: Graph, triangulator: str | Triangulator
) -> Graph:
    """Return a minimal triangulation of ``graph`` using ``triangulator``.

    Runs the heuristic and, when it does not guarantee minimality,
    applies the sandwich step.  This is steps 1–2 of ``Extend`` for
    φ = ∅ and is also useful standalone.
    """
    method = get_triangulator(triangulator)
    filled, __ = method.triangulate(graph)
    if not method.guarantees_minimal:
        filled, __ = minimal_triangulation_sandwich(graph, filled)
    return filled


def _fused_extend(triangulator: str | Triangulator):
    """The native module when Extend with ``triangulator`` runs fused."""
    if get_triangulator(triangulator) is not MCS_M:
        return None
    return fused_kernels()


def extend_tier(triangulator: str | Triangulator = "mcs_m") -> str:
    """``"native"`` when :func:`extend_masks` runs the fused C step for
    ``triangulator`` on this host, else ``"indexed"`` (the int-mask
    pipeline).  Recorded as ``extend:<tier>`` in
    :attr:`~repro.sgr.enum_mis.EnumMISStatistics.kernel_tiers`."""
    return "indexed" if _fused_extend(triangulator) is None else "native"


def extend_masks(
    graph: Graph,
    masks: Iterable[int],
    triangulator: str | Triangulator = "mcs_m",
    packed=None,
) -> list[int]:
    """``Extend`` at the mask level: separator masks in, masks out.

    Returns the distinct minimal separators of a minimal triangulation
    of ``g[φ]`` (φ = ``masks``) in clique-creation order, with the empty
    separator (mask 0) last when ``graph`` is disconnected.  MCS-M runs
    as one fused native call when the kernels are available; ``packed``
    is the graph's cached :class:`~repro.graph._native.native.PackedGraph`
    (built on the fly when omitted).  Every other case runs
    :func:`extend_masks_reference`, whose output is identical.
    """
    native = _fused_extend(triangulator)
    if native is not None:
        if packed is None:
            packed = native.PackedGraph(graph)
        return native.extend_mcs_m(packed, masks)
    return extend_masks_reference(graph, masks, triangulator)


def extend_masks_reference(
    graph: Graph,
    masks: Iterable[int],
    triangulator: str | Triangulator = "mcs_m",
) -> list[int]:
    """The int-mask ``Extend`` pipeline: the oracle of :func:`extend_masks`.

    Saturates g[φ] on a scratch copy (keeping the graph-core backend, so
    a packed core runs its per-step kernels), triangulates it, and scans
    the clique forest of the result.
    """
    saturated = graph.copy()
    core = saturated.core
    for mask in masks:
        core.saturate(mask)
    triangulated = minimal_triangulation_via(saturated, triangulator)
    return ordered_separator_masks(triangulated)


def materialise_masks(
    graph: Graph, masks: Iterable[int], packed=None
) -> tuple[list[int], list[int], int]:
    """The fill and width of g[φ] from separator masks φ.

    Returns ``(lo, hi, width)``: the added edges as label-rank pairs
    ``(lo[i], hi[i])`` (``graph.ranks()`` numbering, ``lo[i] < hi[i]``)
    in lexicographic order, and the width of g[φ].  For a maximal
    pairwise-parallel φ that is the answer's triangulation, so this is
    all an answer object needs.  One fused native call when the kernels
    load (``packed`` as in :func:`extend_masks`), otherwise
    :func:`materialise_masks_reference`, whose output is identical.
    """
    native = fused_kernels()
    if native is not None:
        if packed is None:
            packed = native.PackedGraph(graph)
        return native.materialise_fill(packed, masks)
    return materialise_masks_reference(graph, masks)


def materialise_masks_reference(
    graph: Graph, masks: Iterable[int]
) -> tuple[list[int], list[int], int]:
    """The int-mask materialiser: the oracle of :func:`materialise_masks`.

    Saturates φ on a copy of the graph core and runs the mask-level
    clique-forest scan of the result; no label-level graph is built.
    """
    saturated = graph.copy()
    core = saturated.core
    added: list[tuple[int, int]] = []
    for mask in masks:
        added.extend(core.saturate(mask))
    ranks = graph.ranks()
    pairs = sorted(
        (ru, rv) if ru < rv else (rv, ru)
        for ru, rv in ((ranks[u], ranks[v]) for u, v in added)
    )
    cliques = clique_forest_masks(saturated)[0]
    width = max((clique.bit_count() for clique in cliques), default=0) - 1
    return [u for u, __ in pairs], [v for __, v in pairs], width


def extend_parallel_set(
    graph: Graph,
    separators: Iterable[Separator],
    triangulator: str | Triangulator = "mcs_m",
) -> frozenset[Separator]:
    """Extend pairwise-parallel minimal separators to a maximal family.

    Parameters
    ----------
    graph:
        The base graph g.
    separators:
        A (possibly empty) set φ of pairwise-parallel minimal
        separators of g.  The input is *trusted*, as in the paper: the
        enumeration algorithm only ever passes valid sets.  Use
        :func:`repro.chordal.minimal_separators.is_pairwise_parallel`
        to validate untrusted input.
    triangulator:
        Name or instance of the triangulation heuristic.

    Returns
    -------
    frozenset of frozensets
        ``MinSep(h)`` for a minimal triangulation h of ``g[φ]`` — a
        maximal pairwise-parallel family containing φ (Lemma 4.6).
    """
    mask_of = graph.mask_of
    masks = extend_masks(graph, [mask_of(s) for s in separators], triangulator)
    label_set = graph.label_set
    return frozenset(label_set(mask) for mask in masks)
