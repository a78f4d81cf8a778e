"""Top-level enumeration of minimal triangulations (system S16).

``enumerate_minimal_triangulations`` realises the paper's main result
(Corollary 4.8): all minimal triangulations of a graph, in incremental
polynomial time, as a lazy generator of
:class:`~repro.core.triangulation.Triangulation` objects.

The pipeline for a *connected* graph is exactly the paper's:
``EnumMIS`` over the separator-graph SGR, with the ``Extend`` expansion
wrapping a pluggable triangulation heuristic; each produced maximal
pairwise-parallel family φ is materialised as the triangulation
``g[φ]``.

Disconnected graphs are handled by the classical product rule: a
minimal triangulation of g is an independent choice of a minimal
triangulation per connected component.  The per-component enumerations
are interleaved through a lazy fair product, preserving incremental
output (the first answer appears after one ``Extend`` per component).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from repro.chordal.triangulate import Triangulator, get_triangulator
from repro.core.extend import minimal_triangulation_via
from repro.core.triangulation import Triangulation, materialise
from repro.graph.components import connected_components
from repro.graph.graph import Graph
from repro.sgr.enum_mis import EnumMISStatistics, enumerate_maximal_independent_sets
from repro.sgr.separator_graph import MinimalSeparatorSGR

__all__ = [
    "enumerate_minimal_triangulations",
    "minimal_triangulation",
    "count_minimal_triangulations",
]


def minimal_triangulation(
    graph: Graph, triangulator: str | Triangulator = "mcs_m"
) -> Triangulation:
    """Return one minimal triangulation (what the bare heuristic gives).

    This is the paper's quality baseline: "the result we would get by
    running the minimal triangulation algorithm we used, on the
    original input graph" (Section 6.3).
    """
    filled = minimal_triangulation_via(graph, triangulator)
    return Triangulation.from_chordal_supergraph(graph, filled)


def enumerate_minimal_triangulations(
    graph: Graph,
    triangulator: str | Triangulator = "mcs_m",
    mode: str = "UG",
    stats: EnumMISStatistics | None = None,
    decompose: str = "components",
    backend: str = "serial",
    workers: int | None = None,
    graph_backend: str | None = "auto",
) -> Iterator[Triangulation]:
    """Enumerate ``MinTri(graph)`` in incremental polynomial time.

    Parameters
    ----------
    graph:
        Any finite simple graph (connected or not).
    triangulator:
        The heuristic plugged into ``Extend`` (``"mcs_m"``,
        ``"lb_triang"``, ``"min_fill"``, ``"min_degree"``,
        ``"natural"``, ``"complete"`` or a custom
        :class:`~repro.chordal.triangulate.Triangulator`).
    mode:
        ``"UG"`` (yield upon generation) or ``"UP"`` (yield upon pop);
        see :mod:`repro.sgr.enum_mis`.
    stats:
        Optional :class:`~repro.sgr.enum_mis.EnumMISStatistics` updated
        in place (shared across components for disconnected input).
    decompose:
        ``"components"`` (default) runs the SGR pipeline per connected
        component and combines results through the product rule;
        ``"atoms"`` additionally splits on clique minimal separators
        (see :mod:`repro.chordal.atoms`), which can shrink the
        separator space exponentially; ``"none"`` disables splitting.
    backend:
        Execution strategy, resolved through the enumeration-engine
        registry (:mod:`repro.engine`): ``"serial"`` (default, this
        module's pipeline) or ``"sharded"`` (answer queue partitioned
        across a multiprocessing worker pool).  Every backend yields
        the same answer set.
    workers:
        Worker-pool size for parallel backends (``None`` = one per
        CPU); ignored by the serial backend.
    graph_backend:
        Graph-core representation: ``"indexed"``, ``"numpy"`` or
        ``"auto"`` (default — the packed-numpy core at or above
        :data:`repro.graph.bitset_np.NUMPY_THRESHOLD` nodes, the
        single-int bitmask core below).  ``None`` keeps the graph's
        current core untouched (used by the engine, which resolves the
        backend before dispatch).

    Yields
    ------
    Triangulation
        Every minimal triangulation of ``graph``, exactly once.
    """
    if backend != "serial":
        from repro.engine import EnumerationEngine, EnumerationJob

        yield from EnumerationEngine(backend, workers=workers).stream(
            EnumerationJob(
                graph,
                mode=mode,
                triangulator=triangulator,
                decompose=decompose,
                graph_backend=(
                    "auto" if graph_backend is None else graph_backend
                ),
            ),
            stats=stats,
        )
        return
    from repro.graph import resolve_graph_backend

    graph = resolve_graph_backend(graph, graph_backend)
    method = get_triangulator(triangulator)
    if decompose not in {"none", "components", "atoms"}:
        raise ValueError(
            f"decompose must be 'none', 'components' or 'atoms', got {decompose!r}"
        )
    if decompose == "none":
        yield from _enumerate_connected(graph, method, mode, stats)
        return
    if decompose == "atoms":
        from repro.chordal.atoms import atoms

        regions = atoms(graph)
    else:
        regions = connected_components(graph)
    if len(regions) <= 1:
        yield from _enumerate_connected(graph, method, mode, stats)
        return

    per_region = [
        _enumerate_connected(graph.subgraph(region), method, mode, stats)
        for region in regions
    ]
    for combination in _fair_product(per_region):
        yield Triangulation._product(graph, combination)


def count_minimal_triangulations(
    graph: Graph,
    triangulator: str | Triangulator = "mcs_m",
    limit: int | None = None,
) -> int:
    """Count minimal triangulations, optionally stopping at ``limit``."""
    count = 0
    for __ in enumerate_minimal_triangulations(graph, triangulator):
        count += 1
        if limit is not None and count >= limit:
            break
    return count


def _enumerate_connected(
    graph: Graph,
    method: Triangulator,
    mode: str,
    stats: EnumMISStatistics | None,
) -> Iterator[Triangulation]:
    if graph.num_nodes == 0:
        yield Triangulation(graph, ())
        return
    sgr = MinimalSeparatorSGR(graph, method, stats=stats)
    separator_mask = sgr.separator_mask
    for family in enumerate_maximal_independent_sets(sgr, mode=mode, stats=stats):
        # Materialise g[family] at yield time: fill and width from the
        # separator masks in one mask-level call.
        yield materialise(
            graph, [separator_mask(s) for s in family], sgr.packed_graph
        )


def _fair_product(iterators: list[Iterator[Triangulation]]) -> Iterator[tuple]:
    """Lazily enumerate the cartesian product of independent generators.

    Every tuple is produced exactly once, attributed to its
    latest-arriving coordinate: when generator i yields a new element
    x, all tuples combining x with already-cached elements of the other
    generators are emitted.  Output is incremental — no generator needs
    to be exhausted before the first tuple appears.
    """
    caches: list[list[Triangulation]] = [[] for __ in iterators]
    active = list(range(len(iterators)))

    # Seed one element per component (every graph has ≥ 1 minimal
    # triangulation, so this never raises StopIteration).
    for i, iterator in enumerate(iterators):
        caches[i].append(next(iterator))
    yield tuple(cache[0] for cache in caches)

    while active:
        for i in list(active):
            try:
                new_element = next(iterators[i])
            except StopIteration:
                active.remove(i)
                continue
            other_caches = [
                cache for j, cache in enumerate(caches) if j != i
            ]
            for rest in itertools.product(*other_caches):
                combo = list(rest)
                combo.insert(i, new_element)
                yield tuple(combo)
            caches[i].append(new_element)
