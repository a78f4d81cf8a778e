"""The :class:`Triangulation` result object (system S17).

Enumeration results are wrapped in a small value object carrying the
chordal graph together with the two quality measures the paper's
experiments track:

* **width** — size of the largest clique of the triangulation minus
  one (equals the width of the corresponding tree decompositions);
* **fill** — the number of added edges.

The object also exposes the minimal-separator family that identifies
the triangulation under the Parra–Scheffler bijection, and a
``tree_decomposition()`` convenience producing the canonical proper
tree decomposition (the clique tree).
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property

from repro.chordal.cliques import CliqueForest, mcs_clique_forest
from repro.chordal.sandwich import is_minimal_triangulation
from repro.core.extend import materialise_masks
from repro.graph.graph import Graph, Node, edge_key, sort_edges

__all__ = ["Triangulation", "materialise"]


class Triangulation:
    """A (minimal) triangulation of a base graph.

    Parameters
    ----------
    base:
        The original graph g.
    fill_edges:
        The edges of ``E(h) \\ E(g)``, canonicalised and sorted.

    Instances compare equal (and hash) by their fill-edge set, which
    identifies the triangulation of a fixed base graph.
    """

    __slots__ = ("_base", "_fill", "_width", "__dict__")

    def __init__(self, base: Graph, fill_edges: tuple[tuple[Node, Node], ...]) -> None:
        self._base = base
        self._fill = tuple(sort_edges(edge_key(u, v) for u, v in fill_edges))
        self._width: int | None = None

    @classmethod
    def _from_canonical(
        cls, base: Graph, fill: tuple[tuple[Node, Node], ...], width: int
    ) -> "Triangulation":
        """Internal constructor: ``fill`` is already canonical (each edge
        an :func:`edge_key`, the tuple in :func:`sort_edges` order) and
        ``width`` is known, so neither is recomputed."""
        triangulation = cls.__new__(cls)
        triangulation._base = base
        triangulation._fill = fill
        triangulation._width = width
        return triangulation

    @classmethod
    def _product(
        cls, base: Graph, parts: Iterable["Triangulation"]
    ) -> "Triangulation":
        """Join triangulations of the regions of ``base`` (components or
        atoms): the fills are disjoint, and every clique of the union
        lies in one region, so the width is the largest region width."""
        parts = list(parts)
        fill = tuple(sort_edges(edge for part in parts for edge in part._fill))
        width = max(
            part.width if part._width is None else part._width for part in parts
        )
        return cls._from_canonical(base, fill, width)

    @classmethod
    def from_chordal_supergraph(cls, base: Graph, chordal: Graph) -> "Triangulation":
        """Build from a chordal supergraph h of g (fill = E(h) − E(g))."""
        fill = tuple(
            tuple(edge)
            for edge in (chordal.edge_set() - base.edge_set())
        )
        return cls(base, tuple(edge_key(u, v) for u, v in fill))

    @property
    def base(self) -> Graph:
        """The original (untriangulated) graph g."""
        return self._base

    @property
    def fill_edges(self) -> tuple[tuple[Node, Node], ...]:
        """The added edges, sorted canonically."""
        return self._fill

    @property
    def fill(self) -> int:
        """The *fill* quality measure: number of added edges."""
        return len(self._fill)

    @cached_property
    def graph(self) -> Graph:
        """The chordal graph h = g + fill."""
        filled = self._base.copy()
        filled.add_edges(self._fill)
        return filled

    @cached_property
    def clique_forest(self) -> CliqueForest:
        """The clique forest of h (cliques, parents, separators)."""
        return mcs_clique_forest(self.graph)

    @property
    def width(self) -> int:
        """The *width* quality measure: max clique size of h minus one."""
        if self._width is None:
            self._width = self.clique_forest.width
        return self._width

    @cached_property
    def minimal_separators(self) -> frozenset[frozenset[Node]]:
        """``MinSep(h)`` — the maximal pairwise-parallel family for h.

        Under the Parra–Scheffler bijection this family identifies the
        triangulation: ``h = g[MinSep(h)]``.
        """
        from repro.chordal.chordal_separators import minimal_separators_of_chordal

        return frozenset(minimal_separators_of_chordal(self.graph))

    def is_minimal(self) -> bool:
        """Check minimality from first principles (RTL single-edge test).

        Provided for verification; the enumerator only produces minimal
        triangulations, so this is expected to always return True for
        enumeration output.
        """
        return is_minimal_triangulation(self._base, self.graph)

    def tree_decomposition(self):
        """Return the canonical proper tree decomposition (clique tree) of h.

        The bags are ``MaxClq(h)``; see paper Section 5.  Import is
        deferred to avoid a package cycle.
        """
        from repro.decomposition.clique_tree import clique_tree

        return clique_tree(self.graph)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triangulation):
            return NotImplemented
        return self._fill == other._fill and self._base == other._base

    def __hash__(self) -> int:
        return hash(self._fill)

    def __repr__(self) -> str:
        return (
            f"Triangulation(width={self.width}, fill={self.fill}, "
            f"base={self._base.summary()!r})"
        )


def materialise(
    graph: Graph, masks: Iterable[int], packed=None
) -> Triangulation:
    """The answer ``g[φ]`` for a maximal family φ of separator masks.

    Fill and width come from one mask-level call
    (:func:`repro.core.extend.materialise_masks`; ``packed`` is the
    graph's cached packed form, or None).  The fill's label-rank pairs
    become labels through the graph's rank → label table
    (:meth:`~repro.graph.graph.Graph.rank_labels`); they are already
    canonical unless the labels mix shapes, and then go through
    :func:`edge_key`/:func:`sort_edges`.
    """
    lo, hi, width = materialise_masks(graph, masks, packed)
    labels, canonical = graph.rank_labels()
    label = labels.__getitem__
    pairs = zip(map(label, lo), map(label, hi))
    if canonical:
        fill = tuple(pairs)
    else:
        fill = tuple(sort_edges(edge_key(u, v) for u, v in pairs))
    return Triangulation._from_canonical(graph, fill, width)
