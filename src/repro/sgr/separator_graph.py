"""The separator graph as an SGR (system S14; paper Section 3.1.1).

``MSGraph`` for a graph g is the graph whose nodes are the minimal
separators of g and whose edges connect *crossing* separators.  Its
maximal independent sets are exactly the maximal pairwise-parallel
families of minimal separators, which Parra–Scheffler put in bijection
with the minimal triangulations of g (paper Theorem 4.1).

The three SGR components:

* ``A_V``  — :func:`repro.chordal.minimal_separators.minimal_separators`
  (polynomial delay, Berry et al.);
* ``A_E``  — :func:`repro.chordal.minimal_separators.are_crossing`
  (polynomial time);
* expansion — :func:`repro.core.extend.extend_masks`
  (Figure 3 of the paper), parameterised by any triangulation
  heuristic; one fused native call per Extend for MCS-M when the
  compiled kernels are available.

Tractable expansion holds because a chordal graph has fewer minimal
separators than nodes (Rose; paper Corollary 4.3), so every
independent set of MSGraph has size < |V(g)|.

Performance
-----------
EnumMIS hammers the edge oracle: every direction step queries the
crossing relation for ``v`` against each member of the current answer,
and the same separator pairs recur across answers.  This SGR therefore

* *interns* each separator frozenset to its vertex bitmask once,
* caches the connected components of ``g \\ S`` per separator (the
  expensive half of a crossing test) — both as int masks and, once a
  batch query touches the separator, as a packed ``uint64`` word
  matrix (:mod:`repro.graph.bitset_np`),
* answers ``v``-versus-many queries through :meth:`has_edges_batch`,
  which resolves cached pairs with one dict probe each (zero when v
  has no cached pairs at all) and evaluates all remaining pairs in a
  single vectorized pass of
  :func:`repro.graph.bitset_np.crossing_batch` — no per-pair Python
  call, which is where the scalar oracle spends most of its time, and
* memoizes results per query node (``cache[id_v][id_u]``; ids are
  dense interned ints, so the hot loops never hash a |V|-bit mask) in
  a *bounded*, generation-capped cache, exposing hit/miss/eviction
  counters through :class:`~repro.sgr.enum_mis.EnumMISStatistics`.

The pair cache is two generations of at most ``edge_cache_limit``
entries each: inserts go to the current generation, a hit in the old
generation promotes the entry, and filling the current generation
drops the old one wholesale (counted as evictions).  Lookups stay O(1)
with no per-hit bookkeeping, recently used pairs survive rotation, and
the *pair-level* structure — the one that grows quadratically in the
separators touched, the space concern previously documented here as an
open trade-off — is capped.  (The per-separator tables — interning,
component tuples, packed matrices — still grow linearly with
``|MinSep seen|``; they are the price of the oracle itself, not of
memoization.)  An evicted pair is simply recomputed on its next query;
crossing is a pure function of the graph, so the answer can never
change.  Pass ``edge_cache_limit=None`` to restore the unbounded
behaviour.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.chordal.minimal_separators import (
    BATCH_KERNEL_MIN as _BATCH_KERNEL_MIN,
    minimal_separator_masks,
)
from repro.chordal.triangulate import Triangulator, get_triangulator
from repro.core.extend import extend_masks, extend_tier
from repro.graph import fused_kernels
from repro.graph.graph import Graph, Node
from repro.sgr.base import SuccinctGraphRepresentation
from repro.sgr.enum_mis import EnumMISStatistics

try:  # pragma: no cover - exercised implicitly by every batch query
    from repro.graph import bitset_np as _kernel
except ImportError:  # numpy unavailable: batch queries fall back to scalar
    _kernel = None  # type: ignore[assignment]

__all__ = ["MinimalSeparatorSGR", "DEFAULT_EDGE_CACHE_LIMIT"]

Separator = frozenset[Node]

#: Per-generation cap of the crossing memo cache (two generations may
#: be live at once).  Roughly 100 bytes per entry, so the default
#: bounds the cache near a few hundred MB in the worst case while
#: being far larger than any run that fits in a workday.
DEFAULT_EDGE_CACHE_LIMIT = 1 << 20

class MinimalSeparatorSGR(SuccinctGraphRepresentation):
    """The SGR ``(Gms, Ams_V, Ams_E)`` of the paper, for one input graph.

    Parameters
    ----------
    graph:
        The input graph g.  Not copied; callers must not mutate it
        while the SGR is in use.
    triangulator:
        The heuristic plugged into the ``Extend`` expansion
        (``"mcs_m"``, ``"lb_triang"``, ``"min_fill"``, …).
    stats:
        Optional :class:`~repro.sgr.enum_mis.EnumMISStatistics` whose
        ``edge_cache_hits`` / ``edge_cache_misses`` /
        ``edge_cache_evictions`` counters are updated by the memoized
        edge oracle.
    edge_cache_limit:
        Per-generation entry cap of the crossing-pair cache (``None``
        for unbounded).  Must be positive when given.
    """

    def __init__(
        self,
        graph: Graph,
        triangulator: str | Triangulator = "mcs_m",
        stats: EnumMISStatistics | None = None,
        edge_cache_limit: int | None = DEFAULT_EDGE_CACHE_LIMIT,
    ) -> None:
        if edge_cache_limit is not None and edge_cache_limit <= 0:
            raise ValueError(
                f"edge_cache_limit must be positive or None, "
                f"got {edge_cache_limit!r}"
            )
        self._graph = graph
        self._triangulator = get_triangulator(triangulator)
        self._stats = stats
        # Interning: each separator gets a dense small id; masks are
        # looked up by id, and the pair cache is keyed id → id so the
        # hot loops hash machine ints, never |V|-bit masks.
        self._sep_id: dict[Separator, int] = {}
        self._id_mask: list[int] = []
        # mask ↔ separator frozenset, so Extend results translate back
        # to labels once per distinct separator, not once per call, and
        # answers go back to masks without a label → index lookup.
        self._mask_sep: dict[int, Separator] = {}
        self._sep_mask: dict[Separator, int] = {}
        # The graph packed for the fused native kernels (None: not built
        # yet; False: the kernels are unavailable on this host).
        self._packed = None
        self._extend_tier = "extend:" + extend_tier(self._triangulator)
        # id → packed uint64 row of the separator mask (kernel builds
        # batch remainders by fancy-indexing this matrix, no per-pair
        # int→bytes conversion); grown geometrically on intern.
        self._mask_matrix = None
        self._components_of: dict[int, tuple[int, ...]] = {}
        # separator mask → packed (k, words) component matrix; built on
        # first batch query against the separator.
        self._packed_components: dict[int, object] = {}
        # The memoized crossing results, stored per *query node*:
        # ``cache[id_v][id_u]`` is the answer of a (v, u) query.  Two
        # generations bound the size: inserts go to the current one,
        # old-generation hits are promoted, and once ``_edge_entries``
        # reaches the limit the old generation is dropped wholesale.
        self._edge_cache_limit = edge_cache_limit
        self._edge_cache: dict[int, dict[int, bool]] = {}
        self._edge_cache_old: dict[int, dict[int, bool]] = {}
        self._edge_entries = 0
        self._edge_entries_old = 0
        self._words = (
            _kernel.word_count(len(graph.core.adj))
            if _kernel is not None
            else 0
        )

    @property
    def graph(self) -> Graph:
        """The underlying input graph g."""
        return self._graph

    @property
    def triangulator(self) -> Triangulator:
        """The triangulation heuristic used by :meth:`extend`."""
        return self._triangulator

    @property
    def packed_graph(self):
        """The graph packed for the fused native kernels, built once.

        ``None`` when the compiled kernels are unavailable; the SGR's
        separator generator and Extend then run the int-mask oracles.
        """
        if self._packed is None:
            native = fused_kernels()
            self._packed = (
                native.PackedGraph(self._graph) if native is not None else False
            )
        return self._packed or None

    @property
    def edge_cache_size(self) -> int:
        """Memoized crossing results currently held (both generations).

        An upper bound: a pair promoted from the old generation is
        briefly counted in both.
        """
        return self._edge_entries + self._edge_entries_old

    @property
    def edge_cache_limit(self) -> int | None:
        """The per-generation entry cap (``None`` = unbounded)."""
        return self._edge_cache_limit

    @property
    def statistics(self) -> EnumMISStatistics | None:
        """The statistics object receiving cache counters, if any."""
        return self._stats

    def attach_statistics(self, stats: EnumMISStatistics | None) -> None:
        """Point the cache hit/miss counters at ``stats`` (or detach)."""
        self._stats = stats

    def _intern_id(self, separator: Separator, mask: int | None = None) -> int:
        """Return the dense id of ``separator``, interning it if new."""
        sep_id = self._sep_id.get(separator)
        if sep_id is None:
            if mask is None:
                mask = self._graph.mask_of(separator)
            sep_id = len(self._id_mask)
            self._sep_id[separator] = sep_id
            self._id_mask.append(mask)
            if _kernel is not None:
                matrix = self._mask_matrix
                if matrix is None or sep_id >= matrix.shape[0]:
                    matrix = self._grow_matrix(sep_id)
                matrix[sep_id] = _kernel.pack_mask(mask, self._words)
        return sep_id

    def _grow_matrix(self, sep_id: int):
        old = self._mask_matrix
        capacity = 256 if old is None else old.shape[0]
        while capacity <= sep_id:
            capacity *= 2
        matrix = _kernel.zero_matrix(capacity, self._words)
        if old is not None:
            matrix[: old.shape[0]] = old
        self._mask_matrix = matrix
        return matrix

    def _intern(self, separator: Separator) -> int:
        return self._id_mask[self._intern_id(separator)]

    def _components(self, separator_mask: int) -> tuple[int, ...]:
        components = self._components_of.get(separator_mask)
        if components is None:
            components = tuple(self._graph.core.components(separator_mask))
            self._components_of[separator_mask] = components
        return components

    def _components_packed(self, separator_mask: int):
        """The ``(k, words)`` packed component matrix of ``g \\ S``."""
        packed = self._packed_components.get(separator_mask)
        if packed is None:
            packed = _kernel.pack_masks(
                self._components(separator_mask), self._words
            )
            self._packed_components[separator_mask] = packed
        return packed

    # ------------------------------------------------------------------
    # The bounded pair cache
    # ------------------------------------------------------------------

    def _maybe_rotate(self) -> None:
        limit = self._edge_cache_limit
        if limit is not None and self._edge_entries >= limit:
            if self._edge_entries_old and self._stats is not None:
                self._stats.edge_cache_evictions += self._edge_entries_old
            self._edge_cache_old = self._edge_cache
            self._edge_entries_old = self._edge_entries
            self._edge_cache = {}
            self._edge_entries = 0

    # ------------------------------------------------------------------
    # SGR interface
    # ------------------------------------------------------------------

    def iter_nodes(self) -> Iterator[Separator]:
        """Enumerate ``MinSep(g)`` with polynomial delay.

        Separator masks are interned on the way out, so later
        ``has_edge`` calls on yielded separators skip the label → mask
        translation entirely.
        """
        for mask in minimal_separator_masks(self._graph, self.packed_graph):
            separator = self._separator_of(mask)
            self._intern_id(separator, mask)
            yield separator

    def _separator_of(self, mask: int) -> Separator:
        separator = self._mask_sep.get(mask)
        if separator is None:
            separator = self._graph.label_set(mask)
            self._mask_sep[mask] = separator
            self._sep_mask[separator] = mask
        return separator

    def separator_mask(self, separator: Separator) -> int:
        """The vertex mask of ``separator`` (cached for every separator
        this SGR has produced)."""
        mask = self._sep_mask.get(separator)
        return self._graph.mask_of(separator) if mask is None else mask

    def has_edge(self, u: Separator, v: Separator) -> bool:
        """Return whether two minimal separators cross (``u ♮ v``).

        Memoized under the first argument's id (crossing is symmetric
        for minimal separators — Parra–Scheffler — so the result is the
        same either way; EnumMIS always queries direction-node first,
        which is exactly the layout the batch oracle shares).  This
        scalar oracle is the reference the batch oracle is tested
        against.
        """
        id_u = self._intern_id(u)
        id_v = self._intern_id(v)
        row = self._edge_cache.get(id_u)
        cached = row.get(id_v) if row is not None else None
        stats = self._stats
        if cached is None:
            old_row = self._edge_cache_old.get(id_u)
            if old_row is not None:
                cached = old_row.get(id_v)
        if cached is None:
            # Crossing is symmetric: before recomputing, check the
            # reversed orientation (cached when v earlier served as the
            # query node of this pair).
            cached = self._reverse_lookup(id_v, id_u)
        if cached is not None:
            if stats is not None:
                stats.edge_cache_hits += 1
            if row is None or id_v not in row:
                # Promote old-generation / reversed hits so they are
                # found first next time and survive rotation.
                if row is None:
                    row = self._edge_cache[id_u] = {}
                row[id_v] = cached
                self._edge_entries += 1
                self._maybe_rotate()
            return cached
        if stats is not None:
            stats.edge_cache_misses += 1
        id_mask = self._id_mask
        result = self._crossing(id_mask[id_u], id_mask[id_v])
        if row is None:
            row = self._edge_cache[id_u] = {}
        row[id_v] = result
        self._edge_entries += 1
        self._maybe_rotate()
        return result

    def _reverse_lookup(self, id_v: int, id_u: int) -> bool | None:
        """The (id_v, id_u) orientation of a pair, from either generation."""
        rev = self._edge_cache.get(id_v)
        cached = rev.get(id_u) if rev is not None else None
        if cached is None:
            rev = self._edge_cache_old.get(id_v)
            if rev is not None:
                cached = rev.get(id_u)
        return cached

    def has_edges_batch(
        self, v: Separator, candidates: Sequence[Separator]
    ) -> list[bool]:
        """Batched edge oracle: does ``v`` cross each of ``candidates``?

        Semantically identical to ``[has_edge(v, u) for u in
        candidates]`` — same memo cache, same counters (one hit or miss
        per candidate) — but the per-pair Python work is one dict probe
        against ``v``'s cache row (zero probes when v has no cached
        pairs at all, the common case when a new SGR node arrives), and
        every uncached pair is evaluated in a single vectorized pass
        over the packed component matrix of ``g \\ v``
        (:func:`repro.graph.bitset_np.crossing_batch`) instead of one
        component-walk call each.  This is the kernel behind the
        EnumMIS direction step, which is exactly a
        ``v``-versus-answer-members sweep.

        The generation rotation of the bounded cache is checked once
        per call rather than once per insert, so the current generation
        may briefly overshoot ``edge_cache_limit`` by one batch.  When
        ``v`` has no cache row at all, the sweep skips per-pair probes
        entirely — including reversed-orientation ones — and recomputes
        the whole batch in the kernel; that is bounded duplicate work
        (crossing is pure, answers cannot change), traded for the
        zero-probe fast path on fresh direction nodes.
        """
        id_v = self._intern_id(v)
        sep_get = self._sep_id.get
        ids = [sep_get(u) for u in candidates]
        if None in ids:
            ids = [
                self._intern_id(u) if i is None else i
                for i, u in zip(ids, candidates)
            ]
        stats = self._stats
        row = self._edge_cache.get(id_v)
        old_row = self._edge_cache_old.get(id_v)
        if row is None and old_row is None:
            # Nothing cached for v: pure kernel sweep, no per-pair probes.
            results = self._crossing_many(id_v, ids)
            self._edge_cache[id_v] = dict(zip(ids, results))
            self._edge_entries += len(ids)
            if stats is not None:
                stats.edge_cache_misses += len(ids)
            self._maybe_rotate()
            return results
        if row is None:
            row = self._edge_cache[id_v] = {}
        row_get = row.get
        old_get = old_row.get if old_row is not None else None
        results = []
        append = results.append
        miss_at: list[int] = []
        miss_ids: list[int] = []
        promoted = 0
        reverse_lookup = self._reverse_lookup
        for i, id_u in enumerate(ids):
            cached = row_get(id_u)
            if cached is None:
                if old_get is not None:
                    cached = old_get(id_u)
                if cached is None:
                    # Symmetric relation: the pair may be cached under
                    # the candidate's own row from an earlier sweep.
                    cached = reverse_lookup(id_u, id_v)
                if cached is None:
                    miss_at.append(i)
                    miss_ids.append(id_u)
                    append(False)  # placeholder, filled below
                    continue
                row[id_u] = cached  # promote so v's row finds it first
                promoted += 1
            append(cached)
        if stats is not None:
            stats.edge_cache_hits += len(ids) - len(miss_at)
            stats.edge_cache_misses += len(miss_at)
        if miss_at:
            crossed = self._crossing_many(id_v, miss_ids)
            for i, id_u, result in zip(miss_at, miss_ids, crossed):
                row[id_u] = result
                results[i] = result
        self._edge_entries += promoted + len(miss_at)
        self._maybe_rotate()
        return results

    def _crossing_many(self, id_v: int, ids: list[int]) -> list[bool]:
        """Compute v-versus-ids crossings, vectorized when worthwhile."""
        id_mask = self._id_mask
        mask_v = id_mask[id_v]
        if _kernel is None or len(ids) < _BATCH_KERNEL_MIN:
            crossing = self._crossing
            return [crossing(mask_v, id_mask[i]) for i in ids]
        components = self._components_packed(mask_v)
        matrix = self._mask_matrix
        ns = _kernel.kernels_for(self._graph.core)
        if hasattr(ns, "crossing_batch_gather"):
            # Every shipped tier exposes the gathered sweep (parity is
            # machine-checked by `repro analyze`): the native kernel
            # fuses gather+ANDN+test in one C pass, the numpy twin
            # materialises the ``matrix[ids] & ~row_v`` remainders.
            # The hasattr guard keeps bare mock namespaces working.
            return ns.crossing_batch_gather(components, matrix, ids, id_v)
        remainders = matrix[ids] & ~matrix[id_v]
        return ns.crossing_batch(components, remainders).tolist()

    def _crossing(self, mask_u: int, mask_v: int) -> bool:
        remainder = mask_v & ~mask_u
        if not remainder:
            return False
        touched = 0
        for component in self._components(mask_u):
            if component & remainder:
                touched += 1
                if touched >= 2:
                    return True
        return False

    def extend(self, independent_set: frozenset[Separator]) -> frozenset[Separator]:
        """Extend a pairwise-parallel family to a maximal one (Figure 3)."""
        intern = self._intern
        masks = self.extend_masks([intern(sep) for sep in independent_set])
        separator_of = self._separator_of
        return frozenset(separator_of(mask) for mask in masks)

    def extend_masks(self, masks: Iterable[int]) -> list[int]:
        """:meth:`extend` on separator masks, with the packed graph cached.

        Counts the call under ``extend:native`` or ``extend:indexed`` in
        the attached statistics' ``kernel_tiers``.
        """
        stats = self._stats
        if stats is not None:
            tiers = stats.kernel_tiers
            tiers[self._extend_tier] = tiers.get(self._extend_tier, 0) + 1
        return extend_masks(
            self._graph, masks, self._triangulator, self.packed_graph
        )
