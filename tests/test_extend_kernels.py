"""Property tests: packed Extend kernels vs their int-mask oracles.

Every vectorized kernel introduced for the Extend pipeline (PR 4) must
produce bit-identical results to the int-mask reference implementation
it replaces, on the same random corpus the rest of the suite uses.
The int-mask paths run on plain :class:`~repro.graph.core.IndexedGraph`
cores; converting a graph to the ``numpy`` backend switches every
dispatch point at once, so comparing whole-algorithm outputs across
backends pins all kernels together, and the unit tests underneath pin
each kernel in isolation.
"""

from __future__ import annotations

import contextlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import int_mask_path, small_chordal_graphs, small_random_graphs
from repro.chordal.chordal_separators import (
    chordal_separator_masks,
    minimal_separators_of_chordal,
)
from repro.chordal.cliques import mcs_clique_forest
from repro.chordal.minimal_separators import (
    component_neighbourhoods_reference,
    minimal_separator_masks,
)
from repro.chordal.peo import (
    is_perfect_elimination_ordering,
    maximum_cardinality_search,
    peo_or_none,
)
from repro.chordal.triangulate import (
    lb_triang,
    mcs_m,
    min_degree_order,
    min_fill_order,
)
from repro.core.enumerate import enumerate_minimal_triangulations
from repro.core.extend import (
    extend_masks,
    extend_masks_reference,
    extend_parallel_set,
    extend_tier,
    materialise_masks,
    materialise_masks_reference,
)
from repro.engine import EnumerationEngine, EnumerationJob
from repro.errors import NotChordalError
from repro.graph import connected_components, fused_kernels, resolve_graph_backend
from repro.graph.bitset_np import (
    NumpyGraphCore,
    PackedMCSQueue,
    frontier_sweep,
    indices_to_mask,
    is_peo_packed,
    mask_to_indices,
    pack_masks,
    saturate_batch,
    set_edge_bits,
    union_rows,
    weight_level_rows,
    word_count,
)
from repro.graph.core import IndexedGraph, MaxWeightBuckets
from repro.graph.generators import cycle_graph, gnp_random_graph
from repro.graph.graph import Graph
from repro.sgr.enum_mis import (
    EnumMISStatistics,
    enumerate_maximal_independent_sets,
)
from repro.sgr.separator_graph import MinimalSeparatorSGR

if fused_kernels() is not None:
    from repro.graph._native.native import (
        PackedGraph,
        component_neighbourhoods,
    )


def both_backends(graph):
    return (
        resolve_graph_backend(graph, "indexed"),
        resolve_graph_backend(graph, "numpy"),
    )


CORPUS = small_random_graphs(10, max_nodes=12, seed=17) + [
    gnp_random_graph(40, 0.15, seed=3),
    gnp_random_graph(72, 0.07, seed=4),
    cycle_graph(50),
]


class TestTriangulatorEquivalence:
    @pytest.mark.parametrize("index", range(len(CORPUS)))
    def test_mcs_m_fill_and_order_match(self, index):
        indexed, packed = both_backends(CORPUS[index])
        assert mcs_m(indexed) == mcs_m(packed)

    @pytest.mark.parametrize("index", range(len(CORPUS)))
    def test_mcs_m_with_start_vertex_matches(self, index):
        graph = CORPUS[index]
        indexed, packed = both_backends(graph)
        for first in graph.nodes()[:: max(1, graph.num_nodes // 3)]:
            assert mcs_m(indexed, first=first) == mcs_m(packed, first=first)

    @pytest.mark.parametrize(
        "heuristic", ["min_fill", "min_degree", "natural"]
    )
    def test_lb_triang_heuristics_match(self, heuristic):
        for graph in CORPUS:
            indexed, packed = both_backends(graph)
            assert lb_triang(indexed, heuristic=heuristic) == lb_triang(
                packed, heuristic=heuristic
            )

    def test_lb_triang_explicit_order_matches(self):
        rng = random.Random(5)
        for graph in CORPUS:
            order = graph.nodes()
            rng.shuffle(order)
            indexed, packed = both_backends(graph)
            assert lb_triang(indexed, order=order) == lb_triang(
                packed, order=order
            )

    def test_elimination_orders_match(self):
        for graph in CORPUS:
            indexed, packed = both_backends(graph)
            assert min_fill_order(indexed) == min_fill_order(packed)
            assert min_degree_order(indexed) == min_degree_order(packed)


class TestPeoAndForestEquivalence:
    def test_peo_check_matches_on_random_and_mcs_orders(self):
        rng = random.Random(11)
        for graph in CORPUS:
            indexed, packed = both_backends(graph)
            shuffled = graph.nodes()
            rng.shuffle(shuffled)
            mcs_order = list(reversed(maximum_cardinality_search(graph)))
            for order in (shuffled, mcs_order):
                assert is_perfect_elimination_ordering(
                    indexed, order
                ) == is_perfect_elimination_ordering(packed, order)

    def test_peo_or_none_matches_on_chordal_corpus(self):
        for graph in small_chordal_graphs(10, max_nodes=16, seed=23):
            indexed, packed = both_backends(graph)
            assert peo_or_none(indexed) == peo_or_none(packed)

    def test_clique_forest_matches_on_chordal_corpus(self):
        for graph in small_chordal_graphs(10, max_nodes=16, seed=29):
            indexed, packed = both_backends(graph)
            a, b = mcs_clique_forest(indexed), mcs_clique_forest(packed)
            assert a.cliques == b.cliques
            assert a.parent == b.parent
            assert a.separators == b.separators
            assert a.clique_of == b.clique_of

    def test_separator_extraction_matches(self):
        for graph in small_chordal_graphs(10, max_nodes=16, seed=31):
            indexed, packed = both_backends(graph)
            assert minimal_separators_of_chordal(
                indexed
            ) == minimal_separators_of_chordal(packed)
            masks_a = chordal_separator_masks(indexed)
            masks_b = chordal_separator_masks(packed)
            assert masks_a == masks_b


class TestExtendEquivalence:
    # The per-step pipeline on each core: the fused native Extend is
    # pinned separately against the same oracle (TestFusedStepParity).
    def test_extend_of_empty_family_matches(self):
        for graph in CORPUS:
            indexed, packed = both_backends(graph)
            assert extend_masks_reference(
                indexed, ()
            ) == extend_masks_reference(packed, ())

    def test_extend_of_partial_family_matches(self):
        for graph in CORPUS[:6]:
            family = sorted(extend_masks_reference(graph, ()))[
                : max(1, graph.num_nodes // 4)
            ]
            indexed, packed = both_backends(graph)
            assert extend_masks_reference(
                indexed, family
            ) == extend_masks_reference(packed, family)

    def test_extend_per_triangulator_matches(self):
        for graph in CORPUS[:6]:
            indexed, packed = both_backends(graph)
            for triangulator in ("mcs_m", "lb_triang", "min_fill"):
                assert extend_masks_reference(
                    indexed, (), triangulator
                ) == extend_masks_reference(packed, (), triangulator)

    def test_label_level_extend_matches_masks(self):
        for graph in CORPUS[:6]:
            assert extend_parallel_set(graph, ()) == frozenset(
                graph.label_set(mask) for mask in extend_masks(graph, ())
            )


class TestKernelUnits:
    def test_mask_index_round_trip(self):
        rng = random.Random(3)
        for words in (1, 2, 5):
            for __ in range(50):
                mask = rng.getrandbits(words * 64 - 7)
                idx = mask_to_indices(mask, words)
                assert indices_to_mask(idx, words) == mask
                assert idx.tolist() == [
                    i for i in range(words * 64) if mask >> i & 1
                ]

    def test_union_rows_matches_int_union(self):
        rng = random.Random(9)
        n = 150
        adj = [rng.getrandbits(n) for __ in range(n)]
        matrix = pack_masks(adj, word_count(n))
        for __ in range(30):
            mask = rng.getrandbits(n)
            idx = mask_to_indices(mask, word_count(n))
            expected = 0
            for i in idx:
                expected |= adj[i]
            assert union_rows(matrix, idx) == expected
        assert union_rows(matrix, np.array([], dtype=np.int64)) == 0

    def test_frontier_sweep_matches_expand_component(self):
        for graph in CORPUS:
            core = graph.core
            matrix = pack_masks(core.adj, word_count(len(core.adj)))
            for seed_bit in range(0, len(core.adj), 5):
                if not core.alive >> seed_bit & 1:
                    continue
                expected = core.component_of(seed_bit)
                got = frontier_sweep(
                    matrix, 1 << seed_bit, core.alive, adj=core.adj
                )
                assert got == expected
                # Pure-matrix path (no scalar fallback) agrees too.
                assert (
                    frontier_sweep(matrix, 1 << seed_bit, core.alive)
                    == expected
                )

    def test_saturate_batch_matches_scalar_saturate(self):
        rng = random.Random(13)
        for graph in CORPUS[:8]:
            reference = graph.core.copy()
            packed_core = NumpyGraphCore.from_indexed(graph.core)
            packed_core._matrix()
            mask = rng.getrandbits(len(graph.core.adj)) & graph.core.alive
            expected = reference.saturate(mask)
            got = packed_core.saturate(mask)
            assert got == expected
            assert packed_core.adj == reference.adj
            assert packed_core.num_edges == reference.num_edges
            # The packed mirror was maintained in place, not rebuilt.
            rebuilt = pack_masks(
                packed_core.adj, word_count(len(packed_core.adj))
            )
            assert (packed_core._packed == rebuilt).all()

    def test_set_edge_bits_matches_masks(self):
        n = 70
        matrix = pack_masks([0] * n, word_count(n))
        u = np.array([0, 3, 3, 69], dtype=np.int64)
        v = np.array([1, 64, 65, 2], dtype=np.int64)
        set_edge_bits(matrix, u, v)
        core = IndexedGraph(n)
        for a, b in zip(u.tolist(), v.tolist()):
            core.add_edge(a, b)
        assert (matrix == pack_masks(core.adj, word_count(n))).all()

    def test_is_peo_packed_matches_reference(self):
        rng = random.Random(19)
        for graph in CORPUS:
            core = graph.core
            matrix = pack_masks(core.adj, word_count(len(core.adj)))
            indices = list(range(len(core.adj)))
            indices = [i for i in indices if core.alive >> i & 1]
            for __ in range(4):
                rng.shuffle(indices)
                labels = [graph.label_of(i) for i in indices]
                expected = is_perfect_elimination_ordering(
                    resolve_graph_backend(graph, "indexed"), labels
                )
                assert is_peo_packed(matrix, indices) == expected

    def test_weight_level_rows_group_by_weight(self):
        rng = random.Random(23)
        n = 200
        words = word_count(n)
        indices = np.array(sorted(rng.sample(range(n), 80)), dtype=np.int64)
        weights = np.array(
            [rng.randint(0, 9) for __ in range(80)], dtype=np.int64
        )
        rows = weight_level_rows(indices, weights, words)
        distinct = sorted(set(weights.tolist()))
        assert rows.shape[0] == len(distinct)
        for row, weight in zip(rows, distinct):
            mask = int.from_bytes(row.tobytes(), "little")
            expected = 0
            for i, w in zip(indices.tolist(), weights.tolist()):
                if w == weight:
                    expected |= 1 << i
            assert mask == expected

    def test_packed_queue_pops_in_bucket_order(self):
        rng = random.Random(29)
        n = 120
        words = word_count(n)
        alive = (1 << n) - 1
        ranks = list(range(n))
        rng.shuffle(ranks)
        scalar_weights = [0] * n
        scalar = MaxWeightBuckets(alive)
        packed = PackedMCSQueue(alive, ranks, words)
        remaining = alive
        for __ in range(n):
            a = scalar.pop_max(ranks)
            b = packed.pop_max()
            assert a == b
            remaining &= ~(1 << a)
            bump = rng.getrandbits(n) & remaining
            scalar.bump_all(bump, scalar_weights)
            packed.bump_mask(bump)
            assert scalar_weights == packed.weights.tolist()


# ----------------------------------------------------------------------
# Fused native steps vs their int-mask oracles
# ----------------------------------------------------------------------

needs_native = pytest.mark.skipif(
    fused_kernels() is None, reason="native extension unavailable"
)


def oracle_separators(graph, limit=None):
    with int_mask_path():
        return list(itertools.islice(minimal_separator_masks(graph), limit))


def fused_separators(graph, limit=None):
    return list(itertools.islice(minimal_separator_masks(graph), limit))


def assert_extend_parity(graph, phi):
    assert extend_masks(graph, phi) == extend_masks_reference(graph, phi)


def assert_materialise_parity(graph, packed=None):
    """Kernel vs int-mask oracle on the answer Extend(∅) of ``graph``."""
    family = extend_masks_reference(graph, ())
    expected = materialise_masks_reference(graph, family)
    assert materialise_masks(graph, family, packed) == expected
    lo, hi, width = expected
    assert all(u < v for u, v in zip(lo, hi))
    assert list(zip(lo, hi)) == sorted(zip(lo, hi))
    return expected


@st.composite
def hypothesis_graphs(draw, max_nodes: int = 10):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    graph = Graph(nodes=range(n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        graph.add_edges(
            draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        )
    # Drop a few vertices so the index space has dead slots.
    dead = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n // 2))
    return graph.without_nodes(dead)


@needs_native
class TestFusedStepParity:
    @settings(max_examples=150, deadline=None)
    @given(hypothesis_graphs())
    def test_hypothesis_graphs(self, graph):
        assert fused_separators(graph) == oracle_separators(graph)
        family = extend_masks_reference(graph, ())
        assert extend_masks(graph, ()) == family
        assert_extend_parity(graph, family[: len(family) // 2])

    @pytest.mark.parametrize("index", range(len(CORPUS)))
    def test_property_corpus(self, index):
        graph = CORPUS[index]
        assert fused_separators(graph, 400) == oracle_separators(graph, 400)
        for core in both_backends(graph) + (
            resolve_graph_backend(graph, "native"),
        ):
            family = extend_masks_reference(core, ())
            assert extend_masks(core, ()) == family
            assert_extend_parity(core, family[::2])

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 129])
    def test_word_boundaries(self, n):
        for p in (0.05, 0.3):
            graph = gnp_random_graph(n, p, seed=n)
            assert fused_separators(graph, 150) == oracle_separators(graph, 150)
            family = extend_masks_reference(graph, ())
            assert extend_masks(graph, ()) == family
            assert_extend_parity(graph, family[1::2])

    def test_phi_from_real_enum_mis_runs(self):
        recorded: list[list[int]] = []

        class Recording(MinimalSeparatorSGR):
            def extend_masks(self, masks):
                recorded.append(list(masks))
                return super().extend_masks(masks)

        for graph in (gnp_random_graph(14, 0.3, seed=5), cycle_graph(9)):
            recorded.clear()
            answers = list(
                itertools.islice(
                    enumerate_maximal_independent_sets(Recording(graph)), 60
                )
            )
            assert answers and len(recorded) > len(answers) // 2
            for phi in recorded:
                assert_extend_parity(graph, phi)

    def test_component_subgraphs_keep_dead_slots(self):
        # Components keep the parent's index space: the high slots of a
        # 1049-slot graph must neither confuse nor inflate the kernels.
        graph = gnp_random_graph(1049, 0.0015, seed=11)
        for nodes in connected_components(graph)[-6:]:
            region = graph.subgraph(nodes)
            packed = PackedGraph(region)
            assert packed.k == region.num_nodes
            assert packed.words == max(1, -(-region.num_nodes // 64))
            assert fused_separators(region, 100) == oracle_separators(
                region, 100
            )
            family = extend_masks_reference(region, ())
            assert extend_masks(region, (), packed=packed) == family
            assert_extend_parity(region, family[::2])
        lone = graph.subgraph([max(graph.nodes())])
        assert PackedGraph(lone).words == 1
        assert extend_masks(lone, ()) == extend_masks_reference(lone, ()) == []

    def test_component_neighbourhoods_match_reference(self):
        rng = random.Random(9)
        for graph in CORPUS:
            packed = PackedGraph(graph)
            core = graph.core
            order = graph.sorted_indices()
            for __ in range(20):
                removed = rng.getrandbits(len(core.adj)) & core.alive
                assert component_neighbourhoods(
                    packed, removed
                ) == component_neighbourhoods_reference(core, removed, order)

    def test_disconnected_graph_yields_empty_separator_last(self):
        graph = cycle_graph(5)
        graph.add_edges([(10, 11), (11, 12), (12, 13), (13, 10)])
        masks = extend_masks(graph, ())
        assert masks == extend_masks_reference(graph, ())
        assert masks[-1] == 0 and 0 not in masks[:-1]

    @pytest.mark.parametrize("written_on", ["native", "int-mask"])
    def test_checkpoint_resumes_across_paths(self, written_on, tmp_path):
        graph = gnp_random_graph(12, 0.3, seed=21)
        full = {
            frozenset(t.fill_edges)
            for t in enumerate_minimal_triangulations(graph)
        }
        path = tmp_path / "cross.ckpt.json"
        engine = EnumerationEngine("serial")
        first_path, second_path = (
            (contextlib.nullcontext, int_mask_path)
            if written_on == "native"
            else (int_mask_path, contextlib.nullcontext)
        )
        with first_path():
            first = engine.run(
                EnumerationJob(
                    graph, checkpoint_path=path, checkpoint_every=3,
                    max_results=len(full) // 3,
                )
            )
        with second_path():
            second = engine.run(
                EnumerationJob(graph, checkpoint_path=path, resume=True)
            )
        got_first = {frozenset(t.fill_edges) for t in first.triangulations}
        got_second = {frozenset(t.fill_edges) for t in second.triangulations}
        assert not got_first & got_second
        assert got_first | got_second == full
        assert second.completed


@needs_native
class TestMaterialiseParity:
    """``materialise_fill`` (fill pairs and width of g[φ] in one C call)
    against its int-mask oracle ``materialise_masks_reference``."""

    @settings(max_examples=150, deadline=None)
    @given(hypothesis_graphs())
    def test_hypothesis_graphs_with_dead_slots(self, graph):
        assert_materialise_parity(graph)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129])
    def test_word_boundaries(self, n):
        for p in (0.05, 0.3):
            graph = gnp_random_graph(n, p, seed=n)
            lo, __, width = assert_materialise_parity(graph)
            if n == 1:
                assert (lo, width) == ([], 0)

    def test_component_subgraphs_keep_parent_index_space(self):
        graph = gnp_random_graph(1049, 0.0015, seed=11)
        for nodes in connected_components(graph)[-6:]:
            region = graph.subgraph(nodes)
            packed = PackedGraph(region)
            assert_materialise_parity(region, packed)
        lone = graph.subgraph([max(graph.nodes())])
        assert materialise_masks(lone, ()) == ([], [], 0)

    def test_every_answer_of_an_enumeration(self):
        graph = gnp_random_graph(16, 0.3, seed=8)
        sgr = MinimalSeparatorSGR(graph)
        packed = PackedGraph(graph)
        for family in itertools.islice(
            enumerate_maximal_independent_sets(sgr), 80
        ):
            masks = [graph.mask_of(separator) for separator in family]
            assert materialise_masks(
                graph, masks, packed
            ) == materialise_masks_reference(graph, masks)

    def test_fill_buffer_grows_with_the_largest_fill(self):
        graph = cycle_graph(200)
        packed = PackedGraph(graph)
        family = extend_masks_reference(graph, ())
        lo, hi, width = materialise_masks(graph, family, packed)
        assert (len(lo), width) == (197, 2)
        capacity = packed._fill.shape[1]
        assert len(lo) <= capacity <= 2 * len(lo)
        again = materialise_masks(graph, family[::-1], packed)
        assert again == (lo, hi, width)
        assert packed._fill.shape[1] == capacity

    def test_not_chordal_raises_on_both_paths(self):
        graph = cycle_graph(5)
        with pytest.raises(NotChordalError):
            materialise_masks(graph, ())
        with pytest.raises(NotChordalError):
            materialise_masks_reference(graph, ())


class TestExtendTierAttribution:
    def test_serial_run_records_extend_tier(self):
        stats = EnumMISStatistics()
        graph = cycle_graph(7)
        count = sum(1 for __ in enumerate_minimal_triangulations(graph, stats=stats))
        assert count == 42  # Catalan(5)
        key = "extend:" + extend_tier()
        assert stats.kernel_tiers == {key: stats.extend_calls}
        assert key == (
            "extend:native" if fused_kernels() is not None else "extend:indexed"
        )

    def test_int_mask_path_records_indexed(self):
        stats = EnumMISStatistics()
        with int_mask_path():
            sgr = MinimalSeparatorSGR(cycle_graph(6), stats=stats)
            list(enumerate_maximal_independent_sets(sgr, stats=stats))
        assert stats.kernel_tiers == {"extend:indexed": stats.extend_calls}

    def test_other_triangulators_run_the_oracle(self):
        assert extend_tier("lb_triang") == "indexed"
        graph = gnp_random_graph(12, 0.3, seed=2)
        assert extend_masks(graph, (), "lb_triang") == extend_masks_reference(
            graph, (), "lb_triang"
        )
