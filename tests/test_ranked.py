"""Unit tests for cost-guided enumeration (repro.core.ranked)."""

from __future__ import annotations

import warnings

import pytest

from helpers import small_random_graphs
from repro.core.enumerate import enumerate_minimal_triangulations
from repro.core.ranked import (
    best_triangulation,
    enumerate_minimal_triangulations_prioritized,
)
from repro.core.treewidth import min_fill_in_exact, treewidth_exact
from repro.engine import EnumerationEngine, EnumerationJob
from repro.graph.generators import cycle_graph, grid_graph
from repro.graph.graph import Graph


class TestCompleteness:
    def test_same_result_set_as_plain(self):
        for g in small_random_graphs(20, max_nodes=8, seed=1401):
            plain = {t.fill_edges for t in enumerate_minimal_triangulations(g)}
            ranked = {
                t.fill_edges
                for t in enumerate_minimal_triangulations_prioritized(g)
            }
            assert plain == ranked

    def test_no_duplicates(self):
        g = cycle_graph(7)
        produced = list(enumerate_minimal_triangulations_prioritized(g))
        assert len(produced) == len(set(produced))

    def test_fill_cost_same_set(self):
        g = grid_graph(2, 4)
        plain = {t.fill_edges for t in enumerate_minimal_triangulations(g)}
        ranked = {
            t.fill_edges
            for t in enumerate_minimal_triangulations_prioritized(g, cost="fill")
        }
        assert plain == ranked

    def test_disconnected_falls_back(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (7, 8), (8, 5)])
        with pytest.warns(RuntimeWarning, match="unranked UP order"):
            produced = list(enumerate_minimal_triangulations_prioritized(g))
        assert len(produced) == 2


class TestUnrankedFallbackWarning:
    """Ranked jobs over several regions say once that they run unranked."""

    GRAPH = Graph(
        edges=[(0, 1), (1, 2), (2, 3), (3, 0), (5, 6), (6, 7), (7, 8), (8, 5)]
    )

    def _run(self, **job):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            answers = EnumerationEngine("serial").run(
                EnumerationJob(self.GRAPH, cost="width", **job)
            ).triangulations
        messages = [
            str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)
        ]
        return answers, messages

    def test_serial_ranked_warns_once(self):
        answers, messages = self._run()
        assert len(answers) == 4
        assert len(messages) == 1
        assert "2 connected components" in messages[0]
        assert "unranked UP order" in messages[0]

    def test_coordinated_ranked_warns_once(self, tmp_path):
        answers, messages = self._run(checkpoint_path=tmp_path / "r.ckpt")
        assert len(answers) == 4
        assert len(messages) == 1
        assert "2 regions" in messages[0]
        assert "unranked UP order" in messages[0]

    def test_connected_graph_does_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ranked = list(enumerate_minimal_triangulations_prioritized(cycle_graph(6)))
            coordinated = EnumerationEngine("serial").run(
                EnumerationJob(
                    cycle_graph(6), cost="width",
                    checkpoint_path=tmp_path / "c.ckpt",
                )
            ).triangulations
        assert len(ranked) == len(coordinated) == 14


class TestOrderBias:
    def test_first_result_is_heuristic_baseline(self):
        # The first answer is Extend(∅) in both variants.
        g = grid_graph(3, 3)
        plain_first = next(iter(enumerate_minimal_triangulations(g)))
        ranked_first = next(
            iter(enumerate_minimal_triangulations_prioritized(g))
        )
        assert plain_first == ranked_first

    def test_optimum_found_early_on_grid(self):
        # With width priority the exact treewidth must appear within
        # the first few percent of the (132-result) enumeration.
        g = grid_graph(3, 3)
        optimum = treewidth_exact(g)
        widths = [
            t.width
            for t in enumerate_minimal_triangulations_prioritized(g, cost="width")
        ]
        assert optimum in widths
        first_hit = widths.index(optimum)
        assert first_hit <= len(widths) // 4

    def test_custom_cost_function(self):
        g = cycle_graph(6)
        produced = list(
            enumerate_minimal_triangulations_prioritized(
                g, cost=lambda t: max(t.fill_edges)
            )
        )
        assert len(produced) == 14

    def test_invalid_cost_name(self):
        with pytest.raises(ValueError, match="unknown cost"):
            list(
                enumerate_minimal_triangulations_prioritized(
                    cycle_graph(4), cost="beauty"
                )
            )


class TestBestTriangulation:
    def test_exhaustive_finds_exact_optimum(self):
        for g in small_random_graphs(10, max_nodes=7, seed=1409):
            by_width = best_triangulation(g, cost="width", max_results=None)
            assert by_width.width == treewidth_exact(g)
            by_fill = best_triangulation(g, cost="fill", max_results=None)
            assert by_fill.fill == min_fill_in_exact(g)

    def test_bounded_search_returns_valid_result(self):
        g = grid_graph(3, 4)
        result = best_triangulation(g, max_results=10)
        assert result.is_minimal()

    def test_budgeted_no_worse_than_first(self):
        g = grid_graph(3, 3)
        first = next(iter(enumerate_minimal_triangulations(g)))
        found = best_triangulation(g, max_results=30)
        assert found.width <= first.width
