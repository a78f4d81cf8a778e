"""Unit tests for the Triangulation value object (repro.core.triangulation)."""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from helpers import int_mask_path
from repro.chordal.chordal_separators import minimal_separators_of_chordal
from repro.core.enumerate import enumerate_minimal_triangulations
from repro.core.ranked import enumerate_minimal_triangulations_prioritized
from repro.core.triangulation import Triangulation
from repro.engine import EnumerationEngine, EnumerationJob
from repro.graph import fused_kernels
from repro.graph.generators import cycle_graph, gnp_random_graph, path_graph
from repro.graph.graph import Graph


class TestConstruction:
    def test_fill_canonicalised_and_sorted(self):
        g = cycle_graph(5)
        t = Triangulation(g, ((3, 0), (2, 0)))
        assert t.fill_edges == ((0, 2), (0, 3))

    def test_from_chordal_supergraph(self):
        g = cycle_graph(4)
        h = g.copy()
        h.add_edge(0, 2)
        t = Triangulation.from_chordal_supergraph(g, h)
        assert t.fill_edges == ((0, 2),)
        assert t.graph == h

    def test_graph_materialisation(self):
        g = cycle_graph(4)
        t = Triangulation(g, ((0, 2),))
        assert t.graph.has_edge(0, 2)
        assert t.base is g
        # The base is not mutated.
        assert not g.has_edge(0, 2)


class TestMeasures:
    def test_width_and_fill(self):
        g = cycle_graph(6)
        t = Triangulation(g, ((0, 2), (0, 3), (0, 4)))
        assert t.fill == 3
        assert t.width == 2  # fan triangulation: all triangles

    def test_width_of_chordal_base(self):
        g = path_graph(5)
        t = Triangulation(g, ())
        assert t.width == 1
        assert t.fill == 0

    def test_minimal_separators_identity(self):
        # MinSep(h) must match the direct extraction (Parra-Scheffler).
        g = cycle_graph(5)
        t = Triangulation(g, ((0, 2), (0, 3)))
        assert t.minimal_separators == frozenset(
            minimal_separators_of_chordal(t.graph)
        )

    def test_clique_forest_cached(self):
        g = cycle_graph(4)
        t = Triangulation(g, ((1, 3),))
        assert t.clique_forest is t.clique_forest

    def test_is_minimal_true_and_false(self):
        g = cycle_graph(4)
        assert Triangulation(g, ((0, 2),)).is_minimal()
        assert not Triangulation(g, ((0, 2), (1, 3))).is_minimal()


class TestEqualityAndRepr:
    def test_equality_by_fill(self):
        g = cycle_graph(4)
        assert Triangulation(g, ((0, 2),)) == Triangulation(g, ((2, 0),))
        assert Triangulation(g, ((0, 2),)) != Triangulation(g, ((1, 3),))

    def test_hashable(self):
        g = cycle_graph(4)
        bag = {Triangulation(g, ((0, 2),)), Triangulation(g, ((0, 2),))}
        assert len(bag) == 1

    def test_eq_other_type(self):
        g = cycle_graph(4)
        assert Triangulation(g, ()) != "something"

    def test_repr(self):
        g = cycle_graph(4)
        text = repr(Triangulation(g, ((0, 2),)))
        assert "width=2" in text and "fill=1" in text


class TestTreeDecompositionBridge:
    def test_tree_decomposition_is_valid_and_proper(self):
        g = cycle_graph(5)
        t = Triangulation(g, ((0, 2), (0, 3)))
        decomposition = t.tree_decomposition()
        decomposition.validate(g)
        assert decomposition.is_proper(g)
        assert decomposition.width == t.width


# ----------------------------------------------------------------------
# Answers built by the mask-level materialiser
# ----------------------------------------------------------------------

@contextlib.contextmanager
def tier(name: str):
    """Run with the fused native steps (``native``) or their int-mask
    oracles (``int-mask``, what ``REPRO_NATIVE_DISABLE=1`` selects)."""
    if name == "native" and fused_kernels() is None:
        pytest.skip("native extension unavailable")
    with int_mask_path() if name == "int-mask" else contextlib.nullcontext():
        yield


def _relabel(graph: Graph, label) -> Graph:
    return Graph(
        nodes=[label(u) for u in graph.nodes()],
        edges=[(label(u), label(v)) for u, v in graph.edges()],
    )


def _labelled_graphs() -> dict[str, Graph]:
    base = gnp_random_graph(9, 0.35, seed=23)
    # Two components joined at nothing, plus a clique-separated pair of
    # cycles (an atom split) in the second half of the index space.
    two = gnp_random_graph(8, 0.4, seed=5)
    two.add_edges(
        [(20, 21), (21, 22), (22, 23), (23, 20), (20, 22), (22, 24),
         (24, 25), (25, 26), (26, 20)]
    )
    return {
        "int": base,
        "int-disconnected": two,
        "mixed-int-str": _relabel(two, lambda u: u if u % 2 else f"v{u}"),
        "tuple": _relabel(two, lambda u: ("d", u)),
        "mixed-tuple": _relabel(
            two, lambda u: ("bg", u) if u % 3 == 0 else (u // 4, u % 4)
        ),
    }


LABELLED = _labelled_graphs()


def assert_answers_rebuild(answers) -> int:
    """Every answer equals a Triangulation rebuilt from its fill."""
    count = 0
    for answer in answers:
        rebuilt = Triangulation(answer.base, answer.fill_edges)
        assert answer.fill_edges == rebuilt.fill_edges
        assert type(answer.fill_edges) is tuple
        assert answer.width == rebuilt.width
        assert answer.fill == rebuilt.fill
        count += 1
    assert count
    return count


class TestRankLabels:
    def test_canonical_label_shapes(self):
        assert LABELLED["int"].rank_labels()[1]
        assert LABELLED["tuple"].rank_labels()[1]
        assert not LABELLED["mixed-int-str"].rank_labels()[1]
        assert not LABELLED["mixed-tuple"].rank_labels()[1]
        assert not Graph(nodes=[1.5, 2.5]).rank_labels()[1]

    def test_table_follows_rank_order(self):
        graph = LABELLED["mixed-tuple"]
        labels, __ = graph.rank_labels()
        assert labels == [graph.label_of(i) for i in graph.sorted_indices()]
        graph = graph.copy()
        graph.add_node(("bg", 99))
        assert ("bg", 99) in graph.rank_labels()[0]


@pytest.mark.parametrize("tier_name", ["native", "int-mask"])
@pytest.mark.parametrize("label_kind", sorted(LABELLED))
class TestMaterialisedAnswers:
    @pytest.mark.parametrize("decompose", ["none", "components", "atoms"])
    @pytest.mark.parametrize("mode", ["UG", "UP"])
    def test_serial(self, tier_name, label_kind, decompose, mode):
        graph = LABELLED[label_kind]
        with tier(tier_name):
            assert_answers_rebuild(
                enumerate_minimal_triangulations(
                    graph, mode=mode, decompose=decompose
                )
            )

    def test_ranked(self, tier_name, label_kind):
        graph = LABELLED[label_kind]
        with tier(tier_name), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert_answers_rebuild(
                enumerate_minimal_triangulations_prioritized(graph, cost="fill")
            )
            assert_answers_rebuild(
                EnumerationEngine("serial").stream(
                    EnumerationJob(graph, cost="width", decompose="none")
                )
            )

    def test_inline_coordinator_checkpoint_and_resume(
        self, tier_name, label_kind, tmp_path
    ):
        graph = LABELLED[label_kind]
        path = tmp_path / "answers.ckpt.json"
        engine = EnumerationEngine("serial")
        with tier(tier_name):
            first = engine.run(
                EnumerationJob(
                    graph, checkpoint_path=path, checkpoint_every=2,
                    max_results=5,
                )
            )
            second = engine.run(
                EnumerationJob(graph, checkpoint_path=path, resume=True)
            )
        answers = first.triangulations + second.triangulations
        assert_answers_rebuild(answers)
        plain = [t.fill_edges for t in enumerate_minimal_triangulations(graph)]
        assert sorted(map(repr, plain)) == sorted(
            repr(t.fill_edges) for t in answers
        )

    def test_tiers_agree_answer_by_answer(self, tier_name, label_kind):
        graph = LABELLED[label_kind]
        with tier("native" if fused_kernels() is not None else "int-mask"):
            reference = [
                (t.fill_edges, t.width, t.fill)
                for t in enumerate_minimal_triangulations(graph, mode="UP")
            ]
        with tier(tier_name):
            got = [
                (t.fill_edges, t.width, t.fill)
                for t in enumerate_minimal_triangulations(graph, mode="UP")
            ]
        assert got == reference


def test_native_disable_gives_identical_answers(tmp_path):
    """``REPRO_NATIVE_DISABLE=1`` in a fresh process: the same answers
    as this process (whichever tier it runs), each with the same fill
    tuple, width and fill.  Answer order is compared as a set: with
    ``str`` in the labels it follows the process's hash seed."""
    graph = LABELLED["mixed-tuple"]
    script = (
        "import sys\n"
        "from repro.core.enumerate import enumerate_minimal_triangulations\n"
        "from repro.graph import fused_kernels\n"
        "from repro.graph.graph import Graph\n"
        f"graph = Graph(nodes={graph.nodes()!r}, edges={graph.edges()!r})\n"
        "assert fused_kernels() is None\n"
        "for t in enumerate_minimal_triangulations(graph):\n"
        "    print(repr((t.fill_edges, t.width, t.fill)))\n"
    )
    env = dict(os.environ, REPRO_NATIVE_DISABLE="1")
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    ).stdout.splitlines()
    rebuilt = Graph(nodes=graph.nodes(), edges=graph.edges())
    expected = [
        repr((t.fill_edges, t.width, t.fill))
        for t in enumerate_minimal_triangulations(rebuilt)
    ]
    assert sorted(out) == sorted(expected)
