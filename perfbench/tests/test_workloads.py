"""Workload inputs are a function of the seeds alone."""

import shutil
import subprocess
import sys
from pathlib import Path

import workloads


def edge_sets(cases):
    return {case.name: frozenset(map(frozenset, case.graph.edges())) for case in cases}


def test_same_seeds_same_inputs():
    for name in workloads.WORKLOADS:
        first, again = workloads.build(name, 3, 2), workloads.build(name, 3, 2)
        assert [c.name for c in first] == [c.name for c in again]
        assert edge_sets(first) == edge_sets(again)
        assert [c.minimality_sample for c in first] == [c.minimality_sample for c in again]


def test_seed_orders_the_graphs_but_keeps_them():
    for name in workloads.WORKLOADS:
        orders = {tuple(c.name for c in workloads.build(name, seed)) for seed in range(6)}
        assert edge_sets(workloads.build(name, 0)) == edge_sets(workloads.build(name, 5))
        if name != "tpch-sharded":
            assert len(orders) > 1


def test_default_graph_seed_reproduces_the_named_graphs():
    from repro.graph.generators import gnp_random_graph
    from repro.workloads import pgm_suites, promedas_suite

    cases = {c.name: c.graph for c in workloads.build("acceptance", 7)}
    canonical = gnp_random_graph(30, 0.35, seed=12345)
    assert set(map(frozenset, cases["gnp30_s12345"].edges())) == set(
        map(frozenset, canonical.edges())
    )

    named = [g for suite in pgm_suites(scale=0.06).values() for __, g in suite]
    named.append(promedas_suite(count=3, seed=2018)[1][1])
    built = [c.graph for c in workloads.pgm(0)]
    assert [g.num_nodes for g in built] == [g.num_nodes for g in named]
    assert all(
        set(map(frozenset, b.edges())) == set(map(frozenset, g.edges()))
        for b, g in zip(built, named)
    )


def test_graph_seed_redraws_the_random_graphs():
    a, b = edge_sets(workloads.acceptance(0)), edge_sets(workloads.acceptance(1))
    assert len(a) == len(b) == workloads.ACCEPTANCE_GRAPHS
    assert not set(a.values()) & set(b.values())
    for c0, c1 in zip(workloads.pgm(0), workloads.pgm(1)):
        if c0.graph.num_nodes >= workloads.PGM_LARGE_NODES:
            assert edge_sets([c0]) == edge_sets([c1])
    assert edge_sets(workloads.pgm(0)) != edge_sets(workloads.pgm(1))
    assert edge_sets(workloads.tpch(0)) == edge_sets(workloads.tpch(4))


def test_tpch_counts_and_digests_cover_every_query():
    assert sum(workloads.TPCH_COUNTS.values()) == 1730
    assert set(workloads.TPCH_DIGESTS) == set(workloads.TPCH_COUNTS)


def test_minimality_sample_skips_large_graphs():
    for case in workloads.build("pgm", 1):
        large = case.graph.num_nodes > workloads.MINIMALITY_MAX_NODES
        assert (case.minimality_sample == ()) == large


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = Path(workloads.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, str(tmp_path / bench.name / "run.py"), "--workload", "tpch"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert out.stdout == ""
