#!/usr/bin/env python
"""Microbenchmark: int-mask vs packed-kernel ``Extend`` pipeline.

Isolates the paper's ``Extend`` procedure — saturate ``g[φ]``,
triangulate it, extract the minimal separators of the result via the
clique forest — which PR 3 left as the dominant serial cost of every
enumeration step.  The same graph is measured on both graph-core
backends:

* ``indexed`` — the single-int bitmask core; MCS-M / LB-Triang / the
  clique-forest scan run their int-mask reference implementations;
* ``numpy``   — the packed ``uint64`` word-matrix core; the same
  algorithms route through the vectorized kernels of
  :mod:`repro.graph.bitset_np` (``PackedMCSQueue`` argmax selection,
  ``weight_level_rows`` threshold levels, ``union_rows`` /
  ``frontier_sweep`` neighbourhood unions, ``saturate_batch`` fill
  extraction);
* ``native``  — the same packed layout dispatched to the compiled C
  kernels of :mod:`repro.graph._native.native` (PR 6); skipped with a
  note when the extension is unavailable.

The backend list is an axis: ``--backends indexed,numpy,native``
measures each backend's per-step pipeline
(:func:`repro.core.extend.extend_masks_reference`) on the same graph
and reports speedups relative to the ``indexed`` reference.  For MCS-M
a ``fused`` column adds the one-call native Extend
(:func:`repro.core.extend.extend_masks`) when the extension loads.

The benchmark graph per size is *near-chordal*: a seeded random
chordal graph with 1% of its edges deleted.  That is the distribution
``Extend`` actually sees inside EnumMIS — ``g[φ]`` is already close to
triangulated once a few separators are saturated — and it keeps the
fill (whose label materialisation costs the same on both backends)
from drowning the kernel comparison.  Deep, narrow graphs (long
cycles) are the packed tier's known worst case: their frontier sweeps
have width ≤ 2, so there is nothing to vectorize and the per-round
dispatch checks cost a few percent.

``--check`` verifies the packed kernels against the int-mask oracles —
identical MCS-M fill + ordering, LB-Triang fills for every heuristic,
PEO verdicts, chordal separator sets, and ``Extend`` outputs — on the
seeded property corpus and exits non-zero on any mismatch: the
hardware-independent correctness gate run in CI.  When the compiled
extension loads, the gate also pins the fused native steps against
their int-mask oracles: ``extend_mcs_m`` (``extend_masks`` vs
``extend_masks_reference``, φ = ∅ and φ = half of that result, same
masks in the same order), ``materialise_fill`` (``materialise_masks``
vs ``materialise_masks_reference`` on the answer φ = that result: the
same fill pairs in the same order and the same width) and
``component_neighbourhoods`` (the ``minimal_separator_masks`` yield
order, first 300 separators).  The gate runs on the
backend named by ``--graph-backend`` (default ``numpy``; CI also runs
it with ``--graph-backend native``).  ``--record LABEL`` appends the
measurements (with the ``cores`` field convention of the PR 2/3
benchmarks) to ``baselines.json``::

    PYTHONPATH=src python benchmarks/microbench_extend.py
    PYTHONPATH=src python benchmarks/microbench_extend.py --check
    PYTHONPATH=src python benchmarks/microbench_extend.py \\
        --check --graph-backend native
    PYTHONPATH=src python benchmarks/microbench_extend.py \\
        --record extend-kernel-pr6-native
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

from repro.chordal.chordal_separators import minimal_separators_of_chordal
from repro.chordal.minimal_separators import minimal_separator_masks
from repro.chordal.peo import (
    is_perfect_elimination_ordering,
    maximum_cardinality_search,
)
from repro.chordal.triangulate import lb_triang, mcs_m
from repro.core.extend import (
    extend_masks,
    extend_masks_reference,
    materialise_masks,
    materialise_masks_reference,
)
from repro.graph import fused_kernels, resolve_graph_backend
from repro.graph.generators import (
    cycle_graph,
    gnp_random_graph,
    random_chordal_graph,
)

BASELINES_PATH = Path(__file__).parent / "baselines.json"

SEED = 12345
DELETE_FRACTION = 0.01


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def near_chordal_graph(n: int, seed: int = SEED):
    """A random chordal graph with 1% of its edges deleted."""
    graph = random_chordal_graph(n, 0.05, seed=seed)
    rng = random.Random(seed)
    edges = graph.edges()
    for u, v in rng.sample(edges, max(1, int(len(edges) * DELETE_FRACTION))):
        graph.remove_edge(u, v)
    return graph


def measure(fn, repeats: int) -> float:
    samples = []
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_check(backend: str = "numpy") -> int:
    """Packed kernels vs int-mask oracles on the property corpus."""
    if backend == "native":
        from repro.graph._native import native

        if not native.available():
            print(
                f"FAILED: native backend requested but unavailable "
                f"({native.kernel_info()['reason']})"
            )
            return 1
    rng = random.Random(7)
    corpus = [
        gnp_random_graph(
            rng.randint(4, 14),
            rng.choice([0.2, 0.35, 0.5, 0.7]),
            seed=1000 + index,
        )
        for index in range(10)
    ]
    corpus += [
        gnp_random_graph(48, 0.15, seed=21),
        gnp_random_graph(96, 0.06, seed=22),
        cycle_graph(64),
        near_chordal_graph(128, seed=23),
    ]
    chordal = [
        random_chordal_graph(rng.randint(3, 20), d, seed=500 + i)
        for i, d in enumerate([0.2, 0.4, 0.7, 1.0, 0.3, 0.5])
    ] + [random_chordal_graph(90, 0.15, seed=24)]

    failures = 0
    for index, graph in enumerate(corpus):
        packed = resolve_graph_backend(graph, backend)
        pairs = [
            ("mcs_m", lambda g: mcs_m(g)),
            ("lb_triang:min_fill", lambda g: lb_triang(g)),
            (
                "lb_triang:min_degree",
                lambda g: lb_triang(g, heuristic="min_degree"),
            ),
            (
                "lb_triang:natural",
                lambda g: lb_triang(g, heuristic="natural"),
            ),
            ("extend", lambda g: extend_masks_reference(g, ())),
        ]
        for name, fn in pairs:
            if fn(graph) != fn(packed):
                failures += 1
                print(f"graph {index}: MISMATCH in {name}")
        order = graph.nodes()
        rng.shuffle(order)
        mcs_order = list(reversed(maximum_cardinality_search(graph)))
        for candidate in (order, mcs_order):
            if is_perfect_elimination_ordering(
                graph, candidate
            ) != is_perfect_elimination_ordering(packed, candidate):
                failures += 1
                print(f"graph {index}: MISMATCH in peo-check")
    for index, graph in enumerate(chordal):
        packed = resolve_graph_backend(graph, backend)
        if minimal_separators_of_chordal(
            graph
        ) != minimal_separators_of_chordal(packed):
            failures += 1
            print(f"chordal graph {index}: MISMATCH in separator extraction")
    fused = fused_kernels() is not None
    if fused:
        for index, graph in enumerate(corpus):
            mismatches = check_fused(graph, resolve_graph_backend(graph, backend))
            if mismatches:
                failures += mismatches
                print(f"graph {index}: MISMATCH in a fused native step")
    if failures:
        print(f"FAILED: {failures} packed-vs-oracle mismatches")
        return 1
    print(
        f"OK — packed ({backend}) Extend kernels match the int-mask "
        f"oracles on {len(corpus)} graphs + {len(chordal)} chordal graphs"
    )
    if fused:
        print(
            "OK — fused extend_mcs_m, materialise_fill and "
            "component_neighbourhoods match their int-mask oracles "
            "(same masks, fill pairs and widths, same order)"
        )
    else:
        print("note: native extension unavailable — fused rows skipped")
    return 0


def check_fused(graph, packed) -> int:
    """Mismatches of the fused native steps against their oracles."""
    failures = 0
    family = extend_masks_reference(graph, ())
    for phi in ((), family[: max(1, len(family) // 2)]):
        if extend_masks(packed, phi) != extend_masks_reference(graph, phi):
            failures += 1
            print(f"  extend_mcs_m differs for |phi|={len(phi)}")
    if materialise_masks(packed, family) != materialise_masks_reference(
        graph, family
    ):
        failures += 1
        print("  materialise_fill differs from its oracle")
    # The oracle order: the same generator with the fused step disabled.
    module = sys.modules[minimal_separator_masks.__module__]
    fused_order = list(itertools.islice(minimal_separator_masks(packed), 300))
    module.fused_kernels = lambda: None
    try:
        oracle_order = list(
            itertools.islice(minimal_separator_masks(graph), 300)
        )
    finally:
        module.fused_kernels = fused_kernels
    if fused_order != oracle_order:
        failures += 1
        print("  component_neighbourhoods: separator yield order differs")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes",
        default="300,1500,2500",
        help="comma-separated graph sizes (default: 300,1500,2500)",
    )
    parser.add_argument(
        "--triangulators",
        default="mcs_m,lb_triang",
        help="heuristics to measure (default: mcs_m,lb_triang)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="repetitions; the median is reported (default: 3)",
    )
    parser.add_argument(
        "--backends",
        default="indexed,numpy,native",
        help="comma-separated backend axis for the timing mode "
        "(default: indexed,numpy,native; native is skipped with a "
        "note when the extension is unavailable)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the packed kernels match the int-mask oracles on "
        "the property corpus; exit 1 on mismatch (correctness gate, "
        "no timing)",
    )
    parser.add_argument(
        "--graph-backend",
        default="numpy",
        choices=("numpy", "native"),
        help="packed backend the --check gate pins against the "
        "int-mask oracles (default: numpy)",
    )
    parser.add_argument(
        "--record",
        metavar="LABEL",
        help="append the measurements to baselines.json under LABEL",
    )
    args = parser.parse_args()

    if args.check:
        return run_check(args.graph_backend)

    sizes = [int(size) for size in args.sizes.split(",") if size]
    triangulators = [t for t in args.triangulators.split(",") if t]
    backends = [b for b in args.backends.split(",") if b]
    if "native" in backends:
        from repro.graph._native import native

        if not native.available():
            print(
                f"note: native backend unavailable "
                f"({native.kernel_info()['reason']}) — skipped"
            )
            backends = [b for b in backends if b != "native"]
    results: dict[str, dict] = {}
    for n in sizes:
        graph = near_chordal_graph(n)
        resolved = {
            backend: resolve_graph_backend(graph, backend)
            for backend in backends
        }
        per_size: dict[str, dict] = {}
        for name in triangulators:
            row: dict[str, float] = {}
            for backend in backends:
                instance = resolved[backend]
                seconds = measure(
                    lambda: extend_masks_reference(instance, (), name),
                    args.repeats,
                )
                row[f"{backend}_seconds"] = round(seconds, 6)
            reference = row.get(
                f"{backends[0]}_seconds", next(iter(row.values()))
            )
            for backend in backends[1:]:
                row[f"speedup_{backend}"] = round(
                    reference / row[f"{backend}_seconds"], 2
                )
            fused = ""
            if name == "mcs_m" and fused_kernels() is not None:
                seconds = measure(
                    lambda: extend_masks(graph, (), name), args.repeats
                )
                row["fused_seconds"] = round(seconds, 6)
                row["speedup_fused"] = round(reference / seconds, 2)
                fused = f"  fused {seconds * 1e3:9.3f}ms ({row['speedup_fused']:.2f}x)"
            per_size[name] = row
            cells = "  ".join(
                f"{backend} {row[f'{backend}_seconds'] * 1e3:9.3f}ms"
                for backend in backends
            )
            ratios = "  ".join(
                f"{backend} {row[f'speedup_{backend}']:.2f}x"
                for backend in backends[1:]
            )
            print(
                f"n={n:<5} {name:<10} {cells}  → vs {backends[0]}: "
                f"{ratios}{fused}"
            )
        results[str(n)] = per_size

    if args.record:
        baselines = json.loads(BASELINES_PATH.read_text())
        baselines[args.record] = {
            "repeats": args.repeats,
            "cores": usable_cores(),
            "graph": {
                "family": "near-chordal",
                "density": 0.05,
                "deleted": DELETE_FRACTION,
                "seed": SEED,
            },
            "note": "Extend(∅) pipeline (triangulate + clique-forest "
            "extraction), backend axis on the same graph; speedups are "
            "relative to the first backend listed",
            "backends": backends,
            "sizes": results,
        }
        BASELINES_PATH.write_text(json.dumps(baselines, indent=2) + "\n")
        print(f"recorded as '{args.record}' in {BASELINES_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
