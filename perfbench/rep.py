"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition so that set-up time
and peak RSS are those of a new process.  It imports the program from
``<root>/src``, builds the workload's graphs, resolves their graph
cores and loads the native kernels (set-up), warms the engine up on a
small graph, then enumerates every case through the public engine API,
checking each answer between answers with the clock paused.  The measurements go to ``--out`` as JSON.

Modes: ``full`` (the default) runs the workload; ``setup`` stops after
set-up; ``build`` only loads (and if needed compiles) the native
kernels and writes the host block.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _rss_bytes() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _children_cpu_ns() -> int:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int((usage.ru_utime + usage.ru_stime) * 1e9)


def _import_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import repro

    origin = Path(repro.__file__).resolve()
    if not origin.is_relative_to((root / "src").resolve()):
        raise SystemExit(f"repro imported from {origin}, not from {root / 'src'}")


def _run_case(case, clock, tracer, scratch: Path, total_stats):
    """Enumerate one case; returns its record (answers checked inline)."""
    import checks
    from repro.engine import EnumerationEngine, EnumerationJob
    from repro.graph.bitset_np import core_backend_name
    from repro.sgr.enum_mis import EnumMISStatistics

    graph = case.graph
    checker = checks.AnswerChecker(graph.nodes(), graph.edges())
    stats = EnumMISStatistics()
    checkpoint = None
    if case.checkpoint:
        checkpoint = scratch / f"ckpt-{os.getpid()}-{case.name}.json"
        for stale in (checkpoint, checkpoint.with_name(checkpoint.name + ".1")):
            stale.unlink(missing_ok=True)
    job = EnumerationJob(
        graph, max_results=case.limit, checkpoint_path=checkpoint
    )
    engine = EnumerationEngine(case.backend, workers=case.workers)
    sample = {}
    width_best = fill_best = None
    rss_first = rss_last = 0
    delays = []
    first = None

    opened = clock.now()
    stream = engine.stream(job, stats)
    previous = opened
    index = 0
    while True:
        if tracer is not None:
            tracer.answer = index
            frame = tracer.begin("request")
        try:
            triangulation = next(stream)
        except StopIteration:
            if tracer is not None:
                tracer.end(frame, 0)
            break
        width, fill = triangulation.width, triangulation.fill
        now = clock.now()
        if tracer is not None:
            tracer.end(frame)
        if first is None:
            first = now - opened
        else:
            delays.append(now - previous)
        previous = now
        with clock.excluded():
            checker.check(triangulation.fill_edges)
            width_best = width if width_best is None else min(width_best, width)
            fill_best = fill if fill_best is None else min(fill_best, fill)
            if index in case.minimality_sample:
                sample[index] = triangulation
            rss_last = _rss_bytes()
            if index == 0:
                rss_first = rss_last
        index += 1
    wall = clock.now() - opened

    with clock.excluded():
        failures = list(checker.failures)
        for at, triangulation in sorted(sample.items()):
            if not triangulation.is_minimal():
                failures.append(f"answer {at} is not a minimal triangulation")
        failed = len(failures)
        attempted = index
        expected = case.expected_count
        if expected is not None and index != expected:
            failures.append(f"{index} answers, expected {expected}")
            failed += abs(expected - index)
            attempted = max(index, expected)
        if case.expected_digest is not None:
            digest = checks.set_digest(checker.keys)
            if digest != case.expected_digest:
                failures.append(f"answer-set digest {digest} != recorded")
                failed = max(failed, 1)
        if checkpoint is not None:
            for leftover in (checkpoint, checkpoint.with_name(checkpoint.name + ".1")):
                leftover.unlink(missing_ok=True)
        total_stats.add(stats)
    return {
        "name": case.name,
        "nodes": graph.num_nodes,
        "backend": case.backend,
        "core": core_backend_name(graph.core),
        "kernel_tiers": dict(stats.kernel_tiers),
        "answers": index,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "wall_ns": wall,
        "first_ns": first or 0,
        "delays_ns": delays,
        "width_best": width_best or 0,
        "fill_best": fill_best or 0,
        "rss_growth": max(0, rss_last - rss_first),
    }


def _warm_up(case, scratch: Path) -> None:
    """Enumerate a 6-cycle the way ``case`` is enumerated, untimed.

    Lazy imports and first calls (engine modules, a pool's first batch,
    the first checkpoint write) would otherwise land in whichever graph
    the seed puts first: up to 10 ms of a 50-ms PGM graph and a quarter
    of tpch-sharded's time to first answer.
    """
    from repro.engine import EnumerationEngine, EnumerationJob
    from repro.graph import resolve_graph_backend
    from repro.graph.generators import cycle_graph
    from repro.sgr.enum_mis import EnumMISStatistics

    checkpoint = scratch / f"ckpt-{os.getpid()}-warm-up.json" if case.checkpoint else None
    job = EnumerationJob(
        resolve_graph_backend(cycle_graph(6), "auto"), checkpoint_path=checkpoint
    )
    engine = EnumerationEngine(case.backend, workers=case.workers)
    for __ in engine.stream(job, EnumMISStatistics()):
        pass
    if checkpoint is not None:
        for leftover in (checkpoint, checkpoint.with_name(checkpoint.name + ".1")):
            leftover.unlink(missing_ok=True)


def _layers(tracer, cases, stats, wall_ns: int, sharded: bool, workers: int) -> tuple:
    """Per-layer figures of a traced repetition, and the cross-checks."""
    import tracing

    split = tracing.layer_split(tracer.spans, wall_ns)
    own = tracing.self_times(tracer.spans)
    units_of: dict[str, int] = {}
    spans_of: dict[str, int] = {}
    for __, name, __, __, __, __, units in tracer.spans:
        units_of[name] = units_of.get(name, 0) + units
        spans_of[name] = spans_of.get(name, 0) + 1

    def busy(layer: str) -> float:
        return split.get(layer, {}).get("busy_ns", 0) / 1e9

    def calls(layer: str) -> int:
        return split.get(layer, {}).get("calls", 0)

    wall = wall_ns / 1e9
    answers = sum(case["answers"] for case in cases)
    crosschecks = [("sepgen.calls", calls("sepgen"), stats.nodes_generated)]
    if sharded:
        # Workers run Extend and the crossing oracle; only their merged
        # counters see that work.
        extend_busy = stats.extend_time_ns / 1e9
        crossing_busy = stats.crossing_time_ns / 1e9
        crossing_calls = stats.edge_oracle_calls
        capacity = wall * workers
        batches = spans_of.get("wire.encode", 0)
        crosschecks.append(("ipc.batches", batches, stats.batches_dispatched))
    else:
        extend_busy = busy("extend")
        crossing_busy = busy("crossing")
        crossing_calls = calls("crossing")
        capacity = wall
        batches = 0
        crosschecks.append(("extend.calls", calls("extend"), stats.extend_calls))
        crosschecks.append(("crossing.calls", crossing_calls, stats.edge_oracle_calls))
    lookups = stats.edge_cache_hits + stats.edge_cache_misses
    growth = sum(case["rss_growth"] for case in cases)
    later = sum(max(0, case["answers"] - 1) for case in cases)
    layers = {
        "sepgen.calls": calls("sepgen"),
        "sepgen.busy_s": busy("sepgen"),
        "sepgen.share": busy("sepgen") / wall,
        "extend.calls": stats.extend_calls,
        "extend.busy_s": extend_busy,
        "extend.mean_us": extend_busy / max(stats.extend_calls, 1) * 1e6,
        "extend.share": extend_busy / capacity,
        "extend.yield_ratio": answers / max(stats.extend_calls, 1),
        "crossing.calls": crossing_calls,
        "crossing.busy_s": crossing_busy,
        "crossing.share": crossing_busy / capacity,
        "crossing.cache_hit_ratio": stats.edge_cache_hits / lookups if lookups else 0.0,
        "driver.self_s": busy("driver"),
        "driver.share": busy("driver") / wall,
        "driver.duplicates": stats.duplicates_suppressed,
        "driver.rss_kib_per_answer": growth / 1024 / max(later, 1),
        "materialise.calls": calls("materialise"),
        "materialise.busy_s": busy("materialise"),
        "materialise.share": busy("materialise") / wall,
        "ipc.batches": batches,
        "ipc.pairs_per_batch": units_of.get("wire.encode", 0) / batches if batches else 0.0,
        "ipc.bytes_per_batch": stats.ipc_payload_bytes / batches if batches else 0.0,
        "ipc.roundtrip_mean_ms": (
            stats.batch_roundtrip_ns / stats.batches_dispatched / 1e6
            if stats.batches_dispatched else 0.0
        ),
        "ipc.wait_s": busy("ipc"),
        "ipc.retries": stats.batch_retries,
        "wire.encode_s": own.get("wire.encode", 0) / 1e9,
        "wire.decode_s": own.get("wire.decode", 0) / 1e9,
        "ipc.worker_busy_share": (
            (extend_busy + crossing_busy) / capacity if sharded else 0.0
        ),
        "checkpoint.saves": spans_of.get("checkpoint", 0),
        "checkpoint.busy_s": busy("checkpoint"),
        "checkpoint.bytes": tracer.bytes_written,
    }
    checks = [
        {"name": name, "spans": got, "counter": want, "ok": got == want}
        for name, got, want in crosschecks
    ]
    # Self times add up to the top-level spans, which fit in the wall
    # time; the driver's remainder is therefore never negative.
    top = sum(end - start for __, __, start, end, parent, __, __ in tracer.spans if parent is None)
    checks.append({"name": "spans.self_sum_ns", "spans": sum(own.values()), "counter": top,
                   "ok": sum(own.values()) == top})
    checks.append({"name": "spans.within_wall_ns", "spans": top, "counter": wall_ns,
                   "ok": top <= wall_ns})
    return layers, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--graph-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--mode", choices=("full", "setup", "build"), default="full")
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    root = Path(args.root)
    out = Path(args.out)

    _import_program(root)
    if args.mode == "build":
        import host

        out.write_text(json.dumps({"host": host.describe(root)}))
        return 0

    import tracing
    import workloads
    from repro.graph import resolve_graph_backend
    from repro.graph._native import native
    from repro.sgr.enum_mis import EnumMISStatistics

    cases = workloads.build(args.workload, args.seed, args.graph_seed)
    started = time.perf_counter_ns()
    for case in cases:
        case.graph = resolve_graph_backend(case.graph, "auto")
    native.available()
    resolve_ns = time.perf_counter_ns() - started
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    record = {"setup_s": setup_s, "resolve_s": resolve_ns / 1e9}
    if args.mode == "setup":
        out.write_text(json.dumps(record))
        return 0

    _warm_up(cases[0], out.parent)
    clock = tracing.Clock()
    tracer = tracing.Tracer(clock) if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
    stats = EnumMISStatistics()
    cpu_start = clock.cpu()
    children_start = _children_cpu_ns()
    results = [
        _run_case(case, clock, tracer, out.parent, stats) for case in cases
    ]
    cpu_ns = clock.cpu() - cpu_start + _children_cpu_ns() - children_start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    wall_ns = sum(case["wall_ns"] for case in results)
    answers = sum(case["answers"] for case in results)
    record.update(
        answers=answers,
        attempted=sum(case["attempted"] for case in results),
        failed=sum(case["failed"] for case in results),
        wall_s=wall_ns / 1e9,
        cpu_s=cpu_ns / 1e9,
        peak_rss_mb=peak_kib / 1024,
        stats=stats.snapshot(),
        cases=results,
    )
    if tracer is not None:
        sharded = any(case.backend == "sharded" for case in cases)
        workers = max((case.workers or 1) for case in cases)
        layers, crosschecks = _layers(
            tracer, results, stats, wall_ns, sharded, workers
        )
        record.update(
            layers={"graph.resolve_s": record["resolve_s"], **layers},
            crosschecks=crosschecks,
        )
        tracer.dump(out.with_suffix(".spans.jsonl"))
    out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
