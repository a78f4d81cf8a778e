#!/usr/bin/env python3
"""perfbench — the enumerator's one benchmark command.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload acceptance|pgm|tpch|tpch-sharded
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--graph-seed G]

``--seed`` orders each workload's graphs and picks the answers whose
minimality is checked; ``--graph-seed`` (default 0, the named graphs)
redraws the random graphs, to try a claim on inputs it was not tuned on
(see ``workloads.py``).

Each repetition runs in a fresh process (``rep.py``) that imports the
program from ``src/``, sets the workload up and enumerates it through
``EnumerationEngine(...).stream(EnumerationJob(...), stats)``, checking
every answer, after an untimed warm-up enumeration.  Repetitions run
back to back for about ``--seconds`` (at least three).  Rates and CPU
per answer are totals over the run's repetitions, delays are pooled
over them, time to first answer is the median per graph, summed, and
set-up time is the median over at least five fresh processes.

``--trace 0`` reports the end-to-end metrics from untraced
repetitions.  ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer split (spans around each layer's entry
points, plus the program's own counters) and the tracing overhead.

The report lists every metric by name and unit, then the host block,
then one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
The full record (per-repetition data, host, cross-checks) and the
spans of traced repetitions are written under ``.bench_build/perfbench/``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics (untraced repetitions): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "first_answer_s": "s",
    "delay_p50_ms": "ms",
    "delay_tail_ms": "ms",
    "cpu_per_answer_ms": "ms",
    "peak_rss_mb": "MiB",
    "width_best": "nodes",
    "fill_best": "edges",
}

#: Per-layer metrics (traced repetitions): name -> unit.
PER_LAYER = {
    "graph.resolve_s": "s",
    "sepgen.calls": "count",
    "sepgen.busy_s": "s",
    "sepgen.share": "ratio",
    "extend.calls": "count",
    "extend.busy_s": "s",
    "extend.mean_us": "us",
    "extend.share": "ratio",
    "extend.yield_ratio": "ratio",
    "crossing.calls": "count",
    "crossing.busy_s": "s",
    "crossing.share": "ratio",
    "crossing.cache_hit_ratio": "ratio",
    "driver.self_s": "s",
    "driver.share": "ratio",
    "driver.duplicates": "count",
    "driver.rss_kib_per_answer": "KiB",
    "materialise.calls": "count",
    "materialise.busy_s": "s",
    "materialise.share": "ratio",
    "ipc.batches": "count",
    "ipc.pairs_per_batch": "count",
    "ipc.bytes_per_batch": "B",
    "ipc.roundtrip_mean_ms": "ms",
    "ipc.wait_s": "s",
    "ipc.retries": "count",
    "wire.encode_s": "s",
    "wire.decode_s": "s",
    "ipc.worker_busy_share": "ratio",
    "checkpoint.saves": "count",
    "checkpoint.busy_s": "s",
    "checkpoint.bytes": "B",
    "trace.overhead_share": "ratio",
}

#: An untraced run pools at least this many repetitions: on a shared
#: 2-vCPU host one repetition's speed is off by 10-35% now and then,
#: and pooled with two others such a stall weighs a third at most.
MIN_REPETITIONS = 3
#: set-up time is the median of at least this many fresh processes.
MIN_SETUPS = 5
#: No repetition is started once a run has used this long.
RUN_LIMIT_S = 140.0
#: The first build of the native kernels may take this long.
BUILD_TIMEOUT_S = 600.0
REP_TIMEOUT_S = 150.0


class RepFailed(RuntimeError):
    """A repetition process crashed or timed out."""


def _child(args, mode: str, out: Path, trace: int = 0, timeout=REP_TIMEOUT_S) -> dict:
    """Run ``rep.py`` once in a fresh process and return its record."""
    build = ROOT / ".bench_build"
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        REPRO_NATIVE_BUILD_DIR=str(build / "native"),
    )
    out.unlink(missing_ok=True)
    spawned = time.monotonic_ns()
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--root", str(ROOT), "--workload", args.workload,
        "--seed", str(args.seed), "--graph-seed", str(args.graph_seed),
        "--trace", str(trace), "--mode", mode,
        "--out", str(out), "--spawned-ns", str(spawned),
    ]
    proc = subprocess.Popen(
        command,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        __, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"{mode} repetition exceeded {timeout:.0f}s") from None
    finally:
        # Pool workers live in the child's session; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not out.exists():
        raise RepFailed(f"{mode} repetition exited {proc.returncode}:\n{err.strip()}")
    return json.loads(out.read_text())


def _e2e(plain: list) -> tuple[dict, dict]:
    """End-to-end figures over a run's untraced repetitions, and how the
    tail percentile was chosen.

    The host's speed drifts over tens of seconds, so rates and delays are
    taken over the whole run: answers and CPU over total time, delays
    pooled.  Time to first answer is the median over repetitions per
    graph, summed: tpch-sharded's two first answers take ~2 ms each, and
    a 5-15 ms stall hits one graph of one repetition at a time.
    """
    answers = sum(rep["answers"] for rep in plain)
    delays = [[d for case in rep["cases"] for d in case["delays_ns"]] for rep in plain]
    pct, tail, beyond = measure.pooled_tail(delays)
    pooled = [d for rep in delays for d in rep]
    firsts: dict = {}
    for rep in plain:
        for case in rep["cases"]:
            firsts.setdefault(case["name"], []).append(case["first_ns"])
    return {
        "answers_per_s": answers / sum(rep["wall_s"] for rep in plain),
        "first_answer_s": sum(map(measure.median, firsts.values())) / 1e9,
        "delay_p50_ms": measure.median(pooled) / 1e6,
        "delay_tail_ms": tail / 1e6,
        "cpu_per_answer_ms": sum(rep["cpu_s"] for rep in plain) / answers * 1e3,
        "peak_rss_mb": _median_of(plain, "peak_rss_mb"),
        "width_best": sum(case["width_best"] for case in plain[0]["cases"]),
        "fill_best": sum(case["fill_best"] for case in plain[0]["cases"]),
    }, {"percentile": pct, "beyond": beyond, "samples": len(pooled)}


def _measure(args, scratch: Path) -> tuple[list, list, list]:
    """Start repetitions until ``--seconds`` have been spent in them;
    returns (untraced reps, traced reps, set-up samples)."""
    plain: list = []
    traced: list = []
    started = time.monotonic()
    durations: list = []
    number = 0
    while True:
        trace = bool(args.trace) and len(traced) < len(plain)
        out = scratch / f"rep-{args.workload}-{number}.json"
        begun = time.monotonic()
        record = _child(args, "full", out, trace=int(trace))
        durations.append(time.monotonic() - begun)
        (traced if trace else plain).append(record)
        number += 1
        wanted = 1 if args.trace else MIN_REPETITIONS
        complete = len(plain) >= wanted and (traced or not args.trace)
        elapsed = time.monotonic() - started
        # Stop at the repetition that ends nearest to --seconds, so a
        # run lasts --seconds give or take half a repetition.
        if complete and elapsed + measure.median(durations) / 2 >= args.seconds:
            break
        if elapsed + max(durations) > RUN_LIMIT_S:
            break
    setups = [rep["setup_s"] for rep in plain + traced]
    while len(setups) < MIN_SETUPS:
        out = scratch / f"setup-{args.workload}.json"
        setups.append(_child(args, "setup", out)["setup_s"])
    return plain, traced, setups


def _median_of(records: list, key: str) -> float:
    return measure.median([record[key] for record in records])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the minimal-triangulation enumerator."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--graph-seed", type=int, default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)

    try:
        host = _child(args, "build", scratch / "host.json", timeout=BUILD_TIMEOUT_S)["host"]
        plain, traced, setups = _measure(args, scratch)
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    failures = sorted({f for rep in reps for case in rep["cases"] for f in case["failures"]})

    figures, tail = _e2e(plain)
    e2e = {"setup_s": measure.median(setups), **figures}

    layers: dict = {}
    crosschecks: list = []
    if traced:
        for name in PER_LAYER:
            if name != "trace.overhead_share":
                layers[name] = measure.median([rep["layers"][name] for rep in traced])
        layers["trace.overhead_share"] = (
            _median_of(traced, "wall_s") / _median_of(plain, "wall_s") - 1.0
        )
        crosschecks = [check for rep in traced for check in rep["crosschecks"]]
    mismatched = [check for check in crosschecks if not check["ok"]]
    correct = failed == 0 and not mismatched

    host["graph_cores"] = sorted({case["core"] for case in reps[0]["cases"]})
    tiers: dict = {}
    for case in reps[0]["cases"]:
        for tier, count in case["kernel_tiers"].items():
            tiers[tier] = tiers.get(tier, 0) + count
    host["worker_kernel_tiers"] = tiers

    print(
        f"perfbench {args.workload} seed={args.seed} graph-seed={args.graph_seed} "
        f"trace={args.trace}: "
        f"{len(plain)} untraced + {len(traced)} traced repetitions, "
        f"{len(setups)} set-ups, {len(reps[0]['cases'])} graphs"
    )
    for name, unit in END_TO_END.items():
        note = ""
        if name == "delay_tail_ms":
            note = f"  (p{tail['percentile']}, {tail['beyond']} of {tail['samples']} delays beyond)"
        print(f"  {name:<28} {e2e[name]:>14.6g} {unit}{note}")
    error_rate = failed / attempted if attempted else 0.0
    print(f"  {'error_rate':<28} {error_rate:>14.6g} ratio  ({failed} of {attempted} answers)")
    for name, unit in PER_LAYER.items():
        if name in layers:
            print(f"  {name:<28} {layers[name]:>14.6g} {unit}")
    for check in mismatched:
        print(f"  cross-check failed: {check}")
    for failure in failures[:20]:
        print(f"  check failed: {failure}")
    print("host " + json.dumps(host, sort_keys=True))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "graph_seed": args.graph_seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": error_rate,
        "failures": failures,
        "end_to_end": e2e,
        "delay_tail": tail,
        "per_layer": layers,
        "crosschecks": crosschecks,
        "setups": setups,
        "repetitions": [
            dict(rep, cases=[
                {key: value for key, value in case.items() if key != "delays_ns"}
                for case in rep["cases"]
            ])
            for rep in reps
        ],
    }
    name = (
        f"result-{args.workload}-seed{args.seed}-graphs{args.graph_seed}"
        f"-trace{args.trace}.json"
    )
    (scratch / name).write_text(json.dumps(record, indent=1, sort_keys=True))

    chosen = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else e2e
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in chosen.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
