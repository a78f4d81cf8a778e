#!/usr/bin/env python3
"""Collect ``run.py`` result records into one summary of a host's numbers.

Usage::

    python3 perfbench/record.py OUT.json RESULT.json [RESULT.json ...]

For each workload it keeps the median, the quartiles and the relative
spread ((q3 - q1) / median) of every end-to-end metric over the untraced
records given (one per seed), the per-layer figures of the traced
records, and the host block.  Records from different hosts are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import host  # noqa: E402
import measure  # noqa: E402


def summarise(records: list[dict]) -> dict:
    identities = {json.dumps(host.identity(r["host"]), sort_keys=True) for r in records}
    if len(identities) != 1:
        raise ValueError("records come from more than one host")
    summary: dict = {"host": records[0]["host"], "workloads": {}}
    for workload in sorted({r["workload"] for r in records}):
        plain = [r for r in records if r["workload"] == workload and not r["trace"]]
        traced = [r for r in records if r["workload"] == workload and r["trace"]]
        entry: dict = {
            "seeds": sorted(r["seed"] for r in plain),
            "graph_seeds": sorted({r["graph_seed"] for r in plain + traced}),
            "all_correct": all(r["correct"] for r in plain + traced),
            "end_to_end": {},
        }
        for name in plain[0]["end_to_end"] if plain else ():
            values = [r["end_to_end"][name] for r in plain]
            q1, __, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            entry["end_to_end"][name] = {
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": measure.relative_spread(values),
            }
        if plain:
            entry["delay_tail"] = plain[0]["delay_tail"]
        if traced:
            entry["per_layer"] = traced[0]["per_layer"]
            entry["per_layer_seed"] = traced[0]["seed"]
        summary["workloads"][workload] = entry
    return summary


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(Path(p).read_text()) for p in argv[1:]]
    try:
        summary = summarise(records)
    except ValueError as exc:
        print(f"record: refused: {exc}", file=sys.stderr)
        return 1
    Path(argv[0]).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
