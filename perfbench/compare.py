#!/usr/bin/env python3
"""Compare two perfbench result records of the same workload.

Usage::

    python3 perfbench/compare.py BASE.json NEW.json

Records are the ``result-*.json`` files ``run.py`` writes under
``.bench_build/perfbench/`` (or the entries of ``perfbench/RESULTS.json``).
Results taken on different hosts are refused: the host identity
(machine, CPU model, usable cores, Python, numpy, compiler) must match.
Prints each end-to-end metric of both records and the ratio new/base.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import host  # noqa: E402


def compare(base: dict, new: dict) -> list[str]:
    """Report lines; raises ValueError when the records are incomparable."""
    if base["workload"] != new["workload"]:
        raise ValueError(
            f"different workloads: {base['workload']} vs {new['workload']}"
        )
    left, right = host.identity(base["host"]), host.identity(new["host"])
    if left != right:
        differing = sorted(k for k in left if left[k] != right[k])
        raise ValueError(
            "results come from different hosts (" + ", ".join(
                f"{k}: {left[k]!r} vs {right[k]!r}" for k in differing
            ) + "); speedups are only compared on one host"
        )
    lines = [f"{base['workload']}: base {base['host']['commit']} -> new {new['host']['commit']}"]
    for name, value in base["end_to_end"].items():
        other = new["end_to_end"].get(name)
        if other is None:
            continue
        ratio = other / value if value else float("nan")
        lines.append(f"  {name:<22} {value:>12.6g} {other:>12.6g}  x{ratio:.3f}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    try:
        lines = compare(base, new)
    except ValueError as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
