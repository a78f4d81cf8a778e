"""Host attribution: what a result was measured on.

Results are only comparable between runs whose ``identity`` matches;
``compare.py`` refuses the rest.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

#: Host fields that must match for two results to be compared.
IDENTITY_KEYS = ("machine", "cpu_model", "usable_cores", "python", "numpy", "compiler")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def describe(root: Path) -> dict:
    """The host block; imports the program, so call it after timing."""
    import numpy

    from repro.analysis import ANALYZER_VERSION
    from repro.graph._native import native

    info = native.kernel_info()
    return {
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "compiler": info.get("compiler_id") or "none",
        "native_available": bool(info.get("available")),
        "analyzer_version": ANALYZER_VERSION,
        "commit": _commit(root),
    }


def identity(host: dict) -> dict:
    return {key: host.get(key) for key in IDENTITY_KEYS}
