"""The host record stored with every result, and the host-speed probe.

The host record is diagnostic only. Its calibration loop is a fixed
pure-Python workload whose time says how fast this host runs
interpreter-bound code when results from two hosts are put side by
side.

The probe is a short run of the same loop, timed between the units of
a timed phase. The phase's unit times and rate are scaled by the mean
probe time over :data:`PROBE_REF_S`, so they read as on a host of
reference speed (see :mod:`perfbench.spec` for why).
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

__all__ = ["host_record", "calibration_s", "probe_s", "PROBE_REF_S"]

_CALIBRATION_N = 300_000
_CALIBRATION_REPEATS = 3
_PROBE_N = 60_000
#: Probe time at the reference host speed, about the uncontended speed
#: of the 2-CPU Xeon host the bounds were set on.
PROBE_REF_S = 0.005


def _loop_s(n: int) -> float:
    """Wall time of ``n`` iterations of a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(n):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def calibration_s() -> float:
    """Median wall time of the calibration loop."""
    return statistics.median(_loop_s(_CALIBRATION_N)
                             for _ in range(_CALIBRATION_REPEATS))


def probe_s() -> float:
    """Wall time of one host-speed probe."""
    return _loop_s(_PROBE_N)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD's commit; "unknown" outside a repository or without git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_record(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "calibration_s": calibration_s(),
    }
