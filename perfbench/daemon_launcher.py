"""Run ``python -m repro.daemon`` with the layer wrappers installed.

Usage: ``python perfbench/daemon_launcher.py --spans-out PATH -- <daemon
arguments>``. The daemon serves exactly as ``repro.daemon.__main__``
does; when it shuts down, the spans and counters recorded in this
process are written to ``PATH`` for the benchmark to merge with its
own.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        raise SystemExit(__doc__)
    spans_out, daemon_argv = argv[1], argv[3:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import layers
    from perfbench.spans import SpanRecorder, dump
    from repro.daemon.__main__ import main as daemon_main

    recorder = SpanRecorder()
    buses: list = []
    with layers.install(recorder, buses):
        code = daemon_main(daemon_argv)
    recorder.count("telemetry.dropped", layers.telemetry_dropped(buses))
    dump(recorder, spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
