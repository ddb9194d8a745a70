"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-node --seed 0 --seconds 20 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the
median time from process start (the kernel's start time of the process,
so interpreter start-up counts) until the workload's modules are
imported, in this process and two fresh interpreters, plus the median
of three set-ups of the workload; the timed phase runs on the last
set-up, then the outputs are checked. Times and rates of the timed
phase are scaled to the reference host speed by the host-speed probe
taken between its units (:mod:`perfbench.host`); the measured values
and the scale are printed after the metrics. ``--trace 1`` runs the
workload twice for half the time each, untraced then with every layer
wrapped, and reports the per-layer metrics of the traced half plus the
tracing overhead.

Outputs are checked against the stored digest for the default seed and
against reference-free invariants for every seed; a failure is named
on stderr and the run exits 1. Every metric is printed as ``name value
unit``; the last line is the JSON result. The full record (host,
repeat statistics, tail percentiles, absolute layer self times) goes
to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``, and a traced
run also writes its spans as a Chrome trace next to it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3

# Hermetic runs: no result cache, no lock sanitizer, whatever the caller
# exported (the daemon subprocess inherits this environment).
for _var in ("REPRO_RESULT_CACHE", "REPRO_SANITIZE"):
    os.environ.pop(_var, None)
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _parse():
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("paper-node", "cluster-1k",
                                 "daemon-churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _since_process_start() -> float:
    """Seconds since this process started: its start time in
    ``/proc/self/stat`` (clock ticks since boot) against
    ``CLOCK_BOOTTIME``."""
    with open("/proc/self/stat", encoding="ascii") as f:
        stat = f.read()
    # field 22, counted from the fields after the parenthesised name
    start_ticks = int(stat[stat.rindex(")") + 2:].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - \
        start_ticks / os.sysconf("SC_CLK_TCK")


def _import_workload(name: str) -> float:
    """Import everything a run of workload ``name`` needs; returns the
    seconds since process start."""
    import repro

    # measure this checkout's program, never an installed copy
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"repro is not imported from {ROOT / 'src'}")
    from perfbench.workloads import WORKLOADS

    for module in ("perfbench.spec", "perfbench.host", "perfbench.stats",
                   "repro.obs", "repro.runtime.executor",
                   *WORKLOADS[name].IMPORTS):
        importlib.import_module(module)
    return _since_process_start()


def _fresh_import_s(name: str) -> float:
    """:func:`_import_workload` in a fresh interpreter."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from perfbench.run import _import_workload; "
            "print(_import_workload(sys.argv[2]))")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT), name],
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout)


def _terminate(signum, frame):
    # run the finally blocks (the daemon subprocess must be reaped)
    raise SystemExit(128 + signum)


@contextmanager
def _built(make):
    """A set-up workload and its set-up time; torn down on every path."""
    workload = make()
    try:
        start = time.perf_counter()
        workload.setup()
        yield workload, time.perf_counter() - start
    finally:
        workload.teardown()


def _check(workload, seed: int) -> list[str]:
    """Names of the failed output checks."""
    from perfbench import spec
    from perfbench.workloads import digest

    failures = workload.invariants()
    if seed == spec.DEFAULT_SEED:
        reference = json.loads(
            (ROOT / "perfbench" / "reference.json").read_text())
        got = digest(workload.outputs())
        if got != reference.get(workload.name):
            failures.append(f"digest (got {got})")
    return failures


def _session(cls, seed, seconds, recorder=None):
    """One set-up, timed phase, finish and check. Returns the phase's
    measurements, the checks that failed, the timed interval, the
    workload and its set-up time."""
    with _built(lambda: cls(seed, recorder)) as (workload, setup_s):
        t0 = time.perf_counter()
        timed = workload.run(seconds)
        t1 = time.perf_counter()
        workload.finish()
        failures = _check(workload, seed)
    # tearing down can fail a check too (a traced daemon's span file)
    failures += sorted(set(workload.failures) - set(failures))
    return timed, failures, (t0, t1), workload, setup_s


def _host_scale(timed) -> float:
    """How many times slower than the reference speed the host ran
    during a timed phase."""
    from perfbench.host import PROBE_REF_S

    return statistics.fmean(timed.probes) / PROBE_REF_S


def _untraced(cls, args, import_s):
    from perfbench.stats import summarize, tail

    imports = [import_s] + [_fresh_import_s(cls.name)
                            for _ in range(SETUP_REPEATS - 1)]
    builds = []
    for _ in range(SETUP_REPEATS - 1):
        with _built(lambda: cls(args.seed)) as (_wl, elapsed):
            builds.append(elapsed)
    timed, failures, _, workload, elapsed = _session(cls, args.seed,
                                                     args.seconds)
    builds.append(elapsed)
    unit_tail = tail(timed.samples)
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    measured = {
        "node_sim_rate": timed.node_s / timed.wall_s,
        "unit_p50_s": statistics.median(timed.samples),
        "unit_tail_s": unit_tail.value,
    }
    scale = _host_scale(timed)
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(builds),
        "node_sim_rate": measured["node_sim_rate"] * scale,
        "unit_p50_s": measured["unit_p50_s"] / scale,
        "unit_tail_s": measured["unit_tail_s"] / scale,
        "peak_rss_mb": own_kb / 1024.0 + workload.child_peak_rss_mb(),
    }
    record = {
        "measured": measured,
        "host_scale": scale,
        "probe_s": summarize(timed.probes),
        "import_s": imports,
        "setup_builds_s": summarize(builds),
        "unit_s": summarize(timed.samples),
        "unit_tail": {"percentile": unit_tail.percentile,
                      "n": unit_tail.n},
        "extra_s": {name: summarize(values)
                    for name, values in timed.extra.items() if values},
    }
    return timed, failures, metrics, record


def _traced(cls, args):
    from perfbench import layers, spec
    from perfbench.spans import SpanRecorder, adopt, attribute, \
        chrome_events
    from repro.obs.export import write_chrome

    half = args.seconds / 2.0
    plain, failures, _, _, _ = _session(cls, args.seed, half)
    recorder = SpanRecorder()
    buses: list = []
    with layers.install(recorder, buses):
        traced, traced_failures, (t0, t1), workload, _ = _session(
            cls, args.seed, half, recorder)
    failures += [f"traced {name}" for name in traced_failures]
    external_spans, external_counters = workload.external()
    spans = recorder.spans
    adopt(spans, external_spans, "daemon.io")
    counters = dict(recorder.counters)
    for name, value in external_counters.items():
        counters[name] = counters.get(name, 0) + value
    counters["telemetry.dropped"] = counters.get("telemetry.dropped", 0) + \
        layers.telemetry_dropped(buses)

    att = attribute(spans, t0, t1)
    pct = 100.0 / att.wall
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.calls"] = att.calls.get(layer, 0)
        metrics[f"{layer}.self_pct"] = att.self_s.get(layer, 0.0) * pct
    built = counters.get("vector.built", 0)
    plain_rate = plain.node_s / plain.wall_s * _host_scale(plain)
    traced_rate = traced.node_s / traced.wall_s * _host_scale(traced)
    metrics.update({
        "runtime.sim_s": counters.get("runtime.sim_s", 0.0),
        "telemetry.dropped": counters["telemetry.dropped"],
        "vector.engaged_ratio": (counters.get("vector.engaged", 0) / built
                                 if built else 0.0),
        "daemon.frames": counters.get("daemon.frames", 0),
        "trace.wall_s": att.wall,
        "trace.unattributed_pct": att.unattributed * pct,
        "trace.concurrent_pct": att.concurrent * pct,
        "trace.spans": att.spans,
        "trace.overhead_ratio": traced_rate / plain_rate,
    })
    unknown = set(att.calls) - set(layers.LAYERS)
    if unknown:
        failures.append(f"unlisted spans {sorted(unknown)}")
    trace_path = OUT / f"{cls.name}-seed{args.seed}.trace.json"
    write_chrome(trace_path, chrome_events(spans, t0))
    record = {
        "layer_self_s": att.self_s,
        "unattributed_s": att.unattributed,
        "concurrent_s": att.concurrent,
        "untraced_node_sim_rate": plain_rate,
        "traced_node_sim_rate": traced_rate,
        "trace_file": os.path.relpath(trace_path, ROOT),
    }
    if set(metrics) != {m.name for m in spec.PER_LAYER}:
        raise RuntimeError("per-layer metrics out of step with spec.py")
    timed = plain
    timed.attempted += traced.attempted
    timed.failed += traced.failed
    return timed, failures, metrics, record


def _diagnostics(record):
    """Further ``(name, value, unit)`` lines for a reader: the measured
    (unscaled) values and the host scale, the tail's percentile and
    sample count, daemon admission latency, and the failure ratio."""
    lines = []
    if "measured" in record:
        units = {"node_sim_rate": "node-s/s"}
        lines += [(f"measured_{name}", value, units.get(name, "s"))
                  for name, value in record["measured"].items()]
        lines.append(("host_scale", record["host_scale"], "ratio"))
    if "unit_tail" in record:
        lines += [("unit_tail_percentile", record["unit_tail"]["percentile"],
                   "%"),
                  ("unit_samples", record["unit_tail"]["n"], "count")]
    for name, stats in record.get("extra_s", {}).items():
        lines.append((f"{name}_p50_s", stats["median"], "s"))
        if "tail" in stats:
            lines.append((f"{name}_tail_s", stats["tail"]["value"], "s"))
    lines.append(("failed_ratio", record["failed_ratio"], "ratio"))
    return lines


def main() -> int:
    args = _parse()
    signal.signal(signal.SIGTERM, _terminate)
    import_s = _import_workload(args.workload)
    from perfbench import spec
    from perfbench.host import host_record
    from perfbench.stats import failed_ratio
    from perfbench.workloads import WORKLOADS
    from repro import obs
    from repro.runtime.executor import cache_stats

    cls = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        timed, failures, metrics, record = _traced(cls, args)
        specs = spec.PER_LAYER
    else:
        timed, failures, metrics, record = _untraced(cls, args, import_s)
        specs = spec.END_TO_END
    if cache_stats()["hits"]:
        failures.append("executor-cache-hit")
    if obs.enabled():
        failures.append("obs-enabled")

    correct = not failures
    result = {
        "correct": correct,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit}
                    for m in specs},
    }
    record.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "failures": failures,
        "failed_ratio": failed_ratio(timed.attempted, timed.failed),
        "host": host_record(ROOT), "result": result,
    })
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    for name in failures:
        print(f"check failed: {name}", file=sys.stderr)
    for m in specs:
        print(f"{m.name} {metrics[m.name]!r} {m.unit}")
    for name, value, unit in _diagnostics(record):
        print(f"{name} {value!r} {unit}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
