"""What the benchmark measures, and what each metric should move.

Every workload has a one-line reason and a default seed (the seed the
stored digests in ``reference.json`` belong to). :data:`WORKLOADS` are
the gated ones listed in ``BENCHMARK.json``; :data:`UNGATED` ones run
and check the same way but set no regression bound. Every metric has its
unit and direction; a per-layer metric also names its layer, the
end-to-end metrics it should move, the workloads where it should move
them, and the workloads where the prediction is no change.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 -m perfbench.spec > BENCHMARK.json``); a test keeps the two
in step.

Latency of a timed unit (``unit_p50_s``, ``unit_tail_s``):

* ``paper-node`` — one ``Testbed.run``;
* ``cluster-1k`` — one lockstep epoch;
* ``daemon-churn`` — one job's turnaround: host seconds from sending
  ``run`` to the watcher receiving ``JobCompleted``.

The tail is the highest percentile with at least ten samples beyond it;
its percentile and sample count are in the run's output file.

Times and rates are given at a reference host speed. The host these
bounds were set on (a 2-CPU share of a Xeon) runs interpreter-bound code
at two speeds about 1.6 times apart, for seconds to minutes at a time,
and the share of a run spent at each changes from run to run: over ten
45 s paper-node runs the spread of the measured rate and median reached
0.23-0.31 of the median, against a bound of at most 0.25. So every
timed phase takes a fixed pure-Python probe (about 5 ms) before each
unit, and ``unit_p50_s`` and ``unit_tail_s`` are divided,
``node_sim_rate`` multiplied, by the run's mean probe time over
:data:`perfbench.host.PROBE_REF_S`. A change to the program moves the
units and not the probe, so it moves the metrics as much as the
measured values; the measured values and the scale are printed and
recorded beside them. ``setup_s`` is not scaled: it is mostly imports,
which did not follow the probe, and it is steadied instead by taking
the median over three interpreters and three set-ups.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from perfbench.layers import LAYERS

__all__ = ["DEFAULT_SEED", "RUN_SECONDS", "WORKLOADS", "UNGATED", "Metric",
           "END_TO_END", "PER_LAYER", "benchmark_json"]

DEFAULT_SEED = 0
RUN_SECONDS = 50

PAPER, CLUSTER, DAEMON = "paper-node", "cluster-1k", "daemon-churn"

#: The gated workloads (``BENCHMARK.json``): name -> (why, default seed)
WORKLOADS = {
    PAPER: ("serial Testbed.run of five apps uncapped and under three "
            "dynamic cap schedules; object node engine only, as when "
            "regenerating the paper's figures", DEFAULT_SEED),
    DAEMON: ("closed loop of 1-2 node lammps jobs against the daemon "
             "over a Unix socket; stack build/remove churn and the "
             "scheduler, 8-worker nodes on the object fallback",
             DEFAULT_SEED),
}

#: Runnable with ``run.py`` and checked like the others, but left out
#: of ``BENCHMARK.json``: on a shared 2-CPU host the run-to-run spread
#: of its epoch time reached 0.23-0.26 of the median over ten 30 s
#: runs, at or past the largest regression bound a metric may have.
UNGATED = {
    CLUSTER: ("1,000 lammps nodes, 4 workers each, progress-aware "
              "rebalancing, 1 s epochs on the vector engine; no object "
              "engine work", DEFAULT_SEED),
}

@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    doc: str
    layer: str = ""
    moves: tuple[str, ...] = ()       #: end-to-end metrics it should move
    on: tuple[str, ...] = ()          #: ... on these workloads
    unchanged_on: tuple[str, ...] = ()  #: predicted no change here
    bound: float | None = None


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "process start to the first timed unit: imports plus the "
           "median of three set-ups (testbed; cluster build; daemon "
           "spawn, bind, connect and watch); imports timed in three "
           "interpreters", bound=0.25),
    Metric("node_sim_rate", "node-s/s", "higher",
           "simulated node-seconds per host second over the timed phase "
           "(daemon-churn: nodes running in each epoch x epoch length), "
           "at reference host speed", bound=0.24),
    Metric("unit_p50_s", "s", "lower",
           "median latency of a timed unit (run, epoch or job "
           "turnaround), at reference host speed", bound=0.24),
    Metric("unit_tail_s", "s", "lower",
           "tail latency of a timed unit (highest percentile with ten "
           "samples beyond it), at reference host speed", bound=0.24),
    Metric("peak_rss_mb", "MB", "lower",
           "peak resident memory of the benchmark process plus the "
           "daemon's", bound=0.1),
)

_OBJECT_ENGINE = dict(moves=("node_sim_rate", "unit_p50_s"),
                      on=(PAPER, DAEMON), unchanged_on=(CLUSTER,))
_NODE_SERVICE = dict(moves=("unit_p50_s",), on=(PAPER,),
                     unchanged_on=(CLUSTER,))
#: the daemon's scheduler steps its jobs through ShardedLockstep and
#: re-allocates their budgets every epoch, so these layers run on
#: daemon-churn too
_CLUSTER = dict(moves=("unit_p50_s",), on=(CLUSTER, DAEMON),
                unchanged_on=(PAPER,))
_VECTOR = dict(moves=("unit_p50_s", "setup_s"), on=(CLUSTER, DAEMON),
               unchanged_on=(PAPER,))
_DAEMON = dict(moves=("unit_p50_s",), on=(DAEMON,),
               unchanged_on=(PAPER, CLUSTER))

#: layer -> what its calls and self time should move
_LAYER_EFFECTS = {
    "experiments.testbed_run": dict(moves=("unit_p50_s",), on=(PAPER,),
                                    unchanged_on=(CLUSTER, DAEMON)),
    "stack.build": dict(moves=("unit_p50_s",), on=(DAEMON, PAPER),
                        unchanged_on=(CLUSTER,)),
    "stack.tap": _NODE_SERVICE,
    "runtime.engine_run": _OBJECT_ENGINE,
    "runtime.timer": _NODE_SERVICE,
    "hardware.accrue": _OBJECT_ENGINE,
    "hardware.allocate_bandwidth": _OBJECT_ENGINE,
    "hardware.rapl_tick": _NODE_SERVICE,
    "telemetry.monitor_tick": _NODE_SERVICE,
    "telemetry.publish": dict(moves=("unit_p50_s",), on=(PAPER, DAEMON),
                              unchanged_on=(CLUSTER,)),
    "nrm.controller_tick": _NODE_SERVICE,
    "libmsr.api": _NODE_SERVICE,
    "apps.resume": _NODE_SERVICE,
    # only ClusterSimulation calls it: 0 on both gated workloads
    "cluster.run": dict(moves=("unit_p50_s",), on=(CLUSTER,),
                        unchanged_on=(PAPER, DAEMON)),
    "cluster.allocate": _CLUSTER,
    "cluster.lockstep_step": _CLUSTER,
    "vector.build": _VECTOR,
    "vector.step": _VECTOR,
    "scheduler.step": _DAEMON,
    "daemon.handle.run": _DAEMON,
    "daemon.handle.tick": _DAEMON,
    "daemon.handle.other": _DAEMON,
    "daemon.tick": _DAEMON,
    "daemon.codec": _DAEMON,
    "daemon.io": _DAEMON,
}


def _per_layer() -> tuple[Metric, ...]:
    metrics = []
    for layer in LAYERS:
        effects = _LAYER_EFFECTS[layer]
        metrics.append(Metric(f"{layer}.calls", "count", "lower",
                              f"calls into {layer} in the timed phase",
                              layer=layer, **effects))
        metrics.append(Metric(f"{layer}.self_pct", "%", "lower",
                              f"self time of {layer} as a share of the "
                              "traced timed phase", layer=layer, **effects))
    metrics += [
        Metric("runtime.sim_s", "sim-s", "higher",
               "simulated seconds the object engine advanced",
               layer="runtime.engine_run", **_OBJECT_ENGINE),
        Metric("telemetry.dropped", "count", "lower",
               "messages the pub/sub transports dropped",
               layer="telemetry.publish", moves=("unit_p50_s",),
               on=(PAPER, DAEMON), unchanged_on=(CLUSTER,)),
        Metric("vector.engaged_ratio", "ratio", "higher",
               "nodes placed on the vector fast path over nodes built "
               "(0 when none were built)", layer="vector.build",
               moves=("unit_p50_s", "node_sim_rate"), on=(DAEMON,),
               unchanged_on=(CLUSTER,)),
        Metric("daemon.frames", "count", "higher",
               "telemetry frames the watcher received",
               layer="daemon.io", **_DAEMON),
        Metric("trace.wall_s", "s", "lower",
               "wall time of the traced timed phase"),
        Metric("trace.unattributed_pct", "%", "lower",
               "share of the traced timed phase inside no layer span "
               "(the host-speed probes included)"),
        Metric("trace.concurrent_pct", "%", "lower",
               "share covered twice by concurrent sibling spans "
               "(daemon threads); layer shares + unattributed - "
               "concurrent = 100"),
        Metric("trace.spans", "count", "lower",
               "spans recorded in the traced timed phase"),
        Metric("trace.overhead_ratio", "ratio", "higher",
               "traced node_sim_rate over untraced, same run, each at "
               "reference host speed"),
    ]
    return tuple(metrics)


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, (why, _seed) in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
