"""The three benchmark workloads.

Each workload builds its inputs from the seed alone, runs a timed phase
of whole units, then checks its outputs:

* :class:`PaperNode` — serial ``Testbed.run`` calls on the default
  24-core node; a unit is one run.
* :class:`Cluster1k` — a 1,000-node vector-engine cluster; a unit is
  one lockstep epoch.
* :class:`DaemonChurn` — a closed loop against ``python -m
  repro.daemon``; a unit sample is one job's turnaround.

:meth:`Workload.outputs` is the part of the simulated output that does
not depend on how many units the host managed in the time given (the
first cycle, the first epochs), so its digest can be pinned per seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import select
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.host import probe_s
from perfbench.spans import NullRecorder, clock, load
from perfbench.stats import TAIL_BEYOND

__all__ = ["Timed", "Workload", "PaperNode", "Cluster1k", "DaemonChurn",
           "WORKLOADS", "digest"]

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Timed:
    """What one timed phase measured."""

    samples: list[float] = field(default_factory=list)  #: unit latencies
    node_s: float = 0.0        #: simulated node-seconds completed
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: further latency samples by name (daemon admission)
    extra: dict[str, list[float]] = field(default_factory=dict)
    #: host-speed probe times, one before each unit
    probes: list[float] = field(default_factory=list)

    def probe(self) -> None:
        """Time the host-speed probe once, between units."""
        self.probes.append(probe_s())

    def stop(self, start: float) -> None:
        """Set the phase's wall time: since ``start``, less the probes."""
        self.wall_s = clock() - start - math.fsum(self.probes)


def digest(outputs) -> str:
    """SHA-256 over ``outputs`` with every float written exactly."""
    def exact(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {k: exact(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [exact(v) for v in value]
        return value
    text = json.dumps(exact(outputs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _series(ts) -> list[list[float]]:
    return [[float(t) for t in ts.times], [float(v) for v in ts.values]]


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _peak_rss_kb(pid: int) -> int:
    """A live process's peak resident set (``VmHWM``), in KiB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


class Workload:
    """Set up, run a timed phase, finish, check."""

    name = ""
    #: modules a fresh process imports before its first set-up
    IMPORTS: tuple[str, ...] = ()

    def __init__(self, seed: int, recorder=None) -> None:
        self.seed = seed
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.failures: list[str] = []

    def setup(self) -> None:
        """Build everything the first timed unit needs."""

    def teardown(self) -> None:
        """Release what :meth:`setup` built; safe to call on any path."""

    def run(self, seconds: float) -> Timed:
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed work after the timed phase (draining, collecting)."""

    def outputs(self):
        raise NotImplementedError

    def invariants(self) -> list[str]:
        """Names of the reference-free checks that failed."""
        return sorted(set(self.failures))

    def external(self) -> tuple[list[tuple], dict]:
        """Spans and counters recorded in other processes."""
        return [], {}

    def child_peak_rss_mb(self) -> float:
        """Peak resident memory of the processes the workload started."""
        return 0.0


# ----------------------------------------------------------------------
# paper-node
# ----------------------------------------------------------------------


class PaperNode(Workload):
    """Every regular app uncapped and under the three dynamic schemes."""

    name = "paper-node"
    IMPORTS = ("repro.experiments.harness", "repro.nrm.schemes")
    APPS = ("lammps", "amg", "qmcpack", "stream", "openmc")
    LOW_CAP = 80.0   #: W, the schedules' low cap
    #: Simulated seconds per run, as a multiple of ``duration``. amg and
    #: openmc cost about a third of the others per simulated second, so
    #: they run three times as long: every run then costs about the same
    #: host time, and the run-time median does not sit on the gap
    #: between a cheap and an expensive group of runs.
    LENGTH = {"amg": 3, "openmc": 3}

    def __init__(self, seed: int, recorder=None, *, apps=APPS,
                 duration: float = 3.0) -> None:
        super().__init__(seed, recorder)
        self.apps = tuple(apps)
        self.duration = duration
        self._first: list[dict] = []

    def setup(self) -> None:
        from repro.experiments.harness import Testbed
        from repro.nrm.schemes import (JaggedEdgeSchedule,
                                       LinearDecreaseSchedule, StepSchedule)

        self.testbed = Testbed(seed=self.seed)
        tdp = self.testbed.cfg.tdp
        # Fixed schedule shapes: the seed varies the runs' noise, not
        # their cost, so seeds are comparable.
        self.plan = []
        for app in self.apps:
            d = self.duration * self.LENGTH.get(app, 1)
            self.plan += [
                (app, "uncapped", d, None),
                (app, "linear", d, LinearDecreaseSchedule(
                    high=tdp, low=self.LOW_CAP, rate=30.0, start=0.2 * d)),
                (app, "step", d, StepSchedule(
                    low=self.LOW_CAP, high_duration=d / 3,
                    low_duration=d / 3)),
                (app, "jagged", d, JaggedEdgeSchedule(
                    high=tdp, low=self.LOW_CAP, descent=0.5 * d)),
            ]

    def run(self, seconds: float) -> Timed:
        from repro.exceptions import ReproError

        timed = Timed()
        rec = self.recorder
        start = clock()
        cycle = 0
        # Whole cycles only: the median of a partial cycle would depend
        # on which apps the host happened to reach. At least one cycle
        # always runs (it is what the digest covers).
        while True:
            for app, scheme, duration, schedule in self.plan:
                index = timed.attempted
                rec.unit = index
                timed.attempted += 1
                timed.probe()
                t = clock()
                try:
                    res = self.testbed.run(app, duration=duration,
                                           schedule=schedule,
                                           seed=self.seed * 1000 + index)
                except ReproError:
                    timed.failed += 1
                    continue
                timed.samples.append(clock() - t)
                timed.node_s += res.duration
                self._check(res, duration)
                if cycle == 0:
                    self._first.append({
                        "app": app, "scheme": scheme,
                        "progress": _series(res.progress),
                        "power": _series(res.power),
                        "cap": _series(res.cap)})
            cycle += 1
            elapsed = clock() - start
            # stop at the cycle boundary nearest to ``seconds``
            if elapsed + 0.5 * elapsed / cycle >= seconds:
                break
        timed.stop(start)
        return timed

    def _check(self, res, duration: float) -> None:
        n = int(round(duration))
        if not (len(res.progress) == len(res.power) == n
                and len(res.cap) == n + 1):
            self.failures.append("series-length")
        if not all(_finite(ts.values)
                   for ts in (res.progress, res.power, res.cap)):
            self.failures.append("series-finite")
        if res.duration != duration:
            self.failures.append("run-duration")

    def outputs(self):
        return self._first


# ----------------------------------------------------------------------
# cluster-1k
# ----------------------------------------------------------------------


class Cluster1k(Workload):
    """A vector-engine lammps cluster under progress-aware rebalancing."""

    name = "cluster-1k"
    IMPORTS = ("repro.cluster.simulation", "repro.cluster.policies")
    NODE_BUDGET = 95.0    #: cluster budget per node (W)

    def __init__(self, seed: int, recorder=None, *, n_nodes: int = 1000,
                 ref_epochs: int = 5) -> None:
        super().__init__(seed, recorder)
        self.n_nodes = n_nodes
        self.ref_epochs = ref_epochs
        self.budget = n_nodes * self.NODE_BUDGET
        self.sim = None
        self._ref = None

    def setup(self) -> None:
        from repro.cluster.policies import ProgressAwareRebalancer
        from repro.cluster.simulation import ClusterSimulation

        self.sim = ClusterSimulation(
            self.n_nodes, "lammps",
            ProgressAwareRebalancer(self.budget, min_node=60.0,
                                    max_node=130.0),
            app_kwargs={"n_steps": 10_000_000, "n_workers": 4},
            variability=(0.05, 0.08), seed=self.seed, shards=1,
            engine="vector")

    def teardown(self) -> None:
        if self.sim is not None:
            self.sim.close()
            self.sim = None

    def run(self, seconds: float) -> Timed:
        timed = Timed()
        sim = self.sim
        min_epochs = max(self.ref_epochs, TAIL_BEYOND + 1)
        start = clock()
        while True:
            self.recorder.unit = timed.attempted
            timed.attempted += 1
            before = sim.now
            timed.probe()
            t = clock()
            sim.run(1.0, epoch=1.0)
            timed.samples.append(clock() - t)
            timed.node_s += self.n_nodes * (sim.now - before)
            if timed.attempted == self.ref_epochs:
                self._ref = {
                    "total_progress": _series(sim.total_progress),
                    "critical_path": _series(sim.critical_path),
                    "budget_history": _series(sim.budget_history),
                    "total_energy": sim.total_energy}
            if clock() - start >= seconds and timed.attempted >= min_epochs:
                break
        timed.stop(start)
        return timed

    def outputs(self):
        return self._ref

    def invariants(self) -> list[str]:
        sim = self.sim
        failed = list(self.failures)
        series = (sim.total_progress, sim.critical_path, sim.budget_history)
        if any(len(ts) != sim.epochs_done for ts in series):
            failed.append("series-length")
        if not all(_finite(ts.values) for ts in series):
            failed.append("series-finite")
        if any(b > self.budget + 1e-6 for b in sim.budget_history.values):
            failed.append("budget-within-cluster-budget")
        node_energy = math.fsum(node.node.pkg_energy for node in sim.nodes)
        if not math.isclose(node_energy, sim.total_energy, rel_tol=1e-9):
            failed.append("epoch-energies-sum-to-total")
        return sorted(set(failed))


# ----------------------------------------------------------------------
# daemon-churn
# ----------------------------------------------------------------------


class DaemonChurn(Workload):
    """A closed loop of lammps jobs against the daemon over a socket.

    ``users`` job streams each keep one job in the system: a user
    submits its next job in the first epoch after its previous one
    completed. One connection submits and ticks, a second watches the
    scheduler's lifecycle events and the per-epoch ``cluster/power``
    frame, which marks the end of an epoch's telemetry.
    """

    name = "daemon-churn"
    IMPORTS = ("repro.daemon.client",)
    DAEMON_ARGS = ("--manual", "--book", "demo", "--engine", "vector",
                   "--n-workers", "8", "--n-slots", "8",
                   "--power-budget", "420")
    #: (nodes, max_slowdown) of a job. Each block of eight jobs is a
    #: seeded permutation of all eight, so every seed draws the same
    #: mix and seeds differ in order and size, not in composition.
    TEMPLATES = tuple((n_nodes, slowdown) for n_nodes in (1, 2)
                      for slowdown in (None, 0.1, 0.2, 0.3))
    #: wall seconds to wait for the daemon to come up or for a frame
    TIMEOUT = 60.0

    def __init__(self, seed: int, recorder=None, *, users: int = 6,
                 ref_epochs: int = 15,
                 scratch: Path = ROOT / "perfbench" / "out") -> None:
        super().__init__(seed, recorder)
        self.users = users
        self.ref_epochs = ref_epochs
        self.scratch = scratch
        self._proc = None
        self._dir = None
        self._sock = None
        self._clients: list = []
        self._external: tuple[list, dict] = ([], {})
        self._rng = np.random.default_rng(self.seed)
        self._templates: list = []
        self._free = users
        self._sent: dict[str, float] = {}      #: job -> host send time
        self._slots: dict[str, int] = {}       #: job -> nodes started on
        self._running_nodes = 0
        self._completed: dict[str, int] = {}   #: job -> JobCompleted seen
        self._rejected = 0
        self._epochs = 0
        self._now = 0.0      #: simulated time of the last epoch read
        self._ref: list = []
        self._info = None
        self._peak_kb = 0

    # -- lifecycle -----------------------------------------------------

    def setup(self) -> None:
        from repro.daemon.client import DaemonClient

        self.scratch.mkdir(parents=True, exist_ok=True)
        # Relative to the working directory: a Unix socket path must
        # stay short, wherever the checkout lives.
        self._dir = os.path.relpath(tempfile.mkdtemp(dir=self.scratch))
        sock = self._sock = os.path.join(self._dir, "daemon.sock")
        daemon_args = ["--socket", sock, *self.DAEMON_ARGS,
                       "--seed", str(self.seed)]
        if self.recorder.enabled:
            cmd = [sys.executable,
                   str(Path(__file__).with_name("daemon_launcher.py")),
                   "--spans-out", os.path.join(self._dir, "spans.json"),
                   "--", *daemon_args]
        else:
            cmd = [sys.executable, "-m", "repro.daemon", *daemon_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        self._proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
        ready, _, _ = select.select([self._proc.stdout], [], [],
                                    self.TIMEOUT)
        line = self._proc.stdout.readline() if ready else b""
        if not line.startswith(b"repro-daemon ready"):
            raise RuntimeError(f"daemon did not come up: {line!r}")
        self.driver = DaemonClient(socket_path=sock,
                                   timeout=self.TIMEOUT).connect()
        self._clients.append(self.driver)
        self.watcher = DaemonClient(socket_path=sock,
                                    timeout=self.TIMEOUT).connect()
        self._clients.append(self.watcher)
        self.watcher.watch("bench", topic="cluster/power", events=True)

    def teardown(self) -> None:
        from repro.daemon.client import DaemonClient
        from repro.exceptions import DaemonError

        for client in self._clients:
            client.close()
        self._clients = []
        proc, self._proc = self._proc, None
        if proc is not None:
            if proc.poll() is None and self._sock is not None:
                # a short timeout of its own, so a wedged daemon costs
                # seconds before it is killed
                try:
                    with DaemonClient(socket_path=self._sock,
                                      timeout=5.0) as client:
                        client.shutdown()
                except (OSError, DaemonError) as exc:
                    print(f"daemon shutdown failed: {exc!r}",
                          file=sys.stderr)
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if self._dir is not None:
            spans_path = os.path.join(self._dir, "spans.json")
            if os.path.exists(spans_path):
                self._external = load(spans_path)
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None
            # a traced daemon that left no handle spans (killed while
            # writing them, or the write failed) would read as all I/O
            if self.recorder.enabled and not any(
                    sp[1].startswith("daemon.handle.")
                    for sp in self._external[0]):
                self.failures.append("daemon-spans-missing")

    # -- the closed loop -----------------------------------------------

    def run(self, seconds: float) -> Timed:
        timed = Timed(extra={"admit": []})
        start = clock()
        while True:
            self.recorder.unit = self._epochs
            timed.probe()
            for _ in range(self._free):
                self._submit(timed)
            self._free = 0
            self._tick(timed)
            if clock() - start >= seconds and \
                    self._epochs >= self.ref_epochs and \
                    len(timed.samples) > TAIL_BEYOND:
                break
        timed.stop(start)
        return timed

    def _submit(self, timed: Timed) -> None:
        from repro.daemon import protocol as proto

        index = len(self._sent) + self._rejected
        job_id = f"job{index}"
        if not self._templates:
            self._templates = [self.TEMPLATES[i] for i in
                               self._rng.permutation(len(self.TEMPLATES))]
        n_nodes, slowdown = self._templates.pop()
        # 2-3.5 s of work at the preloaded lammps rate
        work = 8.96e5 * float(self._rng.uniform(2.0, 3.5))
        timed.attempted += 1
        t = clock()
        with self.recorder.span("daemon.io"):
            reply = self.driver.run(job_id, "lammps", n_nodes=n_nodes,
                                    work_units=work, max_slowdown=slowdown)
        timed.extra["admit"].append(clock() - t)
        if isinstance(reply, proto.RunReply):
            self._sent[job_id] = t
        else:
            timed.failed += 1
            self._rejected += 1

    def _tick(self, timed: Timed) -> None:
        from repro.daemon import protocol as proto

        timed.attempted += 1
        with self.recorder.span("daemon.io"):
            reply = self.driver.tick(1)
        if not isinstance(reply, proto.TickReply):
            timed.failed += 1
            return
        self._epochs += 1
        self._read_epoch(reply.now, timed)

    def _read_epoch(self, now: float, timed: Timed | None) -> None:
        """Read the watcher until the ``cluster/power`` frame of the
        epoch ending at ``now``. A tick that completes the last job
        reports ``epochs=0`` yet ran an epoch, so the clock, not the
        reply's epoch count, says whether telemetry is owed."""
        from repro.daemon import protocol as proto

        if now <= self._now:
            return
        epoch, self._now = now - self._now, now
        ended = 0
        while True:
            with self.recorder.span("daemon.io"):
                frame = self.watcher.recv_frame(timeout=self.TIMEOUT)
            received = clock()
            if frame is None:
                raise RuntimeError(f"no telemetry for the epoch at t={now}")
            self.recorder.count("daemon.frames")
            record = frame.time <= self.ref_epochs
            if isinstance(frame, proto.StreamTelemetry):
                if record:
                    self._ref.append(["power", frame.time, frame.value])
                if frame.time >= now:
                    # nodes that ran this epoch, the ones that finished
                    # in it included
                    if timed is not None:
                        timed.node_s += self._running_nodes * epoch
                    self._running_nodes -= ended
                    return
                continue
            data = frame.data
            job_id = data.get("job_id")
            if frame.kind == "JobStarted":
                self._slots[job_id] = len(data["slots"])
                self._running_nodes += len(data["slots"])
            elif frame.kind == "JobCompleted":
                self._completed[job_id] = self._completed.get(job_id, 0) + 1
                self._free += 1
                ended += self._slots[job_id]
                if timed is not None:
                    timed.samples.append(received - self._sent[job_id])
            if record and frame.kind in ("JobStarted", "CapSelected",
                                         "JobCompleted"):
                self._ref.append([frame.kind, frame.time,
                                  sorted(data.items())])

    def finish(self) -> None:
        """Stop submitting and tick until every job has completed."""
        from repro.daemon import protocol as proto

        for _ in range(1000):
            if len(self._completed) >= len(self._sent):
                break
            reply = self.driver.tick(1)
            if not isinstance(reply, proto.TickReply) or \
                    reply.now <= self._now:
                break
            self._read_epoch(reply.now, None)
        self._info = self.driver.info()
        self._peak_kb = _peak_rss_kb(self._proc.pid)

    # -- checks ----------------------------------------------------------

    def outputs(self):
        return self._ref

    def invariants(self) -> list[str]:
        failed = list(self.failures)
        if self._rejected:
            failed.append("every-job-accepted")
        if set(self._completed) != set(self._sent) or \
                any(n != 1 for n in self._completed.values()):
            failed.append("every-job-completes-once")
        if getattr(self._info, "completed", None) != len(self._sent):
            failed.append("info-completed-equals-submitted")
        return sorted(set(failed))

    def external(self) -> tuple[list[tuple], dict]:
        return self._external

    def child_peak_rss_mb(self) -> float:
        return self._peak_kb / 1024.0


WORKLOADS = {cls.name: cls for cls in (PaperNode, Cluster1k, DaemonChurn)}
