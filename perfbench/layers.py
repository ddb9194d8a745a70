"""Wrappers that time each layer's public entry points.

:func:`install` swaps every entry point below for a span-recording
wrapper and returns the :class:`~perfbench.spans.Patches` that put the
originals back. The same table runs in the benchmark process and, for
``daemon-churn``, in the daemon subprocess (``daemon_launcher.py``).

Layer (span name)           entry point timed
--------------------------  ------------------------------------------
experiments.testbed_run     ``Testbed.run``
stack.build                 ``NodeStack.__init__``
runtime.engine_run          ``Engine.run`` (counter ``runtime.sim_s``)
hardware.accrue             ``SimulatedNode.accrue``
hardware.allocate_bandwidth the ``allocate_bandwidth`` the engine calls
hardware.rapl_tick,         callbacks registered through
telemetry.monitor_tick,     ``Engine.add_timer``, named after the class
nrm.controller_tick,        that owns the callback
stack.tap, runtime.timer
apps.resume                 each step of a generator given to
                            ``Engine.spawn``
telemetry.publish           hooks given to ``Engine.on_publish``
libmsr.api                  the public ``LibMSR`` methods
cluster.run                 ``ClusterSimulation.run``
cluster.allocate            the budget policies' ``allocate``
cluster.lockstep_step       ``ShardedLockstep.step``
vector.build, vector.step   ``VectorEngine.build`` / ``.step``
scheduler.step              ``PowerAwareScheduler.step``
daemon.handle.{run,tick,    ``Daemon.handle`` by request type
other}
daemon.tick                 ``Daemon.tick``
daemon.codec                ``protocol.encode`` / ``protocol.decode``

Counters: ``runtime.sim_s`` (simulated seconds the object engine
advanced), ``vector.built`` / ``vector.engaged`` (nodes given to
``VectorEngine.build`` / of those, nodes on the vector fast path) and,
from :func:`telemetry_dropped`, the messages the pub/sub buses dropped.
"""

from __future__ import annotations

from perfbench.spans import Patches

__all__ = ["LAYERS", "install", "telemetry_dropped"]

#: Every span name :func:`install` can produce, plus the benchmark's own
#: ``daemon.io`` client spans (``workloads.py``).
LAYERS = (
    "experiments.testbed_run",
    "stack.build",
    "stack.tap",
    "runtime.engine_run",
    "runtime.timer",
    "hardware.accrue",
    "hardware.allocate_bandwidth",
    "hardware.rapl_tick",
    "telemetry.monitor_tick",
    "telemetry.publish",
    "nrm.controller_tick",
    "libmsr.api",
    "apps.resume",
    "cluster.run",
    "cluster.allocate",
    "cluster.lockstep_step",
    "vector.build",
    "vector.step",
    "scheduler.step",
    "daemon.handle.run",
    "daemon.handle.tick",
    "daemon.handle.other",
    "daemon.tick",
    "daemon.codec",
    "daemon.io",
)

_TIMER_OWNERS = {
    "RaplFirmware": "hardware.rapl_tick",
    "ProgressMonitor": "telemetry.monitor_tick",
    "NodeStack": "stack.tap",
}

_HANDLE_KINDS = {
    "RunRequest": "daemon.handle.run",
    "TickRequest": "daemon.handle.tick",
}

_LIBMSR_METHODS = ("get_pkg_power_limit", "set_pkg_power_limit",
                   "remove_pkg_power_limit", "get_tdp",
                   "read_pkg_energy_raw", "poll_power")


def timer_layer(callback) -> str:
    """The layer an engine timer callback belongs to, from its owner."""
    owner = getattr(callback, "__self__", None)
    if owner is None:
        return "runtime.timer"
    cls = type(owner)
    if cls.__name__ in _TIMER_OWNERS:
        return _TIMER_OWNERS[cls.__name__]
    if cls.__module__.startswith("repro.nrm."):
        return "nrm.controller_tick"
    return "runtime.timer"


class _TimedSteps:
    """An application task generator whose every step is a span."""

    __slots__ = ("_next",)

    def __init__(self, recorder, gen) -> None:
        self._next = recorder.wrap("apps.resume", gen.__next__)

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


def install(recorder, buses: list) -> Patches:
    """Time every layer into ``recorder``; returns the patches to undo.

    ``buses`` collects every ``MessageBus`` created while installed, for
    :func:`telemetry_dropped`.
    """
    from repro.cluster import policies, sharding, simulation
    from repro.daemon import protocol, service
    from repro.experiments import harness
    from repro.hardware import node
    from repro.libmsr import api
    from repro.runtime import engine
    from repro.scheduler import scheduler
    from repro.stack import builder
    from repro.telemetry import pubsub
    from repro.vector import host

    wrap = recorder.wrap
    patches = Patches()

    def timed(name):
        return lambda original: wrap(name, original)

    try:
        patches.replace(harness.Testbed, "run",
                        timed("experiments.testbed_run"))
        patches.replace(builder.NodeStack, "__init__", timed("stack.build"))
        patches.replace(node.SimulatedNode, "accrue",
                        timed("hardware.accrue"))
        patches.replace(engine, "allocate_bandwidth",
                        timed("hardware.allocate_bandwidth"))
        for method in _LIBMSR_METHODS:
            patches.replace(api.LibMSR, method, timed("libmsr.api"))
        patches.replace(simulation.ClusterSimulation, "run",
                        timed("cluster.run"))
        patches.replace(policies.ProgressAwareRebalancer, "allocate",
                        timed("cluster.allocate"))
        patches.replace(policies.UniformPowerPolicy, "allocate",
                        timed("cluster.allocate"))
        patches.replace(sharding.ShardedLockstep, "step",
                        timed("cluster.lockstep_step"))
        patches.replace(host.VectorEngine, "step", timed("vector.step"))
        patches.replace(scheduler.PowerAwareScheduler, "step",
                        timed("scheduler.step"))
        patches.replace(service.Daemon, "tick", timed("daemon.tick"))
        patches.replace(protocol, "encode", timed("daemon.codec"))
        patches.replace(protocol, "decode", timed("daemon.codec"))

        def engine_run(original):
            timed_run = wrap("runtime.engine_run", original)

            def run(self, until=None):
                before = self.clock.now
                try:
                    return timed_run(self, until)
                finally:
                    recorder.count("runtime.sim_s", self.clock.now - before)
            return run

        def add_timer(original):
            def add(self, delay, callback, period=None):
                return original(self, delay,
                                wrap(timer_layer(callback), callback),
                                period)
            return add

        def spawn(original):
            def spawn_timed(self, gen, core_id=None, name=None):
                return original(self, _TimedSteps(recorder, gen), core_id,
                                name)
            return spawn_timed

        def on_publish(original):
            def hook(self, fn):
                return original(self, wrap("telemetry.publish", fn))
            return hook

        def build(original):
            timed_build = wrap("vector.build", original)

            def build_counted(self, items):
                items = list(items)
                timed_build(self, items)
                vectorized = set(self.vector_node_ids)
                recorder.count("vector.built", len(items))
                recorder.count("vector.engaged", sum(
                    1 for node_id, _ in items if node_id in vectorized))
            return build_counted

        def handle(original):
            wrapped = {name: wrap(name, original)
                       for name in (*_HANDLE_KINDS.values(),
                                    "daemon.handle.other")}

            def handle_by_kind(self, request):
                name = _HANDLE_KINDS.get(type(request).__name__,
                                         "daemon.handle.other")
                return wrapped[name](self, request)
            return handle_by_kind

        def bus_init(original):
            def init(self, *args, **kwargs):
                original(self, *args, **kwargs)
                buses.append(self)
            return init

        patches.replace(engine.Engine, "run", engine_run)
        patches.replace(engine.Engine, "add_timer", add_timer)
        patches.replace(engine.Engine, "spawn", spawn)
        patches.replace(engine.Engine, "on_publish", on_publish)
        patches.replace(host.VectorEngine, "build", build)
        patches.replace(service.Daemon, "handle", handle)
        patches.replace(pubsub.MessageBus, "__init__", bus_init)
    except BaseException:
        patches.restore()
        raise
    return patches


def telemetry_dropped(buses) -> int:
    """Messages the given buses' transports dropped."""
    return sum(bus.dropped for bus in buses)
