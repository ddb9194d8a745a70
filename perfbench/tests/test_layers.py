"""The layer wrappers: they time, they do not change results, and they
leave no trace behind."""

import pytest

from perfbench import layers
from perfbench.spans import SpanRecorder, attribute, clock


def _patched_objects():
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

    owners = [harness.Testbed, builder.NodeStack, node.SimulatedNode,
              engine, api.LibMSR, simulation.ClusterSimulation,
              policies.ProgressAwareRebalancer, policies.UniformPowerPolicy,
              sharding.ShardedLockstep, host.VectorEngine,
              scheduler.PowerAwareScheduler, service.Daemon, protocol,
              engine.Engine, pubsub.MessageBus]
    return {(id(owner), attr): value for owner in owners
            for attr, value in vars(owner).items()}


def test_install_restores_every_original_on_exit():
    before = _patched_objects()
    with pytest.raises(RuntimeError):
        with layers.install(SpanRecorder(), []):
            assert _patched_objects() != before
            raise RuntimeError
    after = _patched_objects()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def _tiny_run():
    from repro.experiments.harness import Testbed
    from repro.nrm.schemes import StepSchedule

    res = Testbed(seed=3).run("lammps", duration=2.0,
                              schedule=StepSchedule(low=80.0,
                                                    high_duration=0.5,
                                                    low_duration=0.5))
    return [list(res.progress.values), list(res.power.values),
            list(res.cap.values), res.pkg_energy]


def test_traced_run_is_bit_identical_and_fully_attributed():
    plain = _tiny_run()
    rec = SpanRecorder()
    buses = []
    with layers.install(rec, buses):
        t0 = clock()
        traced = _tiny_run()
        t1 = clock()
    assert traced == plain
    att = attribute(rec.spans, t0, t1)
    for layer in ("experiments.testbed_run", "stack.build",
                  "runtime.engine_run", "hardware.accrue",
                  "hardware.allocate_bandwidth", "hardware.rapl_tick",
                  "telemetry.monitor_tick", "nrm.controller_tick",
                  "libmsr.api", "apps.resume", "telemetry.publish"):
        assert att.calls.get(layer, 0) > 0, layer
    assert set(att.calls) <= set(layers.LAYERS)
    total = sum(att.self_s.values()) + att.unattributed - att.concurrent
    assert total == pytest.approx(att.wall)
    assert rec.counters["runtime.sim_s"] == pytest.approx(2.0)
    assert len(buses) == 1
    assert layers.telemetry_dropped(buses) == buses[0].dropped


def test_timer_callbacks_are_named_after_their_owner():
    from repro.telemetry.monitor import ProgressMonitor

    class Free:
        def tick(self, now):
            pass

    assert layers.timer_layer(Free().tick) == "runtime.timer"
    assert layers.timer_layer(lambda now: None) == "runtime.timer"
    monitor = ProgressMonitor.__new__(ProgressMonitor)
    assert layers.timer_layer(monitor._tick) == "telemetry.monitor_tick"
