"""Measure the sharded lockstep's per-epoch pickle traffic.

The ROADMAP's delta-shipping item wants to shrink what the lockstep
pickles per epoch. This benchmark measures a 2-shard run over the
``step`` wire (grouped targets/windows, budgets only when changed,
bare-tuple replies) with :class:`~repro.cluster.sharding
.ShardedLockstep`'s payload measurement (``measure_payloads=True``) and
writes the numbers to ``benchmarks/out/pickle_payload.txt`` next to the
recorded baseline of the retired one-StepRequest/StepResult-per-node
framing. The sharded series must equal the serial ``shards=1`` series
(the path with no wire), measured or not — asserted here.
"""

from repro.cluster.policies import ProgressAwareRebalancer
from repro.cluster.simulation import ClusterSimulation

N_NODES = 4
DURATION = 6.0
EPOCH = 1.0
APP_KW = {"n_steps": 10_000_000, "n_workers": 4}

#: Mean per-epoch bytes of the per-node framing (one StepRequest down
#: and one StepResult up per node) on this exact run, measured before
#: the delta wire replaced it — the pre-delta baseline.
PER_NODE_DOWN_BYTES = 454
PER_NODE_UP_BYTES = 550


def _run(shards, measure):
    sim = ClusterSimulation(
        N_NODES, "lammps",
        ProgressAwareRebalancer(4 * 95.0, min_node=60.0, max_node=130.0),
        app_kwargs=APP_KW, variability=(0.05, 0.08), seed=7, shards=shards)
    sim._lockstep.measure_payloads = measure
    try:
        sim.run(DURATION, epoch=EPOCH)
        series = (list(sim.total_progress.values),
                  list(sim.critical_path.values), sim.total_energy)
        return series, sim._lockstep.payload_stats
    finally:
        sim.close()


def test_bench_pickle_payloads(benchmark, save_artifact):
    series, stats = benchmark.pedantic(
        lambda: _run(shards=2, measure=True), rounds=1, iterations=1)
    serial_series, serial_stats = _run(shards=1, measure=True)
    unmeasured_series, _ = _run(shards=2, measure=False)
    # neither measuring nor the wire changes the numbers
    assert series == serial_series
    assert series == unmeasured_series
    assert serial_stats.epochs == 0  # the serial path has no wire

    n_epochs = int(DURATION / EPOCH)
    assert stats.epochs == n_epochs
    down, up = stats.mean_epoch_bytes()
    assert down > 0 and up > 0
    # the wire must stay smaller than the per-node baseline, both ways
    assert down < PER_NODE_DOWN_BYTES, (down, PER_NODE_DOWN_BYTES)
    assert up < PER_NODE_UP_BYTES, (up, PER_NODE_UP_BYTES)

    lines = [
        "Sharded lockstep pickle payload "
        f"({N_NODES} nodes, lammps, {DURATION:.0f} s / {EPOCH:.0f} s "
        "epochs, 2 shards)",
        "",
        f"epochs measured:        {stats.epochs}",
        "",
        "per-node framing (the pre-delta baseline, recorded before the",
        "delta wire replaced it; no longer runnable):",
        f"  mean per-epoch down:  {PER_NODE_DOWN_BYTES} B "
        "(budgets + step requests)",
        f"  mean per-epoch up:    {PER_NODE_UP_BYTES} B "
        "(rates + epoch energy)",
        "",
        "step wire (measured):",
        f"  mean per-epoch down:  {down:.0f} B "
        f"({PER_NODE_DOWN_BYTES / down:.1f}x smaller; grouped targets, "
        "delta budgets)",
        f"  mean per-epoch up:    {up:.0f} B "
        f"({PER_NODE_UP_BYTES / up:.1f}x smaller; bare float tuples)",
        f"  total down:           {stats.bytes_down} B "
        f"over {stats.dispatches} dispatches",
        f"  total up:             {stats.bytes_up} B",
        "",
        "Measurement starts after cluster construction, so these are "
        "the",
        "steady-state epoch exchanges (budgets down; rates + energy "
        "up).",
        "The sharded series equals the serial shards=1 series — "
        "asserted by",
        "this benchmark.",
    ]
    save_artifact("pickle_payload", "\n".join(lines))
