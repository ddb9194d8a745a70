"""Tests for the serial epoch lockstep: :func:`node_rate`,
:func:`step_node` and :class:`ShardedLockstep` with ``shards=1``."""

import pytest

pytestmark = pytest.mark.slow

from repro.cluster.node_instance import NodeInstance
from repro.cluster.policies import UniformPowerPolicy
from repro.cluster.sharding import ShardedLockstep, StepRequest, node_rate
from repro.stack import BUDGET, StackSpec

APP_KW = {"n_steps": 1_000_000, "n_workers": 8}


@pytest.fixture
def lockstep():
    ls = ShardedLockstep(shards=1)
    yield ls
    ls.close()


def add_nodes(lockstep, n=2, seed=0):
    lockstep.add_nodes([
        (i, StackSpec(app_name="lammps", app_kwargs=dict(APP_KW),
                      seed=seed + 1000 * i, controller=BUDGET))
        for i in range(n)])
    return [lockstep.local_nodes()[i] for i in range(n)]


def step(lockstep, target, budgets=None, windows=()):
    """One epoch for every node, delivering ``budgets`` when given."""
    ids = sorted(lockstep.local_nodes())
    return lockstep.step([
        StepRequest(node_id=i, target=target,
                    budget=None if budgets is None else budgets[i],
                    set_budget=budgets is not None, windows=windows)
        for i in ids])


class TestCollectRates:
    def test_first_epoch_is_all_zeros(self, lockstep):
        # Before any epoch has run, no monitor has closed a window: the
        # guard must report 0.0 instead of NaN-poisoning an allocator.
        nodes = add_nodes(lockstep, 2)
        assert all(isinstance(n, NodeInstance) for n in nodes)
        assert [node_rate(n, 3.0) for n in nodes] == [0.0, 0.0]
        assert lockstep.rates([(0, 3.0), (1, 3.0)]) == [0.0, 0.0]

    def test_rates_positive_after_progress(self, lockstep):
        add_nodes(lockstep, 2)
        results = step(lockstep, 4.0, windows=(3.0,))
        assert all(r.rates[3.0] > 0.0 for r in results)
        rates = lockstep.rates([(0, 3.0), (1, 3.0)])
        assert all(r > 0.0 for r in rates)
        assert rates == [r.rates[3.0] for r in results]


class TestRebalanceNodes:
    def test_first_epoch_allocation_survives_empty_series(self, lockstep):
        add_nodes(lockstep, 3)
        rates = lockstep.rates([(i, 3.0) for i in range(3)])
        budgets = UniformPowerPolicy(300.0).allocate(rates)
        assert budgets == pytest.approx([100.0] * 3)

    def test_budgets_delivered_to_policies(self, lockstep):
        nodes = add_nodes(lockstep, 2)
        rates = lockstep.rates([(0, 3.0), (1, 3.0)])
        budgets = [float(b)
                   for b in UniformPowerPolicy(160.0).allocate(rates)]
        step(lockstep, 4.0, budgets=budgets)  # applied on the next tick
        for node in nodes:
            assert node.policy.cap_series.values[-1] == pytest.approx(80.0)


class TestAdvanceLockstep:
    def test_advances_all_nodes_and_sums_energy(self, lockstep):
        nodes = add_nodes(lockstep, 2)
        results = step(lockstep, 3.0)
        assert all(n.now == pytest.approx(3.0) for n in nodes)
        assert all(r.now == pytest.approx(3.0) for r in results)
        assert sum(r.energy for r in results) == \
            pytest.approx(sum(n.node.pkg_energy for n in nodes))

    def test_energy_is_per_epoch_delta(self, lockstep):
        [node] = add_nodes(lockstep, 1)
        [first] = step(lockstep, 2.0)
        [second] = step(lockstep, 4.0)
        assert first.energy > 0 and second.energy > 0
        assert first.energy + second.energy == \
            pytest.approx(node.node.pkg_energy)
