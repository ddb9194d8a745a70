"""Regenerate the segment-cache golden fixture.

The fixture pins the numeric trajectory of one object-engine node that
is driven through every kind of mid-run hardware change the engine's
per-segment caches must notice:

* a RAPL cap step-down deep enough to engage DDCM (duty modulation),
  and the climb back out when the cap is lifted;
* uncore DVFS (the firmware scales the uncore while a cap is enforced);
* a userspace DVFS ceiling (``set_freq_limit``);
* a per-core duty change (``set_core_duty`` on one core);
* a DRAM-domain bandwidth cap;
* a :class:`~repro.stack.builder.NodeStack` snapshot and restore
  between two segments.

Twenty STREAM workers keep memory bandwidth binding (so uncore and
DRAM throttles move the rates) while four cores stay idle. The fixture
was generated before the engine learned to skip unchanged segments, so
``test_segment_cache.py`` checks that the skipping engine reproduces the
full recompute bit for bit. Run from the repo root::

    PYTHONPATH=src python tests/runtime/make_segment_golden.py
"""

from __future__ import annotations

import json
import os

from repro.stack import NodeStack, StackSpec

OUT = os.path.join(os.path.dirname(__file__), "fixtures",
                   "segment_cache.json")

#: Simulated seconds between two recorded samples.
STEP = 0.05
#: Whole run length (simulated seconds).
DURATION = 4.0


def _cap(watts):
    return lambda stack: stack.libmsr.set_pkg_power_limit(watts)


def _uncap(stack):
    stack.libmsr.remove_pkg_power_limit()


def _freq_limit(hz):
    return lambda stack: stack.node.set_freq_limit(hz)


def _core_duty(core_id, duty):
    return lambda stack: stack.node.set_core_duty(core_id, duty)


def _dram_limit(watts):
    return lambda stack: stack.firmware.set_dram_limit(watts)


def _restore(stack):
    return NodeStack.from_checkpoint(stack.snapshot())


#: ``(time, action)``: each action runs between two segments, once the
#: stack has reached ``time``; an action may return a replacement stack.
EVENTS = (
    (0.50, _cap(70.0)),           # RAPL steps down; uncore DVFS engages
    (1.00, _cap(25.0)),           # ladder bottoms out: DDCM duty
    (1.50, _uncap),               # DDCM undone, climb back up
    (1.80, _freq_limit(2.0e9)),   # userspace DVFS ceiling
    (2.00, _cap(100.0)),          # cap above the ceiling: uncore DVFS only
    (2.20, _core_duty(1, 0.5)),   # one core's clock modulation
    (2.60, _dram_limit(8.0)),     # DRAM-domain bandwidth cap
    (2.90, _restore),             # checkpoint round trip mid-run
    (3.20, _dram_limit(None)),
    (3.25, _freq_limit(3.7e9)),
    (3.50, _cap(90.0)),
)


def spec() -> StackSpec:
    return StackSpec(app_name="stream", controller="none", seed=4,
                     monitor_interval=0.25,
                     app_kwargs={"n_iterations": 100_000, "n_workers": 20})


def drive() -> dict:
    """Run the scenario; returns every recorded quantity as plain data."""
    stack = NodeStack(spec())
    pending = list(EVENTS)
    samples = []
    n_steps = round(DURATION / STEP)
    for i in range(1, n_steps + 1):
        stack.run(until=i * STEP)
        node = stack.node
        power = node.last_power
        samples.append([stack.now, power.package, power.uncore, power.dram,
                        node.frequency, node.duty, node.uncore_scale,
                        node.effective_mem_bandwidth, node.pkg_energy,
                        node.dram_energy])
        while pending and pending[0][0] <= stack.now + 1e-12:
            _, action = pending.pop(0)
            replacement = action(stack)
            if isinstance(replacement, NodeStack):
                stack = replacement
    node = stack.node
    counters = node.counters.dump_state()
    series = stack.progress_series
    return {
        "samples": samples,
        "pkg_energy": node.pkg_energy,
        "dram_energy": node.dram_energy,
        "counters": counters,
        "core_duty": [c.duty for c in node.cores],
        "progress": {"times": [float(t) for t in series.times],
                     "values": [float(v) for v in series.values]},
    }


def main() -> None:
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(drive(), fh, indent=1)
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
