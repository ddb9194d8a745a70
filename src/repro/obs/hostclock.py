"""The package's *only* host-clock source — audited.

Everything in the simulator runs on simulated time
(:class:`repro.runtime.clock.SimClock`), and the determinism lint
(:mod:`repro.lint.rules.determinism`) bans host-clock reads precisely so
simulation results stay a pure function of the seed. A few layers must
nonetheless look at the host clock; rather than scattering per-line
lint suppressions, every such read is confined to this module, which
the determinism rules recognize by path as the single audited allowance
(``AUDITED_CLOCK_MODULES`` in :mod:`repro.lint.rules.determinism`).

One function per clock; each caller is bound by one contract:

* **describe-only** — :mod:`repro.obs` (trace spans, manifest
  timestamps) and the experiments CLI's "regenerated in" line read
  :func:`perf_ns` and :func:`wall_s` to *describe* a run. No simulated
  quantity, seed, schedule or control decision may derive from them.
* **pacing-only** — :mod:`repro.daemon` reads :func:`monotonic_s` to
  decide *when* simulated epochs run (the server's
  :class:`~repro.runtime.pacing.EpochPacer`) and how long a client
  waits for a frame; *what* an epoch computes never depends on it.
* **placement-only** — :mod:`repro.cluster.sharding` times each
  shard's epoch step with :func:`perf_ns` for the shard balancer,
  whose readings may steer which worker hosts which node and nothing
  else. Placement is invisible to simulated results: the lockstep
  contract (golden parity across shards and engines, ``tests/cluster/``,
  ``tests/vector/``) guarantees bit-identical series for any
  node-to-shard assignment.

The allowance covers clocks only: no other host state (environment,
entropy, PIDs of semantic import) is read here.
"""

from __future__ import annotations

import time

__all__ = ["perf_ns", "wall_s", "monotonic_s"]


def perf_ns() -> int:
    """Monotonic high-resolution timestamp (ns) for durations."""
    return time.perf_counter_ns()


def wall_s() -> float:
    """Wall-clock seconds since the epoch, for manifest timestamps."""
    return time.time()


def monotonic_s() -> float:
    """Monotonic host clock in seconds (pacing and timeouts)."""
    return time.monotonic()
