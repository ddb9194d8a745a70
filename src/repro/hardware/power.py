"""Physically-motivated package power model.

Per-core power combines leakage (proportional to supply voltage) and
dynamic switching power ``c_dyn * V(f)^2 * f * duty * activity``. Because
the voltage curve has a floor below the knee frequency and rises linearly
above it (see :class:`~repro.hardware.config.NodeConfig`), the *effective*
exponent alpha in ``P_core ~ f^alpha`` drifts from ~1 near the bottom of
the ladder to ~3 near the top. The paper's analytic model fixes alpha = 2;
this drift is one of the physical sources of its prediction error
(Section VI-B3 reports alpha varying "between 1 and 4").

Uncore (and DRAM-domain) power scales with memory traffic, so memory-bound
workloads spend a larger share of any package budget outside the cores —
which is why RAPL runs them at lower core frequencies for the same cap
(paper Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.config import NodeConfig
from repro.hardware.cpu import CoreMode, CoreState
from repro.hardware.kernels import (
    busy_activity,
    core_power,
    dram_power,
    uncore_power,
)

__all__ = ["PowerSample", "PowerModel"]


@dataclass(frozen=True)
class PowerSample:
    """Instantaneous power breakdown in watts."""

    package: float   #: total package-domain power (cores + uncore)
    cores: float     #: sum of per-core static + dynamic power
    uncore: float    #: traffic-dependent uncore power
    dram: float      #: DRAM-domain power (separate RAPL domain)

    @property
    def total(self) -> float:
        """Package + DRAM power (the whole node as RAPL sees it)."""
        return self.package + self.dram


class _Voltages(dict):
    """Supply voltage by frequency: every ladder step up front, any other
    frequency (a hypothetical core in analysis code) on first use."""

    def __init__(self, cfg: NodeConfig) -> None:
        super().__init__(zip(cfg.freq_ladder, cfg.ladder_voltages()))
        self.cfg = cfg

    def __missing__(self, freq: float) -> float:
        volt = self[freq] = self.cfg.voltage(freq)
        return volt


class PowerModel:
    """Maps node state to instantaneous power draw.

    Pricing is memoised where the inputs repeat: the supply voltage of
    every ladder frequency is computed once, and a core that is not
    BUSY (idle, spinning or asleep) draws a power fixed by its
    ``(mode, freq, duty)``. Only BUSY cores, whose activity follows
    their compute fraction, are priced afresh each time.
    """

    def __init__(self, cfg: NodeConfig) -> None:
        self.cfg = cfg
        self._volt = _Voltages(cfg)
        self._flat: dict[tuple[CoreMode, float, float], float] = {}

    def fold(self, cores: list[CoreState],
             at: tuple[float, float] | None = None) -> tuple[float, float]:
        """Total core power and memory traffic of ``cores``.

        Both are explicit left folds in core order: builtin ``sum`` and
        ``numpy.sum`` reassociate (compensated from Python 3.12,
        pairwise from 8 elements), which would move the last bits and
        break parity with the vector engine's column fold. ``at`` prices
        every core at a candidate ``(freq, duty)`` instead of its own
        (the RAPL firmware's step-up prediction); activity and traffic
        stay the cores' current ones.
        """
        cfg = self.cfg
        c_dyn, leak, stall = cfg.c_dyn, cfg.leak_per_volt, cfg.stall_activity
        volts = self._volt
        flat = self._flat
        busy = CoreMode.BUSY
        total = 0.0
        traffic = 0.0
        for core in cores:
            freq, duty = (core.freq, core.duty) if at is None else at
            mode = core.mode
            if mode is busy:
                power = core_power(volts[freq], freq, duty,
                                   busy_activity(core.compute_frac, stall),
                                   c_dyn, leak)
            else:
                power = flat.get((mode, freq, duty))
                if power is None:
                    power = flat[mode, freq, duty] = core_power(
                        volts[freq], freq, duty, core.activity(cfg),
                        c_dyn, leak)
            total = total + power
            traffic = traffic + core.bytes_rate
        return total, traffic

    def core_power(self, core: CoreState) -> float:
        """Static + dynamic power of one core (watts)."""
        return self.fold([core])[0]

    def sample(self, cores: list[CoreState]) -> PowerSample:
        """Power breakdown for the whole node given per-core states."""
        cfg = self.cfg
        core_total, traffic = self.fold(cores)
        uncore = uncore_power(traffic, cfg.uncore_base, cfg.uncore_per_bw)
        dram = dram_power(traffic, cfg.dram_base, cfg.dram_per_bw)
        return PowerSample(
            package=core_total + uncore,
            cores=core_total,
            uncore=uncore,
            dram=dram,
        )

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------

    def core_power_at(self, freq: float, activity: float = 1.0,
                      duty: float = 1.0) -> float:
        """Power of a single hypothetical core at ``freq`` (watts).

        Useful for plotting the P(f) curve and for deriving the effective
        alpha exponent without running a simulation.
        """
        cfg = self.cfg
        volt = cfg.voltage(freq)
        return core_power(volt, freq, duty, activity,
                          cfg.c_dyn, cfg.leak_per_volt)

    def effective_alpha(self, f_low: float, f_high: float,
                        activity: float = 1.0) -> float:
        """Local exponent alpha such that ``P ~ f^alpha`` between two
        frequencies, using only the *dynamic* component (the paper's Eq. 2
        concerns dynamic power).
        """
        import math

        cfg = self.cfg
        p_low = cfg.c_dyn * cfg.voltage(f_low) ** 2 * f_low * activity
        p_high = cfg.c_dyn * cfg.voltage(f_high) ** 2 * f_high * activity
        return math.log(p_high / p_low) / math.log(f_high / f_low)
