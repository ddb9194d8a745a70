"""Statistics the benchmark reports: median, tail, failure ratio.

The tail of a latency sample is the highest percentile that still has
at least ten samples beyond it, so it is always backed by data; its
percentile and the sample count travel with it. Repeat summaries
(mean, t-interval, bootstrap interval) come from
:mod:`repro.analysis`.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple

__all__ = ["TAIL_BEYOND", "Tail", "tail", "failed_ratio", "summarize"]

#: Samples a tail value must have beyond it.
TAIL_BEYOND = 10


class Tail(NamedTuple):
    value: float
    percentile: float
    n: int


def tail(samples) -> Tail:
    """The highest order statistic with at least :data:`TAIL_BEYOND`
    samples strictly above it, with its percentile (share of samples at
    or below it) and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    k = n - TAIL_BEYOND - 1
    return Tail(ordered[k], 100.0 * (k + 1) / n, n)


def failed_ratio(attempted: int, failed: int) -> float:
    """Failed over attempted operations."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted


def summarize(samples) -> dict:
    """Median, tail and the :mod:`repro.analysis` repeat summary."""
    from repro.analysis import bootstrap_ci, summarize_repeats

    values = [float(v) for v in samples]
    rep = summarize_repeats(values)
    out = {"n": rep.n, "median": statistics.median(values),
           "mean": rep.mean, "std": rep.std,
           "t_ci95": [rep.ci_low, rep.ci_high],
           "bootstrap_ci95": list(bootstrap_ci(values))}
    if len(values) > TAIL_BEYOND:
        t = tail(values)
        out["tail"] = {"value": t.value, "percentile": t.percentile}
    return out
