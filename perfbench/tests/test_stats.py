"""Tail selection, failure accounting and repeat summaries."""

import pytest

from perfbench.stats import failed_ratio, summarize, tail


def test_tail_keeps_ten_samples_beyond_it():
    values = list(range(1, 101))       # 1..100, shuffled below
    values = values[::2] + values[1::2]
    t = tail(values)
    assert t.value == 90
    assert t.percentile == pytest.approx(90.0)
    assert t.n == 100
    assert sum(v > t.value for v in values) == 10


def test_tail_of_the_smallest_admissible_sample_is_its_minimum():
    t = tail([5.0] + [9.0] * 10)
    assert t.value == 5.0
    assert t.percentile == pytest.approx(100.0 / 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_tail_counts_only_samples_strictly_beyond_position():
    # ties at the tail value do not count as beyond it
    t = tail([1.0] * 15 + [2.0] * 10)
    assert t.value == 1.0
    assert t.percentile == pytest.approx(60.0)


def test_failed_ratio_accounting():
    assert failed_ratio(40, 0) == 0.0
    assert failed_ratio(4, 1) == 0.25
    assert failed_ratio(3, 3) == 1.0
    with pytest.raises(ValueError):
        failed_ratio(0, 0)
    with pytest.raises(ValueError):
        failed_ratio(3, 4)


def test_summarize_uses_the_repeat_statistics():
    out = summarize([1.0, 2.0, 3.0, 4.0])
    assert out["n"] == 4
    assert out["median"] == 2.5
    assert out["mean"] == 2.5
    lo, hi = out["t_ci95"]
    assert lo < 2.5 < hi
    assert "tail" not in out
    assert summarize([float(i) for i in range(20)])["tail"]["value"] == 9.0
