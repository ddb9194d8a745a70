"""Self time, attribution and span grafting."""

import math

import pytest

from perfbench.spans import (TOP, Patches, SpanRecorder, adopt, attribute,
                             chrome_events, covered)


def span(sid, name, start, end, parent=TOP, unit=-1, pid=1, tid=1):
    return (sid, name, start, end, parent, unit, pid, tid)


def test_self_time_nested_and_overlapping_children():
    # [1,3] and [2,5] overlap, [8,12] sticks out of the parent and
    # [2.5,2.75] is nested in [1,3]: the children cover [1,5] and
    # [8,10], six of the parent's ten seconds
    spans = [span(0, "parent", 0.0, 10.0),
             span(1, "a", 1.0, 3.0, parent=0, tid=2),
             span(2, "b", 2.0, 5.0, parent=0, tid=3),
             span(3, "c", 8.0, 12.0, parent=0, tid=4),
             span(4, "d", 2.5, 2.75, parent=1, tid=2)]
    att = attribute(spans, 0.0, 10.0)
    assert att.self_s["parent"] == pytest.approx(4.0)
    assert att.self_s["a"] == pytest.approx(1.75)
    assert att.self_s["c"] == pytest.approx(2.0)    # clipped to 10
    assert att.concurrent == pytest.approx(1.0)     # [2,3] twice


def test_covered_ignores_intervals_outside_and_nested_duplicates():
    assert covered(0.0, 4.0, [(5.0, 6.0), (-2.0, 0.0)]) == 0.0
    assert covered(0.0, 4.0, [(1.0, 3.0), (1.5, 2.5)]) == \
        pytest.approx(2.0)
    assert covered(0.0, 4.0, []) == 0.0


def _identity(att):
    return sum(att.self_s.values()) + att.unattributed - att.concurrent


def test_attribute_nested_spans_add_up_to_wall():
    spans = [
        span(0, "a", 1.0, 5.0),
        span(1, "b", 2.0, 3.0, parent=0),
        span(2, "c", 2.5, 2.75, parent=1),
        span(3, "a", 6.0, 7.0),
    ]
    att = attribute(spans, 0.0, 10.0)
    assert att.calls == {"a": 2, "b": 1, "c": 1}
    assert att.self_s["a"] == pytest.approx(4.0)
    assert att.self_s["b"] == pytest.approx(0.75)
    assert att.self_s["c"] == pytest.approx(0.25)
    assert att.unattributed == pytest.approx(5.0)
    assert att.concurrent == 0.0
    assert _identity(att) == pytest.approx(att.wall)


def test_attribute_overlapping_siblings_are_reported_as_concurrent():
    spans = [span(0, "host", 0.0, 10.0),
             span(1, "x", 1.0, 4.0, parent=0, tid=2),
             span(2, "y", 3.0, 6.0, parent=0, tid=3)]
    att = attribute(spans, 0.0, 10.0)
    assert att.self_s["host"] == pytest.approx(5.0)
    assert att.concurrent == pytest.approx(1.0)
    assert _identity(att) == pytest.approx(att.wall)


def test_attribute_clips_to_the_window_and_to_parents():
    spans = [
        span(0, "setup", -5.0, -1.0),            # before the window
        span(1, "a", -1.0, 2.0),                 # straddles t0
        span(2, "b", 1.0, 3.0, parent=1),        # outlives its parent
        span(3, "late", 9.0, 12.0),              # straddles t1
    ]
    att = attribute(spans, 0.0, 10.0)
    assert "setup" not in att.calls
    assert att.self_s["a"] == pytest.approx(1.0)
    assert att.self_s["b"] == pytest.approx(1.0)
    assert att.self_s["late"] == pytest.approx(1.0)
    assert _identity(att) == pytest.approx(10.0)


def test_recorder_links_nested_calls_and_units():
    rec = SpanRecorder()

    def inner():
        return 7

    inner_t = rec.wrap("inner", inner)
    outer_t = rec.wrap("outer", lambda: inner_t() + 1)
    rec.unit = 3
    assert outer_t() == 8
    by_name = {sp[1]: sp for sp in rec.spans}
    assert by_name["inner"][4] == by_name["outer"][0]
    assert by_name["outer"][4] == TOP
    assert by_name["inner"][5] == 3


def test_recorder_records_the_span_when_the_call_raises():
    rec = SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    assert [sp[1] for sp in rec.spans] == ["boom"]
    with rec.span("after"):
        pass
    assert rec.spans[-1][4] == TOP   # the stack unwound


def test_adopt_grafts_external_roots_under_the_waiting_host_span():
    local = [span(0, "daemon.io", 1.0, 2.0, unit=0),
             span(1, "daemon.io", 3.0, 4.0, unit=1)]
    external = [span(0, "handle", 3.2, 3.8, pid=2),
                span(1, "tick", 3.3, 3.7, parent=0, pid=2),
                span(2, "flush", 5.0, 5.5, pid=2)]
    adopt(local, external, "daemon.io")
    by_name = {sp[1]: sp for sp in local}
    assert by_name["handle"][4] == 1 and by_name["handle"][5] == 1
    assert by_name["tick"][4] == by_name["handle"][0]
    assert by_name["flush"][4] == TOP
    att = attribute(local, 0.0, 6.0)
    assert att.self_s["daemon.io"] == pytest.approx(1.0 + 0.4)
    assert _identity(att) == pytest.approx(6.0)


def test_chrome_events_round_trip_through_the_obs_loader(tmp_path):
    from repro.obs.export import load_trace, write_chrome

    spans = [span(0, "a.b", 1.0, 1.5), span(1, "c", 1.1, 1.2, parent=0)]
    path = tmp_path / "t.json"
    write_chrome(path, chrome_events(spans, 1.0))
    events = load_trace(path)
    assert [ev["name"] for ev in events] == ["a.b", "c"]
    assert events[0]["dur"] == 500_000_000
    assert events[1]["args"]["parent"] == 0
    assert math.isclose(events[1]["ts"], 100_000_000)


def test_patches_restore_the_exact_original_objects():
    class Owner:
        def method(self):
            return "original"

        @staticmethod
        def helper():
            return "static"

    raw_method = vars(Owner)["method"]
    raw_helper = vars(Owner)["helper"]
    with pytest.raises(RuntimeError):
        with Patches() as patches:
            patches.replace(Owner, "method", lambda orig: lambda self: "x")
            patches.replace(Owner, "helper",
                            lambda orig: staticmethod(lambda: "y"))
            assert Owner().method() == "x" and Owner.helper() == "y"
            raise RuntimeError
    assert vars(Owner)["method"] is raw_method
    assert vars(Owner)["helper"] is raw_helper
    assert Owner.helper() == "static"


def test_patches_refuse_attributes_not_defined_on_the_owner():
    class Base:
        def method(self):
            pass

    class Child(Base):
        pass

    with pytest.raises(KeyError):
        Patches().replace(Child, "method", lambda orig: orig)
