"""Span recording, attribute patching and self-time attribution.

A :class:`SpanRecorder` keeps one tuple per timed call in memory:
``(id, name, start, end, parent, unit, pid, tid)``. ``parent`` is the
id of the span open on the same thread when the call began (-1 at top
level) and ``unit`` the index of the benchmark's timed unit (run,
epoch, closed-loop round) the call belongs to. Times come from
``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux and so
comparable between the benchmark and the daemon subprocess.

:func:`attribute` turns a span list into per-layer self times over one
interval (the timed phase). Self time is a span's duration minus the
part of it its children cover. Every span is first clipped to its
parent, so the layer self times, the time no span covers
(``unattributed``) and the time covered twice by concurrent sibling
spans (``concurrent``) satisfy exactly::

    sum(layer self times) + unattributed - concurrent == wall
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["SpanRecorder", "NullRecorder", "Patches", "covered",
           "Attribution", "attribute", "adopt", "chrome_events", "dump",
           "load"]

clock = time.perf_counter

#: ``parent`` of a span with no enclosing span.
TOP = -1


class SpanRecorder:
    """In-memory store of finished spans plus named counters."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.unit = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._counter_lock = threading.Lock()
        self._pid = os.getpid()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        pid = self._pid
        get_ident = threading.get_ident

        def timed(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else TOP
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.unit,
                              pid, get_ident()))

        timed.__wrapped__ = fn
        return timed

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` block as one span called ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else TOP
        stack.append(sid)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.unit,
                               self._pid, threading.get_ident()))

    def count(self, name: str, amount: float = 1) -> None:
        with self._counter_lock:
            self.counters[name] = self.counters.get(name, 0) + amount


class NullRecorder:
    """The untraced stand-in: spans and counters cost a no-op."""

    enabled = False
    unit = -1

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, amount: float = 1) -> None:
        pass


class Patches:
    """Swap attributes for wrappers; :meth:`restore` puts back exactly
    the objects that were there (use as a context manager)."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)``. The attribute must
        be defined on ``owner`` itself, so a renamed API fails loudly
        instead of silently going untimed."""
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if e > start and s < end)
    total = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        elif e > run_end:
            run_end = e
    if run_end is not None:
        total += run_end - run_start
    return total


@dataclass
class Attribution:
    """Per-layer calls and self time over one interval."""

    wall: float
    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    unattributed: float = 0.0
    concurrent: float = 0.0
    spans: int = 0


def attribute(spans, t0: float, t1: float) -> Attribution:
    """Attribute the interval ``[t0, t1]`` to the spans inside it.

    Spans whose parent is :data:`TOP` (or not in ``spans``) hang off a
    virtual root covering the interval; the root's self time is the
    unattributed remainder. A span clipped to nothing by its parent is
    dropped together with its descendants.
    """
    children: dict[int, list[tuple]] = {}
    ids = {sp[0] for sp in spans}
    for sp in spans:
        parent = sp[4] if sp[4] in ids else TOP
        children.setdefault(parent, []).append(sp)
    out = Attribution(wall=t1 - t0)
    todo = [(TOP, "", t0, t1)]
    while todo:
        sid, name, start, end = todo.pop()
        kids = []
        for kid in children.get(sid, ()):
            s, e = max(kid[2], start), min(kid[3], end)
            if e > s:
                kids.append((kid[0], kid[1], s, e))
        union = covered(start, end, [(s, e) for _, _, s, e in kids])
        out.concurrent += sum(e - s for _, _, s, e in kids) - union
        if sid == TOP:
            out.unattributed = (end - start) - union
        else:
            out.calls[name] = out.calls.get(name, 0) + 1
            out.self_s[name] = out.self_s.get(name, 0.0) + \
                (end - start) - union
            out.spans += 1
        todo.extend(kids)
    return out


def adopt(spans: list[tuple], external: list[tuple], host: str) -> None:
    """Graft spans recorded in another process into ``spans``.

    External ids are renumbered past the local ones; an external
    top-level span becomes a child of the local ``host`` span whose
    interval holds its start (the client call that was waiting on it)
    and takes that span's unit. Host spans must not overlap each other
    (they come from one client thread).
    """
    offset = 1 + max((sp[0] for sp in spans), default=-1)
    hosts = sorted((sp for sp in spans if sp[1] == host),
                   key=lambda sp: sp[2])
    starts = [sp[2] for sp in hosts]
    for sid, name, start, end, parent, _unit, pid, tid in external:
        if parent != TOP:
            spans.append((sid + offset, name, start, end, parent + offset,
                          -1, pid, tid))
            continue
        i = bisect_right(starts, start) - 1
        if i >= 0 and start < hosts[i][3]:
            spans.append((sid + offset, name, start, end, hosts[i][0],
                          hosts[i][5], pid, tid))
        else:
            spans.append((sid + offset, name, start, end, TOP, -1, pid,
                          tid))


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------


def chrome_events(spans, t0: float) -> list[dict]:
    """Spans as complete events in the nanosecond form that
    :func:`repro.obs.export.write_chrome` converts for Perfetto."""
    return [{"name": name, "ph": "X", "cat": name.split(".", 1)[0],
             "ts": int(round((start - t0) * 1e9)),
             "dur": int(round((end - start) * 1e9)),
             "pid": pid, "tid": tid,
             "args": {"id": sid, "parent": parent, "unit": unit}}
            for sid, name, start, end, parent, unit, pid, tid in spans]


def dump(recorder: SpanRecorder, path: str) -> None:
    """Write a recorder's spans and counters for :func:`load`."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"spans": recorder.spans,
                   "counters": recorder.counters}, f)


def load(path: str) -> tuple[list[tuple], dict[str, float]]:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return [tuple(sp) for sp in doc["spans"]], doc["counters"]
