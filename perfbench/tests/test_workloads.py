"""Workloads at tiny sizes: digests repeat, checks hold, failures count."""

import json
import math
from collections import Counter
from pathlib import Path

import pytest

from perfbench import spec
from perfbench.spans import SpanRecorder, clock
from perfbench.workloads import (Cluster1k, DaemonChurn, PaperNode, Timed,
                                 digest)

ROOT = Path(__file__).resolve().parents[2]


def _outputs(make):
    workload = make()
    workload.setup()
    try:
        timed = workload.run(0.0)
        workload.finish()
        return timed, workload.outputs(), workload.invariants()
    finally:
        workload.teardown()


def test_digest_is_exact_about_floats():
    x = 0.1
    assert digest([x, {"k": (1, 2.5)}]) == digest([0.1, {"k": [1, 2.5]}])
    assert digest([x]) != digest([math.nextafter(x, 1.0)])


def test_paper_node_digest_is_stable_across_runs():
    make = lambda: PaperNode(4, apps=("amg",), duration=2.0)  # noqa: E731
    timed, first, failed = _outputs(make)
    _, second, _ = _outputs(make)
    assert failed == []
    assert digest(first) == digest(second)
    assert len(first) == 4 == timed.attempted
    assert [run["scheme"] for run in first] == \
        ["uncapped", "linear", "step", "jagged"]
    assert timed.node_s == 4 * 3 * 2.0
    assert len(timed.probes) == 4 and min(timed.probes) > 0


def test_probe_time_is_left_out_of_the_phase_wall_time():
    timed = Timed(probes=[0.25, 0.5])
    start = clock() - 1.0
    timed.stop(start)
    assert 0.25 <= timed.wall_s < 0.5


def test_paper_node_seed_changes_the_inputs():
    a = _outputs(lambda: PaperNode(1, apps=("amg",), duration=2.0))[1]
    b = _outputs(lambda: PaperNode(2, apps=("amg",), duration=2.0))[1]
    assert digest(a) != digest(b)


def test_cluster_digest_is_stable_and_invariants_hold():
    make = lambda: Cluster1k(5, n_nodes=12, ref_epochs=2)  # noqa: E731
    timed, first, failed = _outputs(make)
    _, second, _ = _outputs(make)
    assert failed == []
    assert digest(first) == digest(second)
    assert len(first["total_progress"][1]) == 2
    assert timed.attempted == len(timed.samples) == len(timed.probes) == 11
    assert timed.node_s == pytest.approx(12 * 11.0)


def test_cluster_budget_invariant_fires():
    workload = Cluster1k(5, n_nodes=12, ref_epochs=2)
    workload.setup()
    try:
        workload.run(0.0)
        workload.budget = 1.0     # every recorded epoch now exceeds it
        assert "budget-within-cluster-budget" in workload.invariants()
    finally:
        workload.teardown()


@pytest.mark.slow
def test_daemon_digest_is_stable_and_every_job_completes_once():
    make = lambda: DaemonChurn(6, users=3, ref_epochs=4)  # noqa: E731
    timed, first, failed = _outputs(make)
    _, second, _ = _outputs(make)
    assert failed == []
    assert digest(first) == digest(second)
    assert timed.failed == 0
    assert len(timed.samples) > 10
    assert len(timed.probes) >= 4
    assert timed.extra["admit"]


@pytest.mark.slow
def test_traced_daemon_records_its_handle_spans():
    workload = DaemonChurn(6, SpanRecorder(), users=2, ref_epochs=2)
    workload.setup()
    try:
        workload.run(0.0)
        workload.finish()
    finally:
        workload.teardown()
    assert workload.invariants() == []
    spans, _counters = workload.external()
    calls = Counter(sp[1] for sp in spans)
    assert calls["daemon.handle.run"] > 0
    assert calls["daemon.handle.tick"] > 0


def test_traced_daemon_without_its_span_file_fails_by_name(tmp_path):
    workload = DaemonChurn(0, SpanRecorder(), scratch=tmp_path)
    workload._dir = str(tmp_path / "daemon")
    Path(workload._dir).mkdir()
    workload.teardown()
    assert "daemon-spans-missing" in workload.invariants()


class _RefusingDriver:
    def run(self, job_id, app_name, **kwargs):
        from repro.daemon import protocol as proto

        return proto.ErrorReply(code="queue-full", message="full")


def test_daemon_error_reply_counts_as_failed():
    workload = DaemonChurn(0)
    workload.driver = _RefusingDriver()
    timed = Timed(extra={"admit": []})
    workload._submit(timed)
    assert (timed.attempted, timed.failed) == (1, 1)
    assert "every-job-accepted" in workload.invariants()


def test_benchmark_json_is_generated_from_the_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
    bounds = {m["name"]: m["bound"] for m in on_disk["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert [w["name"] for w in on_disk["workloads"]] == list(spec.WORKLOADS)


def test_every_layer_metric_says_what_it_should_move():
    end_to_end = {m.name for m in spec.END_TO_END}
    for metric in spec.PER_LAYER:
        if metric.name.startswith("trace."):
            continue
        assert metric.layer and metric.moves and metric.on, metric.name
        assert set(metric.moves) <= end_to_end
        assert set(metric.on) <= set(spec.WORKLOADS) | set(spec.UNGATED)
        assert not set(metric.on) & set(metric.unchanged_on)


def test_reference_digests_cover_every_workload():
    reference = json.loads(
        (ROOT / "perfbench" / "reference.json").read_text())
    assert set(reference) == set(spec.WORKLOADS) | set(spec.UNGATED)
