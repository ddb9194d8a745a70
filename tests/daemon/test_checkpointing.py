"""Daemon persistence: periodic store checkpoints, crash resume, parity."""

import dataclasses
import os
import pickle

import pytest

from repro.daemon import protocol as proto
from repro.daemon.service import DAEMON_STATE_VERSION, Daemon
from repro.exceptions import CheckpointError, ConfigurationError
from repro.runtime.runfile import CheckpointStore, save_run_checkpoint

from tests.daemon.conftest import drain, make_daemon, run_request

pytestmark = pytest.mark.slow

JOBS = [
    dict(job_id="eco2", n_nodes=2, seconds=3.0, tol=0.3),
    dict(job_id="rigid", n_nodes=1, seconds=2.0),
    dict(job_id="eco1", n_nodes=2, seconds=2.5, tol=0.25),
]


def submit_all(daemon):
    for spec in JOBS:
        spec = dict(spec)
        reply = daemon.handle(run_request(spec.pop("job_id"), **spec))
        assert isinstance(reply, proto.RunReply), reply


def final_statuses(daemon):
    return [daemon.handle(proto.StatusRequest(job_id=s["job_id"]))
            for s in JOBS]


def control_statuses():
    """The uninterrupted run every resumed run must equal."""
    control = make_daemon()
    try:
        submit_all(control)
        drain(control)
        return final_statuses(control)
    finally:
        control.close()


def stored_epochs(root):
    return CheckpointStore(str(root), kind="daemon").epochs()


class TestPeriodicCheckpoint:
    def test_written_at_cadence(self, tmp_path):
        root = tmp_path / "store"
        daemon = make_daemon(checkpoint_interval=2,
                             checkpoint_dir=str(root))
        try:
            submit_all(daemon)
            assert stored_epochs(root) == []
            daemon.tick(1)
            assert stored_epochs(root) == []
            daemon.tick(1)
            assert stored_epochs(root) == [2]
            daemon.tick(2)
            assert stored_epochs(root) == [2, 4]
        finally:
            daemon.close()

    def test_explicit_checkpoint_without_path_raises(self, daemon):
        with pytest.raises(ConfigurationError):
            daemon.checkpoint()

    def test_draining_epoch_is_counted_and_checkpointed(self, tmp_path):
        """The epoch that finishes the last job is an epoch like any
        other: counted in ``InfoReply.epochs`` and stored."""
        root = tmp_path / "store"
        daemon = make_daemon(checkpoint_interval=1,
                             checkpoint_dir=str(root))
        try:
            for job_id in ("a", "b"):
                daemon.handle(run_request(job_id, seconds=2.5))
            drain(daemon)
            info = daemon.handle(proto.InfoRequest())
            assert daemon.scheduler.epochs_done == 3
            assert info.epochs == daemon.scheduler.epochs_done
            assert info.now == 3.0
            assert stored_epochs(root) == [1, 2, 3]
            assert CheckpointStore(str(root), kind="daemon").latest().now \
                == 3.0
        finally:
            daemon.close()


class TestResume:
    def test_crash_resume_matches_uninterrupted_run(self, tmp_path):
        root = tmp_path / "store"
        daemon = make_daemon(checkpoint_interval=2,
                             checkpoint_dir=str(root))
        submit_all(daemon)
        daemon.tick(3)  # periodic checkpoint fired at epoch 2
        daemon.close()  # "crash": epoch 3 is lost with the process

        resumed = Daemon.resume(str(root))
        try:
            assert resumed.scheduler.now == 2.0
            assert resumed.epochs == 2
            drain(resumed)
            resumed_statuses = final_statuses(resumed)
        finally:
            resumed.close()

        # bit-identical outcomes: same completion times, slowdowns,
        # progress — the resumed run is indistinguishable
        assert resumed_statuses == control_statuses()

    def test_buffered_submissions_survive(self, tmp_path):
        root = tmp_path / "store"
        daemon = make_daemon(checkpoint_dir=str(root))
        submit_all(daemon)  # never ticked: all three still buffered
        daemon.handle(proto.ShutdownRequest())
        daemon.close()

        resumed = Daemon.resume(str(root))
        try:
            assert len(resumed.handle(proto.ListRequest()).jobs) == 3
            drain(resumed)
            assert all(s.state == "completed"
                       for s in final_statuses(resumed))
        finally:
            resumed.close()

    def test_admission_sequence_continues(self, tmp_path):
        root = tmp_path / "store"
        daemon = make_daemon(checkpoint_dir=str(root))
        submit_all(daemon)
        daemon.checkpoint()
        daemon.close()
        resumed = Daemon.resume(str(root))
        try:
            reply = resumed.handle(run_request("late"))
            assert reply.seq == len(JOBS)  # no seq reuse after resume
            dup = resumed.handle(run_request("rigid"))
            assert dup.code == "duplicate-job"
        finally:
            resumed.close()

    def test_shutdown_checkpoints_when_configured(self, tmp_path):
        root = tmp_path / "store"
        daemon = make_daemon(checkpoint_dir=str(root))
        try:
            reply = daemon.handle(proto.ShutdownRequest())
            assert reply == proto.ShutdownReply(checkpointed=True)
            assert stored_epochs(root) == [0]
        finally:
            daemon.close()

    def test_resume_keeps_checkpointing_into_the_moved_store(self,
                                                             tmp_path):
        fa, fb = tmp_path / "fa", tmp_path / "fb"
        daemon = make_daemon(checkpoint_interval=2, checkpoint_dir=str(fa))
        submit_all(daemon)
        daemon.tick(2)
        daemon.close()
        os.rename(fa, fb)

        resumed = Daemon.resume(str(fb))
        try:
            resumed.tick(2)
        finally:
            resumed.close()
        assert stored_epochs(fb) == [2, 4]
        assert not fa.exists()
        assert resumed.config.checkpoint_dir == str(fb)

    def test_resume_from_a_store_object_keeps_that_store(self, tmp_path):
        fa, fb = tmp_path / "fa", tmp_path / "fb"
        daemon = make_daemon(checkpoint_interval=2, checkpoint_dir=str(fa))
        submit_all(daemon)
        daemon.tick(2)
        daemon.close()
        os.rename(fa, fb)

        resumed = Daemon.resume(CheckpointStore(str(fb), kind="daemon"))
        try:
            resumed.tick(2)
        finally:
            resumed.close()
        assert stored_epochs(fb) == [2, 4]
        assert not fa.exists()

    def test_shutdown_without_path(self, daemon):
        assert daemon.handle(proto.ShutdownRequest()) == \
            proto.ShutdownReply(checkpointed=False)


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        missing = tmp_path / "nope" / "store"
        with pytest.raises(CheckpointError):
            Daemon.resume(str(missing))
        assert not (tmp_path / "nope").exists()

    def test_not_a_checkpoint(self, tmp_path):
        root = tmp_path / "store"
        store = CheckpointStore(str(root), kind="daemon")
        with open(store.path_for(1), "wb") as fh:
            fh.write(pickle.dumps({"hello": "world"}))
        with pytest.raises(CheckpointError):
            Daemon.resume(str(root))

    def test_envelope_version_mismatch(self, tmp_path, daemon):
        path = str(tmp_path / "d.ckpt")
        save_run_checkpoint(
            dataclasses.replace(daemon.run_checkpoint(), version=99), path)
        with pytest.raises(CheckpointError, match="99"):
            Daemon.resume(path)

    def test_state_version_mismatch(self, tmp_path, daemon):
        checkpoint = daemon.run_checkpoint()
        stale = dataclasses.replace(
            checkpoint,
            state={**checkpoint.state,
                   "version": DAEMON_STATE_VERSION + 1})
        path = str(tmp_path / "d.ckpt")
        save_run_checkpoint(stale, path)
        with pytest.raises(CheckpointError):
            Daemon.resume(path)

    def test_wrong_kind_rejected(self, tmp_path, daemon):
        path = str(tmp_path / "d.ckpt")
        save_run_checkpoint(
            dataclasses.replace(daemon.run_checkpoint(), kind="cluster"),
            path)
        with pytest.raises(CheckpointError, match="cluster"):
            Daemon.resume(path)

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        root = tmp_path / "store"
        daemon = make_daemon(checkpoint_dir=str(root))
        try:
            daemon.checkpoint()
        finally:
            daemon.close()
        assert os.listdir(root) == ["epoch-00000000.ckpt"]


class TestRunStore:
    """The epoch-stamped ``checkpoint_dir`` store: periodic saves,
    latest-resume, and time travel (``--resume-epoch``)."""

    def test_interval_requires_dir(self):
        with pytest.raises(ConfigurationError):
            make_daemon(checkpoint_interval=2)
        with pytest.raises(ConfigurationError):
            make_daemon(checkpoint_interval=-1)

    def test_epoch_stamped_files_accumulate(self, tmp_path):
        root = tmp_path / "store"
        daemon = make_daemon(checkpoint_interval=2,
                             checkpoint_dir=str(root))
        try:
            submit_all(daemon)
            daemon.tick(5)
            assert stored_epochs(root) == [2, 4]
        finally:
            daemon.close()

    def test_resume_latest_matches_uninterrupted(self, tmp_path):
        root = tmp_path / "store"
        daemon = make_daemon(checkpoint_interval=2,
                             checkpoint_dir=str(root))
        submit_all(daemon)
        daemon.tick(5)  # checkpoints at 2 and 4; epoch 5 is lost
        daemon.close()

        resumed = Daemon.resume(str(root))
        try:
            assert resumed.epochs == 4
            drain(resumed)
            resumed_statuses = final_statuses(resumed)
        finally:
            resumed.close()
        assert resumed_statuses == control_statuses()

    def test_rewind_to_earlier_epoch(self, tmp_path):
        root = tmp_path / "store"
        daemon = make_daemon(checkpoint_interval=2,
                             checkpoint_dir=str(root))
        submit_all(daemon)
        daemon.tick(6)
        daemon.close()

        rewound = Daemon.resume(str(root), epoch=3)
        try:
            # newest checkpoint at-or-before 3 is epoch 2
            assert rewound.epochs == 2
            drain(rewound)
            rewound_statuses = final_statuses(rewound)
        finally:
            rewound.close()
        assert rewound_statuses == control_statuses()

    def test_shutdown_writes_to_store(self, tmp_path):
        root = tmp_path / "store"
        daemon = make_daemon(checkpoint_dir=str(root))
        try:
            submit_all(daemon)
            daemon.tick(3)
            reply = daemon.handle(proto.ShutdownRequest())
            assert reply == proto.ShutdownReply(checkpointed=True)
            # no periodic cadence: the shutdown file is the only one
            assert stored_epochs(root) == [3]
        finally:
            daemon.close()
