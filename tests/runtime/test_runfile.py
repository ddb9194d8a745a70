"""The run-checkpoint file layer: envelope validation, atomic writes,
the epoch-stamped store, and source resolution (file / dir / store /
in-memory checkpoint)."""

import dataclasses
import os
import pickle

import pytest

from repro.exceptions import CheckpointError, ConfigurationError
from repro.runtime.runfile import (
    RUN_CHECKPOINT_VERSION,
    CheckpointStore,
    RunCheckpoint,
    load_run_checkpoint,
    resolve_checkpoint,
    save_run_checkpoint,
)


def ckpt(epoch=0, kind="cluster", now=None):
    return RunCheckpoint(
        version=RUN_CHECKPOINT_VERSION, kind=kind, epoch=epoch,
        now=float(epoch) if now is None else now,
        config={"n_nodes": 2}, state={"version": 1, "payload": epoch})


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        assert save_run_checkpoint(ckpt(3), path) == path
        loaded = load_run_checkpoint(path)
        assert loaded == ckpt(3)

    def test_rejects_unknown_kind_on_save(self, tmp_path):
        with pytest.raises(ConfigurationError, match="kind"):
            save_run_checkpoint(ckpt(kind="banana"),
                                str(tmp_path / "x.ckpt"))

    def test_atomic_no_temp_left(self, tmp_path):
        save_run_checkpoint(ckpt(), str(tmp_path / "run.ckpt"))
        assert os.listdir(tmp_path) == ["run.ckpt"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_run_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_not_a_run_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.raises(CheckpointError, match="RunCheckpoint"):
            load_run_checkpoint(str(path))

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(CheckpointError):
            load_run_checkpoint(str(path))

    @pytest.mark.parametrize("data", [
        b"\x82\x94.",
        b"X\x02\x00\x00\x00\xff\xfe.",
        b"}]K\x01s.",
    ], ids=["ValueError", "UnicodeDecodeError", "TypeError"])
    def test_damaged_bytes_raise_checkpoint_error(self, tmp_path, data):
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(data)
        with pytest.raises(CheckpointError, match="cannot read"):
            load_run_checkpoint(str(path))

    def test_envelope_version_mismatch(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_bytes(pickle.dumps(
            dataclasses.replace(ckpt(), version=99)))
        with pytest.raises(CheckpointError, match="99"):
            load_run_checkpoint(str(path))

    def test_kind_pinning(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        save_run_checkpoint(ckpt(kind="scheduler"), path)
        assert load_run_checkpoint(path, kind="scheduler").kind == \
            "scheduler"
        with pytest.raises(CheckpointError, match="scheduler"):
            load_run_checkpoint(path, kind="cluster")


class TestCheckpointStore:
    def test_file_naming(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "s"))
        assert store.path_for(7).endswith("epoch-00000007.ckpt")

    def test_creates_root(self, tmp_path):
        root = tmp_path / "deep" / "store"
        CheckpointStore(str(root))
        assert root.is_dir()

    def test_save_and_epochs_sorted(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        for epoch in (4, 2, 8):
            store.save(ckpt(epoch))
        assert store.epochs() == [2, 4, 8]
        assert len(store) == 3

    def test_ignores_foreign_files(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hi")
        (tmp_path / "epoch-junk.ckpt").write_text("hi")
        store = CheckpointStore(str(tmp_path))
        store.save(ckpt(1))
        assert store.epochs() == [1]

    def test_latest(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        assert store.latest() is None
        store.save(ckpt(2))
        store.save(ckpt(5))
        assert store.latest().epoch == 5

    def test_rewind_picks_newest_at_or_before(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        for epoch in (2, 4, 6):
            store.save(ckpt(epoch))
        assert store.rewind(5).epoch == 4
        assert store.rewind(4).epoch == 4
        with pytest.raises(CheckpointError, match="no checkpoint"):
            store.rewind(1)

    def test_keep_prunes_oldest(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep=2)
        for epoch in (1, 2, 3, 4):
            store.save(ckpt(epoch))
        assert store.epochs() == [3, 4]

    def test_kind_pinned_store_refuses_other_kind(self, tmp_path):
        store = CheckpointStore(str(tmp_path), kind="cluster")
        with pytest.raises(CheckpointError, match="daemon"):
            store.save(ckpt(kind="daemon"))
        with pytest.raises(ConfigurationError):
            CheckpointStore(str(tmp_path), kind="banana")

    def test_resave_same_epoch_replaces(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save(ckpt(3, now=3.0))
        store.save(ckpt(3, now=30.0))
        assert store.epochs() == [3]
        assert store.load(3).now == 30.0


class TestResolveCheckpoint:
    def test_passthrough(self):
        c = ckpt(2)
        assert resolve_checkpoint(c, kind="cluster") is c

    def test_passthrough_wrong_kind(self):
        with pytest.raises(CheckpointError, match="cluster"):
            resolve_checkpoint(ckpt(kind="daemon"), kind="cluster")

    def test_file_path(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        save_run_checkpoint(ckpt(4), path)
        assert resolve_checkpoint(path, kind="cluster").epoch == 4
        with pytest.raises(CheckpointError, match="epoch 4"):
            resolve_checkpoint(path, kind="cluster", epoch=3)

    def test_store_object_and_dir_path(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        for epoch in (2, 4):
            store.save(ckpt(epoch))
        assert resolve_checkpoint(store, kind="cluster").epoch == 4
        assert resolve_checkpoint(str(tmp_path),
                                  kind="cluster").epoch == 4
        assert resolve_checkpoint(str(tmp_path), kind="cluster",
                                  epoch=3).epoch == 2

    def test_missing_path_creates_nothing(self, tmp_path):
        missing = tmp_path / "typo" / "store"
        with pytest.raises(CheckpointError, match="no such file"):
            resolve_checkpoint(str(missing), kind="daemon")
        assert not (tmp_path / "typo").exists()

    def test_existing_empty_store_dir(self, tmp_path):
        with pytest.raises(CheckpointError, match="holds no checkpoints"):
            resolve_checkpoint(str(tmp_path), kind="cluster")

    def test_empty_store(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoints"):
            resolve_checkpoint(str(tmp_path / "empty"), kind="cluster")

    def test_rejects_other_types(self):
        with pytest.raises(ConfigurationError):
            resolve_checkpoint(42, kind="cluster")
