"""CheckpointManager / LoopCheckpointer: versioning, pruning, validation."""

import numpy as np
import pytest

from repro.resilience import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    CheckpointManager,
    LoopCheckpointer,
)
from repro.utils.serialization import save_payload


def _state(i):
    return {"x": np.full(3, float(i)), "note": f"step {i}"}


class TestCheckpointManager:
    def test_save_load_round_trip(self, tmp_path):
        mgr = CheckpointManager(tmp_path, tag="loop")
        mgr.save(3, _state(3))
        state = mgr.load(3)
        np.testing.assert_array_equal(state["x"], np.full(3, 3.0))
        assert state["note"] == "step 3"

    def test_steps_sorted(self, tmp_path):
        mgr = CheckpointManager(tmp_path, tag="loop")
        for step in (5, 1, 3):
            mgr.save(step, _state(step))
        assert mgr.steps() == [1, 3, 5]

    def test_latest_returns_newest(self, tmp_path):
        mgr = CheckpointManager(tmp_path, tag="loop")
        for step in (1, 2, 3):
            mgr.save(step, _state(step))
        step, state = mgr.latest()
        assert step == 3
        np.testing.assert_array_equal(state["x"], np.full(3, 3.0))

    def test_latest_skips_corrupt_newest(self, tmp_path):
        mgr = CheckpointManager(tmp_path, tag="loop")
        mgr.save(1, _state(1))
        mgr.path(9).write_bytes(b"half-written garbage")
        step, _ = mgr.latest()
        assert step == 1

    def test_latest_none_when_empty(self, tmp_path):
        assert CheckpointManager(tmp_path, tag="loop").latest() is None

    def test_missing_step_raises(self, tmp_path):
        mgr = CheckpointManager(tmp_path, tag="loop")
        with pytest.raises(CheckpointError, match="no snapshot"):
            mgr.load(7)

    def test_tag_isolation(self, tmp_path):
        a = CheckpointManager(tmp_path, tag="scf")
        b = CheckpointManager(tmp_path, tag="lobpcg")
        a.save(1, _state(1))
        assert b.steps() == []
        assert b.latest() is None

    def test_format_version_enforced(self, tmp_path):
        mgr = CheckpointManager(tmp_path, tag="loop")
        save_payload(
            mgr.path(2),
            {
                "format": CHECKPOINT_FORMAT_VERSION + 1,
                "tag": "loop",
                "step": 2,
                "state": {},
            },
        )
        with pytest.raises(CheckpointError, match="format"):
            mgr.load(2)

    def test_previous_format_rejected(self, tmp_path):
        """Format 1 stored the ISDF fit stage as ``theta``; a format-1
        snapshot fails to load and ``latest`` passes over it."""
        mgr = CheckpointManager(tmp_path, tag="isdf")
        save_payload(
            mgr.path(1),
            {
                "format": CHECKPOINT_FORMAT_VERSION - 1,
                "tag": "isdf",
                "step": 1,
                "state": {"indices": np.arange(3), "method": "kmeans",
                          "theta": np.ones((5, 3))},
            },
        )
        with pytest.raises(CheckpointError, match="snapshot format 1 not supported"):
            mgr.load(1)
        assert mgr.latest() is None

    def test_tag_mismatch_rejected(self, tmp_path):
        CheckpointManager(tmp_path, tag="other").save(4, _state(4))
        mgr = CheckpointManager(tmp_path, tag="loop")
        # Forge a file under loop's name carrying other's payload.
        mgr.path(4).write_bytes(
            CheckpointManager(tmp_path, tag="other").path(4).read_bytes()
        )
        with pytest.raises(CheckpointError, match="mismatch"):
            mgr.load(4)

    def test_unsafe_tag_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="filesystem-safe"):
            CheckpointManager(tmp_path, tag="../escape")

    def test_prune_keeps_newest(self, tmp_path):
        mgr = CheckpointManager(tmp_path, tag="loop")
        for step in range(1, 6):
            mgr.save(step, _state(step))
        mgr.prune(keep_last=2)
        assert mgr.steps() == [4, 5]

    def test_save_with_keep_last(self, tmp_path):
        mgr = CheckpointManager(tmp_path, tag="loop")
        for step in range(1, 5):
            mgr.save(step, _state(step), keep_last=2)
        assert mgr.steps() == [3, 4]

    def test_clear(self, tmp_path):
        mgr = CheckpointManager(tmp_path, tag="loop")
        mgr.save(1, _state(1))
        mgr.clear()
        assert mgr.steps() == []


class TestLoopCheckpointer:
    def test_interval(self, tmp_path):
        mgr = CheckpointManager(tmp_path, tag="loop")
        ck = LoopCheckpointer(mgr, every=2)
        for step in range(1, 6):
            ck.save(step, _state(step))
        assert mgr.steps() == [2, 4]

    def test_force_overrides_interval(self, tmp_path):
        mgr = CheckpointManager(tmp_path, tag="loop")
        ck = LoopCheckpointer(mgr, every=10)
        ck.save(3, _state(3), force=True)
        assert mgr.steps() == [3]

    def test_resume_only_when_restarting(self, tmp_path):
        mgr = CheckpointManager(tmp_path, tag="loop")
        mgr.save(2, _state(2))
        assert LoopCheckpointer(mgr).resume() is None
        step, state = LoopCheckpointer(mgr, restart=True).resume()
        assert step == 2
        np.testing.assert_array_equal(state["x"], np.full(3, 2.0))

    def test_keep_last_pruning(self, tmp_path):
        mgr = CheckpointManager(tmp_path, tag="loop")
        ck = LoopCheckpointer(mgr, keep_last=1)
        for step in range(1, 4):
            ck.save(step, _state(step))
        assert mgr.steps() == [3]
