"""Versioned on-disk checkpointing for the iterative loops.

:class:`CheckpointManager` owns a directory of snapshot files named
``<tag>-<step>.npz``; each file is a complete, atomically-written
npz+json payload (see :mod:`repro.utils.serialization`) carrying a format
version, the tag, and the step number, validated on load.

:class:`LoopCheckpointer` is the object the loops actually consume: it
bundles a manager with a save interval, the restart flag, and the optional
fault injector (so a configured ``kill_loop`` fault fires right after the
snapshot is durably on disk — the crash model restart tests exercise).

The state a loop snapshots is its exact iteration-boundary state (for
LOBPCG: ``X``, ``H X``, ``P``, ``H P``, the best-residual watermark and
the residual history), so a restarted run replays the remaining
iterations bit-identically to an uninterrupted one: float64/complex128
arrays round-trip exactly through npz, and scalar floats round-trip
exactly through JSON's shortest-repr encoding.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

from repro.utils.serialization import (
    SerializationError,
    load_payload,
    save_payload,
)
from repro.utils.validation import require

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointManager",
    "LoopCheckpointer",
]

#: Snapshot layout version; bumped on incompatible state-dict changes (2: the
#: ISDF fit stage stores ``fit_rows`` instead of ``theta``).
CHECKPOINT_FORMAT_VERSION = 2


class CheckpointError(RuntimeError):
    """A snapshot failed validation (version/tag/step mismatch, bad file)."""


class CheckpointManager:
    """A directory of versioned, atomically-written snapshots for one tag."""

    def __init__(self, directory: str | os.PathLike, tag: str = "ckpt") -> None:
        require(bool(tag), "checkpoint tag must be non-empty")
        require(
            re.fullmatch(r"[A-Za-z0-9._-]+", tag) is not None,
            f"checkpoint tag {tag!r} must be filesystem-safe",
        )
        self.directory = Path(directory)
        self.tag = tag
        self.directory.mkdir(parents=True, exist_ok=True)
        self._pattern = re.compile(rf"^{re.escape(tag)}-(\d+)\.npz$")

    def path(self, step: int) -> Path:
        return self.directory / f"{self.tag}-{int(step):08d}.npz"

    def steps(self) -> list[int]:
        """Snapshot steps present on disk, ascending."""
        found = []
        for entry in self.directory.iterdir():
            m = self._pattern.match(entry.name)
            if m:
                found.append(int(m.group(1)))
        return sorted(found)

    def save(self, step: int, state: dict, *, keep_last: int = 0) -> Path:
        """Write the snapshot for ``step``; optionally prune older ones."""
        require(step >= 0, f"step must be >= 0, got {step}")
        path = self.path(step)
        save_payload(
            path,
            {
                "format": CHECKPOINT_FORMAT_VERSION,
                "tag": self.tag,
                "step": int(step),
                "state": state,
            },
        )
        if keep_last > 0:
            self.prune(keep_last)
        return path

    def load(self, step: int) -> dict:
        """Read and validate the snapshot for ``step``; returns the state."""
        path = self.path(step)
        if not path.exists():
            raise CheckpointError(f"no snapshot for step {step} under {path}")
        try:
            payload = load_payload(path)
        except SerializationError as exc:
            raise CheckpointError(f"{path}: unreadable snapshot ({exc})") from exc
        if payload.get("format") != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: snapshot format {payload.get('format')!r} not "
                f"supported (expected {CHECKPOINT_FORMAT_VERSION})"
            )
        if payload.get("tag") != self.tag or payload.get("step") != step:
            raise CheckpointError(
                f"{path}: tag/step mismatch "
                f"({payload.get('tag')!r}@{payload.get('step')!r})"
            )
        return payload["state"]

    def latest(self) -> tuple[int, dict] | None:
        """The newest complete snapshot as ``(step, state)``, or None."""
        steps = self.steps()
        while steps:
            step = steps.pop()
            try:
                return step, self.load(step)
            except CheckpointError:  # half-written leftovers never win
                continue
        return None

    def prune(self, keep_last: int) -> None:
        """Delete all but the newest ``keep_last`` snapshots."""
        require(keep_last >= 1, "keep_last must be >= 1")
        for step in self.steps()[:-keep_last]:
            try:
                self.path(step).unlink()
            except FileNotFoundError:  # concurrent pruner already got it
                pass

    def clear(self) -> None:
        for step in self.steps():
            try:
                self.path(step).unlink()
            except FileNotFoundError:
                pass


class LoopCheckpointer:
    """What an iterative loop holds: manager + interval + restart + faults.

    Parameters
    ----------
    manager:
        The underlying snapshot store.
    every:
        Snapshot every ``every``-th iteration (iteration numbers divisible
        by ``every`` are saved; the loop's own numbering starts at 1 for
        SCF/LOBPCG, at 0 for the staged ISDF pipeline where every stage is
        saved regardless).
    restart:
        When True, :meth:`resume` returns the latest snapshot so the loop
        can continue from it; when False the loop starts fresh (existing
        snapshots are overwritten as the run progresses).
    injector:
        Optional :class:`~repro.resilience.faults.FaultInjector`; its
        ``kill_loop`` faults fire *after* a snapshot is written.
    keep_last:
        Prune to the newest ``keep_last`` snapshots on save (0 = keep all).
    """

    def __init__(
        self,
        manager: CheckpointManager,
        *,
        every: int = 1,
        restart: bool = False,
        injector=None,
        keep_last: int = 0,
    ) -> None:
        require(every >= 1, f"checkpoint interval must be >= 1, got {every}")
        self.manager = manager
        self.every = every
        self.restart = restart
        self.injector = injector
        self.keep_last = keep_last

    @property
    def tag(self) -> str:
        return self.manager.tag

    def resume(self) -> tuple[int, dict] | None:
        """Latest ``(step, state)`` when restarting, else None."""
        if not self.restart:
            return None
        return self.manager.latest()

    def save(self, step: int, state: dict, *, force: bool = False) -> None:
        """Snapshot ``step`` (subject to the interval), then maybe crash.

        The injected ``kill_loop`` fault is checked even on skipped
        intervals — a crash does not wait for a snapshot boundary.
        """
        if force or step % self.every == 0:
            self.manager.save(step, state, keep_last=self.keep_last)
        if self.injector is not None:
            self.injector.on_loop_step(self.manager.tag, step)
