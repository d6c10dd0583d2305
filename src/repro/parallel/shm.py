"""Named shared-memory slabs for the process-per-rank SPMD backend.

The process backend moves bulk arrays between ranks through POSIX shared
memory (``multiprocessing.shared_memory``) instead of pickled pipe
payloads: a sender writes array bytes into its :class:`SharedSlab` once,
receivers map the same segment and read through zero-copy numpy views.
Only a tiny descriptor (segment generation, offset, shape, dtype) crosses
a pipe.

Lifecycle discipline — the part that goes wrong in real codebases — is
centralized here:

* every segment name carries the run id (``reprospmd_<runid>_...``), so a
  whole run's segments are enumerable,
* each creating process tracks its segments in a :class:`SlabRegistry`
  and reaps them on normal exit *and* on abort (the fault injector kills
  ranks with exceptions, so ``finally`` blocks run),
* the parent executor calls :func:`reap_run_segments` after every run as
  a second line of defense: any segment a dying rank left behind is
  unlinked by scanning ``/dev/shm`` for the run prefix.  A kill mid-
  collective therefore leaves no residue (regression-tested).

Attaching registers nothing with the stdlib resource tracker (which would
otherwise double-unlink and warn); see :meth:`SharedSlab.attach`.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory

import numpy as np

from repro.utils.hot import array_contract
from repro.utils.validation import require

__all__ = [
    "SharedSlab",
    "SlabArena",
    "SlabRegistry",
    "list_run_segments",
    "reap_run_segments",
    "run_prefix",
    "segment_name",
]

#: Global prefix for every segment this package creates.
_PREFIX = "reprospmd"

#: Where POSIX shared memory is mounted on Linux (used by the reaper).
_SHM_DIR = "/dev/shm"

#: Payload offsets are aligned for safe/efficient typed views.
ALIGNMENT = 64


def run_prefix(run_id: str) -> str:
    """Name prefix shared by every segment of one SPMD run."""
    return f"{_PREFIX}_{run_id}_"


def segment_name(run_id: str, rank: int, kind: str, gen: int = 0) -> str:
    """Deterministic segment name: run id, owning rank, role, generation."""
    return f"{run_prefix(run_id)}r{rank}_{kind}{gen}"


def align(nbytes: int) -> int:
    """Round ``nbytes`` up to the slab alignment."""
    return (int(nbytes) + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


class SharedSlab:
    """One named shared-memory segment with numpy view access.

    Create with :meth:`create` (owner) or :meth:`attach` (peer).  The
    owner should eventually :meth:`unlink`; every holder should
    :meth:`close`.  Views returned by :meth:`view` alias the mapping —
    they are invalidated by :meth:`close`, so callers either consume them
    before closing or copy.
    """

    def __init__(self, segment: shared_memory.SharedMemory, *, owner: bool) -> None:
        self._segment = segment
        self.owner = owner
        self.closed = False
        self.unlinked = False

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, name: str, nbytes: int) -> "SharedSlab":
        require(nbytes > 0, f"slab size must be positive, got {nbytes}")
        return cls(
            shared_memory.SharedMemory(name=name, create=True, size=int(nbytes)),
            owner=True,
        )

    @classmethod
    def attach(cls, name: str) -> "SharedSlab":
        """Map an existing segment without registering as its owner.

        The stdlib resource tracker would otherwise unlink the segment
        again when *this* process exits, racing the owner and printing
        leak warnings; Python 3.13 grew ``track=False`` for exactly this.
        Older versions need the registration call suppressed for the
        duration of the attach: sending ``unregister`` *after* attaching
        (the widely-copied workaround) is wrong with several processes
        sharing one tracker — the tracker's cache is a per-name set, so
        an attacher's unregister silently consumes the owner's
        registration and the owner's eventual unlink then logs a tracker
        ``KeyError``.
        """
        try:
            segment = shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
        except TypeError:  # Python < 3.13
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register
            resource_tracker.register = lambda *a, **k: None  # type: ignore[assignment]
            try:
                segment = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register  # type: ignore[assignment]
        return cls(segment, owner=False)

    # -- access --------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._segment.name

    @property
    def size(self) -> int:
        return self._segment.size

    @property
    def buf(self) -> memoryview:
        return self._segment.buf

    @array_contract(returns={"contiguous": True})
    def view(self, shape, dtype, offset: int = 0) -> np.ndarray:
        """Zero-copy numpy view of ``shape``/``dtype`` at ``offset``."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        require(
            offset + nbytes <= self.size,
            f"view [{offset}, {offset + nbytes}) exceeds slab {self.name} "
            f"of {self.size} bytes",
        )
        return np.ndarray(shape, dtype=dtype, buffer=self._segment.buf, offset=offset)

    @array_contract(contiguous=("data",))
    def write(self, data: bytes | memoryview | np.ndarray, offset: int = 0) -> int:
        """Copy raw bytes into the slab; returns the byte count written.

        The exchange publish path writes only its pickled descriptor here:
        it copies array leaves into :meth:`view`\\ s with ``np.copyto``,
        which takes any strides without a staging copy.  Arrays passed
        here must be C-contiguous; the defensive ``ascontiguousarray``
        below only protects direct callers that run without contracts."""
        if isinstance(data, np.ndarray):
            data = np.ascontiguousarray(data).view(np.uint8).reshape(-1).data
        nbytes = len(data)
        require(offset + nbytes <= self.size, f"write exceeds slab {self.name}")
        self._segment.buf[offset : offset + nbytes] = bytes(data) if not isinstance(
            data, (bytes, memoryview)
        ) else data
        return nbytes

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._segment.close()

    def unlink(self) -> None:
        """Remove the name; safe to call twice or on an already-reaped slab."""
        if self.unlinked:
            return
        self.unlinked = True
        try:
            self._segment.unlink()
        except FileNotFoundError:  # already reaped by the parent's leak guard
            pass

    def __enter__(self) -> "SharedSlab":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self.owner:
            self.unlink()


class SlabRegistry:
    """Per-process bookkeeping of owned and attached slabs.

    ``cleanup()`` is idempotent and exception-safe: it closes every
    attachment and unlinks every owned segment, tolerating segments the
    parent reaper already removed.
    """

    def __init__(self) -> None:
        self._owned: dict[str, SharedSlab] = {}
        self._attached: dict[str, SharedSlab] = {}

    def create(self, name: str, nbytes: int) -> SharedSlab:
        slab = SharedSlab.create(name, nbytes)
        self._owned[name] = slab
        return slab

    def attach(self, name: str) -> SharedSlab:
        slab = self._attached.get(name)
        if slab is None:
            slab = SharedSlab.attach(name)
            self._attached[name] = slab
        return slab

    def release(self, name: str) -> None:
        """Close (and for owned segments unlink) one slab by name."""
        slab = self._attached.pop(name, None)
        if slab is not None:
            slab.close()
        slab = self._owned.pop(name, None)
        if slab is not None:
            slab.close()
            slab.unlink()

    @property
    def owned_names(self) -> list[str]:
        return sorted(self._owned)

    def cleanup(self) -> None:
        for slab in self._attached.values():
            slab.close()
        self._attached.clear()
        for slab in self._owned.values():
            slab.close()
            slab.unlink()
        self._owned.clear()


class SlabArena:
    """Grow-only bump allocator over generations of shared segments.

    Asynchronous reduces (:meth:`Communicator.ireduce`) write each
    contribution at a fresh offset, so a consumer may read long after the
    producer moved on — nothing is overwritten within a run.  When the
    current segment is full a new *generation* is created (the old one
    stays mapped and valid for readers that still hold references to it);
    regions are addressed as ``(generation name, offset)``.
    """

    def __init__(
        self,
        registry: SlabRegistry,
        run_id: str,
        rank: int,
        kind: str,
        *,
        min_bytes: int = 1 << 20,
    ) -> None:
        self._registry = registry
        self._run_id = run_id
        self._rank = rank
        self._kind = kind
        self._min_bytes = min_bytes
        self._gen = -1
        self._slab: SharedSlab | None = None
        self._cursor = 0

    def _grow(self, nbytes: int) -> None:
        self._gen += 1
        size = max(self._min_bytes, align(nbytes) * 2)
        name = segment_name(self._run_id, self._rank, self._kind, self._gen)
        self._slab = self._registry.create(name, size)
        self._cursor = 0

    def write_array(self, arr: np.ndarray) -> tuple[str, int]:
        """Copy ``arr``'s bytes in; returns ``(segment name, offset)``."""
        arr = np.ascontiguousarray(arr)
        if self._slab is None or self._cursor + arr.nbytes > self._slab.size:
            self._grow(arr.nbytes)
        assert self._slab is not None
        offset = self._cursor
        if arr.nbytes:
            self._slab.write(arr, offset)
        self._cursor = align(offset + arr.nbytes)
        return self._slab.name, offset


# -- run-level leak guard ----------------------------------------------------


def list_run_segments(run_id: str) -> list[str]:
    """Names of this run's segments still present in ``/dev/shm``."""
    prefix = run_prefix(run_id)
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(prefix))


def reap_run_segments(run_id: str) -> list[str]:
    """Unlink every leftover segment of one run; returns the reaped names.

    Called by the parent executor after every process-backend run.  On a
    clean run the workers already unlinked their segments and this is a
    no-op; after a killed rank it removes whatever the dying process left
    mapped, so ``/dev/shm`` carries no residue into the resilient retry.
    """
    reaped = []
    for name in list_run_segments(run_id):
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
        except OSError:
            continue
        reaped.append(name)
    return reaped
