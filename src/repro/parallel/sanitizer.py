"""Runtime SPMD sanitizer: collective matching, write detection, deadlock
diagnosis for both SPMD backends.

Enabled with ``spmd_run(..., sanitize=True)`` or ``REPRO_SANITIZE=1``; the
communicator then reports every collective to one :class:`SpmdSanitizer`
*before* executing it, which buys three guarantees the bare runtime does
not have:

* **Matched collectives** — each rank's ops are tagged with a per-rank
  sequence number and an op signature (name, root, payload description).
  When the ranks of one epoch disagree — ``allreduce`` on rank 0 paired
  with ``bcast`` on rank 1 — every rank raises a :class:`SanitizerError`
  quoting *all* ranks' signatures and call sites instead of silently
  exchanging mismatched payloads.
* **Shared-write detection** — the communicator reports the surface it
  hands to peers (:meth:`SpmdSanitizer.on_publish`): the posted and
  ``send`` arrays themselves on the thread backend, the outbox slab region
  on the process backend.  It is fingerprinted at publish time and
  re-checked by its owner after the next epoch's first barrier, so a
  write by *any* rank inside the window is seen; the verdict names the
  publishing rank, op and call site.  (Mutating a buffer *after* the next
  barrier is synchronized and legal — the one-epoch window is exactly the
  race window.)
* **Deadlock diagnosis** — the sanitizer's barrier carries a timeout, and
  a rank returning from its program is recorded.  A collective that can
  never complete (a rank skipped it, or already finished) turns into a
  :class:`SanitizerError` naming the stuck ranks and their last
  collectives, rather than a hang.

All cross-rank state lives on a flat byte *board* (a ``bytearray`` for
threads, a shared-memory slab created before forking for processes), so
the same protocol runs on either backend::

    slot r at r*_SLOT:  <QQIII>  entered count, flags (bit0 = done),
                                 current / last / torn text lengths
                        +64      pickled current OpRecord
                        +64+4K   pickled last-completed OpRecord
                        +64+8K   utf-8 torn-write verdict
    verdict at n*_SLOT: <QI>     completed epochs, verdict length
                        +12      utf-8 mismatch verdict (empty = passed)

Each rank writes only its own slot (its torn-write verdict included); the
verdict region is written only by the epoch leader between the two
barriers, which order both against every reader — no locking needed.

Signatures must agree in op name and root for every collective; payload
shape/dtype must additionally agree for ``allreduce``/``reduce`` (whose
contributions are combined element-wise).  ``gather``/``allgather``/
``alltoall`` legitimately carry per-rank shapes (variable block sizes).

Overhead: two extra barriers, one pickled record and one payload hash
per collective — for
debugging and CI smoke runs, not production paths (see
``docs/static-analysis.md``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import sys
import threading
from dataclasses import dataclass

import numpy as np

from repro.parallel.comm import SpmdAbort

__all__ = ["SanitizerError", "SpmdSanitizer", "board_size", "describe_payload"]

#: Buffers above this size are not fingerprinted (hash cost would dominate).
_MAX_TRACKED_BYTES = 64 * 1024 * 1024
_ENV_ENABLE = "REPRO_SANITIZE"
_ENV_TIMEOUT = "REPRO_SANITIZE_TIMEOUT"

#: collectives whose contributions are combined element-wise, so payload
#: shape/dtype must match across ranks (others may differ legitimately).
_SYMMETRIC_PAYLOAD_OPS = frozenset({"allreduce", "reduce"})

_HEADER = struct.Struct("<QQIII")  # entered, flags, current/last/torn lengths
_FIELD = 4096
_CURRENT, _LAST, _TORN = 0, 1, 2  # field index within a slot
_SLOT = 64 + 3 * _FIELD
_VERDICT_HEADER = struct.Struct("<QI")  # completed epochs, verdict length
_VERDICT_CAP = 16384 - _VERDICT_HEADER.size
_DONE = 1


class SanitizerError(RuntimeError):
    """A diagnosed SPMD correctness violation (mismatch, race or deadlock)."""


def env_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for sanitized runs."""
    return os.environ.get(_ENV_ENABLE, "").strip() not in ("", "0", "false", "off")


def env_timeout(default: float = 10.0) -> float:
    value = os.environ.get(_ENV_TIMEOUT, "").strip()
    return float(value) if value else default


def board_size(size: int) -> int:
    """Bytes of board the sanitizer needs for ``size`` ranks."""
    return size * _SLOT + _VERDICT_HEADER.size + _VERDICT_CAP


def describe_payload(value, _depth: int = 0) -> str:
    """Compact structural signature of a collective payload."""
    if isinstance(value, np.ndarray):
        shape = "x".join(str(s) for s in value.shape)
        return f"ndarray[{value.dtype},{shape}]"
    if isinstance(value, (list, tuple)):
        kind = "list" if isinstance(value, list) else "tuple"
        if _depth >= 2:
            return f"{kind}(n={len(value)})"
        inner = ",".join(describe_payload(v, _depth + 1) for v in value[:3])
        if len(value) > 3:
            inner += ",..."
        return f"{kind}[{inner}]"
    if value is None:
        return "none"
    return type(value).__name__


_INTERNAL_FILES = frozenset(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), name)
    for name in ("comm.py", "sanitizer.py", "process_backend.py")
)


def _call_site() -> str:
    """First stack frame outside the comm/sanitizer layer, as ``file:line``.

    Walks live frames rather than ``traceback.extract_stack``, which would
    stat and read every source file on the stack once per collective.
    """
    frame = sys._getframe(1)
    while frame is not None:
        code = frame.f_code
        if os.path.abspath(code.co_filename) not in _INTERNAL_FILES:
            return f"{code.co_filename}:{frame.f_lineno} in {code.co_name}"
        frame = frame.f_back
    return "<unknown>"


@dataclass(frozen=True)
class OpRecord:
    """One rank's entry into one collective."""

    rank: int
    seq: int
    op: str
    detail: str  # root etc. — must match on every rank
    payload: str  # structural payload signature
    site: str

    def render(self) -> str:
        extra = f", {self.detail}" if self.detail else ""
        return (
            f"rank {self.rank} seq {self.seq}: {self.op}({self.payload}{extra}) "
            f"at {self.site}"
        )


def _dump_record(record: OpRecord) -> bytes:
    blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    if len(blob) > _FIELD:  # pathological payload/site strings: clamp
        record = OpRecord(
            rank=record.rank,
            seq=record.seq,
            op=record.op,
            detail=record.detail[:200],
            payload=record.payload[:200],
            site=record.site[:200],
        )
        blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return blob


def _fingerprint(buf) -> str:
    return hashlib.blake2b(np.ascontiguousarray(buf), digest_size=16).hexdigest()


def _published_buffers(value, _depth: int = 0):
    """Array / memoryview leaves of a published payload worth fingerprinting."""
    if isinstance(value, (np.ndarray, memoryview)):
        if 0 < value.nbytes <= _MAX_TRACKED_BYTES and not (
            isinstance(value, np.ndarray) and value.dtype.hasobject
        ):
            yield value
    elif isinstance(value, (list, tuple)) and _depth < 3:
        for v in value:
            yield from _published_buffers(v, _depth + 1)


class SpmdSanitizer:
    """Sanitizer for one SPMD run, shared by all its ranks.

    ``buf`` is the board (:func:`board_size` bytes, zero-initialized),
    ``barrier`` a ``size``-party barrier and ``abort_event`` the run's
    abort flag — thread or process flavours of each, the protocol is the
    same.  Process runs create the sanitizer before forking, so every
    worker inherits the board; the one piece of Python-side state, the
    per-rank list of tracked buffers, is only ever touched at the owning
    rank's index.
    """

    def __init__(
        self,
        size: int,
        buf,
        barrier,
        abort_event,
        timeout: float | None = None,
    ) -> None:
        self.size = size
        self.timeout = env_timeout() if timeout is None else timeout
        self._buf = buf
        self._barrier = barrier
        self._abort_event = abort_event
        #: per rank: (buffer, fingerprint, origin) published this epoch;
        #: origin is None for a collective's payload.
        self._tracked: list[list] = [[] for _ in range(size)]

    # -- board access --------------------------------------------------------

    def _header(self, rank: int) -> list:
        return list(_HEADER.unpack_from(self._buf, rank * _SLOT))

    def _put(
        self, rank: int, field: int, blob: bytes, entered: int | None = None
    ) -> None:
        header = self._header(rank)
        start = rank * _SLOT + 64 + field * _FIELD
        self._buf[start : start + len(blob)] = blob
        header[2 + field] = len(blob)
        if entered is not None:
            header[0] = entered
        _HEADER.pack_into(self._buf, rank * _SLOT, *header)

    def _get(self, rank: int, field: int) -> bytes:
        length = self._header(rank)[2 + field]
        start = rank * _SLOT + 64 + field * _FIELD
        return bytes(self._buf[start : start + length])

    def _record(self, rank: int, field: int) -> OpRecord | None:
        """A pickled record field — best effort: a slot mid-write during
        diagnosis decodes to whatever is consistent."""
        blob = self._get(rank, field)
        try:
            return pickle.loads(blob) if blob else None
        except Exception:  # repro-lint: disable=no-blind-except -- diagnosis must survive a torn slot; a half-written record reads as absent
            return None

    def _done(self, rank: int) -> bool:
        return bool(self._header(rank)[1] & _DONE)

    def _publish_verdict(self, verdict: str | None) -> None:
        base = self.size * _SLOT
        epochs, _ = _VERDICT_HEADER.unpack_from(self._buf, base)
        text = (verdict or "").encode("utf-8")[:_VERDICT_CAP]
        start = base + _VERDICT_HEADER.size
        self._buf[start : start + len(text)] = text
        _VERDICT_HEADER.pack_into(self._buf, base, epochs + 1, len(text))

    def _read_verdict(self) -> str | None:
        """First torn-write verdict in rank order, else the leader's."""
        for rank in range(self.size):
            torn = self._get(rank, _TORN)
            if torn:
                return torn.decode("utf-8", "replace")
        base = self.size * _SLOT
        _, length = _VERDICT_HEADER.unpack_from(self._buf, base)
        start = base + _VERDICT_HEADER.size
        return bytes(self._buf[start : start + length]).decode("utf-8", "replace") or None

    @property
    def n_synced(self) -> int:
        """Completed synchronization epochs."""
        return int(_VERDICT_HEADER.unpack_from(self._buf, self.size * _SLOT)[0])

    # -- hooks called by the communicator / executor -------------------------

    def on_collective(self, rank: int, op: str, value=None, detail: str = "") -> None:
        """Validate one collective entry; raises :class:`SanitizerError`."""
        entered = self._header(rank)[0]
        record = OpRecord(
            rank=rank,
            seq=entered,
            op=op,
            detail=detail,
            payload=describe_payload(value),
            site=_call_site(),
        )
        blob = _dump_record(record)
        self._put(rank, _CURRENT, blob, entered=entered + 1)
        if any(self._done(r) for r in range(self.size)):
            raise SanitizerError(self._diagnose(record))

        leader = self._wait(record) == 0
        # Every rank has left the previous epoch's window: a write into a
        # buffer published there, by whichever rank, has landed by now.
        torn = self._check_tracked(rank)
        if torn is not None:
            self._put(rank, _TORN, torn.encode("utf-8")[:_FIELD])
        if leader:
            self._publish_verdict(self._validate())
        self._wait(record)

        verdict = self._read_verdict()
        if verdict is not None:
            raise SanitizerError(verdict)
        self._put(rank, _LAST, blob)

    def on_publish(self, rank: int, buffers, op: str | None = None) -> None:
        """Fingerprint the surface ``rank`` just handed to its peers.

        ``buffers`` is an ndarray, a memoryview or a list/tuple nest of
        them (other leaves are ignored).  They join whatever ``rank``
        already published this epoch — a collective's payload and any
        point-to-point ``send`` after it — and the owner re-checks them
        all in its next collective.  ``op`` names a point-to-point publish
        (``"send(dest=1, tag=0)"``); a collective's payload leaves it
        ``None`` and is attributed to the collective's own record.
        """
        if self.size > 1:  # a single rank has nobody to race with
            origin = None if op is None else f"rank {rank}: {op} at {_call_site()}"
            self._tracked[rank].extend(
                (buf, _fingerprint(buf), origin)
                for buf in _published_buffers(buffers)
            )

    def release(self, rank: int) -> None:
        """Drop the hold on ``rank``'s published buffers — an owner must do
        so before unmapping them."""
        self._tracked[rank] = []

    def rank_done(self, rank: int) -> None:
        """Called by the executor when a rank's program returns."""
        header = self._header(rank)
        header[1] |= _DONE
        _HEADER.pack_into(self._buf, rank * _SLOT, *header)
        if self._barrier.n_waiting > 0:
            # Peers are inside a collective this rank will never join —
            # break the sync so they diagnose instead of timing out.
            self._barrier.abort()

    def abort(self) -> None:
        """Called by the executor when any rank failed: unwind, don't hang."""
        self._abort_event.set()
        self._barrier.abort()

    # -- internals -----------------------------------------------------------

    def _wait(self, record: OpRecord) -> int:
        try:
            return self._barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError:
            if self._abort_event.is_set():
                raise SpmdAbort(
                    f"rank {record.rank}: sanitized run aborted by a rank failure"
                ) from None
            raise SanitizerError(self._diagnose(record)) from None

    def _check_tracked(self, rank: int) -> str | None:
        """Re-fingerprint ``rank``'s buffers from the previous epoch, whose
        record is still the slot's last-completed one."""
        tracked, self._tracked[rank] = self._tracked[rank], []
        for buf, fingerprint, published in tracked:
            if _fingerprint(buf) != fingerprint:
                if published is None:
                    record = self._record(rank, _LAST)
                    published = record.render() if record else f"rank {rank}"
                return (
                    "unsynchronized shared-buffer write: "
                    f"{describe_payload(buf)} published by "
                    f"{published} was mutated before the "
                    "next synchronization; peers observed a torn buffer — "
                    "mutate a .copy(), never a received buffer, or mutate "
                    "only after the next barrier"
                )
        return None

    def _validate(self) -> str | None:
        """Leader check once every rank deposited its record."""
        records = [self._record(rank, _CURRENT) for rank in range(self.size)]
        if any(r is None for r in records):
            return None  # unreachable once the barrier passed; be safe
        reference = records[0]
        mismatch = any(
            r.op != reference.op or r.detail != reference.detail for r in records
        ) or (
            reference.op in _SYMMETRIC_PAYLOAD_OPS
            and any(r.payload != reference.payload for r in records)
        )
        if mismatch:
            lines = "\n  ".join(r.render() for r in records)
            return (
                "mismatched collectives — the ranks of this epoch disagree:\n  "
                f"{lines}"
            )
        return None

    def _diagnose(self, record: OpRecord) -> str:
        lines = []
        any_finished = False
        for rank in range(self.size):
            done = self._done(rank)
            current = self._record(rank, _CURRENT)
            last = self._record(rank, _LAST)
            any_finished = any_finished or done
            if done:
                tail = f" (last completed: {last.render()})" if last else ""
                lines.append(f"rank {rank}: program finished{tail}")
            elif current is not None and (last is None or current.seq > last.seq):
                lines.append(f"rank {rank}: entered {current.render()}")
            elif last is not None:
                lines.append(f"rank {rank}: last completed {last.render()}")
            else:
                lines.append(f"rank {rank}: no collective entered yet")
        reason = (
            "a peer rank finished its program without this collective"
            if any_finished
            else f"collective sync did not complete within {self.timeout:g}s"
        )
        table = "\n  ".join(lines)
        return (
            f"rank {record.rank} stuck in {record.op} at {record.site}: "
            f"{reason} — per-rank state:\n  {table}"
        )
