"""The SPMD communicator: MPI-style collectives over threads.

Semantics follow mpi4py's lowercase (object) API: values are exchanged by
reference through a shared slot board, synchronized with barriers.  Two
properties matter for the reproduction:

* **Determinism** — reductions combine contributions in rank order with the
  same operation tree on every rank, so a distributed run is bit-identical
  to its serial counterpart up to the documented GEMM-partitioning
  differences.
* **Traffic tracing** — every collective records the bytes it would move on
  a real network (standard volume conventions, noted per method), which the
  test-suite checks against the cost model's communication terms.

Failure handling: if any rank raises, the executor aborts the shared
barrier and every other rank raises :class:`SpmdAbort` instead of
deadlocking.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import require


class SpmdAbort(RuntimeError):
    """Raised on surviving ranks after another rank failed."""


class MessageTimeout(RuntimeError):
    """A point-to-point receive waited past its deadline.

    Raised instead of the queue's anonymous ``Empty`` so retry policies
    (:mod:`repro.resilience.policies`) can treat lost messages as a
    typed, retryable condition.
    """


@dataclass
class CommTraffic:
    """Accumulated communication volume (bytes) per collective type.

    ``bytes_by_op`` counts *logical* traffic — what a real network would
    move — with identical conventions on every backend, so thread and
    process runs report the same totals.  The process backend additionally
    fills the transport counters: ``shm_bytes_by_op`` (payload bytes that
    travelled through shared-memory slabs as zero-copy views) and
    ``pickled_bytes_by_op`` (descriptor/object bytes that crossed a pipe).

    Instances are picklable (the lock is dropped and re-created), and
    per-process traces combine with :meth:`merge` on run exit.
    """

    bytes_by_op: dict[str, int] = field(default_factory=dict)
    calls_by_op: dict[str, int] = field(default_factory=dict)
    shm_bytes_by_op: dict[str, int] = field(default_factory=dict)
    pickled_bytes_by_op: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, op: str, nbytes: int) -> None:
        with self._lock:
            self.bytes_by_op[op] = self.bytes_by_op.get(op, 0) + int(nbytes)
            self.calls_by_op[op] = self.calls_by_op.get(op, 0) + 1

    def record_transport(
        self, op: str, *, shm_bytes: int = 0, pickled_bytes: int = 0
    ) -> None:
        """Attribute transport-level bytes (process backend only)."""
        with self._lock:
            if shm_bytes:
                self.shm_bytes_by_op[op] = (
                    self.shm_bytes_by_op.get(op, 0) + int(shm_bytes)
                )
            if pickled_bytes:
                self.pickled_bytes_by_op[op] = (
                    self.pickled_bytes_by_op.get(op, 0) + int(pickled_bytes)
                )

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_op.values())

    @property
    def zero_copy_bytes(self) -> int:
        """Bytes that moved between ranks as shared-memory views."""
        return sum(self.shm_bytes_by_op.values())

    @property
    def pickled_bytes(self) -> int:
        """Bytes that were serialized through a pipe."""
        return sum(self.pickled_bytes_by_op.values())

    def merge(self, other: "CommTraffic") -> "CommTraffic":
        """Fold another (quiescent) trace into this one; returns self."""
        with self._lock:
            for mine, theirs in (
                (self.bytes_by_op, other.bytes_by_op),
                (self.calls_by_op, other.calls_by_op),
                (self.shm_bytes_by_op, other.shm_bytes_by_op),
                (self.pickled_bytes_by_op, other.pickled_bytes_by_op),
            ):
                for op, count in theirs.items():
                    mine[op] = mine.get(op, 0) + count
        return self

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def summary(self) -> str:
        lines = [
            f"{op:<12s} {self.calls_by_op[op]:6d} calls  {nbytes/1e6:12.3f} MB"
            for op, nbytes in sorted(self.bytes_by_op.items())
        ]
        if self.zero_copy_bytes or self.pickled_bytes:
            lines.append(
                f"transport: {self.zero_copy_bytes/1e6:.3f} MB zero-copy (shm), "
                f"{self.pickled_bytes/1e6:.3f} MB pickled"
            )
        return "\n".join(lines)


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    if isinstance(value, (int, float, complex, bool, np.generic)):
        return 8
    return 64  # conservative default for small python objects


def _receive_tile(rank: int, src: int, tile, dest: np.ndarray) -> None:
    """Copy one alltoall tile into its destination after checking its shape.

    A dropped or corrupted exchange surfaces here as a typed error naming
    the offending peer, instead of as a broadcast into the wrong shape or
    silently wrong physics.
    """
    require(
        isinstance(tile, np.ndarray) and tile.shape == dest.shape,
        f"rank {rank}: alltoall received a corrupt tile from rank {src}: "
        f"expected shape {dest.shape}, got "
        f"{tile.shape if isinstance(tile, np.ndarray) else type(tile).__name__}",
    )
    np.copyto(dest, tile)


class _ReduceBoard:
    """Posted-contribution board backing the thread backend's ``ireduce``.

    Contributions are *copied* at post time, so the caller may immediately
    reuse its buffer — the property that lets the pipelined GEMM proceed
    to the next block while a reduce is conceptually in flight.  Entries
    are keyed ``(root, seq)`` with a per-rank per-root sequence number, so
    repeated pipelines never collide.
    """

    def __init__(self, size: int) -> None:
        self._size = size
        self._cond = threading.Condition()
        self._entries: dict[tuple[int, int], list] = {}

    def post(self, key: tuple[int, int], rank: int, contribution) -> None:
        with self._cond:
            entry = self._entries.get(key)
            if entry is None:
                entry = [None] * self._size
                self._entries[key] = entry
            entry[rank] = contribution
            self._cond.notify_all()

    def wait(self, key: tuple[int, int], shared: "_SharedState") -> list:
        """Block until every rank posted ``key``; pops and returns the
        contributions in rank order.  Unwinds with :class:`SpmdAbort` if
        the run was aborted while waiting."""
        with self._cond:
            while True:
                entry = self._entries.get(key)
                if entry is not None and all(c is not None for c in entry):
                    return self._entries.pop(key)
                if shared.error is not None:
                    raise SpmdAbort(
                        f"ireduce wait aborted: another rank failed "
                        f"({shared.error!r})"
                    )
                self._cond.wait(timeout=0.05)


class ReduceHandle:
    """Completion handle of :meth:`Communicator.ireduce`.

    ``wait()`` returns the rank-order combined array on the root and
    ``None`` elsewhere (matching blocking ``reduce``).  It may be called
    once; the contribution itself was already captured at post time, so
    posting ranks never block.
    """

    def __init__(self, result=None, waiter=None) -> None:
        self._result = result
        self._waiter = waiter
        self._done = waiter is None

    def wait(self):
        if not self._done:
            self._result = self._waiter()
            self._waiter = None
            self._done = True
        return self._result


class _SharedState:
    """State shared by all ranks of one SPMD run."""

    def __init__(self, size: int, fault_injector=None, sanitizer=None) -> None:
        self.size = size
        self.barrier = threading.Barrier(size)
        self.slots: list = [None] * size
        self.queues = {
            (src, dst): queue.Queue() for src in range(size) for dst in range(size)
        }
        self.reduce_board = _ReduceBoard(size)
        self.traffic = CommTraffic()
        self.error: BaseException | None = None
        self.error_lock = threading.Lock()
        #: Optional repro.resilience.faults.FaultInjector (duck-typed so the
        #: comm layer stays independent of the resilience package).
        self.fault_injector = fault_injector
        #: Optional repro.parallel.sanitizer.SpmdSanitizer (duck-typed for
        #: the same reason; the process backend uses the same class):
        #: consulted at the entry of every collective and told what each
        #: exchange publishes.
        self.sanitizer = sanitizer

    def abort(self, exc: BaseException) -> None:
        with self.error_lock:
            if self.error is None:
                self.error = exc
        self.barrier.abort()
        if self.sanitizer is not None:
            self.sanitizer.abort()


class Communicator:
    """Per-rank handle onto the shared SPMD state."""

    def __init__(self, rank: int, shared: _SharedState) -> None:
        self._rank = rank
        self._shared = shared
        #: per-root sequence numbers for ireduce (identical on every rank
        #: because SPMD programs post in identical order).
        self._ireduce_seq: dict[int, int] = {}

    # -- identity ----------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._shared.size

    @property
    def traffic(self) -> CommTraffic:
        return self._shared.traffic

    # -- fault-injection / sanitizer hooks -----------------------------------

    def _enter(self, op: str, value=None, detail: str = "") -> None:
        """Collective entry point: fault injection, then sanitizer checks.

        The injector runs first so a killed rank never reaches the
        sanitizer's sync (its peers then unwind through the abort path
        rather than diagnosing a phantom mismatch).
        """
        injector = self._shared.fault_injector
        if injector is not None:
            injector.on_collective(self._rank, op)
        sanitizer = self._shared.sanitizer
        if sanitizer is not None:
            sanitizer.on_collective(self._rank, op, value, detail=detail)

    def _fault_corrupt(self, op: str, value):
        """Give the injector a chance to poison a reduce contribution."""
        injector = self._shared.fault_injector
        if injector is not None:
            return injector.corrupt_value(self._rank, op, value)
        return value

    # -- synchronization ---------------------------------------------------

    def barrier(self) -> None:
        self._enter("barrier")
        self._barrier_wait()

    def _barrier_wait(self) -> None:
        """Raw shared-barrier wait (no hooks — used inside collectives)."""
        try:
            self._shared.barrier.wait()
        except threading.BrokenBarrierError:
            raise SpmdAbort(
                f"rank {self._rank}: another rank failed "
                f"({self._shared.error!r})"
            ) from None

    def _publish(self, value) -> None:
        """Deposit ``value`` in this rank's slot; peers read it by reference."""
        self._shared.slots[self._rank] = value
        sanitizer = self._shared.sanitizer
        if sanitizer is not None:
            # Peers read these very arrays by reference: they are the
            # shared surface whose writes the sanitizer watches.
            sanitizer.on_publish(self._rank, value)

    def _peer_tile(self, src: int, copy: bool):
        """Rank ``src``'s alltoall tile for this rank, read between the
        exchange barriers (by reference here, whatever ``copy`` says)."""
        return self._shared.slots[src][self._rank]

    def _unpost(self) -> None:
        """Drop this rank's deposit after :meth:`_complete`: every peer has
        read it, so the slot need not keep it alive."""
        self._shared.slots[self._rank] = None

    def _post(self, value):
        """Deposit + first barrier; returns the snapshot for *reading only*.

        The snapshot is valid until :meth:`_complete` — the process
        backend hands out zero-copy shared-memory views here, which the
        reducing collectives consume (rank-ordered combine) inside the
        post/complete window.
        """
        self._publish(value)
        self._barrier_wait()
        return list(self._shared.slots)

    def _complete(self) -> None:
        """Second barrier: nobody overwrites slots before everyone has read."""
        self._barrier_wait()

    def _exchange(self, value):
        """All-to-all slot exchange: every rank deposits, every rank reads.

        Unlike :meth:`_post`, the returned snapshot stays valid after the
        exchange (the process backend materializes copies here)."""
        snapshot = self._post(value)
        self._complete()
        return snapshot

    # -- collectives ---------------------------------------------------------

    def bcast(self, value, root: int = 0):
        """Broadcast from ``root``; traffic = payload once per receiver."""
        self._enter("bcast", value, detail=f"root={root}")
        snapshot = self._exchange(value if self._rank == root else None)
        result = snapshot[root]
        if self._rank == root:
            self.traffic.record("bcast", _nbytes(value) * (self.size - 1))
        return result

    def gather(self, value, root: int = 0):
        self._enter("gather", value, detail=f"root={root}")
        snapshot = self._exchange(value)
        if self._rank == root:
            self.traffic.record(
                "gather", sum(_nbytes(v) for i, v in enumerate(snapshot) if i != root)
            )
            return snapshot
        return None

    def allgather(self, value):
        self._enter("allgather", value)
        snapshot = self._exchange(value)
        if self._rank == 0:
            total = sum(_nbytes(v) for v in snapshot)
            self.traffic.record("allgather", total * (self.size - 1))
        return snapshot

    def scatter(self, values, root: int = 0):
        self._enter("scatter", values, detail=f"root={root}")
        if self._rank == root:
            require(
                values is not None and len(values) == self.size,
                f"scatter needs {self.size} values at root",
            )
        snapshot = self._exchange(values if self._rank == root else None)
        chunk = snapshot[root][self._rank]
        if self._rank == root:
            self.traffic.record(
                "scatter",
                sum(_nbytes(v) for i, v in enumerate(snapshot[root]) if i != root),
            )
        return chunk

    @staticmethod
    def _combine(values, op: str):
        if op == "sum":
            result = values[0]
            for v in values[1:]:  # rank order: deterministic
                result = result + v
            return result
        if op == "max":
            result = values[0]
            for v in values[1:]:
                result = np.maximum(result, v)
            return result
        if op == "min":
            result = values[0]
            for v in values[1:]:
                result = np.minimum(result, v)
            return result
        raise ValueError(f"unknown reduction op {op!r}")

    def reduce(self, value, root: int = 0, op: str = "sum"):
        """Reduce to ``root``; traffic = one payload per non-root rank."""
        self._enter("reduce", value, detail=f"root={root},op={op}")
        value = self._fault_corrupt("reduce", value)
        snapshot = self._post(value)
        result = self._combine(snapshot, op) if self._rank == root else None
        self._complete()
        if self._rank == root:
            self.traffic.record("reduce", _nbytes(value) * (self.size - 1))
            return result
        return None

    def allreduce(self, value, op: str = "sum"):
        """Allreduce; traffic per rank = 2 (P-1)/P payload (ring convention)."""
        self._enter("allreduce", value, detail=f"op={op}")
        value = self._fault_corrupt("allreduce", value)
        snapshot = self._post(value)
        result = self._combine(snapshot, op)
        self._complete()
        if self._rank == 0:
            vol = int(2 * (self.size - 1) / self.size * _nbytes(value) * self.size)
            self.traffic.record("allreduce", vol)
        return result

    def ireduce(self, value: np.ndarray, root: int = 0) -> ReduceHandle:
        """Nonblocking rank-ordered sum-reduce of an ndarray to ``root``.

        The contribution is copied at post time, so the caller may reuse
        (or mutate) its buffer immediately — this is what gives the
        pipelined GEMM+Reduce genuine compute/comm overlap on the process
        backend: the next block's GEMM proceeds while the previous
        block's combine is in flight on the owning rank.  ``wait()`` on
        the returned handle yields the combined array on ``root`` and
        ``None`` elsewhere; results are bit-identical to blocking
        :meth:`reduce` (same rank-ordered combine tree).
        """
        require(
            isinstance(value, np.ndarray),
            f"ireduce payload must be an ndarray, got {type(value).__name__}",
        )
        self._enter("reduce", value, detail=f"root={root},op=sum,async")
        value = self._fault_corrupt("reduce", value)
        seq = self._ireduce_seq.get(root, 0)
        self._ireduce_seq[root] = seq + 1
        contribution = np.array(value)
        key = (root, seq)
        self._shared.reduce_board.post(key, self._rank, contribution)
        if self._rank != root:
            return ReduceHandle(None)
        self.traffic.record("reduce", contribution.nbytes * (self.size - 1))
        board, shared = self._shared.reduce_board, self._shared
        return ReduceHandle(
            waiter=lambda: self._combine(board.wait(key, shared), "sum")
        )

    def alltoall(self, chunks, recv=None):
        """Personalized all-to-all: ``chunks[d]`` goes to rank ``d``.

        Each tile moves once.  The own tile is never published: it goes
        from ``chunks`` to its destination directly.  Chunks may be
        strided views; the process backend writes each off-rank tile once
        into its outbox, so callers need not make them contiguous.

        With ``recv`` (one array per source rank), the tile from ``src``
        is shape-checked against ``recv[src]`` and copied straight into it
        between the exchange barriers, from the peer's posted array or
        shared-memory view, and ``recv`` is returned.  The caller then
        holds no reference into a peer's buffer.  Without ``recv`` the
        received values come back as a list: by reference on the thread
        backend, as detached copies on the process backend.  That form
        suits non-array payloads.
        """
        self._enter("alltoall", chunks)
        require(
            len(chunks) == self.size,
            f"alltoall needs {self.size} chunks, got {len(chunks)}",
        )
        require(
            recv is None or len(recv) == self.size,
            f"alltoall needs {self.size} receive buffers",
        )
        outgoing = list(chunks)
        outgoing[self._rank] = None  # the own tile stays local
        self._publish(outgoing)
        self._barrier_wait()
        received = []
        for src in range(self.size):
            if src == self._rank:
                tile = chunks[src]
            else:
                tile = self._peer_tile(src, copy=recv is None)
            if recv is None:
                received.append(tile)
            else:
                _receive_tile(self._rank, src, tile, recv[src])
        self._complete()
        # Every peer holds its tiles now, so the chunks (and the arrays
        # they view) may be freed before the next collective.
        self._unpost()
        moved = sum(
            _nbytes(chunks[d]) for d in range(self.size) if d != self._rank
        )
        self.traffic.record("alltoall", moved)
        return received if recv is None else recv

    # -- point to point ------------------------------------------------------

    def send(self, value, dest: int, tag: int = 0) -> None:
        require(0 <= dest < self.size, f"bad destination {dest}")
        injector = self._shared.fault_injector
        if injector is not None:
            spec = injector.on_send(self._rank, dest, tag=tag)
            if spec is not None and spec.kind == "drop_message":
                self.traffic.record("p2p_dropped", _nbytes(value))
                return  # the network ate it
            if spec is not None and spec.kind == "delay_message":
                time.sleep(spec.delay)
        self.traffic.record("p2p", _nbytes(value))
        sanitizer = self._shared.sanitizer
        if sanitizer is not None:
            # The receiver gets this very object, as with a collective post.
            sanitizer.on_publish(self._rank, value, f"send(dest={dest}, tag={tag})")
        self._shared.queues[(self._rank, dest)].put((tag, value))

    def recv(
        self,
        source: int,
        tag: int = 0,
        *,
        timeout: float = 60.0,
        strict_tags: bool = True,
    ):
        """Blocking receive; raises :class:`MessageTimeout` on expiry.

        With ``strict_tags`` (the default) an arrival carrying a different
        tag is a programming error and raises ``ValueError``.  The
        reliable-delivery layer passes ``strict_tags=False`` so stale
        duplicates from resent messages are buffered and re-queued instead
        of poisoning the channel.
        """
        require(0 <= source < self.size, f"bad source {source}")
        chan = self._shared.queues[(source, self._rank)]
        deadline = time.monotonic() + timeout
        stashed: list = []
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    raise MessageTimeout(
                        f"rank {self._rank}: no message with tag {tag} from "
                        f"rank {source} within {timeout:g}s"
                    )
                try:
                    got_tag, value = chan.get(timeout=remaining)
                except queue.Empty:
                    raise MessageTimeout(
                        f"rank {self._rank}: no message with tag {tag} from "
                        f"rank {source} within {timeout:g}s"
                    ) from None
                if got_tag == tag:
                    return value
                if strict_tags:
                    raise ValueError(
                        f"rank {self._rank}: tag mismatch from rank {source} "
                        f"(expected {tag}, got {got_tag})"
                    )
                stashed.append((got_tag, value))
        finally:
            for item in stashed:
                chan.put(item)
