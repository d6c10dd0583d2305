"""Process-per-rank SPMD backend: real parallelism, shared-memory slabs.

``spmd_run(..., backend="process")`` runs every virtual rank in its own
forked OS process, so pure-Python sections of a rank program execute
concurrently instead of serializing on the GIL.  The communicator is a
drop-in for the thread backend's — same collectives, same deterministic
rank-ordered combine trees, same fault-injection hook points — so a rank
program produces **bit-identical** results under either backend.

Data movement:

* bulk numpy payloads travel through per-rank :class:`~repro.parallel.shm.SharedSlab`
  outboxes — a sender writes array bytes once, every receiver maps the
  same segment and reads through zero-copy views; only a tiny descriptor
  (generation, offset, shape, dtype) plus any non-array leaves are
  pickled into a fixed metadata board,
* reductions combine *directly from the peers' shared views* between the
  exchange barriers (no intermediate copy at all),
* :meth:`ireduce` contributions go into a grow-only
  :class:`~repro.parallel.shm.SlabArena`, so the owning rank can combine
  them long after the posting ranks moved on — genuine compute/comm
  overlap for the pipelined GEMM+Reduce,
* point-to-point ``send``/``recv`` use one ``multiprocessing.Queue`` per
  ordered rank pair, preserving the thread backend's tag semantics
  (including the fault injector's drop/delay hooks).

Rank programs and their arguments are inherited through ``fork`` — no
pickling of closures — which is why this backend requires a POSIX start
method.  ``sanitize=True`` runs every rank under the
:class:`~repro.parallel.sanitizer.SpmdSanitizer`, whose board lives in a
shared-memory slab created before forking (matched collectives,
shared-slab write detection, deadlock diagnosis — see
``docs/parallelism.md``).

Failure handling: a rank that raises sets the shared abort event and
breaks the barrier; peers unwind with :class:`SpmdAbort`; every worker
(dying ones included) reports its traffic, fault-injector state and
result through the result queue and reaps its own shared-memory segments
in a ``finally`` block.  The parent then merges traffic/injector state,
re-raises the original exception, and runs :func:`~repro.parallel.shm.reap_run_segments`
as a leak guard of last resort — a rank killed mid-collective leaves no
``/dev/shm`` residue behind.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_mod
import struct
import threading
import time
import uuid
from typing import Callable

import numpy as np

from repro.parallel.comm import (
    CommTraffic,
    Communicator,
    ReduceHandle,
    SpmdAbort,
    _nbytes,
)
from repro.parallel import shm
from repro.parallel.sanitizer import SpmdSanitizer, board_size
from repro.utils.hot import array_contract
from repro.utils.validation import require

__all__ = ["ProcessCommunicator", "process_spmd_run"]

#: Fixed-size per-rank slot in the metadata board.
_META_SLOT = 64
_META = struct.Struct("<QQQ")  # outbox generation, descriptor offset, length

_ENV_TIMEOUT = "REPRO_SPMD_TIMEOUT"


def _run_timeout(value: float | None) -> float:
    if value is not None:
        return float(value)
    text = os.environ.get(_ENV_TIMEOUT, "").strip()
    return float(text) if text else 120.0


class _ArrayRef:
    """Descriptor placeholder for an array shipped through the outbox."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __getstate__(self) -> int:
        return self.index

    def __setstate__(self, state: int) -> None:
        self.index = state


def _strip_arrays(value, arrays: list):
    """Replace ndarray leaves (top level or inside list/tuple nests) with
    :class:`_ArrayRef` placeholders, collecting the arrays in order.

    Arrays buried inside other objects are left in place and travel with
    the pickled descriptor — correctness first, zero-copy for the common
    shapes the algorithms actually exchange.
    """
    if isinstance(value, np.ndarray) and not value.dtype.hasobject:
        ref = _ArrayRef(len(arrays))
        arrays.append(np.ascontiguousarray(value))
        return ref
    if isinstance(value, (list, tuple)):
        stripped = [_strip_arrays(v, arrays) for v in value]
        return tuple(stripped) if isinstance(value, tuple) else stripped
    return value


class _Runtime:
    """Fork-inherited handles shared by the parent and every worker."""

    def __init__(
        self,
        run_id: str,
        size: int,
        barrier,
        abort_event,
        queues: dict,
        inboxes: list,
        board: shm.SharedSlab,
        timeout: float,
    ) -> None:
        self.run_id = run_id
        self.size = size
        self.barrier = barrier
        self.abort_event = abort_event
        self.queues = queues
        self.inboxes = inboxes
        self.board = board
        self.timeout = timeout


class _ProcessLocalState:
    """Per-process stand-in for the thread backend's ``_SharedState``.

    Exposes the attributes the base :class:`Communicator` methods touch:
    ``size``, ``traffic``, ``queues``, ``fault_injector``, ``sanitizer``
    (the run's :class:`~repro.parallel.sanitizer.SpmdSanitizer` when it is
    sanitized, else ``None``) and ``error``.
    """

    def __init__(self, runtime: _Runtime, fault_injector, sanitizer=None) -> None:
        self.size = runtime.size
        self.traffic = CommTraffic()
        self.queues = runtime.queues
        self.fault_injector = fault_injector
        self.sanitizer = sanitizer
        self.error: BaseException | None = None
        self.reduce_board = None  # thread-only; ProcessCommunicator overrides ireduce


class ProcessCommunicator(Communicator):
    """Drop-in :class:`Communicator` whose exchanges run over shared memory."""

    def __init__(
        self,
        rank: int,
        runtime: _Runtime,
        registry: shm.SlabRegistry,
        fault_injector=None,
        sanitizer=None,
    ) -> None:
        super().__init__(rank, _ProcessLocalState(runtime, fault_injector, sanitizer))
        self._runtime = runtime
        self._registry = registry
        self._arena = shm.SlabArena(registry, runtime.run_id, rank, "ird")
        self._outbox: shm.SharedSlab | None = None
        self._outbox_gen = -1
        self._published_local = None
        #: src -> (generation, attached slab) for peers' outboxes.
        self._peer_cache: dict[int, tuple[int, shm.SharedSlab]] = {}
        #: (src, seq) -> pending ireduce descriptor awaiting its wait().
        self._ired_pending: dict[tuple[int, int], tuple] = {}
        self._current_op = "collective"

    # -- hooks ---------------------------------------------------------------

    def _enter(self, op: str, value=None, detail: str = "") -> None:
        self._current_op = op
        super()._enter(op, value, detail=detail)

    # -- synchronization -----------------------------------------------------

    def _barrier_wait(self) -> None:
        try:
            self._runtime.barrier.wait(timeout=self._runtime.timeout)
        except threading.BrokenBarrierError:
            raise SpmdAbort(
                f"rank {self._rank}: SPMD run aborted "
                "(another rank failed or timed out)"
            ) from None

    # -- shared-memory exchange ----------------------------------------------

    @array_contract(shapes={"value": "any"})
    def _publish(self, value) -> None:
        """Write ``value`` into this rank's outbox + metadata board slot.

        Array bytes land in the shared slab (zero-copy for readers); the
        structural descriptor and non-array leaves are pickled after
        them.  Reuses the outbox across epochs — the exchange barriers
        guarantee the previous epoch's readers are done.
        """
        arrays: list[np.ndarray] = []
        encoded = _strip_arrays(value, arrays)
        offsets, cursor = [], 0
        for arr in arrays:
            offsets.append(cursor)
            cursor = shm.align(cursor + arr.nbytes)
        metas = [
            (off, arr.shape, arr.dtype.str) for off, arr in zip(offsets, arrays)
        ]
        descriptor = pickle.dumps((encoded, metas), protocol=pickle.HIGHEST_PROTOCOL)
        desc_off = cursor
        total = desc_off + len(descriptor)
        if self._outbox is None or total > self._outbox.size:
            previous = self._outbox
            self._outbox_gen += 1
            name = shm.segment_name(
                self._runtime.run_id, self._rank, "out", self._outbox_gen
            )
            self._outbox = self._registry.create(name, max(1 << 20, 2 * total))
            if previous is not None:
                self._registry.release(previous.name)
        for off, arr in zip(offsets, arrays):
            if arr.nbytes:
                self._outbox.write(arr, off)
        self._outbox.write(descriptor, desc_off)
        _META.pack_into(
            self._runtime.board.buf,
            self._rank * _META_SLOT,
            self._outbox_gen,
            desc_off,
            len(descriptor),
        )
        self._published_local = value
        sanitizer = self._shared.sanitizer
        if sanitizer is not None:
            # The array region is what peers map zero-copy; the descriptor
            # after it is never aliased by their result views.
            sanitizer.on_publish(self._rank, self._outbox.buf[:desc_off])
        self.traffic.record_transport(
            self._current_op,
            shm_bytes=sum(a.nbytes for a in arrays),
            pickled_bytes=len(descriptor),
        )

    # Vacuous contracts on the descriptor/decode pair keep the whole
    # exchange path enrolled in the static pass (and its coverage report)
    # without constraining the duck-typed pickled payloads.
    @array_contract()
    def _peer_descriptor(self, src: int) -> tuple[object, list, shm.SharedSlab]:
        gen, desc_off, desc_len = _META.unpack_from(
            self._runtime.board.buf, src * _META_SLOT
        )
        cached = self._peer_cache.get(src)
        if cached is None or cached[0] != gen:
            if cached is not None:
                self._registry.release(cached[1].name)
            name = shm.segment_name(self._runtime.run_id, src, "out", gen)
            try:
                slab = self._registry.attach(name)
            except FileNotFoundError:
                if self._runtime.abort_event.is_set():
                    raise SpmdAbort(
                        f"rank {self._rank}: peer rank {src} vanished mid-exchange"
                    ) from None
                raise
            self._peer_cache[src] = (gen, slab)
        slab = self._peer_cache[src][1]
        encoded, metas = pickle.loads(bytes(slab.buf[desc_off : desc_off + desc_len]))
        return encoded, metas, slab

    @array_contract()
    def _materialize(self, node, metas, slab, copy: bool, depth: int = 0):
        if isinstance(node, _ArrayRef):
            offset, shape, dtype = metas[node.index]
            view = slab.view(shape, dtype, offset)
            if copy or depth > 0:
                return np.array(view)  # repro-lint: disable=no-alloc-in-hot -- deliberate copy-on-return: detaches results the caller retains past the exchange window from the reusable slab
            view.flags.writeable = False
            return view
        if isinstance(node, (list, tuple)):
            items = [
                self._materialize(v, metas, slab, copy, depth + 1) for v in node
            ]
            return tuple(items) if isinstance(node, tuple) else items
        return node

    def _peer_value(self, src: int, copy: bool):
        """Decode rank ``src``'s published payload.

        With ``copy=False`` a top-level array comes back as a read-only
        zero-copy view, valid until :meth:`_complete` — exactly the
        window the reducing collectives combine in.  The local rank's
        payload is returned by reference (thread-backend semantics).
        """
        if src == self._rank:
            return self._published_local
        encoded, metas, slab = self._peer_descriptor(src)
        return self._materialize(encoded, metas, slab, copy or self.size == 1)

    def _peer_item(self, src: int, index: int, copy: bool = True):
        """Decode only element ``index`` of a sequence payload from ``src``."""
        if src == self._rank:
            return self._published_local[index]
        encoded, metas, slab = self._peer_descriptor(src)
        return self._materialize(encoded[index], metas, slab, copy, depth=1)

    # -- exchange primitives (base collectives build on these) ---------------

    def _post(self, value):
        self._publish(value)
        self._barrier_wait()
        return [self._peer_value(src, copy=False) for src in range(self.size)]

    def _exchange(self, value):
        self._publish(value)
        self._barrier_wait()
        snapshot = [self._peer_value(src, copy=True) for src in range(self.size)]
        self._complete()
        return snapshot

    # -- collectives specialized for selective decoding ----------------------

    def bcast(self, value, root: int = 0):
        """Broadcast from ``root``; only the root's payload is decoded."""
        self._enter("bcast", value, detail=f"root={root}")
        self._publish(value if self._rank == root else None)
        self._barrier_wait()
        result = self._peer_value(root, copy=True)
        self._complete()
        if self._rank == root:
            self.traffic.record("bcast", _nbytes(value) * (self.size - 1))
        return result

    def gather(self, value, root: int = 0):
        self._enter("gather", value, detail=f"root={root}")
        self._publish(value)
        self._barrier_wait()
        snapshot = None
        if self._rank == root:
            snapshot = [self._peer_value(src, copy=True) for src in range(self.size)]
        self._complete()
        if self._rank == root:
            self.traffic.record(
                "gather", sum(_nbytes(v) for i, v in enumerate(snapshot) if i != root)
            )
        return snapshot

    def scatter(self, values, root: int = 0):
        self._enter("scatter", values, detail=f"root={root}")
        if self._rank == root:
            require(
                values is not None and len(values) == self.size,
                f"scatter needs {self.size} values at root",
            )
        self._publish(list(values) if self._rank == root else None)
        self._barrier_wait()
        chunk = self._peer_item(root, self._rank)
        self._complete()
        if self._rank == root:
            self.traffic.record(
                "scatter",
                sum(_nbytes(v) for i, v in enumerate(values) if i != root),
            )
        return chunk

    def alltoall(self, chunks):
        """Personalized all-to-all; each rank decodes only its own tiles."""
        self._enter("alltoall", chunks)
        require(
            len(chunks) == self.size,
            f"alltoall needs {self.size} chunks, got {len(chunks)}",
        )
        self._publish(list(chunks))
        self._barrier_wait()
        received = [self._peer_item(src, self._rank) for src in range(self.size)]
        self._complete()
        moved = sum(
            _nbytes(chunks[d]) for d in range(self.size) if d != self._rank
        )
        self.traffic.record("alltoall", moved)
        return received

    # -- nonblocking reduce --------------------------------------------------

    def ireduce(
        self,
        value: np.ndarray,
        root: int = 0,
        *,
        wire_dtype=None,
    ) -> ReduceHandle:
        """Nonblocking sum-reduce: contribution goes into the grow-only
        arena, a tiny descriptor into the root's inbox queue; the posting
        rank returns immediately (this is where the pipelined GEMM's
        overlap comes from — see :mod:`repro.parallel.pipeline`).

        ``wire_dtype`` (see :meth:`Communicator.ireduce`) casts the
        contribution before it enters the shared-memory arena, so the
        zero-copy byte counters (``traffic.shm_bytes_by_op``) record the
        genuinely halved wire volume; the root accumulates into the
        original dtype with the same rank-ordered expression as the
        thread backend."""
        require(
            isinstance(value, np.ndarray),
            f"ireduce payload must be an ndarray, got {type(value).__name__}",
        )
        self._enter("reduce", value, detail=f"root={root},op=sum,async")
        value = self._fault_corrupt("reduce", value)
        if wire_dtype is None:
            accumulate = None
            arr = np.ascontiguousarray(value)
        else:
            accumulate = value.dtype
            arr = np.ascontiguousarray(np.asarray(value, dtype=wire_dtype))
        seq = self._ireduce_seq.get(root, 0)
        self._ireduce_seq[root] = seq + 1
        segment, offset = self._arena.write_array(arr)
        self._runtime.inboxes[root].put(
            (self._rank, seq, segment, offset, arr.shape, arr.dtype.str)
        )
        self.traffic.record_transport("reduce", shm_bytes=arr.nbytes)
        if self._rank != root:
            return ReduceHandle(None)
        self.traffic.record("reduce", arr.nbytes * (self.size - 1))
        return ReduceHandle(
            waiter=lambda: self._ireduce_wait(seq, accumulate=accumulate)
        )

    def _ireduce_wait(self, seq: int, accumulate=None) -> np.ndarray:
        """Root side: collect every rank's contribution for ``seq`` from
        the inbox (buffering out-of-order arrivals) and combine them in
        rank order from zero-copy arena views (accumulating into
        ``accumulate`` dtype when the wire dtype was narrowed)."""
        deadline = time.monotonic() + self._runtime.timeout
        inbox = self._runtime.inboxes[self._rank]
        while any(
            (src, seq) not in self._ired_pending for src in range(self.size)
        ):
            if self._runtime.abort_event.is_set():
                raise SpmdAbort(
                    f"rank {self._rank}: ireduce aborted (another rank failed)"
                )
            if time.monotonic() > deadline:
                raise SpmdAbort(
                    f"rank {self._rank}: ireduce contributions for seq {seq} "
                    f"did not arrive within {self._runtime.timeout:g}s"
                )
            try:
                src, got_seq, segment, offset, shape, dtype = inbox.get(timeout=0.1)
            except queue_mod.Empty:
                continue
            self._ired_pending[(src, got_seq)] = (segment, offset, shape, dtype)
        views = []
        for src in range(self.size):
            segment, offset, shape, dtype = self._ired_pending.pop((src, seq))
            slab = self._registry.attach(segment)
            view = slab.view(shape, dtype, offset)
            view.flags.writeable = False
            views.append(view)
        if accumulate is not None:
            # astype copies, so the result is already detached from shm.
            return self._combine_sum_accumulate(views, accumulate)
        result = self._combine(views, "sum")
        if self.size == 1:  # combine returned the lone view itself: detach
            result = np.array(result)
        return result

    # -- lifecycle -----------------------------------------------------------

    def _shutdown(self) -> None:
        """Close every attachment and unlink owned segments (idempotent)."""
        sanitizer = self._shared.sanitizer
        if sanitizer is not None:
            sanitizer.release(self._rank)  # drop its view of the outbox
        self._peer_cache.clear()
        self._outbox = None
        self._registry.cleanup()


# -- executor ----------------------------------------------------------------


def _encode_error(exc: BaseException) -> tuple:
    try:
        return ("pickle", pickle.dumps(exc))
    except Exception:  # repro-lint: disable=no-blind-except -- any pickling failure must degrade to repr, never mask the original error
        return ("repr", (type(exc).__name__, str(exc)))


def _decode_error(payload: tuple) -> BaseException:
    kind, data = payload
    if kind == "pickle":
        try:
            return pickle.loads(data)
        except Exception:  # repro-lint: disable=no-blind-except -- a truncated/unimportable pickle falls through to the repr form
            pass
        name, text = "<unpicklable>", repr(data[:80])
    else:
        name, text = data
    return RuntimeError(f"rank program failed with {name}: {text}")


def process_spmd_run(
    n_ranks: int,
    fn: Callable[..., object],
    *args,
    return_traffic: bool = False,
    fault_injector=None,
    timeout: float | None = None,
    sanitize: bool = False,
    sanitize_timeout: float | None = None,
):
    """Execute ``fn(comm, *args)`` on ``n_ranks`` forked OS processes.

    Drop-in for the thread backend's ``spmd_run`` (same results, same
    logical traffic totals); see the module docstring for the transport.
    Called through ``spmd_run(..., backend="process")``.
    """
    require(n_ranks >= 1, f"need at least one rank, got {n_ranks}")
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        raise RuntimeError(
            "the process SPMD backend requires the 'fork' start method "
            "(POSIX); use backend='thread' on this platform"
        ) from None
    run_id = uuid.uuid4().hex[:10]
    timeout = _run_timeout(timeout)
    barrier = ctx.Barrier(n_ranks)
    abort_event = ctx.Event()
    queues = {
        (src, dst): ctx.Queue()
        for src in range(n_ranks)
        for dst in range(n_ranks)
    }
    inboxes = [ctx.Queue() for _ in range(n_ranks)]
    results_queue = ctx.Queue()
    board = shm.SharedSlab.create(
        shm.segment_name(run_id, 0, "board"), n_ranks * _META_SLOT
    )
    sanitizer = None
    san_board = None
    if sanitize:
        san_board = shm.SharedSlab.create(
            shm.segment_name(run_id, 0, "san"), board_size(n_ranks)
        )
        sanitizer = SpmdSanitizer(
            n_ranks, san_board.buf, ctx.Barrier(n_ranks), abort_event, sanitize_timeout
        )
    runtime = _Runtime(
        run_id, n_ranks, barrier, abort_event, queues, inboxes, board, timeout
    )
    injector_base = fault_injector.state() if fault_injector is not None else None

    def worker(rank: int) -> None:
        registry = shm.SlabRegistry()
        comm = ProcessCommunicator(rank, runtime, registry, fault_injector, sanitizer)
        status, payload = "ok", None
        try:
            payload = fn(comm, *args)
            if sanitizer is not None:
                sanitizer.rank_done(rank)
        except SpmdAbort:
            status = "abort"  # secondary failure; the original is reported by its rank
        except BaseException as exc:  # repro-lint: disable=no-blind-except -- the worker must capture every failure to abort peers; the parent re-raises it
            status, payload = "error", _encode_error(exc)
            abort_event.set()
            barrier.abort()
            if sanitizer is not None:
                sanitizer.abort()
        # Final rendezvous: peers may still be reading this rank's arena
        # (ireduce) — do not unlink before everyone is done.  A broken
        # barrier just means the run is aborting; fall through to cleanup.
        try:
            barrier.wait(timeout=timeout)
        except threading.BrokenBarrierError:
            pass
        try:
            results_queue.put(
                {
                    "rank": rank,
                    "status": status,
                    "payload": payload,
                    "traffic": comm.traffic,
                    "injector": (
                        fault_injector.state() if fault_injector is not None else None
                    ),
                }
            )
            results_queue.close()
            results_queue.join_thread()
        finally:
            # Unread p2p items must not wedge interpreter shutdown.
            for q in list(queues.values()) + inboxes:
                q.cancel_join_thread()
            comm._shutdown()

    workers = [
        ctx.Process(target=worker, args=(rank,), name=f"spmd-rank-{rank}")
        for rank in range(n_ranks)
    ]
    reports: dict[int, dict] = {}
    try:
        for proc in workers:
            proc.start()
        deadline = time.monotonic() + timeout + 30.0
        while len(reports) < n_ranks:
            try:
                report = results_queue.get(timeout=1.0)
                reports[report["rank"]] = report
                continue
            except queue_mod.Empty:
                pass
            if time.monotonic() > deadline or not any(
                p.is_alive() for p in workers
            ):
                break
        for proc in workers:
            proc.join(timeout=10.0)
    finally:
        for proc in workers:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        board.close()
        board.unlink()
        if san_board is not None:
            san_board.close()
            san_board.unlink()
        shm.reap_run_segments(run_id)  # leak guard: nothing survives the run
        for q in list(queues.values()) + inboxes + [results_queue]:
            q.cancel_join_thread()
            q.close()

    traffic = CommTraffic()
    for rank in range(n_ranks):
        report = reports.get(rank)
        if report is not None and report["traffic"] is not None:
            traffic.merge(report["traffic"])
        if (
            fault_injector is not None
            and report is not None
            and report["injector"] is not None
        ):
            fault_injector.merge_child_state(injector_base, report["injector"])

    for rank in range(n_ranks):
        report = reports.get(rank)
        if report is not None and report["status"] == "error":
            raise _decode_error(report["payload"])
    missing = [rank for rank in range(n_ranks) if rank not in reports]
    if missing:
        codes = {p.name: p.exitcode for p in workers}
        raise RuntimeError(
            f"SPMD ranks {missing} died without reporting a result "
            f"(exit codes: {codes}); shared segments were reaped"
        )

    results = [reports[rank]["payload"] for rank in range(n_ranks)]
    if return_traffic:
        return results, traffic
    return results
