"""Runtime SPMD sanitizer: mismatch, race and deadlock diagnosis.

Every scenario that used to be a hang or silent corruption must become a
:class:`SanitizerError` naming the offending ranks — and clean programs must
run unchanged (same results with and without the sanitizer).

The backend-independent scenarios are written once, in the ``Scenario*``
base classes below, and run per backend through their ``backend``
attribute: the ``Test*`` classes here run them on threads,
``test_process_sanitizer.py`` subclasses them for forked processes.
"""

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro.parallel import SanitizerError, spmd_run
from repro.parallel.sanitizer import (
    SpmdSanitizer,
    board_size,
    describe_payload,
    env_enabled,
)
from repro.resilience.faults import (
    FaultInjector,
    FaultSpec,
    InjectedRankFailure,
)
from repro.resilience.policies import (
    RetryPolicy,
    reliable_recv,
    reliable_send,
    verified_allreduce,
)

FAST = RetryPolicy(max_retries=2, backoff=0.0, timeout=0.2)
TIMEOUT = 2.0  # deadlock scenarios must diagnose well inside the suite budget

#: Every way rank code combines buffers element-wise; each needs the same
#: payload shape and dtype on all ranks.
REDUCING_OPS = [
    pytest.param(lambda comm, buf: comm.allreduce(buf), id="allreduce"),
    pytest.param(lambda comm, buf: comm.reduce(buf, root=0), id="reduce"),
    pytest.param(lambda comm, buf: comm.ireduce(buf, root=0).wait(), id="ireduce"),
    pytest.param(lambda comm, buf: verified_allreduce(comm, buf), id="verified_allreduce"),
]


class _Backend:
    backend = "thread"

    def run(self, n_ranks, prog, **kwargs):
        kwargs.setdefault("sanitize", True)
        kwargs.setdefault("sanitize_timeout", TIMEOUT)
        return spmd_run(n_ranks, prog, backend=self.backend, **kwargs)


# -- scenarios shared by both backends -----------------------------------------


class ScenarioCleanPrograms(_Backend):
    def test_collectives_unchanged_under_sanitizer(self, rng):
        payload = rng.standard_normal((3, 5, 4))

        def prog(comm):
            mine = payload[comm.rank]
            total = comm.allreduce(mine)
            rows = comm.allgather(np.full(comm.rank + 1, float(comm.rank)))
            root_view = comm.bcast(
                np.arange(3.0) if comm.rank == 0 else None, root=0
            )
            handle = comm.ireduce(mine, root=0)
            comm.barrier()
            ired = handle.wait()
            return (
                np.array(total),
                [np.array(r) for r in rows],
                np.array(root_view),
                None if ired is None else np.array(ired),
            )

        plain = self.run(3, prog, sanitize=False)
        sanitized = self.run(3, prog)
        for p_rank, s_rank in zip(plain, sanitized):
            np.testing.assert_array_equal(p_rank[0], s_rank[0])
            for a, b in zip(p_rank[1], s_rank[1]):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(p_rank[2], s_rank[2])
            if p_rank[3] is None:
                assert s_rank[3] is None
            else:
                np.testing.assert_array_equal(p_rank[3], s_rank[3])
        assert [r.shape[0] for r in sanitized[0][1]] == [1, 2, 3]

    def test_per_rank_payload_shapes_are_not_a_mismatch(self):
        # gather/allgather/alltoall legitimately carry different shapes.
        def prog(comm):
            blocks = comm.allgather(np.zeros((comm.rank + 1, 2)))
            return sum(b.shape[0] for b in blocks)

        assert self.run(3, prog) == [6, 6, 6]

    def test_single_rank_run_is_trivially_clean(self):
        assert self.run(1, lambda comm: comm.allreduce(1.0)) == [1.0]


class ScenarioMismatchedCollectives(_Backend):
    def test_divergent_ops_report_both_call_sites(self):
        def prog(comm):
            if comm.rank == 2:
                return comm.gather(comm.rank, root=0)
            return comm.allreduce(comm.rank)

        with pytest.raises(SanitizerError) as err:
            self.run(4, prog)
        text = str(err.value)
        assert "mismatched collectives" in text
        assert "allreduce" in text and "gather" in text
        assert all(f"rank {r} seq 0" in text for r in range(4))
        # every rank's call site, in user code rather than comm internals
        assert text.count("test_sanitizer.py") == 4

    def test_divergent_roots_are_a_mismatch(self):
        def prog(comm):
            root = 1 if comm.rank == 1 else 0
            return comm.bcast(comm.rank if comm.rank == root else None, root=root)

        with pytest.raises(SanitizerError, match="root="):
            self.run(3, prog)

    @pytest.mark.parametrize("combine", REDUCING_OPS)
    def test_divergent_allreduce_shapes_are_a_mismatch(self, combine):
        def prog(comm):
            width = 3 if comm.rank == 0 else 2
            return combine(comm, np.ones(width))

        with pytest.raises(SanitizerError, match="ndarray"):
            self.run(2, prog)

    def test_unsanitized_mismatch_would_not_be_diagnosed(self):
        # The control experiment: without the sanitizer the same program
        # pairs the wrong collectives (or hangs); here both ops happen to
        # complete, exchanging garbage — exactly the failure mode the
        # sanitizer exists to catch.  We only assert it does NOT raise
        # SanitizerError, whatever else it does.
        def prog(comm):
            if comm.rank == 0:
                return comm.allgather(comm.rank)
            return comm.allgather(comm.rank)

        assert self.run(2, prog, sanitize=False) == [[0, 1], [0, 1]]


class ScenarioDeadlockDiagnosis(_Backend):
    def test_rank_skipping_a_collective_is_diagnosed(self):
        def prog(comm):
            if comm.rank == 1:
                return None  # returns without the collective
            return comm.allreduce(comm.rank)

        with pytest.raises(SanitizerError) as err:
            self.run(3, prog)
        text = str(err.value)
        assert "per-rank state" in text
        assert "rank 1: program finished" in text

    def test_extra_collective_is_paired_with_the_wrong_op_and_diagnosed(self):
        # A rank issuing one collective too many pairs its barrier with the
        # peers' *next* op — the sanitizer reports it as a mismatch epoch
        # instead of letting the ops exchange garbage.
        def prog(comm):
            comm.barrier()
            if comm.rank == 0:
                comm.barrier()  # nobody will ever join this one
            return comm.allreduce(comm.rank)

        with pytest.raises(SanitizerError) as err:
            self.run(2, prog)
        text = str(err.value)
        assert "barrier" in text and "allreduce" in text

    def test_stalled_rank_times_out_with_state_table(self):
        # Rank 1 is held outside any collective until rank 0's sanitizer
        # sync has timed out and been diagnosed — a logical ordering, no
        # sleeping.  A fork-context Event is shared by threads and forked
        # ranks alike.
        release = multiprocessing.get_context("fork").Event()

        def prog(comm):
            if comm.rank == 1:
                assert release.wait(timeout=60), "rank 0 never released rank 1"
                return None
            try:
                return comm.allreduce(comm.rank)
            finally:
                release.set()

        with pytest.raises(SanitizerError) as err:
            self.run(2, prog, sanitize_timeout=0.3)
        text = str(err.value)
        assert "did not complete within" in text
        assert "per-rank state" in text
        assert "rank 0: entered rank 0 seq 0: allreduce" in text
        assert "rank 1: no collective entered yet" in text


class ScenarioFaultInjection(_Backend):
    def test_kill_rank_unwinds_as_injected_failure_not_mismatch(self):
        # The injector fires before the sanitizer hook: a killed rank must
        # surface as InjectedRankFailure (abort path), never be misread as
        # a collective mismatch or deadlock.
        injector = FaultInjector([FaultSpec(kind="kill_rank", rank=1)])
        with pytest.raises(InjectedRankFailure):
            self.run(3, lambda comm: comm.allreduce(comm.rank), fault_injector=injector)

    def test_dropped_message_recovery_is_sanitizer_clean(self):
        # Point-to-point traffic is not collective: retry-based recovery
        # must run under the sanitizer without tripping it.
        injector = FaultInjector([FaultSpec(kind="drop_message", rank=0, tag=7)])

        def prog(comm):
            if comm.rank == 0:
                attempts = reliable_send(
                    comm, np.arange(4.0), dest=1, tag=7, policy=FAST
                )
                comm.barrier()
                return attempts
            value = reliable_recv(comm, source=0, tag=7, policy=FAST)
            comm.barrier()
            return float(value.sum())

        attempts, received = self.run(2, prog, fault_injector=injector)
        assert attempts == 2
        assert received == 6.0

    def test_rank_exception_propagates_not_misdiagnosed(self):
        def prog(comm):
            if comm.rank == 1:
                raise KeyError("lost key on rank 1")
            return comm.allreduce(comm.rank)

        with pytest.raises(KeyError, match="lost key on rank 1"):
            self.run(3, prog)


class ScenarioEnvOptIn(_Backend):
    def test_env_opt_in_reaches_spmd_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_SANITIZE_TIMEOUT", str(TIMEOUT))

        def prog(comm):
            if comm.rank == 0:
                return comm.barrier()
            return comm.allreduce(comm.rank)

        with pytest.raises(SanitizerError):
            spmd_run(2, prog, backend=self.backend)  # sanitize=None -> env


# -- thread backend ------------------------------------------------------------


class TestCleanPrograms(ScenarioCleanPrograms):
    def test_epoch_counter_advances(self):
        san = SpmdSanitizer(
            1,
            memoryview(bytearray(board_size(1))),
            threading.Barrier(1),
            threading.Event(),
            TIMEOUT,
        )
        san.on_collective(0, "allreduce", 1.0, detail="op=sum")
        san.on_collective(0, "barrier")
        assert san.n_synced == 2

    def test_board_survives_thread_interleaving(self):
        # More ranks than cores and a tiny switch interval: a lost update
        # to a slot header or the verdict region would surface as a
        # spurious verdict or a wrong epoch count.
        n_ranks, n_ops = 4, 100
        san = SpmdSanitizer(
            n_ranks,
            memoryview(bytearray(board_size(n_ranks))),
            threading.Barrier(n_ranks),
            threading.Event(),
            30.0,
        )
        errors = []

        def rank_loop(rank):
            try:
                for i in range(n_ops):
                    san.on_collective(rank, "allreduce", np.zeros(3), detail="op=sum")
                    san.on_publish(rank, np.full(3, float(i)))
                san.rank_done(rank)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)
                san.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=rank_loop, args=(r,)) for r in range(n_ranks)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert san.n_synced == n_ops


class TestMismatchedCollectives(ScenarioMismatchedCollectives):
    pass


class TestDeadlockDiagnosis(ScenarioDeadlockDiagnosis):
    pass


class TestFaultInjection(ScenarioFaultInjection):
    pass


class TestSharedWriteDetection(_Backend):
    """Thread ranks hand payload arrays to each other by reference."""

    def test_mutating_published_buffer_before_next_sync_is_flagged(self):
        def prog(comm):
            buf = np.arange(4.0)
            comm.bcast(buf if comm.rank == 0 else None, root=0)
            if comm.rank == 0:
                buf[0] = 99.0  # peers hold this exact array by reference
            comm.barrier()
            return None

        with pytest.raises(SanitizerError, match="unsynchronized shared-buffer write"):
            self.run(2, prog)

    def test_receiver_mutating_a_bcast_array_is_flagged(self):
        # The writer is *not* the publisher: rank 1 writes into the array
        # rank 0 published.  The publisher re-checks only after the next
        # epoch's first barrier, by which point every rank's write inside
        # the window has landed.
        def prog(comm):
            got = comm.bcast(np.arange(4.0) if comm.rank == 0 else None, root=0)
            if comm.rank == 1:
                got[0] = 99.0  # rank 0's own array, by reference
            comm.barrier()
            return None

        with pytest.raises(SanitizerError) as err:
            self.run(2, prog)
        text = str(err.value)
        assert "unsynchronized shared-buffer write" in text
        assert "rank 0 seq 0: bcast(ndarray[float64,4], root=0)" in text
        assert "test_sanitizer.py" in text and "in prog" in text

    def test_receiver_mutating_a_recv_array_is_flagged(self):
        # Point-to-point hands the sent object over by reference too; the
        # send joins the buffers rank 0 already published this epoch (the
        # bcast payload stays tracked) and the write is caught at rank 0's
        # next collective.
        def prog(comm):
            comm.bcast(np.arange(3.0) if comm.rank == 0 else None, root=0)
            if comm.rank == 0:
                comm.send(np.arange(4.0), dest=1, tag=7)
            else:
                got = comm.recv(source=0, tag=7)
                got[0] = 99.0  # rank 0's own array, by reference
            comm.barrier()
            return None

        with pytest.raises(SanitizerError) as err:
            self.run(2, prog)
        text = str(err.value)
        assert "unsynchronized shared-buffer write" in text
        assert "ndarray[float64,4] published by rank 0: send(dest=1, tag=7)" in text
        assert "test_sanitizer.py" in text and "in prog" in text

    def test_send_keeps_the_epochs_collective_payload_tracked(self):
        def prog(comm):
            buf = np.arange(3.0)
            comm.bcast(buf if comm.rank == 0 else None, root=0)
            if comm.rank == 0:
                comm.send(np.arange(4.0), dest=1)
                buf[0] = 99.0  # peers still hold the bcast payload
            else:
                comm.recv(source=0)
            comm.barrier()
            return None

        with pytest.raises(SanitizerError, match=r"published by rank 0 seq 0: bcast"):
            self.run(2, prog)

    def test_mutation_after_the_next_barrier_is_legal(self):
        # The one-epoch window IS the race window: after every aliasing
        # rank has synchronized again, in-place reuse is the documented
        # pattern (see pipelined_vhxc_rows).
        def prog(comm):
            buf = np.arange(4.0)
            view = comm.bcast(buf if comm.rank == 0 else None, root=0)
            got = float(view.sum())
            comm.barrier()
            if comm.rank == 0:
                buf[0] = 99.0
            comm.barrier()
            return got

        assert self.run(2, prog) == [6.0, 6.0]


class TestHelpers(ScenarioEnvOptIn):
    def test_describe_payload_signatures(self):
        assert describe_payload(np.zeros((3, 2))) == "ndarray[float64,3x2]"
        assert describe_payload(None) == "none"
        assert describe_payload(7) == "int"
        assert describe_payload([np.zeros(2), 1.5]) == "list[ndarray[float64,2],float]"

    def test_env_enabled(self, monkeypatch):
        for raw, expected in [
            ("", False), ("0", False), ("off", False), ("false", False),
            ("1", True), ("yes", True),
        ]:
            monkeypatch.setenv("REPRO_SANITIZE", raw)
            assert env_enabled() is expected
        monkeypatch.delenv("REPRO_SANITIZE")
        assert env_enabled() is False
