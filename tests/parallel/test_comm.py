"""Tests for the SPMD communicator and executor."""

import numpy as np
import pytest

from repro.parallel import SpmdAbort, spmd_run


class TestExecutor:
    def test_results_in_rank_order(self):
        results = spmd_run(4, lambda comm: comm.rank * 10)
        assert results == [0, 10, 20, 30]

    def test_single_rank(self):
        assert spmd_run(1, lambda comm: comm.size) == [1]

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            spmd_run(0, lambda comm: None)

    def test_exception_propagates_without_deadlock(self):
        def prog(comm):
            if comm.rank == 1:
                raise RuntimeError("rank 1 exploded")
            comm.barrier()

        with pytest.raises(RuntimeError, match="rank 1 exploded"):
            spmd_run(3, prog)

    def test_extra_args_forwarded(self):
        results = spmd_run(2, lambda comm, x, y: x + y + comm.rank, 5, 10)
        assert results == [15, 16]

    def test_traffic_returned(self):
        def prog(comm):
            comm.allreduce(np.ones(100))

        _, traffic = spmd_run(3, prog, return_traffic=True)
        assert traffic.bytes_by_op["allreduce"] > 0
        # Volume-bearing collectives are recorded once per invocation.
        assert traffic.calls_by_op["allreduce"] == 1


class TestCollectives:
    def test_bcast(self):
        def prog(comm):
            value = np.arange(5) if comm.rank == 0 else None
            return comm.bcast(value)

        results = spmd_run(3, prog)
        for r in results:
            np.testing.assert_array_equal(r, np.arange(5))

    def test_bcast_nonzero_root(self):
        def prog(comm):
            return comm.bcast("payload" if comm.rank == 2 else None, root=2)

        assert spmd_run(4, prog) == ["payload"] * 4

    def test_gather(self):
        def prog(comm):
            return comm.gather(comm.rank**2)

        results = spmd_run(4, prog)
        assert results[0] == [0, 1, 4, 9]
        assert results[1] is None

    def test_allgather(self):
        results = spmd_run(3, lambda comm: comm.allgather(comm.rank + 1))
        assert results == [[1, 2, 3]] * 3

    def test_scatter(self):
        def prog(comm):
            values = [f"chunk{i}" for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(values)

        assert spmd_run(3, prog) == ["chunk0", "chunk1", "chunk2"]

    def test_scatter_wrong_length_rejected(self):
        def prog(comm):
            return comm.scatter([1] if comm.rank == 0 else None)

        with pytest.raises(ValueError, match="scatter"):
            spmd_run(2, prog)

    def test_reduce_sum(self):
        def prog(comm):
            return comm.reduce(np.full(3, float(comm.rank + 1)))

        results = spmd_run(3, prog)
        np.testing.assert_array_equal(results[0], np.full(3, 6.0))
        assert results[1] is None

    def test_allreduce_sum_identical_on_all_ranks(self):
        def prog(comm):
            return comm.allreduce(np.array([comm.rank + 1.0]))

        results = spmd_run(4, prog)
        for r in results:
            np.testing.assert_array_equal(r, [10.0])

    @pytest.mark.parametrize("op,expected", [("max", 3.0), ("min", 1.0)])
    def test_allreduce_minmax(self, op, expected):
        def prog(comm):
            return comm.allreduce(np.array([comm.rank + 1.0]), op=op)

        results = spmd_run(3, prog)
        assert all(r[0] == expected for r in results)

    def test_allreduce_unknown_op(self):
        def prog(comm):
            return comm.allreduce(np.ones(1), op="prod")

        with pytest.raises(ValueError, match="unknown reduction"):
            spmd_run(2, prog)

    def test_allreduce_determinism(self):
        """Same inputs => bitwise-identical result on every rank, each run."""

        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            return comm.allreduce(rng.standard_normal(50))

        a = spmd_run(4, prog)
        b = spmd_run(4, prog)
        for r in a[1:]:
            np.testing.assert_array_equal(r, a[0])
        np.testing.assert_array_equal(a[0], b[0])

    def test_alltoall(self):
        def prog(comm):
            chunks = [f"{comm.rank}->{d}" for d in range(comm.size)]
            return comm.alltoall(chunks)

        results = spmd_run(3, prog)
        assert results[1] == ["0->1", "1->1", "2->1"]

    def test_alltoall_wrong_chunk_count(self):
        def prog(comm):
            return comm.alltoall([1, 2])

        with pytest.raises(ValueError, match="alltoall"):
            spmd_run(3, prog)

    def test_barrier_order_independence(self):
        """Ranks arriving one after another still synchronize."""

        def prog(comm):
            # A token passed rank to rank: rank r reaches the barrier only
            # after rank r - 1 has handed it on, just before its own barrier.
            token = comm.recv(source=comm.rank - 1) if comm.rank else 0
            if comm.rank + 1 < comm.size:
                comm.send(token + 1, dest=comm.rank + 1)
            comm.barrier()
            return token

        assert spmd_run(4, prog) == [0, 1, 2, 3]


class TestPointToPoint:
    def test_send_recv(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(4), dest=1)
                return None
            return comm.recv(source=0)

        results = spmd_run(2, prog)
        np.testing.assert_array_equal(results[1], np.arange(4))

    def test_ring_exchange(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(comm.rank, dest=right)
            return comm.recv(source=left)

        assert spmd_run(4, prog) == [3, 0, 1, 2]

    def test_tag_mismatch_detected(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=7)
            else:
                comm.recv(source=0, tag=8)

        with pytest.raises(ValueError, match="tag mismatch"):
            spmd_run(2, prog)


class TestTraffic:
    def test_alltoall_volume_excludes_self(self):
        def prog(comm):
            chunks = [np.ones(10) for _ in range(comm.size)]
            comm.alltoall(chunks)

        _, traffic = spmd_run(4, prog, return_traffic=True)
        # Each rank ships 3 chunks of 80 bytes.
        assert traffic.bytes_by_op["alltoall"] == 4 * 3 * 80

    def test_summary_mentions_ops(self):
        def prog(comm):
            comm.allreduce(np.ones(4))

        _, traffic = spmd_run(2, prog, return_traffic=True)
        assert "allreduce" in traffic.summary()
