"""Process-per-rank backend: bit-identity with threads, faults, cleanup.

Every test here runs real forked processes, so the file carries the
``process_backend`` marker (deselect with ``-m "not process_backend"`` on
platforms without fork).
"""

import pickle

import numpy as np
import pytest

from repro.parallel import (
    BlockCyclic2D,
    BlockDistribution1D,
    CommTraffic,
    distributed_kmeans,
    distributed_isdf_vtilde,
    distributed_kernel_gram,
    distributed_lrtddft_solve,
    resolve_backend,
    row_block_to_block_cyclic,
    spmd_run,
    spmd_run_resilient,
    transpose_to_column_block,
    transpose_to_row_block,
)
from repro.parallel import shm
from repro.parallel.parallel_lobpcg import distributed_lobpcg
from repro.parallel.pipeline import pipelined_vhxc_rows
from repro.resilience.faults import FaultInjector, FaultSpec, InjectedRankFailure
from repro.resilience.policies import RetryPolicy

pytestmark = pytest.mark.process_backend


def both_backends(n_ranks, prog, **kwargs):
    """Run under both backends; returns (thread_results, process_results)."""
    thread = spmd_run(n_ranks, prog, backend="thread", **kwargs)
    process = spmd_run(n_ranks, prog, backend="process", **kwargs)
    return thread, process


class TestBackendSelection:
    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPMD_BACKEND", raising=False)
        assert resolve_backend(None) == "thread"
        monkeypatch.setenv("REPRO_SPMD_BACKEND", "process")
        assert resolve_backend(None) == "process"
        assert resolve_backend("thread") == "thread"  # argument wins
        with pytest.raises(ValueError, match="unknown SPMD backend"):
            resolve_backend("mpi")

    def test_env_var_reaches_spmd_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_BACKEND", "bogus")
        with pytest.raises(ValueError, match="unknown SPMD backend"):
            spmd_run(2, lambda comm: comm.rank)

    def test_sanitizer_supported_on_process_backend(self):
        # Historically rejected with NotImplementedError; now the same
        # SpmdSanitizer as the thread backend, on a shared-memory board
        # (tests in test_sanitizer.py / test_process_sanitizer.py).
        assert spmd_run(
            2, lambda comm: comm.allreduce(comm.rank), sanitize=True,
            backend="process",
        ) == [1, 1]


class TestCollectiveBitIdentity:
    @pytest.mark.parametrize("n_ranks", [1, 3])
    def test_all_collectives(self, rng, n_ranks, shm_residue):
        payload = rng.standard_normal((n_ranks, 5, 3))

        def prog(comm):
            mine = payload[comm.rank]
            out = {
                "bcast": comm.bcast(payload[0] if comm.rank == 0 else None),
                "allreduce": comm.allreduce(mine),
                "reduce": comm.reduce(mine, root=n_ranks - 1),
                "allgather": comm.allgather(mine),
                "alltoall": comm.alltoall([mine + d for d in range(comm.size)]),
                "scatter": comm.scatter(
                    list(payload) if comm.rank == 0 else None
                ),
                "ireduce": comm.ireduce(mine, root=0).wait(),
            }
            gathered = comm.gather(mine, root=0)
            out["gather"] = gathered
            return {
                k: (
                    [np.array(x) for x in v]
                    if isinstance(v, list)
                    else (None if v is None else np.array(v))
                )
                for k, v in out.items()
            }

        thread, process = both_backends(n_ranks, prog)
        for t_rank, p_rank in zip(thread, process):
            for key in t_rank:
                t_val, p_val = t_rank[key], p_rank[key]
                if t_val is None:
                    assert p_val is None, key
                elif isinstance(t_val, list):
                    for a, b in zip(t_val, p_val):
                        np.testing.assert_array_equal(a, b, err_msg=key)
                else:
                    np.testing.assert_array_equal(t_val, p_val, err_msg=key)
        assert shm_residue() == []

    def test_p2p_roundtrip(self):
        def prog(comm):
            comm.send(np.full(3, comm.rank + 0.5), (comm.rank + 1) % comm.size)
            return comm.recv((comm.rank - 1) % comm.size)

        thread, process = both_backends(3, prog)
        for a, b in zip(thread, process):
            np.testing.assert_array_equal(a, b)


class TestTrafficMerge:
    def test_traffic_is_picklable_and_mergeable(self):
        t = CommTraffic()
        t.record("bcast", 100)
        t.record_transport("bcast", shm_bytes=80, pickled_bytes=20)
        clone = pickle.loads(pickle.dumps(t))
        clone.record("bcast", 50)
        merged = CommTraffic().merge(t).merge(clone)
        assert merged.bytes_by_op["bcast"] == 250
        assert merged.calls_by_op["bcast"] == 3
        assert merged.zero_copy_bytes == 160
        assert merged.pickled_bytes == 40
        merged.record("reduce", 1)  # re-created lock still works

    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_logical_traffic_identical_across_backends(self, rng, n_ranks):
        data = rng.standard_normal((8, 6))

        def prog(comm):
            comm.bcast(data if comm.rank == 0 else None)
            comm.allreduce(data[comm.rank])
            comm.alltoall([data[: comm.size]] * comm.size)
            comm.allgather(data[comm.rank])
            comm.ireduce(data[comm.rank], root=0).wait()
            return None

        _, t_traffic = spmd_run(
            n_ranks, prog, backend="thread", return_traffic=True
        )
        _, p_traffic = spmd_run(
            n_ranks, prog, backend="process", return_traffic=True
        )
        assert t_traffic.bytes_by_op == p_traffic.bytes_by_op
        assert t_traffic.calls_by_op == p_traffic.calls_by_op
        if n_ranks > 1:
            assert p_traffic.zero_copy_bytes > 0
        assert t_traffic.zero_copy_bytes == 0  # threads share one heap


class TestRedistributeBitIdentity:
    """The alltoall transposes on deliberately ragged distributions."""

    @pytest.fixture()
    def matrix(self, rng):
        return rng.standard_normal((31, 13))  # indivisible by 3 ranks

    @pytest.mark.parametrize("n_ranks", [2, 3])
    def test_transpose_pair(self, matrix, n_ranks):
        rows, cols = matrix.shape
        row_dist = BlockDistribution1D(rows, n_ranks)
        col_dist = BlockDistribution1D(cols, n_ranks)

        def prog(comm):
            slab = matrix[row_dist.local_slice(comm.rank)]
            col_block = transpose_to_column_block(comm, slab, row_dist, col_dist)
            back = transpose_to_row_block(comm, col_block, row_dist, col_dist)
            return np.array(col_block), np.array(back)

        thread, process = both_backends(n_ranks, prog)
        for (t_col, t_back), (p_col, p_back) in zip(thread, process):
            np.testing.assert_array_equal(t_col, p_col)
            np.testing.assert_array_equal(t_back, p_back)

    def test_block_cyclic(self, rng):
        matrix = rng.standard_normal((11, 9))
        row_dist = BlockDistribution1D(11, 4)
        desc = BlockCyclic2D(11, 9, mb=2, nb=2, p_rows=2, p_cols=2)

        def prog(comm):
            slab = matrix[row_dist.local_slice(comm.rank)]
            return np.array(
                row_block_to_block_cyclic(comm, slab, row_dist, desc)
            )

        thread, process = both_backends(4, prog)
        for t_tile, p_tile in zip(thread, process):
            np.testing.assert_array_equal(t_tile, p_tile)


class TestPipelineBitIdentity:
    @pytest.mark.parametrize("n_ranks", [2, 3])
    def test_ragged_rows(self, rng, n_ranks):
        n_pairs = 23  # indivisible: ragged output ownership
        z = rng.standard_normal((n_pairs, n_pairs))
        k = rng.standard_normal((n_pairs, n_pairs))
        dist = BlockDistribution1D(n_pairs, n_ranks)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            my_rows, _ = pipelined_vhxc_rows(comm, z[sl], k[sl], 1e-3)
            return np.array(my_rows)

        thread, process = both_backends(n_ranks, prog)
        for t_rows, p_rows in zip(thread, process):
            np.testing.assert_array_equal(t_rows, p_rows)


class TestAlgorithmBitIdentity:
    """The paper's distributed algorithms end to end on both backends."""

    def test_distributed_kmeans(self, si8_synthetic):
        gs = si8_synthetic
        from repro.core import pair_weights

        psi_v, _, psi_c, _ = gs.select_transition_space()
        w = pair_weights(psi_v, psi_c)
        keep = np.flatnonzero(w >= 1e-6 * w.max())
        points, weights = gs.basis.grid.cartesian_points[keep], w[keep]
        dist = BlockDistribution1D(len(points), 3)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            c, labels, inertia, n_iter, conv = distributed_kmeans(
                comm, points[sl], weights[sl], 12, dist
            )
            return np.array(c), np.array(labels), inertia, n_iter, conv

        thread, process = both_backends(3, prog)
        for t, p in zip(thread, process):
            np.testing.assert_array_equal(t[0], p[0])
            np.testing.assert_array_equal(t[1], p[1])
            assert t[2] == p[2] and t[3] == p[3] and t[4] == p[4]

    def test_isdf_two_stage(self, si8_synthetic):
        gs = si8_synthetic
        from repro.core import HxcKernel, isdf_decompose
        from repro.utils.rng import default_rng

        psi_v, _, psi_c, _ = gs.select_transition_space(8, 6)
        kernel = HxcKernel(gs.basis, gs.density)
        isdf = isdf_decompose(
            psi_v, psi_c, 40, method="kmeans",
            grid_points=gs.basis.grid.cartesian_points, rng=default_rng(5),
        )
        dist = BlockDistribution1D(gs.basis.n_r, 2)

        def prog(comm):
            rows_local = isdf.fit_rows[:, dist.local_slice(comm.rank)]
            return np.array(
                distributed_isdf_vtilde(
                    comm, rows_local, isdf.psi_v_mu, isdf.psi_c_mu, kernel, dist
                )
            )

        thread, process = both_backends(2, prog)
        for t_v, p_v in zip(thread, process):
            np.testing.assert_array_equal(t_v, p_v)

    def test_optimized_lrtddft(self, si8_synthetic):
        """The whole distributed version (5): fit rows, Vtilde from their
        Gram, LOBPCG."""
        from repro.core import HxcKernel
        from repro.parallel.parallel_isdf import distributed_optimized_lrtddft

        gs = si8_synthetic
        psi_v, eps_v, psi_c, eps_c = gs.select_transition_space(8, 6)
        kernel = HxcKernel(gs.basis, gs.density)
        dist = BlockDistribution1D(gs.basis.n_r, 2)
        points = gs.basis.grid.cartesian_points

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            energies, _ = distributed_optimized_lrtddft(
                comm, psi_v[:, sl], psi_c[:, sl], eps_v, eps_c, kernel, dist,
                40, 4, grid_points_local=points[sl], tol=1e-9,
            )
            return np.array(energies)

        thread, process = both_backends(2, prog)
        for t_e, p_e in zip(thread, process):
            np.testing.assert_array_equal(t_e, p_e)

    def test_distributed_lobpcg(self):
        from repro.utils.rng import default_rng

        rng = default_rng(0)
        n, k = 60, 3
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2 + np.diag(np.arange(n, dtype=float))
        x0 = rng.standard_normal((n, k))
        dist = BlockDistribution1D(n, 2)

        def prog(comm):
            rows = dist.local_slice(comm.rank)

            def apply_local(x_local):
                x_full = np.concatenate(comm.allgather(x_local), axis=0)
                return a[rows] @ x_full

            res = distributed_lobpcg(
                comm, apply_local, x0[rows], tol=1e-9, max_iter=200
            )
            return np.array(res.eigenvalues), np.array(res.eigenvectors)

        thread, process = both_backends(2, prog)
        for (t_e, t_x), (p_e, p_x) in zip(thread, process):
            np.testing.assert_array_equal(t_e, p_e)
            np.testing.assert_array_equal(t_x, p_x)

    def test_lrtddft_driver(self, si8_synthetic):
        gs = si8_synthetic
        from repro.core import HxcKernel

        psi_v, eps_v, psi_c, eps_c = gs.select_transition_space(8, 6)
        kernel = HxcKernel(gs.basis, gs.density)
        dist = BlockDistribution1D(gs.basis.n_r, 2)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            evals, evecs = distributed_lrtddft_solve(
                comm, psi_v[:, sl], psi_c[:, sl], eps_v, eps_c, kernel, dist, 4
            )
            return np.array(evals), np.array(evecs)

        thread, process = both_backends(2, prog)
        for (t_e, t_v), (p_e, p_v) in zip(thread, process):
            np.testing.assert_array_equal(t_e, p_e)
            np.testing.assert_array_equal(t_v, p_v)

    @pytest.mark.parametrize("n_ranks, m", [(2, 40), (3, 2)])
    def test_kernel_gram(self, si8_synthetic, n_ranks, m):
        """Includes m < P: a rank that owns no field still exchanges."""
        from repro.core import HxcKernel
        from repro.utils.rng import default_rng

        gs = si8_synthetic
        kernel = HxcKernel(gs.basis, gs.density)
        rows = default_rng(3).standard_normal((m, gs.basis.n_r))
        dist = BlockDistribution1D(gs.basis.n_r, n_ranks)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            return distributed_kernel_gram(comm, rows[:, sl], kernel, dist)

        thread, process = both_backends(n_ranks, prog)
        for t_g, p_g in zip(thread, process):
            np.testing.assert_array_equal(t_g, p_g)


class TestFaultsAndCleanup:
    def test_error_propagates_with_type(self, shm_residue):
        def bad(comm):
            if comm.rank == 1:
                raise KeyError("lost key on rank 1")
            comm.barrier()

        with pytest.raises(KeyError, match="lost key on rank 1"):
            spmd_run(3, bad, backend="process")
        assert shm_residue() == []

    def test_kill_rank_mid_alltoall_leaves_no_shm_residue(self, shm_residue):
        inj = FaultInjector(
            [FaultSpec(kind="kill_rank", rank=1, step=0, op="alltoall")]
        )

        def prog(comm):
            chunks = [np.full((64, 8), float(comm.rank)) for _ in range(comm.size)]
            got = comm.alltoall(chunks)
            return float(sum(g.sum() for g in got))

        with pytest.raises(InjectedRankFailure) as excinfo:
            spmd_run(3, prog, fault_injector=inj, backend="process")
        assert excinfo.value.rank == 1 and excinfo.value.op == "alltoall"
        assert shm_residue() == []
        # One-shot spec was consumed inside the forked rank and merged
        # back, so the resilient retry completes cleanly.
        results = spmd_run_resilient(
            3, prog, policy=RetryPolicy(max_retries=1, backoff=0.0),
            fault_injector=inj, backend="process",
        )
        ref = spmd_run(3, prog, backend="thread")
        assert results == ref
        assert shm_residue() == []

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_boards_have_no_name_while_the_ranks_run(self, sanitize, shm_residue):
        # The metadata board (and the sanitizer board) reach the ranks
        # through the fork, so their names are gone before any rank starts:
        # a SIGKILLed parent has nothing of them left to leak.
        def prog(comm):
            run_id = comm._runtime.run_id
            boards = {shm.segment_name(run_id, 0, kind) for kind in ("board", "san")}
            named = sorted(boards & set(shm.list_run_segments(run_id)))
            comm.barrier()  # every rank has looked before any rank returns
            total = comm.allreduce(np.full(3, comm.rank + 1.0))
            gathered = comm.allgather(comm.rank)
            return named, total.tolist(), gathered

        results = spmd_run(3, prog, backend="process", sanitize=sanitize)
        for named, total, gathered in results:
            assert named == []
            assert total == [6.0, 6.0, 6.0]
            assert gathered == [0, 1, 2]
        assert shm_residue() == []

    def test_injected_failure_pickles_faithfully(self):
        exc = InjectedRankFailure(2, "allreduce", 5)
        clone = pickle.loads(pickle.dumps(exc))
        assert (clone.rank, clone.op, clone.step) == (2, "allreduce", 5)
        assert str(clone) == str(exc)

    def test_corrupt_reduce_consumed_across_fork(self):
        inj = FaultInjector([FaultSpec(kind="corrupt_reduce", rank=0, op="allreduce")])

        def prog(comm):
            return float(comm.allreduce(np.ones(4)).sum())

        out = spmd_run(2, prog, fault_injector=inj, backend="process")
        assert all(np.isnan(v) for v in out)
        assert inj._specs[0].triggered == 1
        # spec consumed: a second run is clean
        out2 = spmd_run(2, prog, fault_injector=inj, backend="process")
        assert out2 == [8.0, 8.0]


class TestOutboxGenerations:
    """A large exchange's outbox does not outlive the next small one."""

    MIB = 1 << 17  # float64 elements per MiB

    @staticmethod
    def _outboxes(comm):
        """Every rank's outbox segments (``r<rank>_out<generation>``) once
        all ranks got here."""
        comm.barrier()
        prefix = shm.run_prefix(comm._runtime.run_id)
        names = [
            name[len(prefix):]
            for name in shm.list_run_segments(comm._runtime.run_id)
            if "_out" in name
        ]
        comm.barrier()  # nobody publishes before every rank has listed
        return names

    @staticmethod
    def _mapped(suffix):
        """Whether this process still maps a segment named ``...suffix``."""
        with open("/proc/self/maps") as maps:
            return any(line.rstrip().endswith((suffix, suffix + " (deleted)"))
                       for line in maps)

    def test_small_exchanges_release_the_large_generation(self, shm_residue):
        def prog(comm):
            comm.allreduce(np.ones(4))
            small = self._outboxes(comm)
            tiles = [np.full(4 * self.MIB, float(comm.rank))] * comm.size
            got = comm.alltoall(tiles)
            large = self._outboxes(comm)
            held = [self._mapped(name) for name in large]
            for _ in range(3):
                total = comm.allreduce(np.full(4, comm.rank + 1.0))
            after = self._outboxes(comm)
            mapped = [self._mapped(name) for name in large]
            return small, large, held, after, mapped, [float(g[0]) for g in got], total

        for small, large, held, after, mapped, got, total in spmd_run(
            2, prog, backend="process"
        ):
            assert small == ["r0_out0", "r1_out0"]
            assert large == ["r0_out1", "r1_out1"]
            assert after == ["r0_out2", "r1_out2"]
            # Both large outboxes were mapped in every rank (its own and the
            # peer's); neither stays mapped past the small exchanges.
            assert held == [True, True]
            assert mapped == [False, False]
            assert got == [0.0, 1.0]
            np.testing.assert_array_equal(total, np.full(4, 3.0))
        assert shm_residue() == []

    def test_similar_sized_exchanges_share_a_generation(self, shm_residue):
        # The kernel Gram's pattern: one field transpose, then per-slab
        # transposes down to a quarter of its size, all in one outbox.
        def prog(comm):
            outboxes = []
            for mib in (4, 1, 2, 1, 3, 1):
                tiles = [np.full(mib * self.MIB, float(comm.rank))] * comm.size
                got = comm.alltoall(tiles)
                assert [float(g[-1]) for g in got] == [0.0, 1.0]
                outboxes.append(self._outboxes(comm))
            return outboxes

        for outboxes in spmd_run(2, prog, backend="process"):
            assert outboxes == [["r0_out0", "r1_out0"]] * 6
        assert shm_residue() == []
