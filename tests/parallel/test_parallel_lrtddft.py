"""Distributed Algorithm 1 and the ISDF pipeline must reproduce serial."""

import numpy as np
import pytest

from repro.api import TDDFTConfig
from repro.core import (
    HxcKernel,
    LRTDDFTSolver,
    build_vhxc,
    isdf_decompose,
    project_kernel,
)
from repro.parallel import (
    BlockDistribution1D,
    distributed_build_vhxc,
    distributed_implicit_solve,
    distributed_isdf_vtilde,
    distributed_lrtddft_solve,
    pipelined_vhxc_full,
    pipelined_vhxc_rows,
    spmd_run,
)
from repro.utils.rng import default_rng


@pytest.fixture(scope="module")
def problem(si8_synthetic):
    gs = si8_synthetic
    psi_v, eps_v, psi_c, eps_c = gs.select_transition_space(8, 6)
    kernel = HxcKernel(gs.basis, gs.density)
    return gs, psi_v, eps_v, psi_c, eps_c, kernel


@pytest.fixture(scope="module")
def serial_vhxc(problem):
    _, psi_v, _, psi_c, _, kernel = problem
    return build_vhxc(psi_v, psi_c, kernel)


class TestDistributedVhxc:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
    def test_matches_serial(self, problem, serial_vhxc, n_ranks):
        gs, psi_v, _, psi_c, _, kernel = problem
        dist = BlockDistribution1D(gs.basis.n_r, n_ranks)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            return distributed_build_vhxc(
                comm, psi_v[:, sl], psi_c[:, sl], kernel, dist
            )

        for vhxc in spmd_run(n_ranks, prog):
            np.testing.assert_allclose(vhxc, serial_vhxc, atol=1e-12)

    def test_uses_two_alltoalls(self, problem):
        gs, psi_v, _, psi_c, _, kernel = problem
        dist = BlockDistribution1D(gs.basis.n_r, 2)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            distributed_build_vhxc(comm, psi_v[:, sl], psi_c[:, sl], kernel, dist)

        _, traffic = spmd_run(2, prog, return_traffic=True)
        assert traffic.calls_by_op["alltoall"] == 2 * 2  # 2 transposes x 2 ranks
        assert traffic.calls_by_op["allreduce"] == 1  # one collective (line 8)


class TestDistributedSolve:
    def test_matches_serial_excitations(self, problem):
        gs, psi_v, eps_v, psi_c, eps_c, kernel = problem
        solver = LRTDDFTSolver(gs, n_valence=8, n_conduction=6, seed=1)
        serial = solver.solve(TDDFTConfig(method="naive", n_excitations=5))
        dist = BlockDistribution1D(gs.basis.n_r, 3)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            evals, _ = distributed_lrtddft_solve(
                comm, psi_v[:, sl], psi_c[:, sl], eps_v, eps_c, kernel, dist, 5
            )
            return evals

        for evals in spmd_run(3, prog):
            np.testing.assert_allclose(evals, serial.energies, atol=1e-9)


class TestDistributedISDF:
    @pytest.fixture(scope="class")
    def isdf(self, problem):
        gs, psi_v, _, psi_c, _, _ = problem
        return isdf_decompose(
            psi_v, psi_c, 40, method="kmeans",
            grid_points=gs.basis.grid.cartesian_points, rng=default_rng(5),
        )

    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_vtilde_matches_serial(self, problem, isdf, n_ranks):
        gs, *_ , kernel = problem
        serial = project_kernel(isdf, kernel)
        dist = BlockDistribution1D(gs.basis.n_r, n_ranks)

        def prog(comm):
            theta_local = isdf.theta[dist.local_slice(comm.rank)]
            return distributed_isdf_vtilde(comm, theta_local, kernel, dist)

        for vtilde in spmd_run(n_ranks, prog):
            np.testing.assert_allclose(vtilde, serial, atol=1e-12)

    def test_implicit_solve_matches_serial(self, problem, isdf):
        gs, psi_v, eps_v, psi_c, eps_c, kernel = problem
        from repro.core import ImplicitCasidaOperator
        from repro.eigen import dense_lowest

        serial_op = ImplicitCasidaOperator(isdf, eps_v, eps_c, kernel)
        ref, _ = dense_lowest(serial_op.materialize(), 4)
        dist = BlockDistribution1D(gs.basis.n_r, 2)

        def prog(comm):
            evals, _ = distributed_implicit_solve(
                comm, isdf, eps_v, eps_c, kernel, dist, 4, tol=1e-10
            )
            return evals

        for evals in spmd_run(2, prog):
            np.testing.assert_allclose(evals, ref, atol=1e-7)

    def test_isdf_moves_less_data_than_naive(self, problem, isdf):
        """The headline claim: the optimized pipeline's alltoall volume is
        N_mu / N_cv of the naive one."""
        gs, psi_v, _, psi_c, _, kernel = problem
        dist = BlockDistribution1D(gs.basis.n_r, 2)

        def naive_prog(comm):
            sl = dist.local_slice(comm.rank)
            distributed_build_vhxc(comm, psi_v[:, sl], psi_c[:, sl], kernel, dist)

        def isdf_prog(comm):
            theta_local = isdf.theta[dist.local_slice(comm.rank)]
            distributed_isdf_vtilde(comm, theta_local, kernel, dist)

        _, naive_traffic = spmd_run(2, naive_prog, return_traffic=True)
        _, isdf_traffic = spmd_run(2, isdf_prog, return_traffic=True)
        ratio = (
            isdf_traffic.bytes_by_op["alltoall"]
            / naive_traffic.bytes_by_op["alltoall"]
        )
        n_pairs = psi_v.shape[0] * psi_c.shape[0]
        assert ratio == pytest.approx(isdf.n_mu / n_pairs, rel=1e-6)


class TestPipelinedReduce:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_matches_monolithic_vhxc(self, problem, serial_vhxc, n_ranks):
        gs, psi_v, _, psi_c, _, kernel = problem
        dist = BlockDistribution1D(gs.basis.n_r, n_ranks)
        # Z and K slabs come from the serial full matrices so the pipelined
        # GEMM+Reduce is isolated from the kernel application.
        from repro.core import pair_products

        z = pair_products(psi_v, psi_c)
        # Stage the transposed kernel product contiguously: the pipeline's
        # array contract requires C-contiguous float64 slabs.
        k = np.ascontiguousarray(kernel.apply(z.T).T)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            return pipelined_vhxc_full(
                comm, z[sl], k[sl], kernel.basis.grid.dv
            )

        for vhxc in spmd_run(n_ranks, prog):
            np.testing.assert_allclose(vhxc, serial_vhxc, atol=1e-12)

    def test_rows_are_owned_disjointly(self, problem):
        gs, psi_v, _, psi_c, _, kernel = problem
        from repro.core import pair_products

        z = pair_products(psi_v, psi_c)
        # Stage the transposed kernel product contiguously: the pipeline's
        # array contract requires C-contiguous float64 slabs.
        k = np.ascontiguousarray(kernel.apply(z.T).T)
        dist = BlockDistribution1D(gs.basis.n_r, 3)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            rows, out_dist = pipelined_vhxc_rows(
                comm, z[sl], k[sl], kernel.basis.grid.dv
            )
            return rows.shape[0], out_dist.count(comm.rank)

        results = spmd_run(3, prog)
        n_pairs = psi_v.shape[0] * psi_c.shape[0]
        assert sum(r[0] for r in results) == n_pairs
        for got, expect in results:
            assert got == expect

    def test_gemm_operands_are_contiguous_float64(self, problem, monkeypatch):
        """Regression: the per-block GEMM must consume C-contiguous float64
        operands (the staged transpose), never an lda-strided column view."""
        gs, psi_v, _, psi_c, _, kernel = problem
        from repro.core import pair_products

        z = pair_products(psi_v, psi_c)
        k = np.ascontiguousarray(kernel.apply(z.T).T)
        dist = BlockDistribution1D(gs.basis.n_r, 2)

        seen = []
        real_matmul = np.matmul

        def spying_matmul(a, b, *args, **kwargs):
            seen.append(
                (
                    a.flags["C_CONTIGUOUS"],
                    b.flags["C_CONTIGUOUS"],
                    a.dtype,
                    b.dtype,
                )
            )
            return real_matmul(a, b, *args, **kwargs)

        import repro.parallel.pipeline as pipeline_mod

        monkeypatch.setattr(pipeline_mod.np, "matmul", spying_matmul)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            pipelined_vhxc_rows(comm, z[sl], k[sl], kernel.basis.grid.dv)

        spmd_run(2, prog)
        assert seen, "the pipeline GEMM never ran"
        for a_contig, b_contig, a_dtype, b_dtype in seen:
            assert a_contig and b_contig
            assert a_dtype == np.float64 and b_dtype == np.float64

    def test_uses_reduce_not_allreduce(self, problem):
        gs, psi_v, _, psi_c, _, kernel = problem
        from repro.core import pair_products

        z = pair_products(psi_v, psi_c)
        # Stage the transposed kernel product contiguously: the pipeline's
        # array contract requires C-contiguous float64 slabs.
        k = np.ascontiguousarray(kernel.apply(z.T).T)
        dist = BlockDistribution1D(gs.basis.n_r, 2)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            pipelined_vhxc_rows(comm, z[sl], k[sl], kernel.basis.grid.dv)

        _, traffic = spmd_run(2, prog, return_traffic=True)
        assert traffic.calls_by_op.get("reduce", 0) > 0
        assert "allreduce" not in traffic.bytes_by_op
