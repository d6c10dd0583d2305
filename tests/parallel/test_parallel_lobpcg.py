"""Distributed LOBPCG must reproduce the serial eigensolve."""

import numpy as np
import pytest

from repro.core import HxcKernel, ImplicitCasidaOperator, isdf_decompose
from repro.eigen import dense_lowest, lobpcg
from repro.parallel import BlockDistribution1D, spmd_run
from repro.parallel.parallel_lobpcg import (
    distributed_lobpcg,
    make_distributed_implicit_apply,
)
from repro.utils.rng import default_rng


def _dense_apply_local(comm, matrix, dist):
    """Generic row-distributed apply for a dense test matrix: each rank
    allgathers the block and multiplies its row slab."""
    rows = dist.local_slice(comm.rank)
    a_rows = matrix[rows]

    def apply_local(x_local):
        pieces = comm.allgather(x_local)
        x_full = np.concatenate(pieces, axis=0)
        return a_rows @ x_full

    return apply_local


def _symmetric_problem(seed, n, k):
    rng = default_rng(seed)
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2 + np.diag(np.arange(n, dtype=float))
    return a, rng.standard_normal((n, k))


class TestGenericOperator:
    @pytest.mark.parametrize(
        "n_ranks, n",
        [
            pytest.param(1, 120, id="1"),
            pytest.param(2, 120, id="2"),
            pytest.param(3, 120, id="3"),
            pytest.param(4, 120, id="4"),
            # One rank owns no rows: empty local slabs through every
            # product, the triangular solve and the norm reduction.
            pytest.param(6, 5, id="6-ranks-5-rows"),
        ],
    )
    def test_matches_dense_reference(self, n_ranks, n):
        k = 4
        a, x0 = _symmetric_problem(0, n, k)
        ref, _ = dense_lowest(a, k)
        dist = BlockDistribution1D(n, n_ranks)

        def prog(comm):
            apply_local = _dense_apply_local(comm, a, dist)
            res = distributed_lobpcg(
                comm, apply_local, x0[dist.local_slice(comm.rank)],
                tol=1e-9, max_iter=300,
            )
            return res.eigenvalues, res.converged

        results = spmd_run(n_ranks, prog)
        for evals, converged in results:
            assert converged
            np.testing.assert_allclose(evals, ref, atol=1e-7)

    def test_eigenvalues_replicated(self):
        rng = default_rng(1)
        n = 60
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2 + np.diag(np.arange(n, dtype=float))
        x0 = rng.standard_normal((n, 3))
        dist = BlockDistribution1D(n, 3)

        def prog(comm):
            apply_local = _dense_apply_local(comm, a, dist)
            return distributed_lobpcg(
                comm, apply_local, x0[dist.local_slice(comm.rank)], tol=1e-9
            ).eigenvalues

        results = spmd_run(3, prog)
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_distributed_eigenvectors_assemble_to_global(self):
        rng = default_rng(2)
        n = 80
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2 + np.diag(np.arange(n, dtype=float))
        x0 = rng.standard_normal((n, 3))
        dist = BlockDistribution1D(n, 4)

        def prog(comm):
            apply_local = _dense_apply_local(comm, a, dist)
            res = distributed_lobpcg(
                comm, apply_local, x0[dist.local_slice(comm.rank)], tol=1e-10
            )
            return res.eigenvalues, res.eigenvectors

        results = spmd_run(4, prog)
        evals = results[0][0]
        vectors = np.concatenate([r[1] for r in results], axis=0)
        for j in range(3):
            v = vectors[:, j]
            np.testing.assert_allclose(a @ v, evals[j] * v, atol=1e-7)

    def test_more_pairs_than_rows_raises_on_every_rank(self):
        """The order is the global row count: 4 pairs of an order-3
        operator is an error on every rank, not a spurious eigenvalue."""
        a, x0 = _symmetric_problem(3, 3, 4)
        dist = BlockDistribution1D(3, 2)

        def prog(comm):
            apply_local = _dense_apply_local(comm, a, dist)
            with pytest.raises(ValueError, match="4 pairs from an order-3"):
                distributed_lobpcg(comm, apply_local, x0[dist.local_slice(comm.rank)])
            return True

        assert spmd_run(2, prog) == [True, True]

    @pytest.mark.parametrize(
        "backend",
        ["thread", pytest.param("process", marks=pytest.mark.process_backend)],
    )
    def test_one_rank_is_the_serial_solve(self, backend):
        """On one rank every reduction is the identity, so the distributed
        solve is the serial one bit for bit."""
        a, x0 = _symmetric_problem(0, 120, 4)
        serial = lobpcg(lambda x: a @ x, x0, tol=1e-9, max_iter=300)

        def prog(comm):
            res = distributed_lobpcg(
                comm, lambda x: a @ x, x0, tol=1e-9, max_iter=300
            )
            return res.eigenvalues, res.eigenvectors, res.iterations

        [(evals, evecs, iterations)] = spmd_run(1, prog, backend=backend)
        assert iterations == serial.iterations
        np.testing.assert_array_equal(evals, serial.eigenvalues)
        np.testing.assert_array_equal(evecs, serial.eigenvectors)


class TestImplicitCasidaDistributed:
    @pytest.fixture(scope="class")
    def problem(self, si8_synthetic):
        gs = si8_synthetic
        psi_v, eps_v, psi_c, eps_c = gs.select_transition_space(8, 6)
        kernel = HxcKernel(gs.basis, gs.density)
        isdf = isdf_decompose(
            psi_v, psi_c, 40, method="qrcp", rng=default_rng(3)
        )
        op = ImplicitCasidaOperator(isdf, eps_v, eps_c, kernel)
        return isdf, eps_v, eps_c, op

    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_matches_serial_implicit_solve(self, problem, n_ranks):
        isdf, eps_v, eps_c, op = problem
        k = 4
        rng = default_rng(4)
        x0 = rng.standard_normal((op.n_pairs, k))
        serial = lobpcg(
            op.apply, x0, preconditioner=op.preconditioner,
            tol=1e-10, max_iter=300,
        )
        dist = BlockDistribution1D(op.n_pairs, n_ranks)

        def prog(comm):
            apply_local, precond_local = make_distributed_implicit_apply(
                comm, isdf.psi_v_mu, isdf.psi_c_mu, eps_v, eps_c, op.vtilde, dist
            )
            res = distributed_lobpcg(
                comm, apply_local, x0[dist.local_slice(comm.rank)],
                preconditioner_local=precond_local, tol=1e-10, max_iter=300,
            )
            return res.eigenvalues

        for evals in spmd_run(n_ranks, prog):
            np.testing.assert_allclose(evals, serial.eigenvalues, atol=1e-8)

    def test_communication_is_small_gram_traffic(self, problem):
        """Per iteration the distributed solver only moves O(k N_mu + k^2)
        floats, never O(N_cv) vectors."""
        isdf, eps_v, eps_c, op = problem
        dist = BlockDistribution1D(op.n_pairs, 4)
        rng = default_rng(5)
        x0 = rng.standard_normal((op.n_pairs, 3))

        def prog(comm):
            apply_local, precond_local = make_distributed_implicit_apply(
                comm, isdf.psi_v_mu, isdf.psi_c_mu, eps_v, eps_c, op.vtilde, dist
            )
            res = distributed_lobpcg(
                comm, apply_local, x0[dist.local_slice(comm.rank)],
                preconditioner_local=precond_local, tol=1e-8, max_iter=100,
            )
            return res.iterations

        _, traffic = spmd_run(4, prog, return_traffic=True)
        assert "allgather" not in traffic.bytes_by_op  # no full-vector moves
        assert traffic.bytes_by_op["allreduce"] > 0
