"""The fully distributed optimized pipeline must be rank-count invariant
and consistent with the serial optimized solver."""

import numpy as np
import pytest

from repro.api import TDDFTConfig
from repro.core import HxcKernel, LRTDDFTSolver
from repro.parallel import BlockDistribution1D, parallel_isdf, spmd_run
from repro.parallel.parallel_isdf import (
    distributed_fit_theta,
    distributed_optimized_lrtddft,
    distributed_select_points_kmeans,
    gather_point_values,
)
from repro.synthetic import synthetic_ground_state
from repro.atoms import bulk_silicon


@pytest.fixture(scope="module")
def problem():
    gs = synthetic_ground_state(
        bulk_silicon(8), ecut=5.0, n_valence=8, n_conduction=6, seed=11
    )
    psi_v, eps_v, psi_c, eps_c = gs.select_transition_space()
    kernel = HxcKernel(gs.basis, gs.density)
    return gs, psi_v, eps_v, psi_c, eps_c, kernel


def _grid_slabs(gs, comm, grid_dist):
    sl = grid_dist.local_slice(comm.rank)
    return sl, gs.basis.grid.cartesian_points[sl]


class TestDistributedSelection:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
    def test_indices_rank_invariant(self, problem, n_ranks):
        gs, psi_v, _, psi_c, _, _ = problem
        grid_dist_ref = BlockDistribution1D(gs.basis.n_r, 1)

        def prog_for(P):
            grid_dist = BlockDistribution1D(gs.basis.n_r, P)

            def prog(comm):
                sl, pts = _grid_slabs(gs, comm, grid_dist)
                return distributed_select_points_kmeans(
                    comm, psi_v[:, sl], psi_c[:, sl], 20, pts, grid_dist
                )

            return prog

        reference = spmd_run(1, prog_for(1))[0]
        results = spmd_run(n_ranks, prog_for(n_ranks))
        for indices in results:
            np.testing.assert_array_equal(indices, reference)

    def test_indices_replicated(self, problem):
        gs, psi_v, _, psi_c, _, _ = problem
        grid_dist = BlockDistribution1D(gs.basis.n_r, 3)

        def prog(comm):
            sl, pts = _grid_slabs(gs, comm, grid_dist)
            return distributed_select_points_kmeans(
                comm, psi_v[:, sl], psi_c[:, sl], 12, pts, grid_dist
            )

        results = spmd_run(3, prog)
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])


def _old_representatives(comm, points, centroids, labels, global_index):
    """The representative step as first written: the full ``(n, N_mu, 3)``
    difference tensor and one argmin per cluster."""
    n_mu = centroids.shape[0]
    no_index = np.iinfo(np.int64).max
    deltas = points[:, None, :] - centroids[None, :, :]
    d2 = np.einsum("pkd,pkd->pk", deltas, deltas)
    best_d = np.full(n_mu, np.inf)
    best_idx = np.full(n_mu, no_index, dtype=np.int64)
    for k in range(n_mu):
        members = np.flatnonzero(labels == k)
        if members.size:
            j = members[np.argmin(d2[members, k])]
            best_d[k] = d2[j, k]
            best_idx[k] = global_index[j]
    global_best_d = comm.allreduce(best_d, op="min")
    winners = comm.allreduce(
        np.where(best_d == global_best_d, best_idx, no_index), op="min"
    )
    return np.sort(np.unique(winners))


class TestRepresentatives:
    """The O(N) representative step picks the same points as the old
    N x N_mu x 3 formula, with the same distributed inputs."""

    def _compare(self, problem, n_ranks, monkeypatch, empty_rank=None):
        gs, psi_v, _, psi_c, _, _ = problem
        grid_dist = BlockDistribution1D(gs.basis.n_r, n_ranks)
        new = parallel_isdf.representatives
        seen = []

        def both(points, centroids, labels, global_index, reduce):
            winners = new(points, centroids, labels, global_index, reduce)
            old = _old_representatives(
                reduce.comm, points, centroids, labels, global_index
            )
            seen.append((len(points), np.unique(winners), old))
            return winners

        monkeypatch.setattr(parallel_isdf, "representatives", both)

        def prog(comm):
            sl, pts = _grid_slabs(gs, comm, grid_dist)
            # Zero orbitals on one slab leave that rank no candidates.
            psi_v_local = psi_v[:, sl] * (comm.rank != empty_rank)
            return distributed_select_points_kmeans(
                comm, psi_v_local, psi_c[:, sl], 20, pts, grid_dist
            )

        results = spmd_run(n_ranks, prog)
        assert len(seen) == n_ranks
        for n_local, winners, old in seen:
            np.testing.assert_array_equal(winners, old)
        for indices in results:
            np.testing.assert_array_equal(indices, seen[0][1])
        return [n_local for n_local, _, _ in seen]

    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
    def test_matches_old_formula(self, problem, n_ranks, monkeypatch):
        self._compare(problem, n_ranks, monkeypatch)

    @pytest.mark.parametrize("n_ranks", [2, 3, 4])
    def test_rank_without_candidates(self, problem, n_ranks, monkeypatch):
        counts = self._compare(problem, n_ranks, monkeypatch, empty_rank=1)
        assert 0 in counts


class TestDistributedFit:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_theta_matches_serial_fit(self, problem, n_ranks):
        """Each rank's fit rows are the serial fit rows' column block, and
        solving them alone gives that block of the serial Theta."""
        from repro.core import isdf_decompose
        from repro.core.fitting import solve_theta
        from repro.utils.rng import default_rng

        gs, psi_v, _, psi_c, _, _ = problem
        indices = np.sort(
            default_rng(0).choice(gs.basis.n_r, size=24, replace=False)
        )
        serial = isdf_decompose(psi_v, psi_c, indices=indices)
        grid_dist = BlockDistribution1D(gs.basis.n_r, n_ranks)

        def prog(comm):
            sl = grid_dist.local_slice(comm.rank)
            psi_v_local, psi_c_local = psi_v[:, sl], psi_c[:, sl]
            points = gather_point_values(
                comm, psi_v_local, psi_c_local, indices, grid_dist
            )
            rows = distributed_fit_theta(psi_v_local, psi_c_local, *points)
            return rows, solve_theta(*points, rows.copy())

        results = spmd_run(n_ranks, prog)
        rows = np.concatenate([r for r, _ in results], axis=1)
        np.testing.assert_allclose(rows, serial.fit_rows, atol=1e-10)
        theta = np.concatenate([t for _, t in results], axis=0)
        np.testing.assert_allclose(theta, serial.theta, atol=1e-10)

    @pytest.mark.parametrize("n_ranks", [1, 2, 3])
    def test_singular_gram_falls_back_like_serial(
        self, problem, n_ranks, monkeypatch
    ):
        """A repeated point makes the unridged Gram singular: its Cholesky
        factorization breaks down, and the serial and distributed fits take
        the same least-squares fallback."""
        from repro.core import fit_interpolation_vectors
        from repro.core.fitting import solve_theta
        from repro.utils.rng import default_rng

        gs, psi_v, _, psi_c, _, _ = problem
        indices = np.sort(
            default_rng(0).choice(gs.basis.n_r, size=24, replace=False)
        )
        indices = np.sort(np.append(indices, indices[5]))
        calls = []
        lstsq = np.linalg.lstsq

        def counted_lstsq(*args, **kwargs):
            calls.append(args[1].shape)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        serial = solve_theta(
            psi_v[:, indices], psi_c[:, indices],
            fit_interpolation_vectors(psi_v, psi_c, indices),
            regularization=0.0,
        )
        assert len(calls) == 1
        grid_dist = BlockDistribution1D(gs.basis.n_r, n_ranks)

        def prog(comm):
            sl = grid_dist.local_slice(comm.rank)
            psi_v_local, psi_c_local = psi_v[:, sl], psi_c[:, sl]
            points = gather_point_values(
                comm, psi_v_local, psi_c_local, indices, grid_dist
            )
            rows = distributed_fit_theta(psi_v_local, psi_c_local, *points)
            return solve_theta(*points, rows, regularization=0.0)

        # Thread ranks: the call counter lives in this process.
        results = spmd_run(n_ranks, prog, backend="thread")
        assert len(calls) == 1 + n_ranks
        np.testing.assert_array_equal(np.concatenate(results, axis=0), serial)


class TestEndToEnd:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_rank_count_invariant(self, problem, n_ranks):
        gs, psi_v, eps_v, psi_c, eps_c, kernel = problem

        def prog_for(P):
            grid_dist = BlockDistribution1D(gs.basis.n_r, P)

            def prog(comm):
                sl, pts = _grid_slabs(gs, comm, grid_dist)
                energies, _ = distributed_optimized_lrtddft(
                    comm, psi_v[:, sl], psi_c[:, sl], eps_v, eps_c, kernel,
                    grid_dist, 30, 4, grid_points_local=pts, tol=1e-10,
                )
                return energies

            return prog

        reference = spmd_run(1, prog_for(1))[0]
        for energies in spmd_run(n_ranks, prog_for(n_ranks)):
            np.testing.assert_allclose(energies, reference, atol=1e-10)

    def test_close_to_serial_solver_same_rank(self, problem):
        """The distributed pipeline is an independent implementation of
        version (5); with the same rank it must land in the same accuracy
        band as the serial solver (point selection differs in detail)."""
        gs, psi_v, eps_v, psi_c, eps_c, kernel = problem
        solver = LRTDDFTSolver(gs, seed=11)
        serial = solver.solve(TDDFTConfig(method="naive", n_excitations=4))
        grid_dist = BlockDistribution1D(gs.basis.n_r, 2)

        def prog(comm):
            sl, pts = _grid_slabs(gs, comm, grid_dist)
            energies, _ = distributed_optimized_lrtddft(
                comm, psi_v[:, sl], psi_c[:, sl], eps_v, eps_c, kernel,
                grid_dist, 40, 4, grid_points_local=pts, tol=1e-10,
            )
            return energies

        energies = spmd_run(2, prog)[0]
        rel = np.abs((energies - serial.energies[:4]) / serial.energies[:4])
        assert rel.max() < 0.05

    def test_eigenvectors_are_pair_distributed(self, problem):
        gs, psi_v, eps_v, psi_c, eps_c, kernel = problem
        n_pairs = psi_v.shape[0] * psi_c.shape[0]
        grid_dist = BlockDistribution1D(gs.basis.n_r, 3)
        pair_dist = BlockDistribution1D(n_pairs, 3)

        def prog(comm):
            sl, pts = _grid_slabs(gs, comm, grid_dist)
            _, x_local = distributed_optimized_lrtddft(
                comm, psi_v[:, sl], psi_c[:, sl], eps_v, eps_c, kernel,
                grid_dist, 20, 3, grid_points_local=pts, tol=1e-8,
            )
            return x_local.shape

        shapes = spmd_run(3, prog)
        for rank, shape in enumerate(shapes):
            assert shape == (pair_dist.count(rank), 3)
