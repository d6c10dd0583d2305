"""The fully distributed optimized pipeline must be rank-count invariant
and consistent with the serial optimized solver."""

import numpy as np
import pytest

from repro.api import TDDFTConfig
from repro.core import HxcKernel, LRTDDFTSolver
from repro.parallel import BlockDistribution1D, spmd_run
from repro.parallel.parallel_isdf import (
    distributed_fit_theta,
    distributed_optimized_lrtddft,
    distributed_select_points_kmeans,
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


class TestDistributedFit:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_theta_matches_serial_fit(self, problem, n_ranks):
        from repro.core import fit_interpolation_vectors
        from repro.utils.rng import default_rng

        gs, psi_v, _, psi_c, _, _ = problem
        indices = np.sort(
            default_rng(0).choice(gs.basis.n_r, size=24, replace=False)
        )
        serial = fit_interpolation_vectors(psi_v, psi_c, indices)
        grid_dist = BlockDistribution1D(gs.basis.n_r, n_ranks)

        def prog(comm):
            sl = grid_dist.local_slice(comm.rank)
            return distributed_fit_theta(
                comm, psi_v[:, sl], psi_c[:, sl], indices, grid_dist
            )

        results = spmd_run(n_ranks, prog)
        assembled = np.concatenate(results, axis=0)
        np.testing.assert_allclose(assembled, serial, atol=1e-10)


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
