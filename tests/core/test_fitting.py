"""Tests for the ISDF least-squares fitting step."""

import numpy as np
import pytest

from repro.core import coefficient_matrix, fit_interpolation_vectors, pair_products
from repro.core.fitting import RIDGE, solve_theta
from repro.utils.rng import default_rng


def _theta(psi_v, psi_c, idx, regularization=RIDGE):
    """Theta solved from the fit rows, as ``ISDFDecomposition.theta`` does."""
    rows = fit_interpolation_vectors(psi_v, psi_c, idx)
    return solve_theta(
        psi_v[:, idx], psi_c[:, idx], rows, regularization=regularization
    )


@pytest.fixture()
def orbitals():
    rng = default_rng(0)
    psi_v = rng.standard_normal((3, 150))
    psi_c = rng.standard_normal((4, 150))
    return psi_v, psi_c


def test_coefficient_matrix_values(orbitals):
    psi_v, psi_c = orbitals
    idx = np.array([5, 50, 120])
    c = coefficient_matrix(psi_v, psi_c, idx)
    assert c.shape == (3, 12)
    # Entry (mu, (v, c)) = psi_v(r_mu) psi_c(r_mu).
    assert c[1, 2 * 4 + 3] == pytest.approx(psi_v[2, 50] * psi_c[3, 50])


def test_separable_gram_matches_dense(orbitals):
    """The Hadamard shortcut must equal the dense Z C^T / C C^T products."""
    psi_v, psi_c = orbitals
    idx = np.array([10, 40, 70, 100, 130])
    z = pair_products(psi_v, psi_c)
    c = coefficient_matrix(psi_v, psi_c, idx)
    theta = _theta(psi_v, psi_c, idx, regularization=0.0)
    dense_theta = z @ c.T @ np.linalg.inv(c @ c.T)
    np.testing.assert_allclose(theta, dense_theta, atol=1e-8)


def test_interpolation_property(orbitals):
    """At full rank (N_mu = N_cv) the fit reproduces Z exactly."""
    psi_v, psi_c = orbitals
    rng = default_rng(1)
    idx = rng.choice(150, size=12, replace=False)
    theta = _theta(psi_v, psi_c, idx)
    c = coefficient_matrix(psi_v, psi_c, idx)
    z = pair_products(psi_v, psi_c)
    np.testing.assert_allclose(theta @ c, z, atol=1e-6)


def test_least_squares_optimality(orbitals):
    """Theta minimizes ||Z - Theta C||_F: the residual is orthogonal to the
    row space of C."""
    psi_v, psi_c = orbitals
    idx = np.array([3, 33, 63, 93])
    theta = _theta(psi_v, psi_c, idx, regularization=0.0)
    c = coefficient_matrix(psi_v, psi_c, idx)
    z = pair_products(psi_v, psi_c)
    residual = z - theta @ c
    np.testing.assert_allclose(residual @ c.T, 0.0, atol=1e-8)


def test_error_decreases_with_rank(orbitals):
    psi_v, psi_c = orbitals
    z = pair_products(psi_v, psi_c)
    rng = default_rng(2)
    errors = []
    for n_mu in (2, 4, 8, 12):
        idx = rng.choice(150, size=n_mu, replace=False)
        theta = _theta(psi_v, psi_c, idx)
        c = coefficient_matrix(psi_v, psi_c, idx)
        errors.append(np.linalg.norm(z - theta @ c))
    assert errors[-1] < 1e-6
    assert errors[0] > errors[-1]


def test_grid_mismatch_rejected(orbitals):
    psi_v, psi_c = orbitals
    with pytest.raises(ValueError):
        fit_interpolation_vectors(psi_v, psi_c[:, :-1], np.array([0, 1]))


def test_empty_indices_rejected(orbitals):
    psi_v, psi_c = orbitals
    with pytest.raises(ValueError):
        fit_interpolation_vectors(psi_v, psi_c, np.array([], dtype=int))


def test_duplicate_points_survive_via_ridge(orbitals):
    """Duplicated interpolation points make C C^T singular; the ridge must
    keep the solve finite."""
    psi_v, psi_c = orbitals
    idx = np.array([7, 7, 80])
    theta = _theta(psi_v, psi_c, idx)
    assert np.all(np.isfinite(theta))


@pytest.fixture(scope="module")
def si8():
    """Synthetic Si8 orbitals and 24 K-Means points."""
    from repro.atoms import bulk_silicon
    from repro.core.kmeans import select_points_kmeans
    from repro.synthetic import synthetic_ground_state

    gs = synthetic_ground_state(
        bulk_silicon(8), ecut=5.0, n_valence=8, n_conduction=6, seed=11
    )
    psi_v, _, psi_c, _ = gs.select_transition_space()
    info = select_points_kmeans(
        psi_v, psi_c, 24, grid_points=gs.basis.grid.cartesian_points,
        rng=default_rng(0),
    )
    return gs, psi_v, psi_c, np.sort(info.indices)


def _point_sets(si8):
    """The K-Means points (cond 63) and those plus each point's grid
    neighbour (cond 1.35e5)."""
    gs, _, _, km = si8
    near = np.unique(np.concatenate([km, (km + 1) % gs.basis.n_r]))
    return {"kmeans": km, "near-neighbour": near}


class TestTriangularSolve:
    """The fit's ``R^{-1}`` / ``R^{-T}`` multiplies against a ``cho_solve``
    of the same ridged normal equations."""

    @staticmethod
    def _cho_fit(psi_v, psi_c, idx, regularization=1e-12):
        import scipy.linalg as sla

        v, c = psi_v[:, idx], psi_c[:, idx]
        zct = (psi_v.T @ v) * (psi_c.T @ c)
        gram = (v.T @ v) * (c.T @ c)
        gram[np.diag_indices_from(gram)] += (
            regularization * np.trace(gram) / idx.size
        )
        return sla.cho_solve(sla.cho_factor(gram), zct.T).T, gram, zct

    @staticmethod
    def _backward_error(theta, gram, zct):
        residual = np.linalg.norm(theta @ gram - zct)
        return residual / (
            np.linalg.norm(theta) * np.linalg.norm(gram) + np.linalg.norm(zct)
        )

    @pytest.mark.parametrize("name", ["kmeans", "near-neighbour"])
    def test_matches_cho_solve(self, si8, name):
        _, psi_v, psi_c, _ = si8
        idx = _point_sets(si8)[name]
        reference, gram, zct = self._cho_fit(psi_v, psi_c, idx)
        if name == "near-neighbour":
            assert np.linalg.cond(gram) >= 1e4
        theta = _theta(psi_v, psi_c, idx)
        assert theta.shape == reference.shape
        assert theta.T.flags.c_contiguous
        rel = np.abs(theta - reference).max() / np.abs(reference).max()
        assert rel <= 1e-11
        assert self._backward_error(theta, gram, zct) <= 10 * self._backward_error(
            reference, gram, zct
        )

    def test_checkpoint_resume_gives_the_same_vtilde(self, si8):
        from repro.core import HxcKernel, isdf_decompose
        from repro.core.isdf import ISDFDecomposition
        from repro.core.isdf_hamiltonian import project_kernel

        gs, psi_v, psi_c, km = si8
        isdf = isdf_decompose(psi_v, psi_c, indices=km)
        resumed = ISDFDecomposition.from_dict(
            {**isdf.to_dict(), "fit_rows": np.asfortranarray(isdf.fit_rows)}
        )
        assert not resumed.fit_rows.flags.c_contiguous
        assert isdf.fit_rows.flags.c_contiguous
        kernel = HxcKernel(gs.basis, gs.density)
        fresh = project_kernel(isdf, kernel)
        again = project_kernel(resumed, kernel)
        assert np.abs(again - fresh).max() <= 1e-13 * np.abs(fresh).max()


class TestVtildeFromFitRows:
    """``Vtilde = A (M f_Hxc M^T dV) A`` with ``A = (C C^T + ridge)^{-1}``
    against the Theta route ``Theta^T f_Hxc Theta dV``."""

    @pytest.fixture(scope="class")
    def kernel(self, si8):
        from repro.core import HxcKernel

        gs = si8[0]
        return HxcKernel(gs.basis, gs.density)

    @staticmethod
    def _both_routes(psi_v, psi_c, idx, kernel):
        from repro.core.fitting import solve_vtilde

        v, c = psi_v[:, idx], psi_c[:, idx]
        rows = fit_interpolation_vectors(psi_v, psi_c, idx)
        theta = solve_theta(v, c, rows.copy())
        return solve_vtilde(v, c, kernel.gram(rows)), kernel.gram(theta.T)

    @pytest.mark.parametrize("name", ["kmeans", "near-neighbour"])
    def test_matches_the_theta_gram(self, si8, kernel, name):
        """Measured gaps: 3.8e-15 (K-Means, cond 63) and 6.6e-12 (near
        neighbours, cond 1.35e5)."""
        _, psi_v, psi_c, _ = si8
        idx = _point_sets(si8)[name]
        vtilde, reference = self._both_routes(psi_v, psi_c, idx, kernel)
        np.testing.assert_array_equal(vtilde, vtilde.T)
        assert np.abs(vtilde - reference).max() <= 1e-10 * np.abs(reference).max()

    def test_duplicate_point_matches_the_duplicate_free_fit(self, si8, kernel):
        """A repeated point leaves only the ridge on ``C C^T``'s null
        direction (cond 3.6e12), so neither route is accurate to 1e-10:
        against the fit without the copy, whose Vtilde entries split evenly
        over the two copies, the Theta route is off by 3.2e-6 and this one
        by 5.8e-6 (4.2e-6 from each other)."""
        from repro.core.fitting import solve_vtilde

        _, psi_v, psi_c, km = si8
        idx = np.sort(np.append(km, km[5]))
        vtilde, theta_route = self._both_routes(psi_v, psi_c, idx, kernel)
        unique, where = np.unique(idx, return_inverse=True)
        split = np.zeros((unique.size, idx.size))
        split[where, np.arange(idx.size)] = 1.0 / np.bincount(where)[where]
        free = solve_vtilde(
            psi_v[:, unique], psi_c[:, unique],
            kernel.gram(fit_interpolation_vectors(psi_v, psi_c, unique)),
        )
        expected = split.T @ free @ split
        scale = np.abs(expected).max()
        assert np.abs(theta_route - expected).max() <= 1e-4 * scale
        assert np.abs(vtilde - expected).max() <= 1e-4 * scale

    def test_cholesky_breakdown_takes_lstsq(self, si8, kernel, monkeypatch):
        from repro.core import fitting

        _, psi_v, psi_c, km = si8
        factored, _ = self._both_routes(psi_v, psi_c, km, kernel)

        def broken(*args, **kwargs):
            raise fitting.sla.LinAlgError("not positive definite")

        calls = []
        lstsq = np.linalg.lstsq

        def counted_lstsq(*args, **kwargs):
            calls.append(args[1].shape)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(fitting.sla, "cho_factor", broken)
        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        vtilde, theta_route = self._both_routes(psi_v, psi_c, km, kernel)
        n_mu = km.size
        # One for Theta, two for the congruence.
        assert calls == [(n_mu, kernel.basis.n_r), (n_mu, n_mu), (n_mu, n_mu)]
        np.testing.assert_array_equal(vtilde, vtilde.T)
        scale = np.abs(factored).max()
        assert np.abs(vtilde - theta_route).max() <= 1e-12 * scale
        assert np.abs(vtilde - factored).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n_ranks", [1, 2, 3])
    def test_distributed_matches_serial(self, si8, kernel, n_ranks):
        from repro.core import isdf_decompose
        from repro.core.isdf_hamiltonian import project_kernel
        from repro.parallel import BlockDistribution1D, spmd_run
        from repro.parallel.parallel_isdf import (
            distributed_fit_theta,
            gather_point_values,
        )
        from repro.parallel.parallel_lrtddft import distributed_isdf_vtilde

        gs, psi_v, psi_c, km = si8
        serial = project_kernel(isdf_decompose(psi_v, psi_c, indices=km), kernel)
        dist = BlockDistribution1D(gs.basis.n_r, n_ranks)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            points = gather_point_values(comm, psi_v[:, sl], psi_c[:, sl], km, dist)
            rows = distributed_fit_theta(psi_v[:, sl], psi_c[:, sl], *points)
            return distributed_isdf_vtilde(comm, rows, *points, kernel, dist)

        for vtilde in spmd_run(n_ranks, prog):
            assert np.abs(vtilde - serial).max() <= 1e-12 * np.abs(serial).max()


class TestNoThetaOnTheSolvePaths:
    """No LR-TDDFT path forms Theta: with every binding of ``solve_theta``
    raising, the ISDF solves on the Si8 smoke inputs still run."""

    @pytest.fixture()
    def gs(self, monkeypatch):
        import sys

        from repro.atoms import bulk_silicon
        from repro.core import fitting
        from repro.synthetic import synthetic_ground_state

        def forbidden(*args, **kwargs):
            raise AssertionError("an LR-TDDFT path formed Theta")

        original = fitting.solve_theta
        for module in list(sys.modules.values()):
            if getattr(module, "solve_theta", None) is original:
                monkeypatch.setattr(module, "solve_theta", forbidden)
        return synthetic_ground_state(
            bulk_silicon(8), ecut=10.0, n_valence=16, n_conduction=8, seed=0
        )

    @pytest.mark.parametrize(
        "method, tda",
        [
            ("implicit-kmeans-isdf-lobpcg", True),
            ("kmeans-isdf", True),
            ("implicit-kmeans-isdf-lobpcg", False),
        ],
        ids=["implicit", "explicit", "full-casida"],
    )
    def test_serial(self, gs, method, tda):
        from repro.api import TDDFTConfig
        from repro.core.driver import LRTDDFTSolver

        result = LRTDDFTSolver(gs, seed=0).solve(
            TDDFTConfig(method=method, n_excitations=4, seed=0, tda=tda)
        )
        assert result.converged
        with pytest.raises(AssertionError, match="formed Theta"):
            result.isdf.theta

    def test_distributed(self, gs):
        from repro.core import HxcKernel
        from repro.core.isdf import default_rank
        from repro.parallel import BlockDistribution1D, spmd_run
        from repro.parallel.parallel_isdf import distributed_optimized_lrtddft

        psi_v, eps_v, psi_c, eps_c = gs.select_transition_space()
        kernel = HxcKernel(gs.basis, gs.density)
        dist = BlockDistribution1D(gs.basis.n_r, 2)
        points = gs.basis.grid.cartesian_points
        n_mu = default_rank(psi_v.shape[0], psi_c.shape[0], gs.basis.n_r)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            energies, _ = distributed_optimized_lrtddft(
                comm, psi_v[:, sl], psi_c[:, sl], eps_v, eps_c, kernel, dist,
                n_mu, 4, grid_points_local=points[sl], tol=1e-8,
            )
            return energies

        first, second = spmd_run(2, prog, backend="thread")
        np.testing.assert_array_equal(first, second)


class TestPeakMemory:
    """Nothing of ``N_mu x N_r`` size sits beside the fit rows: the fit folds
    one column block at a time and ``Vtilde`` transforms one k3-slab at a
    time, so under ``tracemalloc`` the fit plus the projection peak at the
    rows, one slab and ``O(N_mu^2 + N_r)`` (twice the rows before)."""

    def test_fit_and_projection_peak(self):
        import tracemalloc

        from repro.atoms import bulk_silicon
        from repro.core import HxcKernel
        from repro.core.isdf import ISDFDecomposition, default_rank
        from repro.core.isdf_hamiltonian import project_kernel
        from repro.pw.fft import SLAB_PLANES
        from repro.synthetic import synthetic_ground_state
        from repro.utils.linalg import COLUMN_BLOCK

        # A 24^3 grid: several column blocks and k3-slabs per field.
        gs = synthetic_ground_state(
            bulk_silicon(8), ecut=20.0, n_valence=16, n_conduction=8, seed=11
        )
        psi_v, _, psi_c, _ = gs.select_transition_space()
        kernel = HxcKernel(gs.basis, gs.density)
        n_r = gs.basis.n_r
        n_mu = default_rank(psi_v.shape[0], psi_c.shape[0], n_r)
        idx = np.linspace(0, n_r - 1, n_mu).astype(np.int64)
        n1, n2, _ = gs.basis.grid.shape
        slab = 16 * n_mu * n1 * n2 * SLAB_PLANES
        assert 8 * n_mu * COLUMN_BLOCK < slab and 3 * COLUMN_BLOCK < n_r

        tracemalloc.start()
        try:
            rows = fit_interpolation_vectors(psi_v, psi_c, idx)
            isdf = ISDFDecomposition(
                indices=idx,
                fit_rows=rows,
                psi_v_mu=psi_v[:, idx],
                psi_c_mu=psi_c[:, idx],
                method="kmeans",
            )
            vtilde = project_kernel(isdf, kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vtilde.shape == (n_mu, n_mu)
        assert peak <= rows.nbytes + slab + 8 * (4 * n_mu**2 + 2 * n_r)
