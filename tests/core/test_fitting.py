"""Tests for the ISDF least-squares fitting step."""

import numpy as np
import pytest

from repro.core import coefficient_matrix, fit_interpolation_vectors, pair_products
from repro.utils.rng import default_rng


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
    theta = fit_interpolation_vectors(psi_v, psi_c, idx, regularization=0.0)
    dense_theta = z @ c.T @ np.linalg.inv(c @ c.T)
    np.testing.assert_allclose(theta, dense_theta, atol=1e-8)


def test_interpolation_property(orbitals):
    """At full rank (N_mu = N_cv) the fit reproduces Z exactly."""
    psi_v, psi_c = orbitals
    rng = default_rng(1)
    idx = rng.choice(150, size=12, replace=False)
    theta = fit_interpolation_vectors(psi_v, psi_c, idx)
    c = coefficient_matrix(psi_v, psi_c, idx)
    z = pair_products(psi_v, psi_c)
    np.testing.assert_allclose(theta @ c, z, atol=1e-6)


def test_least_squares_optimality(orbitals):
    """Theta minimizes ||Z - Theta C||_F: the residual is orthogonal to the
    row space of C."""
    psi_v, psi_c = orbitals
    idx = np.array([3, 33, 63, 93])
    theta = fit_interpolation_vectors(psi_v, psi_c, idx, regularization=0.0)
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
        theta = fit_interpolation_vectors(psi_v, psi_c, idx)
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
    theta = fit_interpolation_vectors(psi_v, psi_c, idx)
    assert np.all(np.isfinite(theta))


class TestTriangularSolve:
    """The fit's ``R^{-1}`` / ``R^{-T}`` multiplies against a ``cho_solve``
    of the same ridged normal equations."""

    @pytest.fixture(scope="class")
    def si8(self):
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

    def _point_sets(self, si8):
        gs, _, _, km = si8
        near = np.unique(np.concatenate([km, (km + 1) % gs.basis.n_r]))
        return {"kmeans": km, "near-neighbour": near}

    @pytest.mark.parametrize("name", ["kmeans", "near-neighbour"])
    def test_matches_cho_solve(self, si8, name):
        _, psi_v, psi_c, _ = si8
        idx = self._point_sets(si8)[name]
        reference, gram, zct = self._cho_fit(psi_v, psi_c, idx)
        if name == "near-neighbour":
            assert np.linalg.cond(gram) >= 1e4
        theta = fit_interpolation_vectors(psi_v, psi_c, idx)
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
            {**isdf.to_dict(), "theta": np.ascontiguousarray(isdf.theta)}
        )
        assert resumed.theta.flags.c_contiguous
        assert not isdf.theta.flags.c_contiguous
        kernel = HxcKernel(gs.basis, gs.density)
        fresh = project_kernel(isdf, kernel)
        again = project_kernel(resumed, kernel)
        assert np.abs(again - fresh).max() <= 1e-13 * np.abs(fresh).max()
