"""Property-based tests for the ISDF decomposition invariants."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.core import (
    coefficient_matrix,
    fit_interpolation_vectors,
    pair_products,
    pair_weights,
)
from repro.core.fitting import solve_theta
from repro.utils.rng import default_rng


def _orbitals(seed, n_v, n_c, n_r):
    rng = default_rng(seed)
    return rng.standard_normal((n_v, n_r)), rng.standard_normal((n_c, n_r))


def _theta(psi_v, psi_c, idx):
    """The unridged Theta, solved from the fit rows."""
    rows = fit_interpolation_vectors(psi_v, psi_c, idx)
    return solve_theta(psi_v[:, idx], psi_c[:, idx], rows, regularization=0.0)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(40, 120),
)
def test_full_rank_isdf_is_exact(seed, n_v, n_c, n_r):
    """Whenever N_mu = N_cv and the points are generic, Z = Theta C."""
    psi_v, psi_c = _orbitals(seed, n_v, n_c, n_r)
    rng = default_rng(seed + 1)
    idx = rng.choice(n_r, size=n_v * n_c, replace=False)
    c = coefficient_matrix(psi_v, psi_c, idx)
    # Random points can be nearly degenerate; exactness is only a meaningful
    # claim for a well-conditioned coefficient matrix.
    assume(np.linalg.cond(c) < 1e6)
    # Exactness is a property of the pure least-squares fit; the default
    # ridge trades a ~cond(C)^2-amplified bias for robustness.
    theta = _theta(psi_v, psi_c, idx)
    z = pair_products(psi_v, psi_c)
    assert np.linalg.norm(z - theta @ c) <= 1e-5 * max(np.linalg.norm(z), 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(2, 4))
def test_residual_orthogonal_to_c_rows(seed, n_v, n_c):
    """Least-squares optimality of the Galerkin fit (Eq. 10)."""
    n_r = 80
    psi_v, psi_c = _orbitals(seed, n_v, n_c, n_r)
    rng = default_rng(seed + 2)
    n_mu = min(n_v * n_c - 1, 6)
    idx = rng.choice(n_r, size=n_mu, replace=False)
    theta = _theta(psi_v, psi_c, idx)
    c = coefficient_matrix(psi_v, psi_c, idx)
    z = pair_products(psi_v, psi_c)
    residual = z - theta @ c
    scale = max(np.linalg.norm(z) * np.linalg.norm(c), 1e-12)
    assert np.abs(residual @ c.T).max() <= 1e-7 * scale


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 5))
def test_pair_weights_match_row_norms(seed, n_v, n_c):
    """Eq. 14 equals the squared row norms of Z for any orbitals."""
    psi_v, psi_c = _orbitals(seed, n_v, n_c, 50)
    z = pair_products(psi_v, psi_c)
    w = pair_weights(psi_v, psi_c)
    np.testing.assert_allclose(
        w, np.einsum("rp,rp->r", z, z), rtol=1e-10, atol=1e-12
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.1, 10.0))
def test_fit_scale_equivariance(seed, scale):
    """Scaling psi_v by s scales Z by s; Theta must absorb it linearly
    (same interpolation points)."""
    psi_v, psi_c = _orbitals(seed, 3, 3, 60)
    rng = default_rng(seed + 3)
    idx = rng.choice(60, size=5, replace=False)
    theta1 = _theta(psi_v, psi_c, idx)
    theta2 = _theta(scale * psi_v, psi_c, idx)
    c1 = coefficient_matrix(psi_v, psi_c, idx)
    c2 = coefficient_matrix(scale * psi_v, psi_c, idx)
    # The reconstructions are proportional even though Theta/C split the
    # scale between themselves.
    np.testing.assert_allclose(
        theta2 @ c2, scale * (theta1 @ c1), rtol=1e-6, atol=1e-8
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_interpolation_points_reproduce_exactly(seed):
    """At the interpolation points themselves the fit is interpolatory:
    (Theta C)[r_mu, :] = Z[r_mu, :] when C has full row rank."""
    psi_v, psi_c = _orbitals(seed, 2, 3, 70)
    rng = default_rng(seed + 4)
    idx = np.sort(rng.choice(70, size=6, replace=False))
    theta = _theta(psi_v, psi_c, idx)
    c = coefficient_matrix(psi_v, psi_c, idx)
    z = pair_products(psi_v, psi_c)
    recon = theta @ c
    np.testing.assert_allclose(recon[idx], z[idx], atol=1e-6)
