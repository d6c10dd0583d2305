"""Tests for QRCP interpolation-point selection."""

import numpy as np
import pytest

from repro.core import select_points_qrcp
from repro.utils.rng import default_rng


@pytest.fixture()
def orbitals(rng):
    psi_v = rng.standard_normal((4, 200))
    psi_c = rng.standard_normal((5, 200))
    return psi_v, psi_c


class TestExactQRCP:
    def test_selects_requested_count(self, orbitals):
        psi_v, psi_c = orbitals
        res = select_points_qrcp(psi_v, psi_c, 8, sketch="none")
        assert res.n_points == 8
        assert len(set(res.indices.tolist())) == 8

    def test_r_diagonal_nonincreasing(self, orbitals):
        psi_v, psi_c = orbitals
        res = select_points_qrcp(psi_v, psi_c, 10, sketch="none")
        assert (np.diff(res.r_diagonal) <= 1e-10).all()

    def test_indices_in_range(self, orbitals):
        psi_v, psi_c = orbitals
        res = select_points_qrcp(psi_v, psi_c, 6, sketch="none")
        assert res.indices.min() >= 0
        assert res.indices.max() < 200

    def test_rank_tol_truncates(self):
        """A rank-deficient pair matrix must stop early under a rank
        tolerance: with psi_c rows all proportional, rank(Z) = N_v."""
        rng = default_rng(0)
        psi_v = rng.standard_normal((2, 100))
        base = rng.standard_normal(100)
        psi_c = np.vstack([base, 2.0 * base, -0.5 * base])
        res = select_points_qrcp(psi_v, psi_c, 6, sketch="none", rank_tol=1e-10)
        assert res.n_points == 2


class TestRandomizedQRCP:
    def test_deterministic_given_rng(self, orbitals):
        psi_v, psi_c = orbitals
        a = select_points_qrcp(psi_v, psi_c, 8, rng=default_rng(3))
        b = select_points_qrcp(psi_v, psi_c, 8, rng=default_rng(3))
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_sketch_matches_exact_for_dominant_points(self):
        """With a hugely dominant grid point, both variants must find it."""
        rng = default_rng(1)
        psi_v = rng.standard_normal((3, 150))
        psi_c = rng.standard_normal((3, 150))
        psi_v[:, 77] *= 60.0
        exact = select_points_qrcp(psi_v, psi_c, 4, sketch="none")
        sketched = select_points_qrcp(psi_v, psi_c, 4, rng=default_rng(2))
        assert exact.indices[0] == 77
        assert 77 in sketched.indices

    def test_invalid_sketch_mode(self, orbitals):
        psi_v, psi_c = orbitals
        with pytest.raises(ValueError, match="sketch"):
            select_points_qrcp(psi_v, psi_c, 4, sketch="bogus")

    def test_invalid_n_mu(self, orbitals):
        psi_v, psi_c = orbitals
        with pytest.raises(ValueError):
            select_points_qrcp(psi_v, psi_c, 0)
        with pytest.raises(ValueError):
            select_points_qrcp(psi_v, psi_c, 21)  # > N_cv = 20

    def test_full_rank_selection_enables_exact_isdf(self):
        """At N_mu = N_cv the QRCP points give an (essentially) exact ISDF."""
        from repro.core import isdf_decompose, pair_products

        rng = default_rng(5)
        psi_v = rng.standard_normal((2, 120))
        psi_c = rng.standard_normal((3, 120))
        res = select_points_qrcp(psi_v, psi_c, 6, sketch="none")
        isdf = isdf_decompose(psi_v, psi_c, indices=res.indices)
        z = pair_products(psi_v, psi_c)
        np.testing.assert_allclose(isdf.reconstruct(), z, atol=1e-8)
