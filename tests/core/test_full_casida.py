"""Tests for the full (non-TDA) Casida solver — the paper's Eq. 1."""

import numpy as np
import pytest

from repro.api import TDDFTConfig
from repro.core import HxcKernel, LRTDDFTSolver, isdf_decompose
from repro.core.full_casida import (
    ImplicitFullCasidaOperator,
    build_full_casida_matrix,
    solve_full_casida_dense,
    solve_full_casida_direct,
)
from repro.utils.rng import default_rng


@pytest.fixture(scope="module")
def solver(si2_ground_state):
    return LRTDDFTSolver(si2_ground_state, seed=7)


@pytest.fixture(scope="module")
def pieces(solver):
    return (solver.psi_v, solver.eps_v, solver.psi_c, solver.eps_c, solver.kernel)


class TestHermitianReduction:
    def test_matches_direct_block_solve(self, pieces):
        """Omega from D^{1/2}(D+4K)D^{1/2} equals the eigenvalues of the
        unreduced non-Hermitian 2N x 2N problem (Eq. 1)."""
        psi_v, eps_v, psi_c, eps_c, kernel = pieces
        m = build_full_casida_matrix(psi_v, eps_v, psi_c, eps_c, kernel)
        omega, _ = solve_full_casida_dense(m)
        direct = solve_full_casida_direct(psi_v, eps_v, psi_c, eps_c, kernel)
        np.testing.assert_allclose(omega, direct, atol=1e-10)

    def test_matrix_is_symmetric(self, pieces):
        psi_v, eps_v, psi_c, eps_c, kernel = pieces
        m = build_full_casida_matrix(psi_v, eps_v, psi_c, eps_c, kernel)
        np.testing.assert_allclose(m, m.T, atol=1e-12)

    def test_negative_transition_energies_rejected(self, pieces):
        psi_v, eps_v, psi_c, eps_c, kernel = pieces
        with pytest.raises(ValueError, match="positive transition"):
            build_full_casida_matrix(psi_v, eps_v + 10.0, psi_c, eps_c, kernel)

    def test_truncation(self, pieces):
        psi_v, eps_v, psi_c, eps_c, kernel = pieces
        m = build_full_casida_matrix(psi_v, eps_v, psi_c, eps_c, kernel)
        omega3, vecs3 = solve_full_casida_dense(m, 3)
        omega_all, _ = solve_full_casida_dense(m)
        np.testing.assert_allclose(omega3, omega_all[:3])
        assert vecs3.shape[1] == 3


class TestPhysics:
    def test_full_below_tda(self, solver):
        """The B-block coupling lowers the lowest excitation vs TDA
        (standard variational ordering for stable references)."""
        tda = solver.solve(TDDFTConfig(method="naive", n_excitations=3))
        full = solver.solve(TDDFTConfig(method="naive", n_excitations=3, tda=False))
        assert full.energies[0] <= tda.energies[0] + 1e-12

    def test_full_and_tda_close_for_weak_coupling(self, solver):
        """For silicon's weakly coupled transitions, TDA error is small."""
        tda = solver.solve(TDDFTConfig(method="naive", n_excitations=3))
        full = solver.solve(TDDFTConfig(method="naive", n_excitations=3, tda=False))
        rel = np.abs((tda.energies - full.energies) / full.energies)
        assert rel.max() < 0.05


class TestImplicitOperator:
    @pytest.fixture(scope="class")
    def operator(self, solver):
        isdf = isdf_decompose(
            solver.psi_v, solver.psi_c, solver.n_pairs, method="qrcp",
            rng=default_rng(0),
        )
        return ImplicitFullCasidaOperator(
            isdf, solver.eps_v, solver.eps_c, solver.kernel
        )

    def test_apply_matches_materialized(self, operator, rng):
        x = rng.standard_normal((operator.n_pairs, 4))
        np.testing.assert_allclose(
            operator.apply(x), operator.materialize() @ x, atol=1e-10
        )

    def test_symmetric(self, operator, rng):
        a = rng.standard_normal(operator.n_pairs)
        b = rng.standard_normal(operator.n_pairs)
        assert a @ operator.apply(b) == pytest.approx(b @ operator.apply(a))

    def test_one_dimensional_input(self, operator, rng):
        x = rng.standard_normal(operator.n_pairs)
        assert operator.apply(x).shape == (operator.n_pairs,)

    def test_full_rank_matches_exact_full_casida(self, solver, operator, pieces):
        psi_v, eps_v, psi_c, eps_c, kernel = pieces
        m_exact = build_full_casida_matrix(psi_v, eps_v, psi_c, eps_c, kernel)
        np.testing.assert_allclose(operator.materialize(), m_exact, atol=1e-8)


class TestDriverIntegration:
    def test_all_methods_support_full_casida(self, solver):
        reference = solver.solve(
            TDDFTConfig(method="naive", n_excitations=4, tda=False)
        )
        for method in (
            "qrcp-isdf",
            "kmeans-isdf-lobpcg",
            "implicit-kmeans-isdf-lobpcg",
            "implicit-qrcp-isdf-lobpcg",
        ):
            res = solver.solve(
                TDDFTConfig(method=method, n_excitations=4, tda=False, tol=1e-11)
            )
            rel = np.abs(
                (res.energies - reference.energies[:4]) / reference.energies[:4]
            )
            assert rel.max() < 0.03, method

    def test_qrcp_full_rank_exact(self, solver):
        reference = solver.solve(
            TDDFTConfig(method="naive", n_excitations=4, tda=False)
        )
        res = solver.solve(TDDFTConfig(method="qrcp-isdf", n_excitations=4, tda=False))
        np.testing.assert_allclose(res.energies, reference.energies[:4], atol=1e-8)

    def test_implicit_matches_explicit_same_isdf(self, solver):
        dense = solver.solve(
            TDDFTConfig(method="kmeans-isdf", n_excitations=4, tda=False)
        )
        implicit = solver.solve(
            TDDFTConfig(
                method="implicit-kmeans-isdf-lobpcg", n_excitations=4, tda=False,
                tol=1e-12,
            )
        )
        np.testing.assert_allclose(
            implicit.energies, dense.energies[:4], atol=1e-7
        )
