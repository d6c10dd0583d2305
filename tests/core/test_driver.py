"""Tests for the LRTDDFTSolver driver — the paper's Table 4 version matrix.

The central reproduction invariant lives here: all five versions agree on
the lowest excitation energies (Table 5's "negligible error" claim).
"""

import numpy as np
import pytest

from repro.api import TDDFTConfig
from repro.core import METHODS, LRTDDFTSolver


@pytest.fixture(scope="module")
def solver(si2_ground_state):
    return LRTDDFTSolver(si2_ground_state, seed=7)


@pytest.fixture(scope="module")
def naive_result(solver):
    return solver.solve(TDDFTConfig(method="naive", n_excitations=6))


class TestNaive:
    def test_energies_positive_ascending(self, naive_result):
        assert (naive_result.energies > 0).all()
        assert (np.diff(naive_result.energies) >= -1e-12).all()

    def test_full_spectrum_when_unspecified(self, solver):
        res = solver.solve(TDDFTConfig(method="naive"))
        assert res.n_excitations == solver.n_pairs

    def test_first_excitation_below_ks_gap_plus_coupling(
        self, solver, naive_result, si2_ground_state
    ):
        """TDA excitations stay within a physical window of the KS gap."""
        gap = si2_ground_state.homo_lumo_gap()
        assert 0.5 * gap < naive_result.energies[0] < 2.0 * gap


class TestCrossVersionAgreement:
    """The reproduction of Table 5: ISDF versions track the naive result."""

    def test_qrcp_isdf_exact_at_full_rank(self, solver, naive_result):
        res = solver.solve(TDDFTConfig(method="qrcp-isdf", n_excitations=6))
        np.testing.assert_allclose(res.energies, naive_result.energies[:6], atol=1e-9)

    def test_kmeans_isdf_within_paper_error_band(self, solver, naive_result):
        """Paper Table 5 reports ~0.1-1% relative error for ISDF-LOBPCG."""
        res = solver.solve(TDDFTConfig(method="kmeans-isdf", n_excitations=6))
        rel = np.abs(res.energies - naive_result.energies[:6]) / naive_result.energies[:6]
        assert rel.max() < 0.03

    @pytest.mark.parametrize(
        "method", ["kmeans-isdf-lobpcg", "implicit-kmeans-isdf-lobpcg"]
    )
    def test_lobpcg_versions_match_dense_same_isdf(self, solver, method):
        """With identical ISDF points, iterative and dense agree to solver
        tolerance — the eigensolver introduces no extra physics error."""
        dense = solver.solve(TDDFTConfig(method="kmeans-isdf", n_excitations=6))
        iterative = solver.solve(TDDFTConfig(method=method, n_excitations=6, tol=1e-10))
        np.testing.assert_allclose(
            iterative.energies, dense.energies[:6], atol=1e-7
        )

    def test_implicit_qrcp_matches_explicit_qrcp(self, solver):
        dense = solver.solve(TDDFTConfig(method="qrcp-isdf", n_excitations=6))
        implicit = solver.solve(
            TDDFTConfig(method="implicit-qrcp-isdf-lobpcg", n_excitations=6, tol=1e-10)
        )
        np.testing.assert_allclose(implicit.energies, dense.energies[:6], atol=1e-7)

    def test_all_methods_run(self, solver):
        for method in METHODS:
            res = solver.solve(TDDFTConfig(method=method, n_excitations=3))
            assert res.n_excitations == 3
            assert res.method == method


class TestDavidsonVariants:
    def test_davidson_matches_lobpcg(self, solver):
        lob = solver.solve(
            TDDFTConfig(method="kmeans-isdf-lobpcg", n_excitations=4, tol=1e-10)
        )
        dav = solver.solve(
            TDDFTConfig(method="kmeans-isdf-davidson", n_excitations=4, tol=1e-10)
        )
        np.testing.assert_allclose(dav.energies, lob.energies, atol=1e-8)

    def test_implicit_davidson_matches_dense(self, solver):
        dense = solver.solve(TDDFTConfig(method="kmeans-isdf", n_excitations=4))
        dav = solver.solve(
            TDDFTConfig(
                method="implicit-kmeans-isdf-davidson", n_excitations=4, tol=1e-10,
            )
        )
        np.testing.assert_allclose(dav.energies, dense.energies[:4], atol=1e-7)

    def test_davidson_reports_iterations(self, solver):
        dav = solver.solve(
            TDDFTConfig(method="implicit-kmeans-isdf-davidson", n_excitations=3)
        )
        assert dav.eigensolver_iterations > 0


class TestSolverOptions:
    def test_unknown_method_rejected(self, solver):
        with pytest.raises(ValueError, match="unknown method"):
            solver.solve(TDDFTConfig(method="magic"))

    def test_n_mu_override(self, solver):
        res = solver.solve(TDDFTConfig(method="kmeans-isdf", n_mu=12, n_excitations=3))
        assert res.n_mu == 12

    def test_naive_has_no_rank(self, naive_result):
        assert naive_result.n_mu is None

    def test_timings_recorded(self, solver):
        res = solver.solve(
            TDDFTConfig(method="implicit-kmeans-isdf-lobpcg", n_excitations=3)
        )
        assert any("diagonalize" in key for key in res.timings)
        assert any("select_kmeans" in key for key in res.timings)

    def test_reproducible_across_calls(self, solver):
        a = solver.solve(
            TDDFTConfig(method="implicit-kmeans-isdf-lobpcg", n_excitations=4)
        )
        b = solver.solve(
            TDDFTConfig(method="implicit-kmeans-isdf-lobpcg", n_excitations=4)
        )
        np.testing.assert_allclose(a.energies, b.energies, atol=1e-12)

    def test_invalid_excitation_count(self, solver):
        with pytest.raises(ValueError):
            solver.solve(TDDFTConfig(method="naive", n_excitations=solver.n_pairs + 1))

    def test_transition_space_truncation(self, si2_ground_state):
        small = LRTDDFTSolver(si2_ground_state, n_valence=2, n_conduction=3, seed=1)
        assert small.n_pairs == 6
        res = small.solve(TDDFTConfig(method="naive"))
        assert res.n_excitations == 6

    def test_isdf_kwargs_forwarded(self, solver):
        res = solver.solve(
            TDDFTConfig(method="kmeans-isdf", n_excitations=3),
            isdf_kwargs={"prune_threshold": 1e-3},
        )
        assert res.isdf is not None

    def test_rank_factor_changes_default_rank(self, si8_synthetic):
        solver = LRTDDFTSolver(si8_synthetic, seed=2)
        lo = solver.solve(
            TDDFTConfig(method="kmeans-isdf", rank_factor=3.0, n_excitations=3)
        )
        hi = solver.solve(
            TDDFTConfig(method="kmeans-isdf", rank_factor=6.0, n_excitations=3)
        )
        assert hi.n_mu == 2 * lo.n_mu


class TestPhysicalBehaviour:
    def test_rpa_vs_alda(self, si2_ground_state):
        alda = LRTDDFTSolver(si2_ground_state, seed=1).solve(
            TDDFTConfig(method="naive", n_excitations=1)
        )
        rpa = LRTDDFTSolver(
            si2_ground_state, include_xc=False, seed=1
        ).solve(TDDFTConfig(method="naive", n_excitations=1))
        assert rpa.energies[0] > alda.energies[0]

    def test_wavefunctions_normalized(self, naive_result):
        norms = np.linalg.norm(naive_result.wavefunctions, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)


def test_strict64_default_is_bit_identical_to_explicit(si2_ground_state):
    """``precision`` accepts only its default, and spelling it out changes
    nothing: two fresh solvers give the same energies bit for bit."""
    from repro import api

    config = api.TDDFTConfig(method="kmeans-isdf", n_excitations=4, seed=7)
    default = LRTDDFTSolver(si2_ground_state, seed=7).solve(config)
    explicit = LRTDDFTSolver(si2_ground_state, seed=7).solve(
        config.replace(precision="strict64")
    )
    np.testing.assert_array_equal(explicit.energies, default.energies)
