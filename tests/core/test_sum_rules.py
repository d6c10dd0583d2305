"""Physical sum rules and global consistency checks on the spectra."""

import numpy as np
import pytest

from repro.api import TDDFTConfig
from repro.core import LRTDDFTSolver, oscillator_strengths, transition_dipoles


class TestThomasReicheKuhn:
    """The TRK sum rule: sum_n f_n -> N_electrons in a complete basis.

    With a truncated conduction space the sum undershoots; it must stay
    positive, below N_e, and grow as the space opens.
    """

    def test_sum_positive_and_bounded(self, water_ground_state):
        solver = LRTDDFTSolver(water_ground_state, seed=0)
        res = solver.solve(TDDFTConfig(method="naive"))
        dip = transition_dipoles(solver.psi_v, solver.psi_c, solver.basis)
        f = oscillator_strengths(res.energies, res.wavefunctions, dip)
        total = f.sum()
        assert 0.0 < total < water_ground_state.n_electrons

    def test_sum_grows_with_conduction_space(self, si2_ground_state):
        totals = []
        for n_c in (2, 4, 6):
            solver = LRTDDFTSolver(si2_ground_state, n_conduction=n_c, seed=0)
            res = solver.solve(TDDFTConfig(method="naive"))
            dip = transition_dipoles(solver.psi_v, solver.psi_c, solver.basis)
            f = oscillator_strengths(res.energies, res.wavefunctions, dip)
            totals.append(f.sum())
        assert totals[0] < totals[-1]


class TestSpectralConsistency:
    def test_isdf_preserves_total_oscillator_strength(self, water_ground_state):
        """Compression must not create or destroy spectral weight beyond
        its energy error band."""
        solver = LRTDDFTSolver(water_ground_state, seed=0)
        dip = transition_dipoles(solver.psi_v, solver.psi_c, solver.basis)
        naive = solver.solve(TDDFTConfig(method="naive"))
        f_naive = oscillator_strengths(naive.energies, naive.wavefunctions, dip)
        isdf = solver.solve(TDDFTConfig(method="kmeans-isdf"))
        f_isdf = oscillator_strengths(isdf.energies, isdf.wavefunctions, dip)
        assert f_isdf.sum() == pytest.approx(f_naive.sum(), rel=0.05)

    def test_energies_bounded_by_transition_window(self, si2_ground_state):
        """TDA eigenvalues live within [min D - ||2K||, max D + ||2K||];
        loosely: all positive and below twice the largest KS transition."""
        solver = LRTDDFTSolver(si2_ground_state, seed=0)
        res = solver.solve(TDDFTConfig(method="naive"))
        from repro.core.pair_products import pair_energies

        d = pair_energies(solver.eps_v, solver.eps_c)
        assert (res.energies > 0).all()
        assert res.energies.max() < 2.0 * d.max()

    def test_hermiticity_of_full_spectrum(self, si2_ground_state):
        """All N_cv eigenvalues are real and the eigenvectors unitary."""
        solver = LRTDDFTSolver(si2_ground_state, seed=0)
        res = solver.solve(TDDFTConfig(method="naive"))
        assert res.energies.shape[0] == solver.n_pairs
        gram = res.wavefunctions.T @ res.wavefunctions
        np.testing.assert_allclose(gram, np.eye(solver.n_pairs), atol=1e-10)
