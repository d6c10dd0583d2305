"""Tests for excitation character analysis."""

import numpy as np
import pytest

from repro.api import TDDFTConfig
from repro.analysis import (
    dominant_transitions,
    electron_hole_densities,
    participation_ratio,
)


class TestDominantTransitions:
    def test_single_transition(self):
        x = np.zeros(12)
        x[7] = 1.0  # pair (v=2, c=1) for n_c = 3
        top = dominant_transitions(x, n_v=4, n_c=3, n_top=2)
        assert top[0].valence == 2
        assert top[0].conduction == 1
        assert top[0].weight == pytest.approx(1.0)

    def test_weights_normalized(self, rng):
        x = rng.standard_normal(20)
        top = dominant_transitions(x, n_v=4, n_c=5, n_top=20)
        assert sum(t.weight for t in top) == pytest.approx(1.0)

    def test_descending_order(self, rng):
        x = rng.standard_normal(15)
        top = dominant_transitions(x, n_v=3, n_c=5, n_top=5)
        weights = [t.weight for t in top]
        assert weights == sorted(weights, reverse=True)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            dominant_transitions(np.ones(10), n_v=3, n_c=4)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            dominant_transitions(np.zeros(12), n_v=4, n_c=3)


class TestParticipationRatio:
    def test_single_transition_is_one(self):
        x = np.zeros(10)
        x[3] = 5.0
        assert participation_ratio(x) == pytest.approx(1.0)

    def test_uniform_is_n(self):
        x = np.ones(16)
        assert participation_ratio(x) == pytest.approx(16.0)

    def test_between_bounds(self, rng):
        x = rng.standard_normal(30)
        pr = participation_ratio(x)
        assert 1.0 <= pr <= 30.0


class TestElectronHoleDensities:
    @pytest.fixture()
    def orbitals(self, si8_synthetic):
        gs = si8_synthetic
        psi_v, _, psi_c, _ = gs.select_transition_space(4, 3)
        return gs, psi_v, psi_c

    def test_densities_integrate_to_one(self, orbitals, rng):
        gs, psi_v, psi_c = orbitals
        x = rng.standard_normal(12)
        n_e, n_h = electron_hole_densities(x, psi_v, psi_c)
        dv = gs.basis.grid.dv
        assert n_e.sum() * dv == pytest.approx(1.0, rel=1e-8)
        assert n_h.sum() * dv == pytest.approx(1.0, rel=1e-8)

    def test_pure_transition_gives_orbital_densities(self, orbitals):
        gs, psi_v, psi_c = orbitals
        x = np.zeros(12)
        x[1 * 3 + 2] = 1.0  # v=1 -> c=2
        n_e, n_h = electron_hole_densities(x, psi_v, psi_c)
        np.testing.assert_allclose(n_e, psi_c[2] ** 2, atol=1e-12)
        np.testing.assert_allclose(n_h, psi_v[1] ** 2, atol=1e-12)

    def test_densities_nonnegative(self, orbitals, rng):
        gs, psi_v, psi_c = orbitals
        x = rng.standard_normal(12)
        n_e, n_h = electron_hole_densities(x, psi_v, psi_c)
        assert n_e.min() > -1e-12
        assert n_h.min() > -1e-12

    def test_real_excitation_hole_lives_in_valence_region(self, si2_ground_state):
        """For real silicon the hole density of the lowest excitation must
        track the valence (bond) density, not empty space."""
        from repro.core import LRTDDFTSolver

        solver = LRTDDFTSolver(si2_ground_state, seed=0)
        res = solver.solve(TDDFTConfig(method="naive", n_excitations=1))
        n_e, n_h = electron_hole_densities(
            res.wavefunctions[:, 0], solver.psi_v, solver.psi_c
        )
        valence_density = (solver.psi_v**2).sum(axis=0)
        # Correlation between the hole and the valence density is positive.
        corr = np.corrcoef(n_h, valence_density)[0, 1]
        assert corr > 0.5
