"""Tests for the SCF driver: convergence and silicon/water physics."""

import numpy as np
import pytest

from repro.api import SCFConfig
from repro.atoms import silicon_primitive_cell
from repro.constants import HARTREE_TO_EV
from repro.dft import run_scf
from repro.dft.scf import _occupations


class TestOccupations:
    def test_integer_fill(self):
        occ = _occupations(np.array([-1.0, -0.5, 0.5, 1.0]), 4.0, width=0.0)
        np.testing.assert_allclose(occ, [2, 2, 0, 0])

    def test_odd_electron_count_needs_smearing(self):
        with pytest.raises(ValueError, match="smearing"):
            _occupations(np.array([-1.0, 0.0]), 3.0, width=0.0)

    def test_smearing_conserves_electron_count(self):
        e = np.linspace(-1, 1, 10)
        occ = _occupations(e, 7.0, width=0.05)
        assert occ.sum() == pytest.approx(7.0)

    def test_smearing_is_monotone_decreasing(self):
        e = np.linspace(-1, 1, 12)
        occ = _occupations(e, 8.0, width=0.1)
        assert (np.diff(occ) <= 1e-12).all()

    def test_zero_width_matches_small_width_for_gapped(self):
        e = np.array([-1.0, -0.9, 0.9, 1.0])
        cold = _occupations(e, 4.0, width=0.0)
        warm = _occupations(e, 4.0, width=0.01)
        np.testing.assert_allclose(cold, warm, atol=1e-10)

    def test_too_few_bands(self):
        with pytest.raises(ValueError):
            _occupations(np.array([0.0]), 4.0, width=0.0)


class TestSiliconSCF:
    def test_converges(self, si2_ground_state):
        assert si2_ground_state.converged

    def test_band_degeneracies(self, si2_ground_state):
        """Gamma point of diamond Si: triply degenerate VBM (Gamma_25')
        and triply degenerate low conduction states (Gamma_15)."""
        e = si2_ground_state.energies
        assert e[1] == pytest.approx(e[3], abs=2e-4)
        assert e[4] == pytest.approx(e[6], abs=2e-4)

    def test_gap_in_physical_range(self, si2_ground_state):
        """Gamma->Gamma LDA gap of Si is ~2.5 eV; coarse Ecut shifts it some."""
        gap_ev = si2_ground_state.homo_lumo_gap() * HARTREE_TO_EV
        assert 1.0 < gap_ev < 4.0

    def test_density_integrates_to_8(self, si2_ground_state):
        gs = si2_ground_state
        assert gs.density.sum() * gs.basis.grid.dv == pytest.approx(8.0)

    def test_orbitals_real_and_orthonormal(self, si2_ground_state):
        gs = si2_ground_state
        assert gs.orbitals_real.dtype == np.float64
        overlap = gs.orbitals_real @ gs.orbitals_real.T * gs.basis.grid.dv
        np.testing.assert_allclose(overlap, np.eye(gs.n_bands), atol=1e-10)

    def test_energies_ascending(self, si2_ground_state):
        assert (np.diff(si2_ground_state.energies) >= -1e-10).all()

    def test_seed_reproducibility(self):
        cell = silicon_primitive_cell()
        a = run_scf(cell, SCFConfig(ecut=6.0, n_bands=6, tol=1e-6, seed=5))
        b = run_scf(cell, SCFConfig(ecut=6.0, n_bands=6, tol=1e-6, seed=5))
        np.testing.assert_allclose(a.energies, b.energies, atol=1e-9)

    def test_total_energy_decreases_with_cutoff(self):
        """Variational property: richer basis lowers the total energy."""
        cell = silicon_primitive_cell()
        e_lo = run_scf(
            cell,
            SCFConfig(ecut=5.0, n_bands=6, tol=1e-6, seed=1),
        ).total_energy
        e_hi = run_scf(
            cell,
            SCFConfig(ecut=9.0, n_bands=6, tol=1e-6, seed=1),
        ).total_energy
        assert e_hi < e_lo

    def test_linear_mixer_also_converges(self):
        cell = silicon_primitive_cell()
        gs = run_scf(
            cell,
            SCFConfig(
                ecut=6.0, n_bands=6, tol=1e-6, mixer="linear", mixing_beta=0.4,
                max_iter=80, seed=1,
            ),
        )
        assert gs.converged


class TestWaterSCF:
    def test_converges(self, water_ground_state):
        assert water_ground_state.converged

    def test_four_occupied_orbitals(self, water_ground_state):
        assert water_ground_state.n_occupied == 4

    def test_homo_in_physical_range(self, water_ground_state):
        """LDA HOMO of water is around -7.3 eV; allow coarse-grid slack."""
        homo_ev = water_ground_state.energies[3] * HARTREE_TO_EV
        assert -10.0 < homo_ev < -4.0

    def test_gap_in_physical_range(self, water_ground_state):
        gap_ev = water_ground_state.homo_lumo_gap() * HARTREE_TO_EV
        assert 4.0 < gap_ev < 10.0


class TestOptions:
    def test_unknown_override_rejected(self):
        # Options live only on the frozen SCFConfig: run_scf takes no
        # option keywords, known or not.
        with pytest.raises(TypeError):
            run_scf(silicon_primitive_cell(), not_an_option=1)
        with pytest.raises(TypeError):
            run_scf(silicon_primitive_cell(), ecut=8.0)

    def test_override_keyword_leaves_the_config_untouched(self):
        config = SCFConfig(ecut=8.0)
        with pytest.raises(TypeError):
            run_scf(silicon_primitive_cell(), config, ecut=-1.0)
        assert config.ecut == 8.0

    def test_too_many_bands_rejected(self):
        with pytest.raises(ValueError, match="exceeds basis size"):
            run_scf(silicon_primitive_cell(), SCFConfig(ecut=2.0, n_bands=1000))

    def test_options_dataclass_defaults(self):
        opts = SCFConfig()
        assert opts.mixer == "anderson"
        assert opts.smearing_width == 0.0
