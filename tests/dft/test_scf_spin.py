"""Tests for the unrestricted (spin-polarized) SCF."""

import numpy as np
import pytest

from repro.api import SCFConfig
from repro.dft import run_scf
from repro.dft.scf_spin import _common_fermi_occupations, run_scf_spin
from repro.pw import UnitCell


def _hydrogen_cell(box=10.0):
    return UnitCell(box * np.eye(3), ("H",), np.array([[0.5, 0.5, 0.5]]))


def _h2_cell(box=10.0, bond=1.4):
    return UnitCell(
        box * np.eye(3), ("H", "H"),
        np.array([[0.5, 0.5, 0.5 - bond / 2 / box], [0.5, 0.5, 0.5 + bond / 2 / box]]),
    )


class TestCommonFermi:
    def test_integer_filling_across_channels(self):
        up = np.array([-1.0, 0.5])
        down = np.array([-0.5, 1.0])
        f_up, f_down = _common_fermi_occupations(up, down, 2.0, width=0.0)
        np.testing.assert_array_equal(f_up, [1.0, 0.0])
        np.testing.assert_array_equal(f_down, [1.0, 0.0])

    def test_polarized_filling(self):
        up = np.array([-1.0, -0.8, 0.5])
        down = np.array([-0.2, 0.6, 1.0])
        f_up, f_down = _common_fermi_occupations(up, down, 2.0, width=0.0)
        np.testing.assert_array_equal(f_up, [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(f_down, [0.0, 0.0, 0.0])

    def test_smearing_conserves_count(self):
        up = np.linspace(-1, 1, 6)
        down = np.linspace(-0.9, 1.1, 6)
        f_up, f_down = _common_fermi_occupations(up, down, 5.0, width=0.05)
        assert f_up.sum() + f_down.sum() == pytest.approx(5.0)

    def test_fractional_count_without_smearing_rejected(self):
        with pytest.raises(ValueError):
            _common_fermi_occupations(np.zeros(2), np.zeros(2), 1.5, width=0.0)


@pytest.fixture(scope="module")
def hydrogen_state():
    return run_scf_spin(
        _hydrogen_cell(), ecut=10.0, n_bands=4,
        initial_magnetization=1.0, tol=1e-6, seed=0,
    )


class TestHydrogenAtom:
    def test_converges(self, hydrogen_state):
        assert hydrogen_state.converged

    def test_full_polarization(self, hydrogen_state):
        assert hydrogen_state.total_magnetization == pytest.approx(1.0, abs=1e-6)

    def test_exchange_splitting(self, hydrogen_state):
        """The occupied up 1s lies below the empty down 1s."""
        assert hydrogen_state.energies[0][0] < hydrogen_state.energies[1][0]

    def test_1s_energy_near_lsda_reference(self, hydrogen_state):
        """LSDA H 1s eigenvalue ~ -0.269 Ha (exact LSD); coarse box/cutoff
        shifts it some."""
        assert hydrogen_state.energies[0][0] == pytest.approx(-0.269, abs=0.03)

    def test_occupations(self, hydrogen_state):
        assert hydrogen_state.occupations[0][0] == pytest.approx(1.0)
        assert hydrogen_state.occupations.sum() == pytest.approx(1.0)

    def test_densities_nonnegative_and_normalized(self, hydrogen_state):
        gs = hydrogen_state
        assert gs.densities.min() > -1e-12
        assert gs.total_density.sum() * gs.basis.grid.dv == pytest.approx(1.0)

    def test_down_density_is_zero(self, hydrogen_state):
        """One electron, fully polarized: the minority density vanishes."""
        gs = hydrogen_state
        assert gs.densities[1].sum() * gs.basis.grid.dv == pytest.approx(0.0, abs=1e-10)


class TestClosedShellConsistency:
    def test_h2_unpolarized_matches_restricted(self):
        """H2 with zero starting magnetization collapses to the restricted
        solution: m = 0 and the same occupied eigenvalue."""
        cell = _h2_cell()
        unrestricted = run_scf_spin(
            cell, ecut=8.0, n_bands=3, initial_magnetization=0.0,
            tol=1e-7, seed=0,
        )
        restricted = run_scf(cell, SCFConfig(ecut=8.0, n_bands=3, tol=1e-7, seed=0))
        assert unrestricted.total_magnetization == pytest.approx(0.0, abs=1e-6)
        assert unrestricted.energies[0][0] == pytest.approx(
            restricted.energies[0], abs=2e-4
        )

    def test_h2_channels_degenerate(self):
        gs = run_scf_spin(
            _h2_cell(), ecut=8.0, n_bands=3, initial_magnetization=0.0,
            tol=1e-7, seed=0,
        )
        np.testing.assert_allclose(
            gs.energies[0], gs.energies[1], atol=1e-5
        )
