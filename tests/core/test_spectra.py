"""Tests for oscillator strengths and spectra."""

import numpy as np
import pytest

from repro.api import TDDFTConfig
from repro.core import (
    LRTDDFTSolver,
    oscillator_strengths,
    transition_dipoles,
)
from repro.core.spectra import lorentzian_spectrum


@pytest.fixture(scope="module")
def water_excitations(water_ground_state):
    solver = LRTDDFTSolver(water_ground_state, seed=3)
    res = solver.solve(TDDFTConfig(method="naive", n_excitations=8))
    dip = transition_dipoles(solver.psi_v, solver.psi_c, solver.basis)
    return solver, res, dip


def test_dipole_shape(water_excitations):
    solver, _, dip = water_excitations
    assert dip.shape == (solver.n_pairs, 3)


def test_dipoles_finite_and_bounded(water_excitations):
    solver, _, dip = water_excitations
    assert np.all(np.isfinite(dip))
    # Bounded by the box half-diagonal.
    box = solver.basis.cell.lengths.max()
    assert np.abs(dip).max() < box


def test_oscillator_strengths_nonnegative(water_excitations):
    _, res, dip = water_excitations
    f = oscillator_strengths(res.energies, res.wavefunctions, dip)
    assert (f >= -1e-12).all()


def test_some_transition_is_bright(water_excitations):
    _, res, dip = water_excitations
    f = oscillator_strengths(res.energies, res.wavefunctions, dip)
    assert f.max() > 1e-4


def test_strength_shape_mismatch_rejected(water_excitations):
    _, res, dip = water_excitations
    with pytest.raises(ValueError):
        oscillator_strengths(res.energies, res.wavefunctions[:-1], dip)


def test_lorentzian_spectrum_integrates_to_total_strength():
    energies = np.array([0.3, 0.5])
    strengths = np.array([1.0, 2.0])
    omega = np.linspace(0.0, 5.0, 20001)
    s = lorentzian_spectrum(energies, strengths, omega, broadening=0.01)
    integral = np.trapezoid(s, omega)
    assert integral == pytest.approx(3.0, rel=0.02)


def test_lorentzian_peaks_at_excitations():
    energies = np.array([0.4])
    omega = np.linspace(0.2, 0.6, 401)
    s = lorentzian_spectrum(energies, np.array([1.0]), omega, broadening=0.01)
    assert omega[np.argmax(s)] == pytest.approx(0.4, abs=1e-3)


def test_negative_broadening_rejected():
    with pytest.raises(ValueError):
        lorentzian_spectrum(np.array([0.1]), np.array([1.0]), np.linspace(0, 1, 10), -0.1)
