"""Tests for the real-time TDDFT driver."""

import numpy as np
import pytest

from repro.api import SCFConfig
from repro.constants import HARTREE_TO_EV
from repro.dft import run_scf
from repro.pw import UnitCell
from repro.rt import RealTimeTDDFT, dipole_spectrum, find_peaks


@pytest.fixture(scope="module")
def h2_ground_state():
    box = 10.0
    bond = 1.4
    cell = UnitCell(
        box * np.eye(3),
        ("H", "H"),
        np.array(
            [[0.5, 0.5, 0.5 - bond / 2 / box], [0.5, 0.5, 0.5 + bond / 2 / box]]
        ),
    )
    return run_scf(cell, SCFConfig(ecut=8.0, n_bands=5, tol=1e-8, seed=0))


class TestSetup:
    def test_unkicked_state_is_stationary(self, h2_ground_state):
        """Without a kick, the dipole must stay constant under propagation
        (the ground state is an eigenstate)."""
        rt = RealTimeTDDFT(h2_ground_state, self_consistent=False)
        d0 = rt.dipole()
        res = rt.propagate(dt=0.2, n_steps=10)
        np.testing.assert_allclose(res.dipoles - d0[None, :], 0.0, atol=1e-6)

    def test_kick_preserves_norm(self, h2_ground_state):
        rt = RealTimeTDDFT(h2_ground_state)
        before = rt.total_norm()
        rt.kick(1e-3)
        # The sphere projection loses O(kappa^2) weight at most.
        assert rt.total_norm() == pytest.approx(before, abs=1e-5)

    def test_kick_displaces_dipole_linearly(self, h2_ground_state):
        """Immediately after the kick the dipole is unchanged (position
        operator commutes with the phase), but the current is ~kappa; a tiny
        propagation must displace the dipole proportionally to kappa."""
        shifts = []
        for kappa in (1e-3, 2e-3):
            rt = RealTimeTDDFT(h2_ground_state, self_consistent=False)
            rt.kick(kappa)
            res = rt.propagate(dt=0.1, n_steps=5)
            shifts.append(res.dipole_along_kick()[-1] - res.dipole_along_kick()[0])
        assert shifts[1] == pytest.approx(2.0 * shifts[0], rel=0.05)

    def test_invalid_kick(self, h2_ground_state):
        rt = RealTimeTDDFT(h2_ground_state)
        with pytest.raises(ValueError):
            rt.kick(0.0)


class TestPropagation:
    def test_norm_conserved_self_consistent(self, h2_ground_state):
        rt = RealTimeTDDFT(h2_ground_state)
        rt.kick(1e-3)
        res = rt.propagate(dt=0.2, n_steps=25)
        assert abs(res.norms[-1] - res.norms[0]) < 1e-9

    def test_record_every(self, h2_ground_state):
        rt = RealTimeTDDFT(h2_ground_state, self_consistent=False)
        rt.kick(1e-3)
        res = rt.propagate(dt=0.1, n_steps=20, record_every=5)
        assert res.times.shape == (5,)
        assert res.times[-1] == pytest.approx(2.0)

    def test_independent_particle_peak_at_ks_transition(self, h2_ground_state):
        """Frozen-Hamiltonian response oscillates exactly at the KS
        transition energies — the sharpest available correctness check."""
        gs = h2_ground_state
        rt = RealTimeTDDFT(gs, self_consistent=False)
        rt.kick(1e-3)
        res = rt.propagate(dt=0.2, n_steps=600, krylov_dim=8)
        omega, s = dipole_spectrum(
            res.times, res.dipole_along_kick(), res.kick_strength,
            omega_max=1.0, damping=0.01,
        )
        peaks = find_peaks(omega, s, threshold=0.5)
        assert len(peaks) >= 1
        # The dominant dipole-allowed transition: HOMO -> the z-polarized
        # virtual. Find the KS gap it corresponds to among the low ones.
        gaps = gs.energies[1:] - gs.energies[0]
        closest = gaps[np.argmin(np.abs(gaps - peaks[0]))]
        assert peaks[0] == pytest.approx(closest, abs=0.01)

    def test_etrs_improves_or_matches_norm_drift(self, h2_ground_state):
        rt1 = RealTimeTDDFT(h2_ground_state)
        rt1.kick(2e-3)
        res1 = rt1.propagate(dt=0.25, n_steps=20, etrs=False)
        rt2 = RealTimeTDDFT(h2_ground_state)
        rt2.kick(2e-3)
        res2 = rt2.propagate(dt=0.25, n_steps=20, etrs=True)
        drift1 = abs(res1.norms[-1] - res1.norms[0])
        drift2 = abs(res2.norms[-1] - res2.norms[0])
        assert drift2 < 10 * max(drift1, 1e-14)  # both tiny; ETRS never blows up

    def test_invalid_steps(self, h2_ground_state):
        rt = RealTimeTDDFT(h2_ground_state)
        with pytest.raises(ValueError):
            rt.propagate(dt=0.1, n_steps=0)
