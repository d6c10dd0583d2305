"""Cross-validation: RT-TDDFT spectrum peaks vs LR-TDDFT (full Casida).

Not a paper table, but its strongest available correctness check: the two
TDDFT formulations the paper's introduction contrasts must agree on where
the excitations are.  Also quantifies the cost asymmetry that motivates
the paper's LR focus (one implicit eigensolve vs thousands of
propagation steps).
"""

import time

import numpy as np
import pytest

from repro.api import SCFConfig, TDDFTConfig
from repro.constants import HARTREE_TO_EV
from repro.core import LRTDDFTSolver, oscillator_strengths, transition_dipoles
from repro.dft import run_scf
from repro.pw import UnitCell
from repro.rt import RealTimeTDDFT, dipole_spectrum, find_peaks


@pytest.fixture(scope="module")
def h2_state():
    box, bond = 12.0, 1.4
    cell = UnitCell(
        box * np.eye(3), ("H", "H"),
        np.array(
            [[0.5, 0.5, 0.5 - bond / 2 / box], [0.5, 0.5, 0.5 + bond / 2 / box]]
        ),
    )
    # Generous conduction space: the RT response implicitly sums over all
    # virtuals, so the Casida space must be near-converged to compare.
    return run_scf(cell, SCFConfig(ecut=10.0, n_bands=24, tol=1e-8, seed=0))


def test_rt_peak_matches_full_casida(benchmark, h2_state, save_table):
    solver = LRTDDFTSolver(h2_state, seed=0)

    t0 = time.perf_counter()
    lr = solver.solve(TDDFTConfig(method="naive", tda=False))
    t_lr = time.perf_counter() - t0
    dip = transition_dipoles(solver.psi_v, solver.psi_c, solver.basis)
    strengths = oscillator_strengths(lr.energies, lr.wavefunctions, dip)
    bright = float(lr.energies[np.argmax(strengths)])

    def rt_run():
        rt = RealTimeTDDFT(h2_state, self_consistent=True)
        rt.kick(1e-3, direction=(0, 0, 1))
        return rt.propagate(dt=0.1, n_steps=1500, krylov_dim=8, etrs=True)

    t0 = time.perf_counter()
    res = benchmark.pedantic(rt_run, rounds=1, iterations=1)
    t_rt = time.perf_counter() - t0

    omega, spectrum = dipole_spectrum(
        res.times, res.dipole_along_kick(), res.kick_strength,
        omega_max=1.0, damping=0.012,
    )
    peaks = find_peaks(omega, spectrum, threshold=0.25)
    assert len(peaks) >= 1
    nearest = float(peaks[np.argmin(np.abs(peaks - bright))])

    lines = [
        "RT-TDDFT vs LR-TDDFT cross-validation (H2)",
        "",
        f"brightest full-Casida excitation: {bright * HARTREE_TO_EV:7.3f} eV "
        f"(LR solve {t_lr:.2f} s)",
        f"nearest RT spectrum peak:         {nearest * HARTREE_TO_EV:7.3f} eV "
        f"(RT run {t_rt:.1f} s, 1500 steps)",
        f"difference:                       "
        f"{(nearest - bright) * HARTREE_TO_EV:+7.3f} eV",
        f"norm drift over the propagation:  "
        f"{abs(res.norms[-1] - res.norms[0]):.2e}",
    ]
    save_table("rt_vs_lr", "\n".join(lines))

    # The two formulations agree within the spectral resolution
    # (finite trace + remaining conduction-space truncation).
    assert abs(nearest - bright) * HARTREE_TO_EV < 0.35
    # Unitarity of the Krylov propagation.
    assert abs(res.norms[-1] - res.norms[0]) < 1e-8
