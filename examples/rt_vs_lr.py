#!/usr/bin/env python
"""Real-time vs linear-response TDDFT: two routes, one spectrum.

The paper's introduction describes the two ways to solve time-dependent
DFT: real-time propagation (RT-TDDFT) and the frequency-domain linear
response it implements (LR-TDDFT).  This example runs *both* on the same
H2 molecule and shows the punchline twice over:

1. physics — the RT dipole spectrum peaks where the full-Casida (Eq. 1)
   excitation energies sit;
2. cost — RT needs thousands of Hamiltonian applications to resolve one
   peak, LR one (implicit) eigensolve: the reason LR + low-rank wins for
   excited-state tables.

Runtime: ~1 minute.

    python examples/rt_vs_lr.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import LRTDDFTSolver, run_scf
from repro.api import SCFConfig, TDDFTConfig
from repro.constants import HARTREE_TO_EV
from repro.core import oscillator_strengths, transition_dipoles
from repro.pw import UnitCell
from repro.rt import RealTimeTDDFT, dipole_spectrum, find_peaks


def h2_cell(box: float = 12.0, bond: float = 1.4) -> UnitCell:
    return UnitCell(
        box * np.eye(3),
        ("H", "H"),
        np.array(
            [[0.5, 0.5, 0.5 - bond / 2 / box], [0.5, 0.5, 0.5 + bond / 2 / box]]
        ),
    )


def main() -> None:
    print("=== Ground state: H2 ===")
    gs = run_scf(h2_cell(), SCFConfig(ecut=10.0, n_bands=24, tol=1e-8, seed=0))
    print(f"KS gap {gs.homo_lumo_gap() * HARTREE_TO_EV:.2f} eV")

    print("\n=== Route 1: LR-TDDFT (full Casida, implicit ISDF solver) ===")
    solver = LRTDDFTSolver(gs, seed=0)
    t0 = time.perf_counter()
    lr = solver.solve(
        TDDFTConfig(
            method="implicit-kmeans-isdf-lobpcg", n_excitations=min(10, solver.n_pairs),
            tda=False, tol=1e-9,
        )
    )
    t_lr = time.perf_counter() - t0
    dip = transition_dipoles(solver.psi_v, solver.psi_c, solver.basis)
    strengths = oscillator_strengths(lr.energies, lr.wavefunctions, dip)
    bright = lr.energies[np.argmax(strengths)]
    print(f"{'E (eV)':>8s} {'f':>8s}")
    for e, f in zip(lr.energies, strengths):
        marker = "  <- brightest" if e == bright else ""
        print(f"{e * HARTREE_TO_EV:8.3f} {f:8.4f}{marker}")
    print(f"LR solve: {t_lr:.2f} s")

    print("\n=== Route 2: RT-TDDFT (delta kick + Krylov propagation) ===")
    rt = RealTimeTDDFT(gs, self_consistent=True)
    rt.kick(1e-3, direction=(0, 0, 1))
    t0 = time.perf_counter()
    n_steps, dt = 2000, 0.1
    res = rt.propagate(dt=dt, n_steps=n_steps, krylov_dim=8, etrs=True)
    t_rt = time.perf_counter() - t0
    print(f"propagated T = {n_steps * dt:.0f} a.u. in {n_steps} steps, "
          f"{t_rt:.1f} s; norm drift {abs(res.norms[-1] - res.norms[0]):.1e}")

    omega, spectrum = dipole_spectrum(
        res.times, res.dipole_along_kick(), res.kick_strength,
        omega_max=1.0, damping=0.01,
    )
    peaks = find_peaks(omega, spectrum, threshold=0.25)
    print("RT spectrum peaks (eV):",
          ", ".join(f"{p * HARTREE_TO_EV:.2f}" for p in peaks))

    print("\n=== Cross-check ===")
    print(f"brightest LR excitation: {bright * HARTREE_TO_EV:.2f} eV "
          f"(z-polarized, f = {strengths.max():.3f})")
    if len(peaks):
        nearest = peaks[np.argmin(np.abs(peaks - bright))]
        print(f"nearest RT peak:         {nearest * HARTREE_TO_EV:.2f} eV "
              f"(difference {(nearest - bright) * HARTREE_TO_EV:+.2f} eV)")
    print(f"\ncost: RT {t_rt:.1f} s for one broadened spectrum vs "
          f"LR {t_lr:.2f} s for exact discrete energies "
          f"({t_rt / max(t_lr, 1e-9):.0f}x)")


if __name__ == "__main__":
    main()
