#!/usr/bin/env python
"""Convergence study: the knobs that control LR-TDDFT accuracy.

Three sweeps on bulk silicon, each isolating one approximation layer:

1. **E_cut** — basis-set convergence of the KS gap and first excitation,
2. **N_c** — conduction-space truncation of the Casida problem,
3. **N_mu** — ISDF rank (the paper's c in N_mu = c N_e), using the saved
   ground state so only the cheap part re-runs.

Also demonstrates ground-state persistence (save once, sweep many).

    python examples/convergence_study.py
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from repro import LRTDDFTSolver, run_scf, silicon_primitive_cell
from repro.api import SCFConfig, TDDFTConfig
from repro.constants import HARTREE_TO_EV
from repro.dft import load_ground_state, save_ground_state


def sweep_ecut() -> None:
    print("=== 1. Basis-set convergence (E_cut sweep) ===")
    print(f"{'Ecut (Ha)':>10s} {'N_pw':>7s} {'KS gap (eV)':>12s} "
          f"{'E_1 (eV)':>10s} {'SCF (s)':>8s}")
    cell = silicon_primitive_cell()
    for ecut in (6.0, 8.0, 10.0, 12.0, 14.0):
        t0 = time.perf_counter()
        gs = run_scf(cell, SCFConfig(ecut=ecut, n_bands=10, tol=1e-7, seed=0))
        solver = LRTDDFTSolver(gs, seed=0)
        e1 = solver.solve(TDDFTConfig(method="naive", n_excitations=1)).energies[0]
        print(f"{ecut:10.1f} {gs.basis.n_pw:7d} "
              f"{gs.homo_lumo_gap() * HARTREE_TO_EV:12.4f} "
              f"{e1 * HARTREE_TO_EV:10.4f} {time.perf_counter() - t0:8.2f}")


def sweep_conduction() -> None:
    print("\n=== 2. Conduction-space truncation (N_c sweep) ===")
    cell = silicon_primitive_cell()
    gs = run_scf(cell, SCFConfig(ecut=10.0, n_bands=20, tol=1e-8, seed=0))
    print(f"{'N_c':>5s} {'N_cv':>6s} {'E_1 (eV)':>10s} {'E_2 (eV)':>10s}")
    for n_c in (2, 4, 8, 12, 16):
        solver = LRTDDFTSolver(gs, n_conduction=n_c, seed=0)
        res = solver.solve(TDDFTConfig(method="naive", n_excitations=2))
        print(f"{n_c:5d} {solver.n_pairs:6d} "
              f"{res.energies[0] * HARTREE_TO_EV:10.4f} "
              f"{res.energies[1] * HARTREE_TO_EV:10.4f}")
    print("(E_1 drifts down as the space opens — why Table 5 quotes its N_c)")


def sweep_rank() -> None:
    print("\n=== 3. ISDF rank (N_mu sweep on a saved ground state) ===")
    cell = silicon_primitive_cell()
    gs = run_scf(cell, SCFConfig(ecut=10.0, n_bands=12, tol=1e-8, seed=0))
    with tempfile.TemporaryDirectory() as tmp:
        path = save_ground_state(gs, f"{tmp}/si2")
        print(f"ground state saved to {path.name} "
              f"({path.stat().st_size / 1e6:.1f} MB); sweeping rank...")
        gs = load_ground_state(path)
        solver = LRTDDFTSolver(gs, seed=0)
        reference = solver.solve(TDDFTConfig(method="naive", n_excitations=3))
        print(f"{'N_mu/N_cv':>10s} {'N_mu':>6s} {'max rel err':>12s}")
        for fraction in (0.3, 0.5, 0.7, 0.9, 1.0):
            n_mu = max(4, int(fraction * solver.n_pairs))
            res = solver.solve(
                TDDFTConfig(
                    method="implicit-kmeans-isdf-lobpcg", n_excitations=3, n_mu=n_mu,
                    tol=1e-10,
                )
            )
            err = np.abs(
                (res.energies - reference.energies[:3]) / reference.energies[:3]
            ).max()
            print(f"{fraction:10.2f} {n_mu:6d} {err:12.2e}")


if __name__ == "__main__":
    sweep_ecut()
    sweep_conduction()
    sweep_rank()
