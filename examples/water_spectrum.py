#!/usr/bin/env python
"""Absorption spectrum of a water molecule (the paper's Table 5 system).

Runs the full pipeline on one H2O in a box: SCF ground state, LR-TDDFT
excitations via the naive and the implicit-ISDF solvers, transition dipoles
and oscillator strengths, and a broadened absorption spectrum printed as an
ASCII plot.

Runtime: ~15-30 s (use --fast for a coarser, quicker run).

    python examples/water_spectrum.py [--fast]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import LRTDDFTSolver, run_scf, water_molecule
from repro.analysis import accuracy_table
from repro.analysis.accuracy import format_accuracy_table
from repro.api import SCFConfig, TDDFTConfig
from repro.constants import ANGSTROM_TO_BOHR, HARTREE_TO_EV
from repro.core import oscillator_strengths, transition_dipoles
from repro.core.spectra import lorentzian_spectrum


def ascii_plot(x: np.ndarray, y: np.ndarray, width: int = 64, height: int = 12) -> str:
    """Minimal ASCII line plot (the repo is matplotlib-free)."""
    y_scaled = y / max(y.max(), 1e-300)
    columns = np.linspace(0, len(x) - 1, width).astype(int)
    rows = []
    for level in range(height, 0, -1):
        threshold = level / height
        row = "".join("#" if y_scaled[c] >= threshold else " " for c in columns)
        rows.append(f"{threshold:4.2f} |{row}")
    rows.append("     +" + "-" * width)
    rows.append(f"      {x[columns[0]]:.1f} eV{' ' * (width - 16)}{x[columns[-1]]:.1f} eV")
    return "\n".join(rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="coarser settings")
    args = parser.parse_args()

    box = (8.0 if args.fast else 9.0) * ANGSTROM_TO_BOHR
    ecut = 10.0 if args.fast else 14.0

    print(f"=== H2O in a {box:.1f} Bohr box, Ecut = {ecut:g} Ha ===")
    t0 = time.perf_counter()
    gs = run_scf(
        water_molecule(box=box),
        SCFConfig(ecut=ecut, n_bands=10, tol=1e-7, seed=0),
    )
    print(f"SCF done in {time.perf_counter() - t0:.1f} s; "
          f"HOMO-LUMO gap {gs.homo_lumo_gap() * HARTREE_TO_EV:.2f} eV")

    solver = LRTDDFTSolver(gs, seed=0)
    n_exc = min(12, solver.n_pairs)
    reference = solver.solve(TDDFTConfig(method="naive"))
    implicit = solver.solve(
        TDDFTConfig(
            method="implicit-kmeans-isdf-lobpcg", n_excitations=n_exc, tol=1e-9,
        )
    )

    rows = accuracy_table(
        reference.energies, reference.energies, implicit.energies, n_rows=3
    )
    print("\n" + format_accuracy_table(
        rows, "Three lowest excitations (Hartree) — Table 5 layout"
    ))

    dipoles = transition_dipoles(solver.psi_v, solver.psi_c, solver.basis)
    strengths = oscillator_strengths(
        implicit.energies, implicit.wavefunctions, dipoles
    )
    print(f"\n{'#':>3s} {'E (eV)':>8s} {'f (osc.)':>10s}")
    for i, (e, f) in enumerate(zip(implicit.energies, strengths), 1):
        print(f"{i:3d} {e * HARTREE_TO_EV:8.3f} {f:10.5f}")

    omega_ev = np.linspace(2.0, 25.0, 600)
    spectrum = lorentzian_spectrum(
        implicit.energies * HARTREE_TO_EV, strengths, omega_ev, broadening=0.4
    )
    print("\nBroadened absorption spectrum:")
    print(ascii_plot(omega_ev, spectrum))


if __name__ == "__main__":
    main()
