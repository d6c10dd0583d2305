#!/usr/bin/env python
"""Twisted-bilayer-graphene ground/excited-state DOS (paper Figure 9).

The paper studies 1,180-atom magic-angle twisted bilayer graphene (MATBG):
ground-state DOS at interlayer distances D = 2.6 and 4.0 Angstrom (strongly
coupled layers trap localized states at the Fermi level; decoupled layers
do not) and the DOS of the low-lying excitation energies.

That system needs 12,288 Cori cores; this example runs the identical code
path on the smallest commensurate twisted bilayer (28 atoms at 21.8
degrees) — or, with --bilayer, on the 4-atom AB bilayer for a ~1 minute
run.  The physics probed is the same: interlayer-distance dependence of the
DOS near the Fermi level, and the excitation DOS from LR-TDDFT.

    python examples/matbg_dos.py --bilayer      # fast (4 atoms)
    python examples/matbg_dos.py                # 28-atom twisted cell
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import LRTDDFTSolver, graphene_bilayer, run_scf, twisted_bilayer_graphene
from repro.analysis import density_of_states, excitation_dos
from repro.analysis.dos import fermi_level_estimate
from repro.api import SCFConfig, TDDFTConfig
from repro.constants import ANGSTROM_TO_BOHR, HARTREE_TO_EV


def ascii_rows(grid_ev, dos, width=56):
    scale = max(dos.max(), 1e-300)
    cols = np.linspace(0, len(grid_ev) - 1, width).astype(int)
    bar = "".join(
        " .:-=+*#@"[min(8, int(8 * dos[c] / scale))] for c in cols
    )
    return bar


def run_system(cell, label, ecut, n_extra_bands, smearing):
    print(f"\n--- {label}: {cell.n_atoms} C atoms ---")
    t0 = time.perf_counter()
    n_occ = sum(2 for _ in cell.species)  # 4 valence e / C, 2 e per band
    gs = run_scf(
        cell,
        SCFConfig(
            ecut=ecut, n_bands=n_occ + n_extra_bands, tol=1e-6, smearing_width=smearing,
            max_iter=80, seed=0,
        ),
    )
    print(f"SCF {'converged' if gs.converged else 'NOT converged'} "
          f"in {time.perf_counter() - t0:.1f} s")
    return gs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bilayer", action="store_true",
                        help="use the 4-atom AB bilayer (fast)")
    parser.add_argument("--folded", action="store_true",
                        help="3x3 bilayer supercell (36 atoms): folds the "
                             "Dirac point K onto Gamma so metallic states "
                             "appear at E_F, like the paper's Figure 9a")
    parser.add_argument("--ecut", type=float, default=None)
    args = parser.parse_args()

    if args.bilayer:
        builder = lambda d: graphene_bilayer(interlayer_distance=d)  # noqa: E731
        ecut = args.ecut or 12.0
        n_extra = 6
    elif args.folded:
        builder = lambda d: graphene_bilayer(  # noqa: E731
            interlayer_distance=d
        ).supercell((3, 3, 1))
        ecut = args.ecut or 8.0
        n_extra = 16
    else:
        builder = lambda d: twisted_bilayer_graphene(1, 2, interlayer_distance=d)  # noqa: E731
        ecut = args.ecut or 8.0
        n_extra = 14

    distances = {
        "D = 2.6 A (coupled)": 2.6 * ANGSTROM_TO_BOHR,
        "D = 4.0 A (decoupled)": 4.0 * ANGSTROM_TO_BOHR,
    }

    states = {}
    for label, d in distances.items():
        cell = builder(d)
        states[label] = run_system(cell, label, ecut, n_extra, smearing=0.01)

    print("\n=== Ground-state DOS near the Fermi level (Figure 9a analogue) ===")
    for label, gs in states.items():
        e_f = fermi_level_estimate(gs.energies, gs.occupations)
        grid = np.linspace(e_f - 0.3, e_f + 0.3, 400)
        dos = density_of_states(gs.energies, grid, broadening=0.015)
        grid_ev = (grid - e_f) * HARTREE_TO_EV
        print(f"{label:<24s} |{ascii_rows(grid_ev, dos)}|")
        window = np.abs(grid - e_f) < 0.05
        weight = np.trapezoid(dos[window], grid[window])
        print(f"{'':<24s}  DOS weight within 1.4 eV of E_F: {weight:.2f} "
              f"states; Gamma gap {gs.homo_lumo_gap() * HARTREE_TO_EV:.2f} eV")
    print(f"{'':<24s}  {-0.3 * HARTREE_TO_EV:+.1f} eV{' ' * 40}"
          f"{0.3 * HARTREE_TO_EV:+.1f} eV (relative to E_F)")

    print("\n=== Excitation DOS (Figure 9b analogue), coupled system ===")
    gs = states["D = 2.6 A (coupled)"]
    solver = LRTDDFTSolver(gs, seed=0)
    n_exc = min(24, solver.n_pairs)
    res = solver.solve(
        TDDFTConfig(
            method="implicit-kmeans-isdf-lobpcg", n_excitations=n_exc, tol=1e-7,
        )
    )
    grid = np.linspace(0.0, max(res.energies.max() * 1.2, 0.02), 300)
    xdos = excitation_dos(res.energies, grid, broadening=0.01)
    print(f"lowest excitation: {res.energies[0] * HARTREE_TO_EV:.3f} eV; "
          f"{(res.energies < 0.5 / HARTREE_TO_EV).sum()} excitations below 0.5 eV")
    print(f"excitation DOS     |{ascii_rows(grid * HARTREE_TO_EV, xdos)}|")
    print(f"                    0 eV{' ' * 44}"
          f"{grid[-1] * HARTREE_TO_EV:.1f} eV")


if __name__ == "__main__":
    main()
