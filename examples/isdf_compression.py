#!/usr/bin/env python
"""ISDF compression anatomy: K-Means vs QRCP point selection (Figure 2).

Visualizes where the weighted K-Means clustering places interpolation
points relative to the orbital-pair weight function (paper Figure 2 shows
exactly this: interpolation points on top of a projected excitation
wavefunction), and sweeps the ISDF rank to show the accuracy/cost trade.

    python examples/isdf_compression.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import LRTDDFTSolver, run_scf, water_molecule
from repro.api import SCFConfig, TDDFTConfig
from repro.constants import ANGSTROM_TO_BOHR
from repro.core import isdf_decompose, pair_weights, select_points_kmeans
from repro.utils.rng import default_rng


def projection_plot(weights, points_xy, chosen_xy, shape_xy, extent):
    """ASCII map: weight density (shades) + chosen points (O)."""
    nx, ny = 48, 24
    img = np.zeros((ny, nx))
    ix = np.clip((points_xy[:, 0] / extent[0] * nx).astype(int), 0, nx - 1)
    iy = np.clip((points_xy[:, 1] / extent[1] * ny).astype(int), 0, ny - 1)
    np.add.at(img, (iy, ix), weights)
    img /= max(img.max(), 1e-300)
    img **= 0.25  # compress the dynamic range so the tails are visible
    shades = " .:-=+*#@"
    canvas = [[shades[min(8, int(8 * img[y, x]))] for x in range(nx)] for y in range(ny)]
    for x, y in chosen_xy:
        cx = min(nx - 1, int(x / extent[0] * nx))
        cy = min(ny - 1, int(y / extent[1] * ny))
        canvas[cy][cx] = "O"
    return "\n".join("|" + "".join(row) + "|" for row in canvas)


def main() -> None:
    print("=== Ground state: H2O (the weight function is strongly localized) ===")
    cell = water_molecule(box=8.0 * ANGSTROM_TO_BOHR)
    gs = run_scf(cell, SCFConfig(ecut=10.0, n_bands=8, tol=1e-7, seed=0))
    psi_v, _, psi_c, _ = gs.select_transition_space()
    grid = gs.basis.grid

    weights = pair_weights(psi_v, psi_c)
    pruned = (weights >= 1e-6 * weights.max()).sum()
    print(f"pair weights: {weights.size} grid points, {pruned} survive the "
          f"1e-6 pruning threshold ({pruned / weights.size:.1%}) — the "
          f"paper's N_r' << N_r observation")

    n_mu = 15  # same count as the paper's Figure 2
    result = select_points_kmeans(
        psi_v, psi_c, n_mu, grid_points=grid.cartesian_points,
        rng=default_rng(0),
    )
    pts = grid.cartesian_points
    chosen = pts[result.indices]
    print(f"\nFigure 2 analogue: weight function (shades) and the {n_mu} "
          "K-Means interpolation points (O), projected on x-z:")
    extent = (cell.lengths[0], cell.lengths[2])
    print(projection_plot(
        weights, pts[:, [0, 2]], chosen[:, [0, 2]], None, extent
    ))

    print("\n=== Rank sweep: ISDF error and excitation-energy error ===")
    solver = LRTDDFTSolver(gs, seed=0)
    reference = solver.solve(TDDFTConfig(method="naive", n_excitations=3))
    n_cv = solver.n_pairs
    print(f"{'N_mu':>6s} {'N_mu/N_cv':>10s} {'ISDF Frob err':>14s} "
          f"{'energy rel err':>15s} {'kmeans':>8s} {'qrcp':>8s}")
    for fraction in (0.25, 0.5, 0.75, 1.0):
        n_mu = max(3, int(fraction * n_cv))
        t0 = time.perf_counter()
        isdf = isdf_decompose(
            psi_v, psi_c, n_mu, method="kmeans",
            grid_points=grid.cartesian_points, rng=default_rng(1),
        )
        t_k = time.perf_counter() - t0
        t0 = time.perf_counter()
        isdf_decompose(psi_v, psi_c, n_mu, method="qrcp", rng=default_rng(1))
        t_q = time.perf_counter() - t0
        frob = isdf.relative_error(psi_v, psi_c)
        res = solver.solve(
            TDDFTConfig(
                method="implicit-kmeans-isdf-lobpcg", n_excitations=3, n_mu=n_mu,
                tol=1e-9,
            )
        )
        err = np.abs(
            (res.energies - reference.energies[:3]) / reference.energies[:3]
        ).max()
        print(f"{n_mu:6d} {fraction:10.2f} {frob:14.3e} {err:15.3e} "
              f"{t_k:7.3f}s {t_q:7.3f}s")
    print("\nError falls monotonically with rank and vanishes at full rank;")
    print("K-Means selection stays cheap as the rank grows (paper Table 3).")


if __name__ == "__main__":
    main()
