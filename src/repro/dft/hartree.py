"""Hartree (Poisson) solve in reciprocal space.

With the Fourier-series convention of :mod:`repro.pw.fft`, the periodic
Poisson equation is diagonal: ``V_H(G) = 4 pi / |G|^2 * n(G)``, with the
``G = 0`` component dropped (compensating-background convention, consistent
with the pseudopotential local part).  This same kernel, applied to orbital
*pair* densities instead of the total density, is the Hartree half of the
LR-TDDFT f_Hxc operator.
"""

from __future__ import annotations

import numpy as np

from repro.pw.basis import PlaneWaveBasis


def coulomb_kernel(basis: PlaneWaveBasis) -> np.ndarray:
    """``4 pi / |G|^2`` over the full FFT grid with the G=0 entry zeroed."""
    g2 = basis.gvectors.g2
    kernel = np.zeros_like(g2)
    nonzero = g2 > 1e-12
    kernel[nonzero] = 4.0 * np.pi / g2[nonzero]
    return kernel


def truncated_coulomb_kernel(
    basis: PlaneWaveBasis, radius: float | None = None
) -> np.ndarray:
    """Spherically truncated Coulomb kernel for isolated systems.

    ``v(G) = (4 pi / G^2) (1 - cos(|G| R_c))`` — the interaction vanishes
    beyond ``R_c``, removing the spurious periodic-image Coulomb coupling a
    molecule in a box otherwise feels (Jarvis/Onida-Rubio truncation).  The
    ``G = 0`` limit is finite: ``2 pi R_c^2``.

    ``radius`` defaults to half the shortest cell edge (images are then
    exactly excluded for a centred molecule smaller than the box).
    """
    if radius is None:
        radius = 0.5 * float(basis.cell.lengths.min())
    if radius <= 0:
        raise ValueError(f"truncation radius must be positive, got {radius}")
    g2 = basis.gvectors.g2
    g = np.sqrt(g2)
    kernel = np.empty_like(g2)
    nonzero = g2 > 1e-12
    kernel[nonzero] = (
        4.0 * np.pi / g2[nonzero] * (1.0 - np.cos(g[nonzero] * radius))
    )
    kernel[~nonzero] = 2.0 * np.pi * radius * radius
    return kernel


def hartree_potential(density: np.ndarray, basis: PlaneWaveBasis) -> np.ndarray:
    """Real-space Hartree potential of a real density field ``(..., N_r)``.

    Routed through the real-field convolution fast path
    (``4 pi / G^2`` is inversion symmetric, so the half-spectrum product is
    exact).  The kernel and its half-spectrum slice come from the
    process-wide :func:`~repro.pw.fft.default_plan_cache`, so the per-SCF-
    iteration calls (and consecutive trajectory frames sharing a lattice)
    build them exactly once.
    """
    from repro.pw.fft import default_plan_cache

    plan = default_plan_cache().get(
        "coulomb", basis.fft, lambda: coulomb_kernel(basis)
    )
    return plan.apply(density)


def hartree_energy(density: np.ndarray, basis: PlaneWaveBasis) -> float:
    """``E_H = (1/2) int n(r) V_H(r) dr``."""
    v_h = hartree_potential(density, basis)
    return float(0.5 * np.sum(density * v_h) * basis.grid.dv)
