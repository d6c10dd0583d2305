"""The plane-wave basis: cutoff sphere + transforms for orbitals.

Orbital convention: a band is a coefficient vector ``c`` of length ``N_pw``
over the cutoff sphere with

    psi(r) = (1 / sqrt(Omega)) * sum_G c_G exp(i G . r),

so ``sum_G |c_G|^2 = 1  <=>  integral |psi|^2 dr = 1``.  Real-space orbitals
returned by :meth:`PlaneWaveBasis.to_real` therefore carry the physical
``1/sqrt(Bohr^3)`` units the LR-TDDFT pair products expect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.pw.cell import UnitCell
from repro.pw.fft import FourierGrid, scratch
from repro.pw.grid import RealSpaceGrid
from repro.pw.gvectors import GVectors
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class PlaneWaveBasis:
    """Everything needed to work in a plane-wave basis at the Gamma point."""

    cell: UnitCell
    ecut: float
    grid: RealSpaceGrid = field(init=False)
    gvectors: GVectors = field(init=False)
    fft: FourierGrid = field(init=False)

    def __post_init__(self) -> None:
        check_positive(self.ecut, "ecut")
        grid = RealSpaceGrid.from_cutoff(self.cell, self.ecut)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "gvectors", GVectors(grid, self.ecut))
        object.__setattr__(self, "fft", FourierGrid(grid))

    # -- sizes ------------------------------------------------------------

    @property
    def n_pw(self) -> int:
        """Number of plane waves in the cutoff sphere."""
        return self.gvectors.n_pw

    @property
    def n_r(self) -> int:
        """Number of real-space grid points N_r."""
        return self.grid.n_points

    @property
    def volume(self) -> float:
        return self.cell.volume

    @cached_property
    def kinetic_diagonal(self) -> np.ndarray:
        """``|G|^2 / 2`` over the sphere — the kinetic operator diagonal."""
        return 0.5 * self.gvectors.g2_sphere

    # -- transforms -------------------------------------------------------

    def to_real(self, coeffs: np.ndarray) -> np.ndarray:
        """Sphere coefficients ``(..., N_pw)`` -> real-space ``(..., N_r)``.

        The zero-padded full-spectrum staging block is drawn from the FFT
        scratch pool, so the SCF/propagator inner loops reuse one buffer
        instead of allocating ``O(n_bands N_r)`` per application.
        """
        coeffs = np.asarray(coeffs)
        full = scratch(coeffs.shape[:-1] + (self.n_r,), complex)
        full.fill(0)
        full[..., self.gvectors.sphere] = coeffs
        out = self.fft.backward(full)
        out /= np.sqrt(self.volume)
        return out

    def to_recip(self, psi_real: np.ndarray) -> np.ndarray:
        """Real-space ``(..., N_r)`` -> sphere coefficients ``(..., N_pw)``.

        This is a projection: grid content outside the sphere is discarded
        (exactly what applying the cutoff means).
        """
        full = self.fft.forward(np.asarray(psi_real, dtype=complex))
        return full[..., self.gvectors.sphere] * np.sqrt(self.volume)

    def random_coefficients(
        self, n_bands: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Random normalized coefficients ``(n_bands, N_pw)`` for SCF starts.

        Damped by a soft kinetic envelope so the initial guess is smooth —
        this materially reduces LOBPCG iterations in the first SCF cycle.
        """
        coeffs = rng.standard_normal((n_bands, self.n_pw)) + 1j * rng.standard_normal(
            (n_bands, self.n_pw)
        )
        envelope = 1.0 / (1.0 + self.kinetic_diagonal)
        coeffs *= envelope
        norms = np.linalg.norm(coeffs, axis=1, keepdims=True)
        return coeffs / norms

    def describe(self) -> str:
        n1, n2, n3 = self.grid.shape
        return (
            f"PlaneWaveBasis(Ecut={self.ecut:g} Ha, grid={n1}x{n2}x{n3}"
            f" (N_r={self.n_r}), N_pw={self.n_pw})"
        )
