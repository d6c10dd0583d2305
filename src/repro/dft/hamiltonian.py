"""The matrix-free Kohn-Sham Hamiltonian in the plane-wave basis.

``H = -1/2 nabla^2 + V_loc + V_H[n] + V_xc[n] + V_nl`` applied to blocks of
sphere coefficients:

* kinetic term — diagonal ``|G|^2/2`` in reciprocal space,
* local effective potential — FFT to the grid, multiply, FFT back
  (the classic dual-space split the paper's Algorithm 1 also exploits),
* non-local term — two skinny GEMMs against the KB projectors.
"""

from __future__ import annotations

import numpy as np

from repro.dft.hartree import hartree_potential
from repro.dft.xc import lda_potential
from repro.pseudo.hgh import get_pseudopotential, local_potential_recip
from repro.pseudo.kb import NonlocalProjectors, build_projectors
from repro.pw.basis import PlaneWaveBasis
from repro.utils.validation import require


def local_pseudopotential_real(basis: PlaneWaveBasis) -> np.ndarray:
    """Total local pseudopotential of all atoms on the real-space grid.

    Assembled in G-space per species (one radial form x structure factors),
    then one inverse FFT.
    """
    cell = basis.cell
    g2 = basis.gvectors.g2
    v_g = np.zeros(basis.n_r, dtype=complex)
    by_species: dict[str, list[int]] = {}
    for index, symbol in enumerate(cell.species):
        by_species.setdefault(symbol, []).append(index)
    for symbol, indices in by_species.items():
        params = get_pseudopotential(symbol)
        radial = local_potential_recip(params, g2, cell.volume)
        phases = np.zeros(basis.n_r, dtype=complex)
        for index in indices:
            phases += basis.gvectors.structure_factor(cell.fractional_positions[index])
        v_g += radial * phases
    return basis.fft.backward_real(v_g)


class KohnShamHamiltonian:
    """KS Hamiltonian bound to a basis; refresh with :meth:`update_density`."""

    def __init__(self, basis: PlaneWaveBasis) -> None:
        self.basis = basis
        self.v_local = local_pseudopotential_real(basis)
        self.projectors: NonlocalProjectors = build_projectors(basis)
        self.v_hartree = np.zeros(basis.n_r)
        self.v_xc = np.zeros(basis.n_r)
        self._v_eff = self.v_local.copy()

    # -- potential management ----------------------------------------------

    def update_density(self, density: np.ndarray) -> None:
        """Rebuild V_H and V_xc from a new density."""
        require(
            density.shape == (self.basis.n_r,),
            f"density must have shape ({self.basis.n_r},), got {density.shape}",
        )
        self.v_hartree = hartree_potential(density, self.basis)
        self.v_xc = lda_potential(density)
        self._v_eff = self.v_local + self.v_hartree + self.v_xc

    @property
    def v_effective(self) -> np.ndarray:
        """Current total local effective potential on the grid."""
        return self._v_eff

    # -- operator application ------------------------------------------------

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """``H @ psi`` for coefficient blocks of shape ``(..., N_pw)``.

        The dual-space split rides the batched FFTs through
        ``basis.to_real`` / ``to_recip``; the potential multiply is done
        in place on the freshly transformed block to avoid a second
        ``(..., N_r)`` temporary per application.
        """
        basis = self.basis
        out = coeffs * basis.kinetic_diagonal
        psi_real = basis.to_real(coeffs)
        psi_real *= self._v_eff
        out += basis.to_recip(psi_real)
        out += self.projectors.apply(coeffs)
        return out

    def apply_columns(self, x: np.ndarray) -> np.ndarray:
        """Adapter for the eigensolvers: ``(N_pw, k)`` column blocks."""
        return self.apply(x.T).T

    # -- preconditioning ------------------------------------------------------

    def preconditioner(self, residual: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Teter-Payne-Allan preconditioner on ``(N_pw, k)`` residual columns.

        Smooths the high-|G| components that dominate the residual early in
        the SCF; the polynomial form keeps it bounded for small kinetic
        energies (unlike a bare ``1/(G^2/2)``).
        """
        kinetic = self.basis.kinetic_diagonal[:, None]
        # Per-column kinetic scale from the residual itself; robust floor.
        scale = np.maximum(
            np.einsum("gk,g,gk->k", residual.conj(), self.basis.kinetic_diagonal, residual).real
            / np.maximum(np.einsum("gk,gk->k", residual.conj(), residual).real, 1e-30),
            1e-3,
        )
        x = kinetic / scale[None, :]
        poly = 27.0 + 18.0 * x + 12.0 * x**2 + 8.0 * x**3
        return residual * (poly / (poly + 16.0 * x**4))

    def diagonal(self) -> np.ndarray:
        """Approximate operator diagonal (for Davidson): kinetic + mean V."""
        v_mean = float(self._v_eff.mean())
        return self.basis.kinetic_diagonal + v_mean
