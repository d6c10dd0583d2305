"""The Hartree-exchange-correlation operator f_Hxc (Eq. 4 of the paper).

``f_Hxc(r, r') = 1/|r - r'| + f_xc[n](r) delta(r - r')`` applied to fields
over the real-space grid: the Coulomb half is diagonal in reciprocal space
(batch FFT -> multiply 4 pi / G^2 -> batch inverse FFT, exactly lines 4-5 of
the paper's Algorithm 1) and the ALDA half is diagonal in real space.
Matrix elements between the rows of one block (:meth:`HxcKernel.gram`)
skip the inverse transform: by Parseval they are a Gram of the spectrum,
summed one ``k3``-slab of it at a time
(:meth:`~repro.pw.fft.ConvolutionPlan.gram`), and the ALDA half
one block of grid columns at a time
(:func:`~repro.utils.linalg.weighted_gram`), so neither holds a second
array the size of the rows.
"""

from __future__ import annotations

import numpy as np

from repro.dft.hartree import coulomb_kernel
from repro.dft.xc import lda_kernel
from repro.pw.basis import PlaneWaveBasis
from repro.utils.linalg import weighted_gram
from repro.utils.timers import TimerRegistry, fft_flops
from repro.utils.validation import require


class HxcKernel:
    """f_Hxc bound to a basis and a ground-state density.

    Parameters
    ----------
    basis:
        Plane-wave basis (provides the FFT grid and 4 pi/G^2).
    density:
        Ground-state density n(r) defining the ALDA kernel f_xc[n].
    include_hartree / include_xc:
        Toggles for ablation studies (RPA-like kernel = Hartree only).
    coulomb_truncation:
        ``None`` (default, periodic 4 pi/G^2) or a truncation radius in
        Bohr (pass ``"auto"`` for half the shortest box edge) — use for
        molecules in boxes so excitations do not couple to periodic
        images.
    """

    def __init__(
        self,
        basis: PlaneWaveBasis,
        density: np.ndarray,
        *,
        include_hartree: bool = True,
        include_xc: bool = True,
        spin: str = "singlet",
        coulomb_truncation: float | str | None = None,
        timers: TimerRegistry | None = None,
    ) -> None:
        require(
            density.shape == (basis.n_r,),
            f"density must have shape ({basis.n_r},), got {density.shape}",
        )
        require(spin in ("singlet", "triplet"), f"spin must be singlet/triplet, got {spin!r}")
        self.basis = basis
        self.spin = spin
        self.timers = timers
        if spin == "triplet":
            # Spin-flip response: the Hartree term cancels between the spin
            # channels; only the spin-stiffness kernel survives.
            include_hartree = False
        self.include_hartree = include_hartree
        self.include_xc = include_xc
        if include_hartree:
            # Kernel + half-spectrum slice come from the process-wide plan
            # cache: repeat kernel constructions (one HxcKernel per
            # trajectory frame) reuse the same arrays.  The truncation
            # radius is resolved *before* keying so "auto" and its explicit
            # value share a plan only when they actually coincide.
            from repro.pw.fft import default_plan_cache

            if coulomb_truncation is None:
                plan = default_plan_cache().get(
                    "coulomb", basis.fft, lambda: coulomb_kernel(basis)
                )
            else:
                from repro.dft.hartree import truncated_coulomb_kernel

                radius = (
                    0.5 * float(basis.cell.lengths.min())
                    if coulomb_truncation == "auto"
                    else float(coulomb_truncation)
                )
                plan = default_plan_cache().get(
                    f"coulomb-truncated:{radius!r}",
                    basis.fft,
                    lambda: truncated_coulomb_kernel(basis, radius),
                )
            self._coulomb_plan = plan
            self._coulomb_g = plan.kernel
            self._coulomb_half = plan.kernel_half
        else:
            self._coulomb_plan = None
            self._coulomb_g = None
            self._coulomb_half = None
        if include_xc:
            if spin == "triplet":
                from repro.dft.xc_spin import lda_kernel_triplet

                self._fxc_r = lda_kernel_triplet(density)
            else:
                self._fxc_r = lda_kernel(density)
        else:
            self._fxc_r = None

    # -- application -------------------------------------------------------

    def apply(self, fields: np.ndarray) -> np.ndarray:
        """Apply f_Hxc to real fields of shape ``(..., N_r)`` (batched).

        The Coulomb half runs through :meth:`FourierGrid.convolve_real`
        (batch forward FFT, ``4 pi / G^2`` multiply, batch inverse — lines
        4-5 of Algorithm 1), on the real-to-complex fast path.
        """
        fields = np.asarray(fields)
        require(fields.shape[-1] == self.basis.n_r, "field/grid size mismatch")
        n_r = self.basis.n_r
        batch = int(np.prod(fields.shape[:-1], dtype=np.int64)) if fields.ndim > 1 else 1
        if self._coulomb_plan is not None:
            if self.timers is not None:
                with self.timers.scope("fhxc/coulomb_fft") as t:
                    out = self._coulomb_plan.apply(fields)
                t.add_flops(2 * batch * fft_flops(n_r))
                t.add_bytes(2 * fields.nbytes + out.nbytes)
            else:
                out = self._coulomb_plan.apply(fields)
        else:
            out = np.zeros(fields.shape, dtype=float)
        if self._fxc_r is not None:
            if self.timers is not None:
                with self.timers.scope("fhxc/alda") as t:
                    out += fields * self._fxc_r
                t.add_flops(2 * batch * n_r)
            else:
                out += fields * self._fxc_r
        return out

    def gram(self, rows: np.ndarray) -> np.ndarray:
        """``rows f_Hxc rows^T dV`` for real rows ``(m, N_r)``, exactly symmetric:
        :meth:`ConvolutionPlan.gram` plus a Gram weighted by ``f_xc dV``."""
        require(rows.ndim == 2 and rows.shape[1] == self.basis.n_r, "rows must be (m, N_r)")
        gram = np.zeros((rows.shape[0], rows.shape[0]))
        if self._coulomb_plan is not None:
            gram += self._coulomb_plan.gram(rows)
        if self._fxc_r is not None:
            gram += weighted_gram(rows, self._fxc_r * self.basis.grid.dv)
        return gram

    def matrix_elements(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """``M[i, j] = <left_i | f_Hxc | right_j>`` for rows of fields.

        Both inputs are ``(m, N_r)`` / ``(n, N_r)``; includes the grid
        quadrature weight dV.
        """
        k_right = self.apply(right)
        return (left @ k_right.T) * self.basis.grid.dv

    @property
    def fxc_diagonal(self) -> np.ndarray | None:
        """The real-space ALDA kernel values (None when XC disabled)."""
        return self._fxc_r

    @property
    def coulomb_plan(self):
        """The Coulomb half's :class:`~repro.pw.fft.ConvolutionPlan` (None
        when Hartree is disabled)."""
        return self._coulomb_plan
