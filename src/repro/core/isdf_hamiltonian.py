"""ISDF-compressed explicit LR-TDDFT Hamiltonian (Eqs. 6-7).

With the pair products factored as ``Z ~= Theta C``, the
Hartree-exchange-correlation matrix collapses to

    V_Hxc ~= C^T  Vtilde  C,      Vtilde = Theta^T (f_Hxc Theta) dV,

so only ``N_mu`` kernel applications (FFTs) are needed instead of ``N_cv``,
and the heavy GEMMs shrink from ``N_r x N_cv`` to ``N_r x N_mu``.  The Gram
runs on the fit rows ``M`` and ``(C C^T)^{-1}`` acts on it from both sides
(:func:`repro.core.fitting.solve_vtilde`), so Theta is never formed.  These
are versions (2) and (3) of the paper's Table 4; the projected kernel
``Vtilde`` is also exactly the object the implicit method (version 5)
caches.
"""

from __future__ import annotations

import numpy as np

from repro.core.fitting import solve_vtilde
from repro.core.isdf import ISDFDecomposition
from repro.core.kernel import HxcKernel
from repro.core.pair_products import pair_energies
from repro.utils.linalg import symmetrize
from repro.utils.timers import TimerRegistry


def project_kernel(
    isdf: ISDFDecomposition,
    kernel: HxcKernel,
    *,
    timers: TimerRegistry | None = None,
) -> np.ndarray:
    """``Vtilde = Theta^T f_Hxc Theta dV`` of shape ``(N_mu, N_mu)`` (Eq. 7):
    one :meth:`HxcKernel.gram` of the fit rows (forward transforms one
    ``k3``-slab at a time and no inverse), then :func:`solve_vtilde`.
    """
    timers = timers or TimerRegistry()
    with timers.scope("isdf_h/kernel_fft"):
        gram = kernel.gram(isdf.fit_rows)
        return solve_vtilde(isdf.psi_v_mu, isdf.psi_c_mu, gram)


def build_isdf_hamiltonian(
    isdf: ISDFDecomposition,
    eps_v: np.ndarray,
    eps_c: np.ndarray,
    kernel: HxcKernel,
    *,
    timers: TimerRegistry | None = None,
    vtilde: np.ndarray | None = None,
) -> np.ndarray:
    """Explicit ``H = D + 2 C^T Vtilde C`` of shape ``(N_cv, N_cv)``.

    ``vtilde`` may be passed in when already computed (ablations reuse it).
    """
    timers = timers or TimerRegistry()
    if vtilde is None:
        vtilde = project_kernel(isdf, kernel, timers=timers)
    with timers.scope("isdf_h/assemble"):
        c = isdf.coefficients()  # (N_mu, N_cv)
        h = 2.0 * (c.T @ (vtilde @ c))
        h = symmetrize(h)
        h[np.diag_indices_from(h)] += pair_energies(
            np.asarray(eps_v, float), np.asarray(eps_c, float)
        )
    return h
