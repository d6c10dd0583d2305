"""Interpolation vectors: the least-squares step of ISDF (Section 4.1.2).

Given interpolation points ``{r_mu}``, the interpolating vectors solve the
overdetermined system ``Z = Theta C`` in the Galerkin/least-squares sense
(Eqs. 9-10):

    Theta = Z C^T (C C^T)^{-1}.

Both Gram products are evaluated *separably* — the defining trick of ISDF:
with ``P_v = Psi^T Psi_mu`` and ``P_c = Phi^T Phi_mu`` (tall-skinny GEMMs of
the orbital factors),

    Z C^T   = P_v ∘ P_c                       (N_r  x N_mu, Hadamard)
    C C^T   = (Psi_mu^T Psi_mu) ∘ (Phi_mu^T Phi_mu)   (N_mu x N_mu)

so the full ``Z`` is never formed.  The fit stops at the rows
``M = (Z C^T)^T`` (``O((N_v + N_c) N_r N_mu)``): LR-TDDFT needs Theta only
through ``Vtilde = Theta^T f_Hxc Theta dV`` (Eq. 7), so :func:`solve_vtilde`
applies ``(C C^T)^{-1}`` to the ``N_mu x N_mu`` Gram of ``M`` instead of to
the ``N_r x N_mu`` rows (``O(N_mu^3)``).  :func:`solve_theta` forms Theta
itself for diagnostics (``O(N_r N_mu^2)``).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from repro.utils.linalg import COLUMN_BLOCK, symmetrize
from repro.utils.validation import require


def coefficient_matrix(
    psi_v: np.ndarray, psi_c: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Expansion coefficients ``C[mu, (v c)] = psi_v(r_mu) psi_c(r_mu)``.

    Shape ``(N_mu, N_v * N_c)`` in the library's pair ordering.
    """
    v_pts = psi_v[:, indices]  # (N_v, N_mu)
    c_pts = psi_c[:, indices]  # (N_c, N_mu)
    n_mu = indices.shape[0]
    c = v_pts.T[:, :, None] * c_pts.T[:, None, :]  # (N_mu, N_v, N_c)
    return c.reshape(n_mu, -1)


#: Relative Tikhonov ridge on ``C C^T`` — interpolation points selected by
#: K-Means can be mildly collinear in the orbital values, and the ridge
#: keeps the solves stable without visibly perturbing the fit.
RIDGE = 1e-12


def fit_interpolation_vectors(
    psi_v: np.ndarray,
    psi_c: np.ndarray,
    indices: np.ndarray,
) -> np.ndarray:
    """The fit rows ``M = (Z C^T)^T``, C-ordered ``(N_mu, N_r)``.

    They are the interpolation vectors in unsolved form:
    ``Theta = M^T (C C^T + ridge)^{-1}`` (:func:`solve_theta`), and
    ``Vtilde`` comes from the Gram of ``M`` (:func:`solve_vtilde`).

    Parameters
    ----------
    indices:
        ``(N_mu,)`` grid-point indices of the interpolation points.
    """
    require(psi_v.shape[1] == psi_c.shape[1], "orbital grid mismatch")
    indices = np.asarray(indices)
    require(indices.ndim == 1 and indices.size > 0, "indices must be 1-D, non-empty")

    return fit_rows(psi_v, psi_c, psi_v[:, indices], psi_c[:, indices])


def fit_rows(
    psi_v: np.ndarray, psi_c: np.ndarray, v_pts: np.ndarray, c_pts: np.ndarray
) -> np.ndarray:
    """``(Z C^T)^T = (v_pts^T psi_v) ∘ (c_pts^T psi_c)``, ``(N_mu, n_rows)``
    over whatever grid rows ``psi_v`` / ``psi_c`` hold.  The second factor
    is formed and folded in place one block of
    :data:`~repro.utils.linalg.COLUMN_BLOCK` columns at a time, so at most
    an ``N_mu x COLUMN_BLOCK`` temporary sits beside the rows."""
    rows = v_pts.T @ psi_v
    for start in range(0, rows.shape[1], COLUMN_BLOCK):
        block = slice(start, start + COLUMN_BLOCK)
        rows[:, block] *= c_pts.T @ psi_c[:, block]
    return rows


def _ridged_cholesky(
    v_pts: np.ndarray, c_pts: np.ndarray, regularization: float
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(C C^T + ridge, R)`` with ``R^T R = C C^T + ridge`` upper
    triangular, or ``R = None`` when the factorization breaks down.

    The Gram is ``N_mu x N_mu`` and always fp64: it feeds the conditioning-
    sensitive factorization (``O(N_mu^2 N_bands)``, negligible next to the
    fit rows)."""
    gram = v_pts.T @ v_pts
    gram *= c_pts.T @ c_pts
    scale = float(np.trace(gram)) / max(gram.shape[0], 1)
    gram[np.diag_indices_from(gram)] += regularization * max(scale, 1e-300)
    try:
        r_factor, _ = sla.cho_factor(gram, lower=False)
    except sla.LinAlgError:
        return gram, None
    return gram, r_factor


def solve_theta(
    v_pts: np.ndarray,
    c_pts: np.ndarray,
    zct: np.ndarray,
    *,
    regularization: float = RIDGE,
) -> np.ndarray:
    """``Theta = Z C^T (C C^T + ridge)^{-1}``, ``(n_rows, N_mu)`` and F-ordered.

    ``zct`` is ``(Z C^T)^T``, C-ordered ``(N_mu, n_rows)`` over any grid rows,
    and is overwritten: with ``C C^T + ridge = R^T R``, two in-place
    right-side ``dtrmm`` calls apply ``R^{-1}`` and ``R^{-T}`` to its
    F-ordered view.  A factorization that breaks down falls back to ``lstsq``.
    """
    gram, r_factor = _ridged_cholesky(v_pts, c_pts, regularization)
    if r_factor is not None:
        r_inv, info = sla.lapack.dtrtri(r_factor, lower=0, overwrite_c=1)
        if info == 0:
            theta = sla.blas.dtrmm(1.0, r_inv, zct.T, side=1, overwrite_b=1)
            return sla.blas.dtrmm(1.0, r_inv, theta, side=1, trans_a=1, overwrite_b=1)
    return np.linalg.lstsq(gram, zct, rcond=None)[0].T


def solve_vtilde(
    v_pts: np.ndarray, c_pts: np.ndarray, gram_m: np.ndarray
) -> np.ndarray:
    """``Vtilde = Theta^T f_Hxc Theta dV`` from ``gram_m = M f_Hxc M^T dV``.

    With ``Theta = M^T A`` and ``A = (C C^T + ridge)^{-1} = R^{-1} R^{-T}``
    symmetric, ``Vtilde = A gram_m A``: two ``cho_solve`` calls (each two
    ``N_mu x N_mu`` triangular solves with the factor :func:`solve_theta`
    uses) give ``A gram_m`` and then ``A (A gram_m)^T``.  A factorization
    that breaks down falls back to ``lstsq``, as in :func:`solve_theta`.
    The result is symmetrized, so it is exactly symmetric.
    """
    gram, r_factor = _ridged_cholesky(v_pts, c_pts, RIDGE)
    if r_factor is not None:
        half = sla.cho_solve((r_factor, False), gram_m)
        vtilde = sla.cho_solve((r_factor, False), half.T, overwrite_b=True)
    else:
        half = np.linalg.lstsq(gram, gram_m, rcond=None)[0]
        vtilde = np.linalg.lstsq(gram, half.T, rcond=None)[0]
    return symmetrize(vtilde)
