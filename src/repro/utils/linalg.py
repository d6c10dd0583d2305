"""Dense linear-algebra helpers shared by the eigensolvers and ISDF.

These are the numerical workhorses underneath LOBPCG (Algorithm 2 of the
paper): block orthonormalization with a Cholesky-QR fast path, Rayleigh-Ritz
projection, and error metrics used throughout the test-suite.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.linalg as sla


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Return the Hermitian part ``(A + A^H) / 2`` of ``matrix``."""
    return 0.5 * (matrix + matrix.conj().T)


ReduceFn = Callable[[np.ndarray], np.ndarray]


def no_reduce(array: np.ndarray) -> np.ndarray:
    """The cross-row sum when every row is local: the identity."""
    return array


#: Grid columns per block of the column-blocked passes over ``(N_mu, N_r)``
#: rows (:func:`weighted_gram`, :func:`repro.core.fitting.fit_rows`): each
#: holds at most an ``N_mu x COLUMN_BLOCK`` temporary beside the rows.
COLUMN_BLOCK = 4096


def weighted_gram(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``rows diag(weights) rows^T``, exactly symmetric: per block of
    :data:`COLUMN_BLOCK` columns, one SYRK of the rows scaled by
    ``sqrt(|weights|)`` per sign class of ``weights``."""
    gram = np.zeros((rows.shape[0], rows.shape[0]))
    scale = np.sqrt(np.abs(weights))
    for start in range(0, rows.shape[1], COLUMN_BLOCK):
        block = slice(start, start + COLUMN_BLOCK)
        for mask, sign in ((weights[block] > 0, 1.0), (weights[block] < 0, -1.0)):
            if mask.all():
                part = rows[:, block] * scale[block]
            elif mask.any():
                part = rows[:, block][:, mask]
                part *= scale[block][mask]
            else:
                continue
            gram += sign * (part @ part.T)
            del part  # before the next block's
    return gram


def orthonormalize(
    block: np.ndarray, *, b_block: np.ndarray | None = None, reduce: ReduceFn = no_reduce
) -> np.ndarray:
    """Orthonormalize the columns of ``block`` (optionally B-orthonormalize).

    Uses Cholesky-QR (one Gram matrix + one triangular solve, the standard
    communication-avoiding choice in parallel LOBPCG implementations); falls
    back to an eigendecomposition-based orthonormalization when the Gram
    matrix is numerically rank-deficient, dropping nothing but rescaling
    along near-null directions.

    Parameters
    ----------
    block:
        ``(n, k)`` array whose columns are to be orthonormalized.
    b_block:
        Optional ``B @ block`` for a metric ``B``; when given the result is
        B-orthonormal (``X^H B X = I``) which LOBPCG needs for generalized
        problems.
    reduce:
        Sum over ranks of a row-distributed ``block`` (an allreduce).  Only
        the Gram needs it: the triangular solve and the fallback are
        row-local, and the branch is taken on the reduced Gram, so every
        rank takes the same one.

    Returns
    -------
    ``(n, k)`` array with (B-)orthonormal columns spanning the same space.
    """
    other = block if b_block is None else b_block
    gram = symmetrize(reduce(block.conj().T @ other))
    try:
        chol = sla.cholesky(gram, lower=False)
        return sla.solve_triangular(chol, block.T, trans="T", lower=False).T
    except sla.LinAlgError:
        # Rank-deficient block: whiten through the eigendecomposition,
        # flooring tiny eigenvalues to keep the transform bounded.
        evals, evecs = sla.eigh(gram)
        floor = max(evals[-1], 1.0) * np.finfo(block.dtype).eps * gram.shape[0]
        evals = np.maximum(evals, floor)
        whitener = evecs / np.sqrt(evals)
        return block @ whitener


def orthonormalize_against(
    block: np.ndarray, basis: np.ndarray, *, reorthogonalize: bool = True,
    reduce: ReduceFn = no_reduce,
) -> np.ndarray:
    """Project ``basis`` out of ``block`` then orthonormalize the remainder.

    ``basis`` must itself have orthonormal columns.  Classical Gram-Schmidt
    with one reorthogonalization pass ("twice is enough", Kahan/Parlett).
    ``reduce`` sums the projections over ranks, as in :func:`orthonormalize`.
    """
    projected = block - basis @ reduce(basis.conj().T @ block)
    if reorthogonalize:
        projected -= basis @ reduce(basis.conj().T @ projected)
    return orthonormalize(projected, reduce=reduce)


def rayleigh_ritz(
    subspace: np.ndarray,
    h_subspace: np.ndarray,
    *,
    nev: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the projected eigenproblem in a (not necessarily orthonormal) basis.

    Given ``S`` (columns spanning the trial subspace) and ``H S``, forms the
    projected pencil ``(S^H H S, S^H S)`` and returns the lowest ``nev``
    eigenvalues with their coefficient vectors ``C`` such that ``X = S C``.

    This is the key projection step of the paper's Algorithm 2:
    ``H_s = S_i^H H S_i`` followed by ``H_s C = C Theta``.
    """
    h_proj = symmetrize(subspace.conj().T @ h_subspace)
    s_proj = symmetrize(subspace.conj().T @ subspace)
    evals, coeffs = stable_generalized_eigh(h_proj, s_proj)
    if nev is not None:
        evals = evals[:nev]
        coeffs = coeffs[:, :nev]
    return evals, coeffs


def stable_generalized_eigh(
    a: np.ndarray, b: np.ndarray, *, cond_cut: float = 1e-12
) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``A c = lambda B c`` robustly for possibly ill-conditioned ``B``.

    The LOBPCG basis ``[X, W, P]`` becomes nearly linearly dependent close to
    convergence, so a plain ``scipy.linalg.eigh(a, b)`` can fail.  We whiten
    with the eigendecomposition of ``B``, discarding directions whose
    eigenvalue is below ``cond_cut`` times the largest.
    """
    b_evals, b_evecs = sla.eigh(symmetrize(b))
    keep = b_evals > cond_cut * max(b_evals[-1], np.finfo(float).tiny)
    if not np.any(keep):
        raise np.linalg.LinAlgError("overlap matrix is numerically zero")
    whitener = b_evecs[:, keep] / np.sqrt(b_evals[keep])
    a_white = symmetrize(whitener.conj().T @ a @ whitener)
    evals, evecs = sla.eigh(a_white)
    return evals, whitener @ evecs


def relative_error(approx: np.ndarray | float, reference: np.ndarray | float) -> float:
    """``|approx - reference| / |reference|`` with a safe zero denominator."""
    approx_arr = np.asarray(approx, dtype=float)
    ref_arr = np.asarray(reference, dtype=float)
    denom = np.linalg.norm(ref_arr.ravel())
    if denom == 0.0:
        return float(np.linalg.norm(approx_arr.ravel()))
    return float(np.linalg.norm((approx_arr - ref_arr).ravel()) / denom)
