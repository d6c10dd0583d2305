"""Valence-conduction orbital pair products (the face-splitting product).

The LR-TDDFT Hamiltonian is built from the two-electron integrals of the
pair densities ``rho_vc(r) = psi_v(r) psi_c(r)``.  Arranged as a matrix over
grid points this is the transposed block face-splitting (column-wise
Khatri-Rao) product ``P_vc`` of the paper's Eq. 3, of shape
``(N_r, N_v * N_c)`` — the object whose numerical rank deficiency ISDF
exploits.

Pair ordering convention (used everywhere downstream):
``column (v, c) -> v * N_c + c`` (valence slow, conduction fast).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require


def pair_index(v: int, c: int, n_c: int) -> int:
    """Flattened column index of pair ``(v, c)``."""
    return v * n_c + c


def pair_products(psi_v: np.ndarray, psi_c: np.ndarray) -> np.ndarray:
    """Full pair-product matrix ``Z`` of shape ``(N_r, N_v * N_c)``.

    Parameters
    ----------
    psi_v:
        ``(N_v, N_r)`` valence orbitals in real space.
    psi_c:
        ``(N_c, N_r)`` conduction orbitals in real space.

    Notes
    -----
    Memory is ``O(N_v N_c N_r)`` — this is exactly the object the paper's
    Table 2 flags as the naive bottleneck; the ISDF path never materializes
    it for large systems (see :mod:`repro.core.fitting`).
    """
    require(psi_v.ndim == 2 and psi_c.ndim == 2, "orbitals must be (n_bands, N_r)")
    require(
        psi_v.shape[1] == psi_c.shape[1],
        f"grid mismatch: {psi_v.shape[1]} vs {psi_c.shape[1]}",
    )
    n_v, n_r = psi_v.shape
    n_c = psi_c.shape[0]
    # Write the (N_r, N_v * N_c) layout directly: one einsum into a
    # preallocated C-contiguous array instead of the broadcast-product +
    # reshape + transpose-copy round trip, which peaked at 2x the matrix.
    z = np.empty((n_r, n_v * n_c), dtype=np.result_type(psi_v, psi_c))
    np.einsum("vr,cr->rvc", psi_v, psi_c, out=z.reshape(n_r, n_v, n_c))
    return z


def pair_weights(psi_v: np.ndarray, psi_c: np.ndarray) -> np.ndarray:
    """Row weights ``w(r) = (sum_v |psi_v|^2)(sum_c |psi_c|^2)`` (Eq. 14).

    This equals the squared 2-norm of each row of ``Z`` but costs
    ``O((N_v + N_c) N_r)`` instead of ``O(N_v N_c N_r)`` — the separability
    that makes the K-Means weight evaluation cheap.
    """
    rho_v = np.einsum("vr,vr->r", psi_v, psi_v)
    rho_c = np.einsum("cr,cr->r", psi_c, psi_c)
    return rho_v * rho_c


def pair_energies(eps_v: np.ndarray, eps_c: np.ndarray) -> np.ndarray:
    """Flattened transition energies ``eps_c - eps_v`` in pair ordering."""
    return (eps_c[None, :] - eps_v[:, None]).reshape(-1)
