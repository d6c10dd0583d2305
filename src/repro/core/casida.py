"""Naive explicit LR-TDDFT within the Tamm-Dancoff approximation.

This is version (1) of the paper's Table 4: build the Casida/TDA
Hamiltonian

    H = D + 2 V_Hxc,      V_Hxc = P_vc^T f_Hxc P_vc            (Eqs. 2-3)

explicitly at ``O(N_v^2 N_c^2 N_r)`` cost and ``O(N_v^2 N_c^2)`` memory,
then diagonalize densely (the SYEVD stand-in).  The factor 2 is the singlet
spin factor for a closed-shell reference.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernel import HxcKernel
from repro.core.pair_products import pair_energies, pair_products
from repro.eigen.dense import dense_eigh
from repro.utils.timers import TimerRegistry
from repro.utils.validation import require


def transition_diagonal(eps_v: np.ndarray, eps_c: np.ndarray) -> np.ndarray:
    """The diagonal ``D`` of independent-particle transition energies."""
    return pair_energies(np.asarray(eps_v, float), np.asarray(eps_c, float))


def build_vhxc(
    psi_v: np.ndarray,
    psi_c: np.ndarray,
    kernel: HxcKernel,
    *,
    timers: TimerRegistry | None = None,
) -> np.ndarray:
    """Explicit Hartree-exchange-correlation matrix ``(N_cv, N_cv)``.

    Face-splitting product, then one :meth:`HxcKernel.gram` of the pair
    fields (Parseval: no inverse transform, no separate GEMM).
    """
    timers = timers or TimerRegistry()
    with timers.scope("pair_products"):
        z = pair_products(psi_v, psi_c)  # (N_r, N_cv)
    with timers.scope("kernel_fft"):
        return kernel.gram(z.T)


def build_casida_hamiltonian(
    psi_v: np.ndarray,
    eps_v: np.ndarray,
    psi_c: np.ndarray,
    eps_c: np.ndarray,
    kernel: HxcKernel,
    *,
    timers: TimerRegistry | None = None,
) -> np.ndarray:
    """Explicit TDA Hamiltonian ``H = D + 2 V_Hxc`` (Eq. 2)."""
    require(psi_v.shape[0] == eps_v.shape[0], "psi_v / eps_v mismatch")
    require(psi_c.shape[0] == eps_c.shape[0], "psi_c / eps_c mismatch")
    vhxc = build_vhxc(psi_v, psi_c, kernel, timers=timers)
    h = 2.0 * vhxc
    diag = transition_diagonal(eps_v, eps_c)
    h[np.diag_indices_from(h)] += diag
    return h


def solve_casida_dense(
    hamiltonian: np.ndarray, n_excitations: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Dense diagonalization; returns the lowest ``n_excitations`` pairs.

    The full spectrum is computed (that is the point of the naive version's
    ``O(N_cv^3)`` cost) and then truncated.
    """
    evals, evecs = dense_eigh(hamiltonian)
    if n_excitations is not None:
        require(
            0 < n_excitations <= evals.shape[0],
            f"n_excitations must be in [1, {evals.shape[0]}]",
        )
        return evals[:n_excitations], evecs[:, :n_excitations]
    return evals, evecs
