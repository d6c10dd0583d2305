"""Distributed LOBPCG: the eigensolver itself over distributed vectors.

The paper's optimized path iteratively diagonalizes the implicit LR-TDDFT
Hamiltonian in parallel: the Ritz block ``X`` is distributed over the pair
index, every inner product becomes a local GEMM + ``MPI_Allreduce`` of a
small Gram matrix, and the ``3k x 3k`` projected eigenproblem is solved
redundantly on every rank (standard practice — it is tiny).  That is the
serial :func:`repro.eigen.lobpcg.lobpcg` loop with a :class:`CommReducer`.

Determinism: all ranks reduce identical Gram matrices in rank order, so
every rank applies the same rotation and the distributed iterate equals
the serial one to floating-point summation order (bit for bit on 1 rank).
"""

from __future__ import annotations

import numpy as np

from repro.core.pair_products import pair_energies
from repro.eigen.lobpcg import ApplyFn, PrecondFn, lobpcg
from repro.eigen.results import EigenResult
from repro.parallel.comm import Communicator
from repro.parallel.distributions import BlockDistribution1D
from repro.parallel.parallel_kmeans import CommReducer


def distributed_lobpcg(
    comm: Communicator,
    apply_h_local: ApplyFn,
    x0_local: np.ndarray,
    *,
    preconditioner_local: PrecondFn | None = None,
    tol: float = 1e-8,
    max_iter: int = 200,
    checkpoint=None,
) -> EigenResult:
    """LOBPCG over row-distributed vectors: :func:`~repro.eigen.lobpcg.lobpcg`
    with its cross-row sums as allreduces over ``comm``.

    ``apply_h_local`` maps this rank's ``(my_rows, m)`` rows to those of
    ``H X`` (it owns whatever communication its operator needs),
    ``x0_local`` is this rank's slab of the start block, and
    ``preconditioner_local`` must be row-local.  ``checkpoint`` is a
    per-rank checkpointer (a distinct tag on every rank); on restart the
    ranks resume from the newest step all of them hold.  The returned
    eigenvectors are this rank's rows; eigenvalues are replicated.
    """
    return lobpcg(
        apply_h_local, x0_local, preconditioner=preconditioner_local, tol=tol,
        max_iter=max_iter, checkpoint=checkpoint, reducer=CommReducer(comm, 0),
    )


def make_distributed_implicit_apply(
    comm: Communicator,
    v_pts: np.ndarray,
    c_pts: np.ndarray,
    eps_v: np.ndarray,
    eps_c: np.ndarray,
    vtilde: np.ndarray,
    pair_dist: BlockDistribution1D,
) -> tuple[ApplyFn, PrecondFn]:
    """Row-distributed application of the implicit TDA Hamiltonian.

    ``H X = D ∘ X + 2 C^T (Vtilde (C X))`` with ``X`` distributed over
    pairs and ``C`` the ``(N_mu, N_cv)`` pair products of the replicated
    point values ``v_pts`` ``(N_v, N_mu)`` and ``c_pts`` ``(N_c, N_mu)``:
    each rank contracts its pair rows against its columns of ``C`` (one
    local GEMM), the ``(N_mu, k)`` partial is Allreduced, and the
    back-projection is again local.  Returns
    ``(apply_local, preconditioner_local)``; the preconditioner is the
    paper's Eq. 17 on this rank's rows.
    """
    d = pair_energies(np.asarray(eps_v, float), np.asarray(eps_c, float))
    sl = pair_dist.local_slice(comm.rank)
    d_local = d[sl]
    c = (v_pts.T[:, :, None] * c_pts.T[:, None, :]).reshape(v_pts.shape[1], -1)
    c_local = np.ascontiguousarray(c[:, sl])  # each rank keeps only its columns

    def apply_local(x_local: np.ndarray) -> np.ndarray:
        cx = comm.allreduce(c_local @ x_local)  # (N_mu, k)
        return d_local[:, None] * x_local + 2.0 * (c_local.T @ (vtilde @ cx))

    def preconditioner_local(r_local: np.ndarray, theta: np.ndarray) -> np.ndarray:
        denom = np.maximum(np.abs(d_local[:, None] - theta[None, :]), 1e-2)
        return r_local / denom

    return apply_local, preconditioner_local
