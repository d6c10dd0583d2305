"""Fully distributed ISDF and the end-to-end optimized LR-TDDFT pipeline.

This ties every distributed kernel of the paper together, start to finish,
with the orbitals arriving row-block distributed over grid points and
*nothing* of size ``O(N_r)`` ever gathered:

1. pair weights — local (Eq. 14 is separable),
2. weighted K-Means — :func:`repro.parallel.parallel_kmeans.distributed_kmeans`,
3. orbital values at the interpolation points — one small Allreduce
   (``(N_v + N_c) x N_mu`` floats, :func:`gather_point_values`), used by
   both the fit and the pair-space factor ``C``,
4. fit rows ``M = (Z C^T)^T`` — local Hadamard-GEMMs over the owned grid
   rows, no solve and no communication,
5. projected kernel ``Vtilde`` — a Parseval Gram of the fit rows'
   spectra, not Algorithm 1's inverse FFT and GEMM
   (:func:`repro.parallel.parallel_lrtddft.distributed_kernel_gram`): per
   ``k3``-slab of their spectra, each rank z-transforms its own z-lines,
   one alltoall sends each plane to the rank that finishes the transform
   and a SYRK, with no transpose of the rows themselves; then
   the replicated ``N_mu x N_mu`` Cholesky of Eq. 10 on both sides of the
   Gram (:func:`~repro.parallel.parallel_lrtddft.distributed_isdf_vtilde`),
6. implicit LOBPCG over pair-distributed Ritz vectors: the serial
   :func:`repro.eigen.lobpcg.lobpcg` loop with allreduced Grams and column
   norms (:func:`repro.parallel.parallel_lobpcg.distributed_lobpcg`),
   applying ``H`` through
   :func:`~repro.parallel.parallel_lobpcg.make_distributed_implicit_apply`.

:func:`distributed_optimized_lrtddft` is the one distributed version (5)
pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.core.fitting import fit_rows
from repro.core.kernel import HxcKernel
from repro.core.kmeans import NO_INDEX, representatives
from repro.core.pair_products import pair_energies
from repro.parallel.comm import Communicator
from repro.parallel.distributions import BlockDistribution1D
from repro.parallel.parallel_kmeans import CommReducer, distributed_kmeans
from repro.parallel.parallel_lobpcg import (
    distributed_lobpcg,
    make_distributed_implicit_apply,
)
from repro.parallel.parallel_lrtddft import distributed_isdf_vtilde
from repro.utils.threads import blas_threads
from repro.utils.validation import require


def gather_point_values(
    comm: Communicator,
    psi_v_local: np.ndarray,
    psi_c_local: np.ndarray,
    indices: np.ndarray,
    grid_dist: BlockDistribution1D,
) -> tuple[np.ndarray, np.ndarray]:
    """Orbital values ``(v_pts, c_pts)`` at global grid indices, from
    row-distributed orbitals: ``(N_v, N_mu)`` and ``(N_c, N_mu)``.

    Each rank fills the columns it owns of the stacked ``(N_v + N_c, N_mu)``
    matrix; one Allreduce assembles the rest.  Every entry has exactly one
    owner, so the sum is exact.
    """
    n_v = psi_v_local.shape[0]
    sl = grid_dist.local_slice(comm.rank)
    values = np.zeros((n_v + psi_c_local.shape[0], indices.size))
    mine = (indices >= sl.start) & (indices < sl.stop)
    if mine.any():
        cols = indices[mine] - sl.start
        values[:n_v, mine] = psi_v_local[:, cols]
        values[n_v:, mine] = psi_c_local[:, cols]
    values = comm.allreduce(values)
    return values[:n_v], values[n_v:]


def distributed_select_points_kmeans(
    comm: Communicator,
    psi_v_local: np.ndarray,
    psi_c_local: np.ndarray,
    n_mu: int,
    grid_points_local: np.ndarray,
    grid_dist: BlockDistribution1D,
    *,
    prune_threshold: float = 1e-6,
    max_iter: int = 100,
) -> np.ndarray:
    """Distributed Section 4.2: weights -> prune -> K-Means -> global indices.

    Returns the sorted global grid indices of the interpolation points
    (identical on every rank).
    """
    weights_local = np.einsum("vr,vr->r", psi_v_local, psi_v_local) * np.einsum(
        "cr,cr->r", psi_c_local, psi_c_local
    )
    w_max = comm.allreduce(np.array([weights_local.max() if weights_local.size else 0.0]), op="max")[0]
    require(w_max > 0.0, "pair weights vanish everywhere")

    keep_local = np.flatnonzero(weights_local >= prune_threshold * w_max)
    my_offset = grid_dist.displacement(comm.rank)
    keep_global = keep_local + my_offset

    # Candidate set is row-distributed but unevenly; rebuild a distribution
    # by exchanging counts (allgather of ints).
    counts = comm.allgather(int(keep_local.size))
    n_candidates = sum(counts)
    require(n_candidates >= n_mu, "pruning left fewer candidates than n_mu")

    cand_points = grid_points_local[keep_local]
    cand_weights = weights_local[keep_local]

    # distributed_kmeans expects a BlockDistribution1D-compatible split; we
    # adapt by passing an exact-count distribution via a tiny shim object.
    class _ExactDist:
        n_global = n_candidates

        @staticmethod
        def count(rank: int) -> int:
            return counts[rank]

        @staticmethod
        def displacement(rank: int) -> int:
            return sum(counts[:rank])

    centroids, labels, _, _, _ = distributed_kmeans(
        comm, cand_points, cand_weights, n_mu, _ExactDist(), max_iter=max_iter
    )

    reducer = CommReducer(comm, _ExactDist.displacement(comm.rank))
    winners = representatives(cand_points, centroids, labels, keep_global, reducer)
    require((winners < NO_INDEX).all(), "a cluster ended up with no representative")
    return np.unique(winners)


def distributed_fit_theta(
    psi_v_local: np.ndarray,
    psi_c_local: np.ndarray,
    v_pts: np.ndarray,
    c_pts: np.ndarray,
) -> np.ndarray:
    """This rank's fit rows ``M_local = (Z C^T)^T``, ``(N_mu, my_rows)``.

    ``v_pts`` / ``c_pts`` are the replicated point values of
    :func:`gather_point_values`.  Two Hadamard tall-skinny GEMMs over the
    owned grid rows (:func:`repro.core.fitting.fit_rows`); the ``(C C^T)^{-1}``
    solve is left to :func:`distributed_isdf_vtilde`, which applies it to
    the ``N_mu x N_mu`` Gram.  No communication.
    """
    return fit_rows(psi_v_local, psi_c_local, v_pts, c_pts)


def distributed_optimized_lrtddft(
    comm: Communicator,
    psi_v_local: np.ndarray,
    psi_c_local: np.ndarray,
    eps_v: np.ndarray,
    eps_c: np.ndarray,
    kernel: HxcKernel,
    grid_dist: BlockDistribution1D,
    n_mu: int,
    n_excitations: int,
    *,
    grid_points_local: np.ndarray,
    prune_threshold: float = 1e-6,
    tol: float = 1e-9,
    max_iter: int = 300,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """The paper's version (5), fully distributed end to end.

    Returns ``(energies, x_local)`` where ``x_local`` holds this rank's
    rows (pair-distributed) of the excitation wavefunctions.
    """
    indices = distributed_select_points_kmeans(
        comm, psi_v_local, psi_c_local, n_mu, grid_points_local, grid_dist,
        prune_threshold=prune_threshold,
    )
    v_pts, c_pts = gather_point_values(
        comm, psi_v_local, psi_c_local, indices, grid_dist
    )
    rows_local = distributed_fit_theta(psi_v_local, psi_c_local, v_pts, c_pts)
    vtilde = distributed_isdf_vtilde(comm, rows_local, v_pts, c_pts, kernel, grid_dist)

    # Pair-space quantities: C stays factored from the replicated point
    # values (small), and LOBPCG runs over pair-distributed vectors.
    n_pairs = v_pts.shape[0] * c_pts.shape[0]
    pair_dist = BlockDistribution1D(n_pairs, comm.size)
    apply_local, precond_local = make_distributed_implicit_apply(
        comm, v_pts, c_pts, eps_v, eps_c, vtilde, pair_dist
    )

    # Deterministic start: unit vectors on the globally lowest transitions
    # plus the same global perturbation on every rank, sliced locally.
    k = n_excitations
    d = pair_energies(np.asarray(eps_v, float), np.asarray(eps_c, float))
    x0 = np.zeros((n_pairs, k))
    x0[np.argsort(d)[:k], np.arange(k)] = 1.0
    x0 += 1e-3 * np.random.default_rng(seed).standard_normal((n_pairs, k))

    with blas_threads(1):
        res = distributed_lobpcg(
            comm, apply_local, x0[pair_dist.local_slice(comm.rank)],
            preconditioner_local=precond_local, tol=tol, max_iter=max_iter,
        )
    return res.eigenvalues, res.eigenvectors
