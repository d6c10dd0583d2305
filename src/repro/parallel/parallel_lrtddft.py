"""Distributed LR-TDDFT Hamiltonian construction — the paper's Algorithm 1.

The rank program:

1. wavefunctions arrive row-block distributed (grid rows),
2. the face-splitting product is computed locally (row-block pairs),
3. :func:`distributed_kernel_gram` forms ``V_Hxc = Z f_Hxc Z^T dV`` from
   the pairs:

   - the f_xc half is a local weighted Gram over this rank's grid rows
     (f_xc is diagonal in real space, so it needs no exchange);
   - ``MPI_Alltoall`` gives each rank whole pair fields, and each field
     gets one forward ``rfftn``, scaled so that by Parseval the Hartree
     half is a real Gram of the spectra (no inverse FFT);
   - ``MPI_Alltoall`` moves the spectra to spectral-row blocks, and a local
     SYRK forms this rank's share of the Hartree half;
   - ``MPI_Allreduce`` sums the exactly symmetric partials;

4. the Hamiltonian diagonal is added and the matrix diagonalized (dense on
   the root for the naive version, LOBPCG on the ISDF-compressed operator
   for the optimized version).

So the paper's lines 4-7 (FFT, ``4 pi / G^2``, inverse FFT, transpose
back, GEMM) no longer run as written: the second exchange carries half
spectra instead of kernel-applied fields (THEORY §7).  The ISDF variant
(:func:`distributed_isdf_vtilde`) runs the same Gram on the ``N_mu`` fit
rows instead of the ``N_cv`` pairs — that is the entire point of the
paper — and solves the replicated ``N_mu x N_mu`` result for ``Vtilde``.
"""

from __future__ import annotations

import numpy as np

from repro.core.fitting import solve_vtilde
from repro.core.isdf import ISDFDecomposition
from repro.core.kernel import HxcKernel
from repro.core.pair_products import pair_energies
from repro.eigen.dense import dense_lowest
from repro.parallel.comm import Communicator
from repro.parallel.distributions import BlockDistribution1D
from repro.parallel.redistribute import (
    transpose_to_column_block,
    transpose_to_row_block,
)
from repro.utils.linalg import weighted_gram
from repro.utils.threads import blas_threads
from repro.utils.validation import require


def distributed_kernel_gram(
    comm: Communicator,
    rows_local: np.ndarray,
    kernel: HxcKernel,
    grid_dist: BlockDistribution1D,
) -> np.ndarray:
    """Replicated ``rows f_Hxc rows^T dV`` from field-major grid slabs.

    ``rows_local`` is ``(m, my_grid_points)``: all ``m`` fields over this
    rank's block of ``grid_dist``.  The result equals the serial
    :meth:`HxcKernel.gram` to rounding and is exactly symmetric.

    * f_xc half — :func:`weighted_gram` on the local grid columns.
    * Hartree half — one alltoall to whole fields ``(my_fields, N_r)``,
      one forward ``rfftn`` per field scaled by
      :meth:`ConvolutionPlan.scaled_spectrum`, one alltoall of the float64
      spectra to spectral-row blocks ``(m, my_g)``, and a local SYRK.
      No inverse FFT.  Ranks that own no field still take part in both
      exchanges.
    * One allreduce of the summed partials.

    The spectra are always transformed in fp64, whatever the kernel's
    precision tier: an fp32 plan's first-call cross-check runs once per
    plan object, and thread ranks share that object while forked ranks
    each hold a copy, so checking here would let the two backends take
    different paths.
    """
    m, my_points = rows_local.shape
    require(my_points == grid_dist.count(comm.rank), "slab/distribution mismatch")
    fxc = kernel.fxc_diagonal
    if fxc is None:
        gram = np.zeros((m, m))
    else:
        weights = fxc[grid_dist.local_slice(comm.rank)] * kernel.basis.grid.dv
        gram = weighted_gram(rows_local, weights)
    plan = kernel.coulomb_plan
    if plan is not None:
        field_dist = BlockDistribution1D(m, comm.size)
        fields = transpose_to_row_block(comm, rows_local, field_dist, grid_dist)
        spec = plan.scaled_spectrum(fields)
        del fields  # the spectra replace it before the second exchange
        g_dist = BlockDistribution1D(spec.shape[1], comm.size)
        spec_rows = transpose_to_column_block(comm, spec, field_dist, g_dist)
        gram += spec_rows @ spec_rows.T
    return comm.allreduce(gram)


def distributed_build_vhxc(
    comm: Communicator,
    psi_v_local: np.ndarray,
    psi_c_local: np.ndarray,
    kernel: HxcKernel,
    row_dist: BlockDistribution1D,
) -> np.ndarray:
    """Algorithm 1, lines 2-8: build the replicated ``V_Hxc`` matrix.

    Parameters
    ----------
    psi_v_local / psi_c_local:
        Row-block slabs of the orbitals: ``(N_v, my_rows)`` / ``(N_c, my_rows)``.
    kernel:
        The f_Hxc operator (holds the replicated basis).
    row_dist:
        Grid-row distribution (``n_global == N_r``).
    """
    n_v, my_rows = psi_v_local.shape
    n_c = psi_c_local.shape[0]
    require(my_rows == row_dist.count(comm.rank), "slab/distribution mismatch")

    # Line 2: local face-splitting product, pair-major (N_cv, my_rows).
    z_local = (
        psi_v_local[:, None, :] * psi_c_local[None, :, :]
    ).reshape(n_v * n_c, my_rows)
    return distributed_kernel_gram(comm, z_local, kernel, row_dist)


def distributed_lrtddft_solve(
    comm: Communicator,
    psi_v_local: np.ndarray,
    psi_c_local: np.ndarray,
    eps_v: np.ndarray,
    eps_c: np.ndarray,
    kernel: HxcKernel,
    row_dist: BlockDistribution1D,
    n_excitations: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Full naive distributed solve: Algorithm 1 end-to-end.

    The diagonalization (line 11) runs as the dense SYEVD stand-in on every
    rank (replicated ``V_Hxc``), mirroring how the 2-D block-cyclic solve
    returns replicated eigenpairs.
    """
    vhxc = distributed_build_vhxc(
        comm, psi_v_local, psi_c_local, kernel, row_dist
    )
    h = 2.0 * vhxc
    h[np.diag_indices_from(h)] += pair_energies(
        np.asarray(eps_v, float), np.asarray(eps_c, float)
    )
    return dense_lowest(h, n_excitations)


def distributed_isdf_vtilde(
    comm: Communicator,
    rows_local: np.ndarray,
    v_pts: np.ndarray,
    c_pts: np.ndarray,
    kernel: HxcKernel,
    row_dist: BlockDistribution1D,
) -> np.ndarray:
    """Projected kernel ``Vtilde = Theta^T f_Hxc Theta dV`` from
    grid-distributed fit rows — the optimized version's communication
    pattern.

    ``rows_local`` is this rank's ``(N_mu, my_rows)`` block of the fit rows
    ``M``: :func:`distributed_kernel_gram` over ``N_mu`` fields instead of
    ``N_cv`` gives the replicated ``M f_Hxc M^T dV``, and every rank applies
    the serial :func:`~repro.core.fitting.solve_vtilde` to it with the
    replicated point values ``v_pts`` / ``c_pts``.
    """
    gram = distributed_kernel_gram(comm, rows_local, kernel, row_dist)
    return solve_vtilde(v_pts, c_pts, gram)


def distributed_implicit_solve(
    comm: Communicator,
    isdf: ISDFDecomposition,
    eps_v: np.ndarray,
    eps_c: np.ndarray,
    kernel: HxcKernel,
    row_dist: BlockDistribution1D,
    n_excitations: int,
    *,
    tol: float = 1e-9,
    max_iter: int = 300,
    checkpoint=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Optimized distributed path: grid-distributed fit rows -> Vtilde ->
    replicated implicit LOBPCG (the O(N_mu^2) state is tiny by design).

    Every rank returns identical eigenpairs.

    ``checkpoint`` (optional
    :class:`~repro.resilience.checkpoint.LoopCheckpointer`) snapshots the
    replicated LOBPCG state.  All ranks may share one checkpointer: the
    iterate is replicated, so every rank writes identical snapshots (the
    atomic staging uses per-thread temp names) and every rank resumes from
    the same file, keeping the restarted solve in lockstep.
    """
    from repro.core.implicit import ImplicitCasidaOperator
    from repro.eigen.lobpcg import lobpcg
    from repro.utils.rng import default_rng

    rows_local = isdf.fit_rows[:, row_dist.local_slice(comm.rank)]
    vtilde = distributed_isdf_vtilde(
        comm, rows_local, isdf.psi_v_mu, isdf.psi_c_mu, kernel, row_dist
    )
    op = ImplicitCasidaOperator(isdf, eps_v, eps_c, vtilde=vtilde)

    diag = op.diagonal_d
    k = n_excitations
    x0 = np.zeros((diag.shape[0], k))
    lowest = np.argsort(diag)[:k]
    x0[lowest, np.arange(k)] = 1.0
    x0 += 1e-3 * default_rng(0).standard_normal(x0.shape)
    with blas_threads(1):
        res = lobpcg(
            op.apply, x0, preconditioner=op.preconditioner, tol=tol,
            max_iter=max_iter, checkpoint=checkpoint,
        )
    return res.eigenvalues, res.eigenvectors
