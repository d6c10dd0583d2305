"""Distributed LR-TDDFT Hamiltonian construction — the paper's Algorithm 1.

The rank program:

1. wavefunctions arrive row-block distributed (grid rows),
2. the face-splitting product is computed locally (row-block pairs),
3. :func:`distributed_kernel_gram` forms ``V_Hxc = Z f_Hxc Z^T dV`` from
   the pairs:

   - the f_xc half is a local weighted Gram over this rank's grid rows
     (f_xc is diagonal in real space, so it needs no exchange);
   - the Hartree half is a slab-decomposed 3-D transform of the pairs'
     spectra, scaled so that by Parseval it is a real Gram of them (no
     inverse FFT): per ``k3``-slab each rank z-transforms its own
     z-lines, one ``MPI_Alltoall`` sends each plane to the rank that
     finishes it, and a local SYRK adds that rank's share;
   - ``MPI_Allreduce`` sums the exactly symmetric partials;

4. the Hamiltonian diagonal is added and the matrix diagonalized (dense on
   the root for the naive version; the optimized version runs distributed
   LOBPCG on the ISDF-compressed operator,
   :func:`repro.parallel.parallel_isdf.distributed_optimized_lrtddft`).

So the paper's lines 3-7 (transpose, FFT, ``4 pi / G^2``, inverse FFT,
transpose back, GEMM) no longer run as written: one exchange per slab
carries z-spectra, and no fields or kernel-applied fields move
(THEORY §7).  The ISDF variant
(:func:`distributed_isdf_vtilde`) runs the same Gram on the ``N_mu`` fit
rows instead of the ``N_cv`` pairs — that is the entire point of the
paper — and solves the replicated ``N_mu x N_mu`` result for ``Vtilde``.
"""

from __future__ import annotations

import numpy as np

from repro.core.fitting import solve_vtilde
from repro.core.kernel import HxcKernel
from repro.core.pair_products import pair_energies
from repro.eigen.dense import dense_lowest
from repro.parallel.comm import Communicator
from repro.parallel.distributions import BlockDistribution1D
from repro.pw.fft import line_span
from repro.utils.linalg import weighted_gram
from repro.utils.validation import require


class CommPlanes:
    """The exchange of :meth:`~repro.pw.fft.ConvolutionPlan.block_gram`
    over grid blocks: one alltoall per ``k3``-slab sends each plane of
    the ranks' z-transforms to the rank that finishes it.

    A rank's planes of slab ``[lo, hi)`` are its count in a block split of
    the first ``hi`` planes minus its count in a split of the first
    ``lo``: even to one plane per slab, and over all slabs one block split
    of the ``n3 // 2 + 1`` planes.  The chunks are views of the
    z-transform.  Each source's tile lands in the rows of its z-lines,
    except that a source whose first line an earlier rank holds part of
    lands in scratch; the owner then adds that line's parts in rank order
    and copies the rest of the tile.  :class:`repro.pw.fft.SerialPlanes`
    is the 1-rank case.
    """

    def __init__(
        self, comm: Communicator, grid_dist: BlockDistribution1D, n3: int
    ) -> None:
        self.comm = comm
        self.start = grid_dist.displacement(comm.rank)
        self.n_lines = grid_dist.n_global // n3
        blocks = [grid_dist.local_slice(r) for r in range(comm.size)]
        self.spans = [line_span(b.start, b.stop, n3) for b in blocks]
        self.shared = [b.stop > b.start and b.start % n3 != 0 for b in blocks]

    def shares(self, lo: int, hi: int) -> list[slice]:
        """Every rank's planes of slab ``[lo, hi)``."""
        size = self.comm.size
        before = BlockDistribution1D(lo, size)
        after = BlockDistribution1D(hi, size)
        edges = [
            lo + after.displacement(r) - before.displacement(r)
            for r in range(size + 1)
        ]
        return [slice(a, b) for a, b in zip(edges, edges[1:])]

    def planes(self, lo: int, hi: int) -> slice:
        return self.shares(lo, hi)[self.comm.rank]

    def __call__(self, zt: np.ndarray, lo: int, hi: int) -> np.ndarray:
        shares = self.shares(lo, hi)
        mine = shares[self.comm.rank]
        m = zt.shape[0]
        spec = np.empty((m, self.n_lines, mine.stop - mine.start), dtype=complex)
        recv, late = [], []
        for span, shared in zip(self.spans, self.shared):
            if shared:
                recv.append(np.empty((m, len(span), spec.shape[2]), dtype=complex))
                late.append((span, recv[-1]))
            else:
                recv.append(spec[:, span.start : span.stop])
        self.comm.alltoall(
            [zt[:, :, s.start - lo : s.stop - lo] for s in shares], recv=recv
        )
        for span, tile in late:
            spec[:, span.start] += tile[:, 0]
            spec[:, span.start + 1 : span.stop] = tile[:, 1:]
        return spec


def distributed_kernel_gram(
    comm: Communicator,
    rows_local: np.ndarray,
    kernel: HxcKernel,
    grid_dist: BlockDistribution1D,
) -> np.ndarray:
    """Replicated ``rows f_Hxc rows^T dV`` from field-major grid slabs.

    ``rows_local`` is ``(m, my_grid_points)``: all ``m`` fields over this
    rank's block of ``grid_dist``.  The result equals the serial
    :meth:`HxcKernel.gram` to rounding (on one rank, bit for bit) and is
    exactly symmetric.

    * Hartree half — :meth:`ConvolutionPlan.block_gram` with
      :class:`CommPlanes`: per ``k3``-slab, this rank z-transforms its own
      z-lines, one alltoall sends each plane to the rank that finishes it
      (``fft2``, scale, SYRK).  No field transpose and no inverse FFT.
      Ranks that own no plane of a slab still take part in its exchange.
    * f_xc half — :func:`weighted_gram` on the local grid columns.
    * One allreduce of the summed partials.
    """
    m, my_points = rows_local.shape
    require(my_points == grid_dist.count(comm.rank), "slab/distribution mismatch")
    gram = np.zeros((m, m))
    plan = kernel.coulomb_plan
    if plan is not None:
        exchange = CommPlanes(comm, grid_dist, kernel.basis.grid.shape[2])
        gram += plan.block_gram(rows_local, exchange)
    fxc = kernel.fxc_diagonal
    if fxc is not None:
        weights = fxc[grid_dist.local_slice(comm.rank)] * kernel.basis.grid.dv
        gram += weighted_gram(rows_local, weights)
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

