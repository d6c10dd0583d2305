"""Pipelined GEMM + MPI_Reduce (paper Section 5.3, Figures 4-5).

The optimization: instead of one monolithic GEMM followed by one blocking
``MPI_Allreduce`` of the full ``V_Hxc``, split the output into row blocks;
as soon as a block's partial GEMM finishes, reduce it to the single rank
that owns that block.  Two wins the paper claims, both realized here:

* **memory** — each rank stores only its ``N_cv / P`` rows of ``V_Hxc``
  (Figure 4's data-partitioning change), and
* **overlap** — compute of block ``b+1`` proceeds while block ``b`` is in
  flight.  The reduce is posted with the nonblocking
  :meth:`~repro.parallel.comm.Communicator.ireduce` and only waited on
  after the loop: under the process backend
  (``spmd_run(..., backend="process")``) the owner's combine genuinely
  runs while other ranks are still in their next GEMM; under the thread
  backend the schedule, message sizes and reduction roots are identical,
  which is what the cost model and the bit-identity tests consume.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.comm import Communicator, ReduceHandle
from repro.parallel.distributions import BlockDistribution1D
from repro.utils.hot import array_contract
from repro.utils.validation import require


@array_contract(
    shapes={
        "z_local": ("n_rows_local", "n_pairs"),
        "k_local": ("n_rows_local", "n_pairs"),
    },
    dtypes={"z_local": "float64", "k_local": "float64"},
    contiguous=("z_local", "k_local"),
)
def pipelined_vhxc_rows(
    comm: Communicator,
    z_local: np.ndarray,
    k_local: np.ndarray,
    dv: float,
    *,
    out_dist: BlockDistribution1D | None = None,
) -> tuple[np.ndarray, BlockDistribution1D]:
    """Blocked ``V_Hxc = dV * Z^T K`` with per-block Reduce to the owner.

    Parameters
    ----------
    z_local / k_local:
        Row-block slabs ``(my_rows, N_cv)`` of the pair matrix and the
        kernel-applied pair matrix.
    out_dist:
        Ownership of the output rows; defaults to the near-even block split
        of ``N_cv`` over the communicator.

    Returns
    -------
    ``(my_vhxc_rows, out_dist)`` — this rank's owned rows of ``V_Hxc``
    (shape ``(out_dist.count(rank), N_cv)``).
    """
    require(z_local.shape == k_local.shape, "Z/K slab shape mismatch")
    n_pairs = z_local.shape[1]
    if out_dist is None:
        out_dist = BlockDistribution1D(n_pairs, comm.size)
    require(out_dist.n_global == n_pairs, "output distribution mismatch")

    my_handle: ReduceHandle | None = None
    partial: np.ndarray | None = None
    zt_block: np.ndarray | None = None
    for owner in range(comm.size):
        rows = out_dist.local_slice(owner)
        n_block = rows.stop - rows.start  # repro-lint: disable=no-alloc-in-hot -- scalar slice arithmetic, no array temporary
        # Partial GEMM for this block only (Figure 5's per-block compute),
        # written into a buffer reused across blocks of equal height so the
        # pipeline allocates O(1) blocks regardless of the rank count...
        if partial is None or partial.shape[0] != n_block:
            partial = np.empty((n_block, n_pairs))  # repro-lint: disable=no-alloc-in-hot -- guarded buffer (re)allocation: runs only when the block height changes, O(1) times per run
            zt_block = np.empty((n_block, z_local.shape[0]))  # repro-lint: disable=no-alloc-in-hot -- guarded staging buffer, same O(1) reallocation policy as `partial`
        # Stage the column-block transpose into a C-contiguous buffer so
        # the GEMM consumes contiguous operands instead of an lda-strided
        # view (the hidden copy BLAS would otherwise pack per call).
        np.copyto(zt_block, z_local[:, rows].T)
        np.matmul(zt_block, k_local, out=partial)
        partial *= dv
        # ...posted as a nonblocking Reduce to the owning rank (MPI_Reduce
        # + overlap, not Allreduce: nobody else needs these rows — Figure
        # 4).  The contribution is captured at post time, so reusing
        # ``partial`` for the next block is safe, and the next GEMM starts
        # while this block is still in flight.
        handle = comm.ireduce(partial, root=owner)
        if comm.rank == owner:
            my_handle = handle
    my_rows = my_handle.wait() if my_handle is not None else None
    assert my_rows is not None or out_dist.count(comm.rank) == 0
    if my_rows is None:
        my_rows = np.zeros((0, n_pairs))  # repro-lint: disable=no-alloc-in-hot -- empty placeholder for ranks owning zero rows
    return my_rows, out_dist


def pipelined_vhxc_full(
    comm: Communicator,
    z_local: np.ndarray,
    k_local: np.ndarray,
    dv: float,
) -> np.ndarray:
    """Convenience: pipelined build followed by an Allgather of the rows
    (for tests comparing against the monolithic Allreduce path)."""
    my_rows, out_dist = pipelined_vhxc_rows(comm, z_local, k_local, dv)
    pieces = comm.allgather(my_rows)
    return np.concatenate(pieces, axis=0)
