"""Layout changes: the MPI_Alltoall transposes of Algorithm 1 and the
``pdgemr2d`` stand-in for the block-cyclic diagonalization layout.

The central move (paper Fig 3a <-> 3b) converts between

* row-block:    each rank holds ``(my_rows, n_cols)`` — all columns of a
  contiguous slab of grid rows, and
* column-block: each rank holds ``(n_rows, my_cols)`` — all grid rows of a
  contiguous set of columns (pairs),

by cutting the local slab into per-destination tiles and exchanging them
with one ``alltoall`` — exactly the communication pattern (and volume) of
the production code.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.comm import Communicator
from repro.parallel.distributions import BlockCyclic2D, BlockDistribution1D
from repro.utils.validation import require


def transpose_to_column_block(
    comm: Communicator,
    local_rows: np.ndarray,
    row_dist: BlockDistribution1D,
    col_dist: BlockDistribution1D,
) -> np.ndarray:
    """Row-block ``(my_rows, n_cols)`` -> column-block ``(n_rows, my_cols)``.

    Parameters
    ----------
    local_rows:
        This rank's slab: shape ``(row_dist.count(rank), col_dist.n_global)``.
    """
    require(
        local_rows.shape == (row_dist.count(comm.rank), col_dist.n_global),
        f"rank {comm.rank}: slab shape {local_rows.shape} does not match "
        f"({row_dist.count(comm.rank)}, {col_dist.n_global})",
    )
    # My rows cut into the column ranges each destination owns: strided
    # views, each copied once by the exchange.  The tile from ``src`` lands
    # in its own row range of the result.
    out = np.empty(
        (row_dist.n_global, col_dist.count(comm.rank)), dtype=local_rows.dtype
    )
    comm.alltoall(
        [local_rows[:, col_dist.local_slice(dest)] for dest in range(comm.size)],
        recv=[out[row_dist.local_slice(src)] for src in range(comm.size)],
    )
    return out


def transpose_to_row_block(
    comm: Communicator,
    local_cols: np.ndarray,
    row_dist: BlockDistribution1D,
    col_dist: BlockDistribution1D,
) -> np.ndarray:
    """Column-block ``(n_rows, my_cols)`` -> row-block ``(my_rows, n_cols)``."""
    require(
        local_cols.shape == (row_dist.n_global, col_dist.count(comm.rank)),
        f"rank {comm.rank}: block shape {local_cols.shape} does not match "
        f"({row_dist.n_global}, {col_dist.count(comm.rank)})",
    )
    out = np.empty(
        (row_dist.count(comm.rank), col_dist.n_global), dtype=local_cols.dtype
    )
    comm.alltoall(
        [local_cols[row_dist.local_slice(dest)] for dest in range(comm.size)],
        recv=[out[:, col_dist.local_slice(src)] for src in range(comm.size)],
    )
    return out


def allgather_rows(
    comm: Communicator, local_rows: np.ndarray, row_dist: BlockDistribution1D
) -> np.ndarray:
    """Row-block -> fully replicated matrix (Allgather)."""
    pieces = comm.allgather(local_rows)
    require(len(pieces) == row_dist.n_ranks, "distribution/communicator mismatch")
    return np.concatenate(pieces, axis=0)


def gather_matrix(
    comm: Communicator,
    local_rows: np.ndarray,
    row_dist: BlockDistribution1D,
    root: int = 0,
) -> np.ndarray | None:
    """Row-block -> full matrix at ``root`` only (Gather)."""
    pieces = comm.gather(local_rows, root=root)
    if comm.rank != root:
        return None
    return np.concatenate(pieces, axis=0)


def row_block_to_block_cyclic(
    comm: Communicator,
    local_rows: np.ndarray,
    row_dist: BlockDistribution1D,
    desc: BlockCyclic2D,
) -> np.ndarray:
    """The ``pdgemr2d`` analogue: row-block -> 2-D block-cyclic tiles.

    Each source rank cuts its slab by destination ownership and ships the
    pieces with one alltoall.  A destination needs no row indices: the
    rows arriving from ``src`` are the tile rows inside ``src``'s
    contiguous block of ``row_dist``, so they land in one contiguous row
    range of the tile.
    """
    my_global_rows = row_dist.global_indices(comm.rank)
    require(
        local_rows.shape == (my_global_rows.size, desc.n),
        f"rank {comm.rank}: slab shape mismatch",
    )
    chunks = [
        local_rows[
            np.ix_(
                np.isin(my_global_rows, desc.local_rows(dest)),
                desc.local_cols(dest),
            )
        ]
        for dest in range(comm.size)
    ]
    tile_rows = desc.local_rows(comm.rank)
    tile = np.empty(
        (tile_rows.size, desc.local_cols(comm.rank).size), dtype=local_rows.dtype
    )
    bounds = np.searchsorted(
        tile_rows, [row_dist.displacement(src) for src in range(comm.size + 1)]
    )
    comm.alltoall(
        chunks,
        recv=[tile[bounds[src] : bounds[src + 1]] for src in range(comm.size)],
    )
    return tile
