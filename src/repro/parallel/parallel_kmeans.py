"""Distributed weighted K-Means (Section 4.2's parallel formulation).

The paper: *"the classification step ... can be locally computed for each
group of grid points. After this step, the weighted sum and total weight of
all clusters can be reduced ... and broadcasted to all processors for the
next iteration."*

Implementation: candidate grid points are row-block partitioned and each
rank runs the shared bound-pruned loop of
:func:`repro.core.kmeans.weighted_kmeans` on its slab; the Hamerly bounds
are per point, so they stay local.  :class:`CommReducer` turns the loop's
cross-point steps into one Allreduce per iteration (cluster statistics,
inertia and changed flag in one block) plus one-off collectives for the
bound slack and empty-cluster reseeds.  Labels equal the
serial ones; centroids agree to rounding.
"""

from __future__ import annotations

import numpy as np

from repro.core.kmeans import _init_greedy_weight, weighted_kmeans
from repro.parallel.comm import Communicator
from repro.parallel.distributions import BlockDistribution1D
from repro.utils.validation import require


class CommReducer:
    """The cross-point steps of :func:`weighted_kmeans` as collectives.

    ``offset`` is the global index of this rank's first point, so reseed
    ties resolve exactly as in the serial loop.
    """

    def __init__(self, comm: Communicator, offset: int) -> None:
        self.comm = comm
        self.offset = offset

    def sum(self, array: np.ndarray) -> np.ndarray:
        return self.comm.allreduce(array)

    def max(self, value: float) -> float:
        return float(self.comm.allreduce(np.array([value]), op="max")[0])

    def min(self, array: np.ndarray) -> np.ndarray:
        return self.comm.allreduce(array, op="min")

    def worst(self, penalty: np.ndarray, points: np.ndarray, n: int) -> np.ndarray:
        top = np.argsort(-penalty, kind="stable")[:n]
        mine = [(-float(penalty[i]), self.offset + int(i), points[i]) for i in top]
        merged = sorted(
            (c for rank_c in self.comm.allgather(mine) for c in rank_c),
            key=lambda c: c[:2],
        )
        return np.array([c[2] for c in merged[:n]])


def distributed_kmeans(
    comm: Communicator,
    local_points: np.ndarray,
    local_weights: np.ndarray,
    n_clusters: int,
    dist: BlockDistribution1D,
    *,
    max_iter: int = 100,
    initial_centroids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float, int, bool]:
    """Weighted K-Means over row-distributed candidate points.

    Parameters
    ----------
    local_points / local_weights:
        This rank's slab of the candidate set (``dist`` describes the split).
    n_clusters:
        Number of clusters N_mu.
    initial_centroids:
        ``(n_clusters, d)`` warm-start centroids, replicated on every rank
        (e.g. the converged centroids of the previous trajectory frame).
        Skips the gather + greedy seeding entirely.

    Returns
    -------
    ``(centroids, local_labels, inertia, n_iter, converged)`` — centroids
    and inertia are replicated; labels cover the local slab only.
    """
    require(
        local_points.shape[0] == dist.count(comm.rank),
        f"rank {comm.rank}: point count does not match distribution",
    )
    require(local_weights.shape == (local_points.shape[0],), "weights mismatch")
    n_total = dist.n_global
    require(0 < n_clusters <= n_total, f"n_clusters must be in [1, {n_total}]")

    if initial_centroids is None:
        # Greedy seeding on the gathered (already pruned, N_r' << N_r)
        # candidates: the only time points are gathered.
        all_points = np.concatenate(comm.allgather(local_points), axis=0)
        all_weights = np.concatenate(comm.allgather(local_weights))
        initial_centroids = all_points[_init_greedy_weight(all_points, all_weights, n_clusters)]

    return weighted_kmeans(
        local_points, local_weights, n_clusters, initial_centroids=initial_centroids,
        max_iter=max_iter, reduce=CommReducer(comm, dist.displacement(comm.rank)),
    )
