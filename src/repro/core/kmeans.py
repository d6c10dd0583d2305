"""Weighted K-Means interpolation-point selection (Section 4.2).

The paper's replacement for QRCP: cluster the real-space grid points into
``N_mu`` groups under the weight ``w(r) = (sum_v |psi_v|^2)(sum_c |psi_c|^2)``
(Eq. 14 — the squared row norms of the pair matrix), then take one
representative point per cluster.  Three ingredients the paper calls out:

1. **weight pruning** — ``w`` is numerically sparse for plane-wave systems;
   points below ``prune_threshold * max(w)`` are removed before clustering,
   shrinking the working set from N_r to N_r' << N_r,
2. **weight-aware initialization** — centroids are seeded from
   high-weight points (greedy highest-weight with a minimum-separation
   rule, or weighted k-means++), never uniformly at random,
3. **weighted Lloyd iterations** — assignment by squared Euclidean
   distance (Eq. 12), centroid update by the weighted mean (Eq. 13).

A full classification costs ``O(N_mu N_r')`` and the loop is embarrassingly
data-parallel: its few cross-point steps go through a reducer, the
identity here and collectives in the distributed version
(:func:`repro.parallel.parallel_kmeans.distributed_kmeans`).

Two execution strategies share one code path (``algorithm=``):

* ``"lloyd"`` — the naive full-classification loop: every iteration
  evaluates all ``N_r' x N_mu`` distances (in cache-sized tiles).
* ``"hamerly"`` (default) — bound-pruned Lloyd: each point carries a
  lower bound on its distance to every centroid but its own, maintained
  with per-iteration centroid drifts; its exact distance to its own
  centroid is the upper bound.  Points whose bounds prove the assignment
  cannot change skip classification entirely.  The rest are
  *neighbour-restricted*: a point at distance ``u`` from its centroid
  ``c_a`` can only move to a centroid within ``2u`` of ``c_a`` (triangle
  inequality), so it is compared with that handful of nearest neighbours
  of ``c_a`` instead of all ``N_mu`` centroids.  No point is ever compared
  with all ``N_mu`` centroids just to seed its bounds: the first iteration
  starts each point from the centroid of its cell in a coarse bucket grid
  and reaches the full argmin through the same restricted classification.
  The neighbour lists are built once and kept across iterations with each
  centroid's accumulated drift ``D``; ``edge - D_a - max D`` still bounds
  the distance from ``c_a`` to every centroid outside a block, and the
  lists are rebuilt only once ``max D`` passes a fixed fraction of the
  typical neighbour spacing.

Every distance is the difference form ``sum_d (x_d - c_d)^2``, evaluated
by the same per-pair arithmetic whatever the array shape, tile or
neighbour block it is computed in, and both strategies break ties toward
the lowest centroid index.  So a bound or neighbour list only ever skips
centroids that provably lose, and ``"hamerly"`` is bit-identical to
``"lloyd"`` (labels, centroids, inertia, iteration count) by
construction; neither depends on ``tile_bytes``, which only bounds the
distance tile either materializes at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pair_products import pair_weights
from repro.utils.rng import default_rng
from repro.utils.validation import require


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of weighted K-Means point selection.

    Attributes
    ----------
    indices:
        ``(n_mu,)`` selected grid-point indices into the *full* grid
        (cluster representatives), sorted ascending.
    centroids:
        ``(n_mu, 3)`` final centroid coordinates.
    labels:
        Cluster assignment of every *pruned* candidate point.
    candidate_indices:
        Indices of the pruned candidate set into the full grid.
    inertia:
        Final weighted objective (Eq. 11).
    n_iter:
        Lloyd iterations performed.
    converged:
        Whether assignments stabilized before ``max_iter``.
    """

    indices: np.ndarray
    centroids: np.ndarray
    labels: np.ndarray
    candidate_indices: np.ndarray
    inertia: float
    n_iter: int
    converged: bool


def _sq_dists(x, c) -> np.ndarray:
    """``sum_d (x[d] - c[d])**2`` over the leading (coordinate) axis.

    The one per-pair expression behind every distance in this module: the
    coordinates are summed in order, with no clamp, so a pair's value never
    depends on the shape, tile or gather it is evaluated in.
    """
    d2 = diff = None
    for xd, cd in zip(x, c):
        diff = np.subtract(xd, cd, out=diff)
        np.multiply(diff, diff, out=diff)
        if d2 is None:
            d2, diff = diff, None
        else:
            d2 += diff
    return d2


def _pairwise_sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(n_points, n_centroids)`` squared Euclidean distances."""
    return _sq_dists(points.T[:, :, None], centroids.T[:, None, :])


def _assigned_sq_dists(
    points: np.ndarray, centroids: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Squared distance of every point to its assigned centroid."""
    return _sq_dists(points.T, (column[labels] for column in centroids.T))


def _greedy_walk(
    points: np.ndarray, candidates: np.ndarray, n_mu: int, r_min: float
) -> np.ndarray:
    """Seeds of the greedy walk over ``candidates`` (in walking order).

    A candidate is accepted if it is at least ``r_min`` from every seed
    accepted before it; returns up to ``n_mu`` of them.
    """
    sub = points[candidates]
    # Candidates sorted by x: only those in the slab |x - x_seed| <= r_min
    # of a new seed can become blocked by it.
    by_x = np.argsort(sub[:, 0], kind="stable")
    sorted_points, sorted_x = sub[by_x], sub[by_x, 0]
    position = np.empty_like(by_x)
    position[by_x] = np.arange(by_x.size)
    # A running distance to the accepted set (x-sorted): O(1) test per
    # candidate, one vectorized update of the seed's slab per acceptance.
    # The slab is widened by 1% so rounding can never leave out a point
    # within r_min.
    chosen: list[int] = []
    min_d2 = np.full(candidates.size, np.inf)
    threshold = r_min * r_min
    for start in range(0, candidates.size, _SEED_CHUNK):
        # min_d2 only falls as seeds are accepted, so a candidate already
        # within r_min of the accepted set stays rejected: one vectorized
        # test drops those, and only the rest are walked one by one.
        chunk = position[start : start + _SEED_CHUNK]
        for k in start + np.flatnonzero(min_d2[chunk] >= threshold):
            if min_d2[position[k]] < threshold:
                continue
            chosen.append(int(candidates[k]))
            if len(chosen) == n_mu:
                return np.asarray(chosen, dtype=np.int64)
            x = sub[k, 0]
            lo, hi = np.searchsorted(sorted_x, (x - 1.01 * r_min, x + 1.01 * r_min))
            delta = sorted_points[lo:hi] - sub[k]
            np.minimum(
                min_d2[lo:hi], np.einsum("ij,ij->i", delta, delta),
                out=min_d2[lo:hi],
            )
    return np.asarray(chosen, dtype=np.int64)


def _init_greedy_weight(
    points: np.ndarray, weights: np.ndarray, n_mu: int
) -> np.ndarray:
    """Greedy highest-weight seeding with a minimum-separation rule.

    Walk candidates in decreasing weight, accepting a point only if it is
    farther than ``r_min`` from every accepted seed, where ``r_min`` is set
    so ``n_mu`` spheres roughly tile the candidate bounding box.  If the
    separation rule exhausts candidates, it is relaxed geometrically.

    Only candidates up to the last accepted seed are ever tested, so the
    walk runs over the heaviest ``_SEED_PREFIX * n_mu`` first and restarts
    on a four times longer prefix until it yields ``n_mu`` seeds; a seed's
    test depends only on the seeds before it, so the restarts repeat the
    same decisions and the seeds are exactly those of a walk over all
    candidates.
    """
    order = np.argsort(weights)[::-1]
    span = np.ptp(points[order[: max(4 * n_mu, 64)]], axis=0)
    volume = float(np.prod(np.where(span > 0, span, 1.0)))
    r_min = 0.5 * (volume / max(n_mu, 1)) ** (1.0 / 3.0)
    while True:
        prefix = min(order.size, _SEED_PREFIX * n_mu)
        while True:
            chosen = _greedy_walk(points, order[:prefix], n_mu, r_min)
            if chosen.size == n_mu:
                return chosen
            if prefix == order.size:
                break
            prefix = min(order.size, 4 * prefix)
        r_min *= 0.7
        if r_min < 1e-8:
            # Degenerate geometry: just take the top-weight points.
            return order[:n_mu].copy()


def _init_plusplus(
    points: np.ndarray,
    weights: np.ndarray,
    n_mu: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Weighted k-means++ seeding (probability ∝ w(r) * dist^2)."""
    n = points.shape[0]
    chosen = np.empty(n_mu, dtype=np.int64)
    chosen[0] = int(np.argmax(weights))
    d2 = _pairwise_sq_dists(points, points[chosen[:1]])[:, 0]
    for k in range(1, n_mu):
        prob = weights * d2
        total = prob.sum()
        if total <= 0.0:
            # All remaining mass collapsed: pick the farthest point.
            chosen[k] = int(np.argmax(d2))
        else:
            chosen[k] = int(rng.choice(n, p=prob / total))
        d2 = np.minimum(d2, _pairwise_sq_dists(points, points[chosen[k : k + 1]])[:, 0])
    return chosen


#: Default cap on the materialized distance-tile size (bytes of float64):
#: cache-sized, so a tile and its scratch stay in a core's L2 (per-pair
#: values do not depend on the tile).
DEFAULT_TILE_BYTES = 1 << 19  # 512 KiB

#: fp64 slack of the bound tests, ``_BOUND_RTOL (X + 1) + _BOUND_EPS X`` for
#: the largest point or centroid norm ``X``: covers the rounding of the
#: difference-form distances and of the bound bookkeeping, so the bounds and
#: neighbour lists never skip a centroid the full classification would pick.
_BOUND_RTOL = 1e-12
_BOUND_EPS = 64.0 * np.finfo(float).eps

#: Neighbour-list sizes of the restricted classification, below ``N_mu``.
_NEIGHBOUR_BLOCKS = (4, 8, 16, 32, 64, 128, 256)

#: The neighbour lists are rebuilt once the largest accumulated centroid
#: drift passes this fraction of the median nearest-neighbour spacing: the
#: drift-corrected block edges shrink by up to twice that drift.
_REBUILD_DRIFT = 0.25

#: Bucket cells per centroid of the first iteration's starting labels.
_CELLS_PER_CENTROID = 2

#: Candidates of the greedy seeding's weight order tested per vectorized pass.
_SEED_CHUNK = 256

#: Heaviest candidates per seed the greedy seeding first walks over.
_SEED_PREFIX = 16


def _classify_tiled(
    points: np.ndarray, centroids: np.ndarray, tile_bytes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid classification, one distance tile at a time.

    Returns ``(labels, d2_nearest)`` (ties: lowest centroid index); the
    ``N x N_mu`` matrix never exists beyond one ``tile_bytes`` tile.
    """
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    d2_near = np.empty(n)
    tile_rows = max(1, int(tile_bytes) // (8 * max(centroids.shape[0], 1)))
    for start in range(0, n, tile_rows):
        stop = min(start + tile_rows, n)
        d2 = _pairwise_sq_dists(points[start:stop], centroids)
        lab = np.argmin(d2, axis=1)
        labels[start:stop] = lab
        d2_near[start:stop] = d2[np.arange(stop - start), lab]
    return labels, d2_near


class _NeighbourLists:
    """Index-sorted neighbour blocks of every centroid, kept across iterations.

    ``members[j][a]`` holds the ``blocks[j]`` nearest neighbours of centroid
    ``a`` in index order and ``edge[j, a]`` the distance from ``a`` to its
    first neighbour past that block, both at the centroids the lists were
    built on.  ``drift[a]`` accumulates how far ``a`` has moved since, so by
    the triangle inequality :meth:`edges` -- ``edge - drift[a] - max(drift)``
    -- still bounds the distance from the current ``a`` to every current
    centroid outside the block from below.  The build holds one row chunk of
    at most ``tile_bytes`` of centroid distances at a time.
    """

    def __init__(self, centroids: np.ndarray, tile_bytes: int) -> None:
        n_mu = centroids.shape[0]
        self.blocks = [b for b in _NEIGHBOUR_BLOCKS if b < n_mu]
        self.members = [np.empty((n_mu, b), dtype=np.int64) for b in self.blocks]
        self.edge = np.empty((len(self.blocks), n_mu))
        nearest = np.empty(n_mu)
        rows = max(1, int(tile_bytes) // (8 * n_mu))
        for start in range(0, n_mu, rows):
            stop = min(start + rows, n_mu)
            dist = np.sqrt(_pairwise_sq_dists(centroids[start:stop], centroids))
            order = np.argsort(dist, axis=1)
            for j, b in enumerate(self.blocks):
                self.members[j][start:stop] = np.sort(order[:, :b], axis=1)
            ranked = np.take_along_axis(dist, order, axis=1)
            self.edge[:, start:stop] = ranked[:, self.blocks].T
            nearest[start:stop] = ranked[:, min(1, n_mu - 1)]
        self.spacing = float(np.median(nearest))
        self.drift = np.zeros(n_mu)

    def edges(self) -> np.ndarray:
        """``(len(blocks), N_mu)`` block edges corrected for the drift."""
        return self.edge - (self.drift + self.drift.max(initial=0.0))

    def stale(self) -> bool:
        """Whether the drift has eaten enough of the edges to rebuild."""
        return bool(self.blocks) and (
            self.drift.max(initial=0.0) > _REBUILD_DRIFT * self.spacing
        )


def _bucket_labels(
    points: np.ndarray, centroids: np.ndarray, tile_bytes: int
) -> np.ndarray:
    """A nearby centroid for every point, from a coarse grid of buckets.

    About ``_CELLS_PER_CENTROID * N_mu`` cubic cells cover the centroids'
    bounding box; each cell takes the centroid nearest its centre and each
    point the label of the cell it falls in (clipped to the box).  Any label
    is a valid start for :func:`_classify_near`; a near one keeps the
    neighbour blocks small.  O(N + cells N_mu) work on replicated centroids.
    """
    n_mu, dim = centroids.shape
    lo = centroids.min(axis=0)
    span = centroids.max(axis=0) - lo
    extent = span[span > 0]
    if not extent.size:
        return np.zeros(points.shape[0], dtype=np.int64)
    cells = _CELLS_PER_CENTROID * n_mu
    scale = float(extent.max())
    side = scale * float(np.prod(extent / scale) / cells) ** (1.0 / extent.size)
    shape = np.maximum(np.ceil(span / side), 1)
    while shape.prod() > 2 * cells:
        # A thin box: coarsen until the cell count is back near ``cells``.
        side *= 1.25
        shape = np.maximum(np.ceil(span / side), 1)
    shape = shape.astype(np.int64)
    axes = [lo[d] + side * (np.arange(shape[d]) + 0.5) for d in range(dim)]
    centres = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, dim)
    cell_labels = np.empty(centres.shape[0], dtype=np.int64)
    rows = max(1, int(tile_bytes) // (8 * n_mu))
    for start in range(0, centres.shape[0], rows):
        d2 = _pairwise_sq_dists(centres[start : start + rows], centroids)
        cell_labels[start : start + rows] = np.argmin(d2, axis=1)
    cell = np.zeros(points.shape[0], dtype=np.int64)
    for d in range(dim):
        index = np.floor((points[:, d] - lo[d]) / side)
        cell = cell * shape[d] + np.clip(index, 0, shape[d] - 1).astype(np.int64)
    return cell_labels[cell]


def _classify_near(
    points: np.ndarray,
    centroids: np.ndarray,
    labels: np.ndarray,
    upper: np.ndarray,
    slack: float,
    neighbours: _NeighbourLists,
    tile_bytes: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest centroid of each point among those that can beat its own.

    ``upper[i]`` bounds the distance of point ``i`` to its centroid
    ``c_a``, ``a = labels[i]``, from above, so a centroid farther than
    ``2 upper[i] + slack`` from ``c_a`` is farther from the point than
    ``c_a``.  Each point is compared with the nearest 4, 8, ..., 256 or all
    neighbours of ``c_a`` in ``neighbours``: the smallest block whose
    drift-corrected edge reaches past that radius.  Returns ``(labels,
    d2_nearest, lower)`` with the full argmin's labels (ties: lowest
    centroid index), their squared distances, and ``lower`` bounding the
    distance to every other centroid from below.  Each block is evaluated
    in row chunks of at most ``tile_bytes`` of distances, so any number of
    points stays within a few tiles (beside the block's centroid
    coordinates, the size of the neighbour lists).
    """
    n_mu = centroids.shape[0]
    edge = neighbours.edges()
    reach = 2.0 * upper + slack
    # The edges grow with the block, so the smallest block reaching past
    # the radius is the count of those that do not: an index into
    # [*blocks, N_mu], the last one with no edge.
    size = np.zeros(labels.size, dtype=np.int8)
    for past in edge:
        size += past[labels] <= reach
    edge = np.vstack([edge, np.full(n_mu, np.inf)])
    columns = np.ascontiguousarray(centroids.T)
    new_labels = np.empty(labels.size, dtype=np.int64)
    d2_near = np.empty(labels.size)
    lower = np.empty(labels.size)
    for j, b in enumerate([*neighbours.blocks, n_mu]):
        members = np.flatnonzero(size == j)
        if not members.size:
            continue
        if b < n_mu:
            # The block's coordinates for the centroids in use, each row in
            # index order so the argmin breaks ties to the lowest index.
            used = np.bincount(labels[members], minlength=n_mu) > 0
            row = np.cumsum(used) - 1
            block = neighbours.members[j][used]
            coords = columns[:, block]
        rows = max(1, int(tile_bytes) // (8 * b))
        for start in range(0, members.size, rows):
            sel = members[start : start + rows]
            x = np.take(points, sel, axis=0).T[:, :, None]
            if b < n_mu:
                r = row[labels[sel]]
                d2 = _sq_dists(x, (np.take(c, r, axis=0) for c in coords))
            else:
                d2 = _sq_dists(x, columns[:, None, :])
            pick = np.arange(sel.size)
            nearest = np.argmin(d2, axis=1)
            new_labels[sel] = block[r, nearest] if b < n_mu else nearest
            d2_near[sel] = d2[pick, nearest]
            d2[pick, nearest] = np.inf
            # Centroids outside the block lie past its corrected edge.
            lower[sel] = np.minimum(
                np.sqrt(d2.min(axis=1)), edge[j, labels[sel]] - upper[sel]
            )
    return new_labels, d2_near, lower


def classify_points(
    points: np.ndarray,
    centroids: np.ndarray,
    *,
    tile_bytes: int = DEFAULT_TILE_BYTES,
) -> np.ndarray:
    """Nearest-centroid labels for ``points`` (one tiled classification).

    The assignment half of a single Lloyd iteration, exposed for drift
    checks: warm-start consumers compare these labels against the labels
    stored with a previous clustering to decide whether interpolation
    points must be re-selected.
    """
    require(points.ndim == 2, "points must be (n, d)")
    require(centroids.ndim == 2, "centroids must be (k, d)")
    return _classify_tiled(points, centroids, tile_bytes)[0]


class SerialReducer:
    """The cross-point steps of :func:`weighted_kmeans`, all points local.

    Sums, maxima and minima over the point slabs are the identity here;
    :class:`repro.parallel.parallel_kmeans.CommReducer` runs them as
    collectives.
    """

    def sum(self, array: np.ndarray) -> np.ndarray:
        return array

    def max(self, value: float) -> float:
        return value

    def min(self, array: np.ndarray) -> np.ndarray:
        return array

    def worst(self, penalty: np.ndarray, points: np.ndarray, n: int) -> np.ndarray:
        """The ``n`` points of largest ``penalty`` (ties: lowest index)."""
        return points[np.argsort(-penalty, kind="stable")[:n]]


_SERIAL = SerialReducer()


def weighted_kmeans(
    points: np.ndarray,
    weights: np.ndarray,
    n_clusters: int,
    *,
    init: str = "greedy-weight",
    initial_centroids: np.ndarray | None = None,
    max_iter: int = 100,
    tol: float = 0.0,
    rng: np.random.Generator | None = None,
    algorithm: str = "hamerly",
    tile_bytes: int = DEFAULT_TILE_BYTES,
    reduce=_SERIAL,
) -> tuple[np.ndarray, np.ndarray, float, int, bool]:
    """Weighted Lloyd iterations (Eqs. 11-13), optionally bound-pruned.

    Returns ``(centroids, labels, inertia, n_iter, converged)``.
    Empty clusters are reseeded at the points with the largest weighted
    distance to their current centroid (ties: lowest index first).

    Parameters
    ----------
    initial_centroids:
        ``(n_clusters, d)`` starting centroids (``init="warm"`` is implied
        when given).  This is the cross-calculation warm start: seeding from
        a nearby converged clustering collapses the iteration count to the
        few steps needed to track the perturbation.  The first iteration
        classifies every point afresh (from its bucket centroid, through the
        neighbour-restricted classification), so the Hamerly bounds are
        re-seeded consistently.
    algorithm:
        ``"hamerly"`` (default) skips the classification for points whose
        distance bounds prove the assignment is unchanged and compares the
        rest with their centroid's neighbours only; ``"lloyd"`` classifies
        every point against every centroid every iteration.  Results are
        bit-identical (see the module docstring).
    tile_bytes:
        Upper bound on the distance tile of a full classification and on
        each row chunk of a neighbour-restricted one (also in the first
        iteration, when every point is classified); the ``N x N_mu``
        matrix is never allocated at once.  Results do not depend on it.
    reduce:
        A :class:`SerialReducer` or a distributed one with its methods; then
        ``points``/``weights`` and the returned labels are this rank's slab,
        and ``initial_centroids`` (required) and the other outputs are
        replicated.
    """
    require(points.ndim == 2, "points must be (n, d)")
    n = points.shape[0]
    if reduce is _SERIAL:
        require(0 < n_clusters <= n, f"n_clusters must be in [1, {n}]")
    else:
        require(initial_centroids is not None, "reduce needs initial_centroids")
    weights = np.asarray(weights, dtype=float)
    require(weights.shape == (n,), "weights/points mismatch")
    require((weights >= 0).all(), "weights must be non-negative")
    require(algorithm in ("hamerly", "lloyd"), f"unknown algorithm {algorithm!r}")
    require(tile_bytes > 0, "tile_bytes must be positive")

    rng = rng or default_rng()
    if initial_centroids is not None or init == "warm":
        require(
            initial_centroids is not None,
            "init='warm' needs initial_centroids",
        )
        centroids = np.array(initial_centroids, dtype=float, copy=True)
        require(
            centroids.shape == (n_clusters, points.shape[1]),
            f"initial_centroids must be ({n_clusters}, {points.shape[1]}), "
            f"got {centroids.shape}",
        )
    elif init == "greedy-weight":
        centroids = points[_init_greedy_weight(points, weights, n_clusters)].copy()
    elif init == "plusplus":
        centroids = points[_init_plusplus(points, weights, n_clusters, rng)].copy()
    else:
        raise ValueError(f"unknown init {init!r}")

    labels = np.full(n, -1, dtype=np.int64)
    inertia = np.inf
    converged = False
    iteration = 0
    # Hamerly state: lower[i] bounds the distance of point i to every centroid
    # but its own from below, and the neighbour lists of the centroids.
    x_max = reduce.max(float(np.linalg.norm(points, axis=1).max(initial=0.0)))
    scale = max(x_max, np.linalg.norm(centroids, axis=1).max())
    slack = _BOUND_RTOL * (x_max + 1.0) + _BOUND_EPS * scale
    dim = points.shape[1]
    # The scatter-add operands of the cluster statistics, fixed for the run.
    stat_columns = [*(points.T * weights), weights]
    neighbours = None

    for iteration in range(1, max_iter + 1):
        if algorithm == "lloyd":
            new_labels, min_d2 = _classify_tiled(points, centroids, tile_bytes)
        else:
            if iteration == 1:
                # Start from a nearby bucket centroid, with no lower bound:
                # the restricted classification reaches the full argmin
                # without comparing any point with all N_mu centroids.
                start = _bucket_labels(points, centroids, tile_bytes)
                lower = np.full(n, -np.inf)
            else:
                start = labels
            # The exact distance to the current centroid is the upper bound
            # (and the committed distance of every point that keeps its
            # label), one pass over all points that also replaces the
            # tightening of stale upper bounds: upper <= lower proves the
            # label cannot change, the rest are compared with their
            # centroid's neighbours only.
            min_d2 = _assigned_sq_dists(points, centroids, start)
            upper = np.sqrt(min_d2)
            active = np.flatnonzero(upper + slack >= lower)
            new_labels = start.copy()
            if active.size:
                if neighbours is None:
                    neighbours = _NeighbourLists(centroids, tile_bytes)
                new_labels[active], min_d2[active], lower[active] = _classify_near(
                    np.take(points, active, axis=0), centroids, start[active],
                    upper[active], slack, neighbours, tile_bytes,
                )

        # One reduced block: weighted coordinate sums (Eq. 13) and weights
        # per cluster, each a scatter-add in point order, then the objective
        # (Eq. 11) and whether any label changed in a trailing row.
        stats = np.zeros((n_clusters + 1, dim + 1))
        for col, values in enumerate(stat_columns):
            stats[:n_clusters, col] = np.bincount(
                new_labels, weights=values, minlength=n_clusters
            )
        stats[n_clusters, 0] = (weights * min_d2).sum()
        stats[n_clusters, 1] = not np.array_equal(new_labels, labels)
        stats = reduce.sum(stats)
        w_sum = stats[:n_clusters, dim]
        new_inertia = float(stats[n_clusters, 0])
        changed = bool(stats[n_clusters, 1])
        nonzero = w_sum > 0
        old_centroids = centroids.copy()
        centroids[nonzero] = stats[:n_clusters, :dim][nonzero] / w_sum[nonzero, None]

        # Reseed empty clusters at the worst-served heavy points.
        empty = np.flatnonzero(w_sum == 0)
        if empty.size:
            worst = reduce.worst(weights * min_d2, points, empty.size)
            for slot, point in zip(empty, worst):
                centroids[slot] = point

        if algorithm == "hamerly":
            # Drift update keeps the bounds and the neighbour-list edges
            # valid across the centroid motion.
            drift = np.linalg.norm(centroids - old_centroids, axis=1)
            lower -= drift.max(initial=0.0)
            if neighbours is not None:
                neighbours.drift += drift
                if neighbours.stale():
                    neighbours = None

        # The relative-inertia stop needs a previous inertia: the first
        # iteration compares with inf, which would pass any tolerance.
        if not changed or (
            tol > 0.0
            and np.isfinite(inertia)
            and abs(inertia - new_inertia) <= tol * max(inertia, 1e-300)
        ):
            labels = new_labels
            inertia = new_inertia
            converged = True
            break
        labels = new_labels
        inertia = new_inertia

    return centroids, labels, inertia, iteration, converged


#: :func:`representatives` of a cluster without members.
NO_INDEX = np.iinfo(np.int64).max


def representatives(
    points: np.ndarray,
    centroids: np.ndarray,
    labels: np.ndarray,
    index: np.ndarray,
    reduce=_SERIAL,
) -> np.ndarray:
    """Per cluster, ``index`` of the member nearest its centroid.

    Ties go to the lowest ``index``; a cluster without members gets
    :data:`NO_INDEX`.  A stable sort by ``(label, distance to own
    centroid)`` puts each cluster's winner first in its run, so the cost is
    O(N log N) with no ``N x N_mu`` matrix.  With a distributed ``reduce``,
    ``points``/``labels``/``index`` are this rank's slab (``index`` global
    and increasing across ranks) and the result is replicated.
    """
    n_mu = centroids.shape[0]
    d2 = _assigned_sq_dists(points, centroids, labels)
    order = np.lexsort((d2, labels))
    first = order[np.diff(labels[order], prepend=-1) != 0]
    best_d = np.full(n_mu, np.inf)
    best_d[labels[first]] = d2[first]
    best_idx = np.full(n_mu, NO_INDEX, dtype=np.int64)
    best_idx[labels[first]] = index[first]
    # A slab's winner stands only if it matches the global best distance;
    # ties between slabs resolve to the lowest index.
    global_d = reduce.min(best_d)
    return reduce.min(np.where(best_d == global_d, best_idx, NO_INDEX))


def select_points_kmeans(
    psi_v: np.ndarray,
    psi_c: np.ndarray,
    n_mu: int,
    *,
    grid_points: np.ndarray,
    prune_threshold: float = 1e-6,
    init: str = "greedy-weight",
    initial_centroids: np.ndarray | None = None,
    max_iter: int = 100,
    rng: np.random.Generator | None = None,
    algorithm: str = "hamerly",
    tile_bytes: int = DEFAULT_TILE_BYTES,
) -> KMeansResult:
    """Full paper recipe: weights -> prune -> weighted K-Means -> points.

    Parameters
    ----------
    psi_v, psi_c:
        Real-space orbital blocks.
    grid_points:
        ``(N_r, 3)`` Cartesian coordinates of the grid
        (:attr:`repro.pw.RealSpaceGrid.cartesian_points`).
    prune_threshold:
        Relative weight cutoff; points with ``w < threshold * max(w)`` are
        excluded from clustering (the paper's low-rank weight observation).
    initial_centroids:
        Warm-start centroids from a previous, nearby selection (see
        :func:`weighted_kmeans`); the pruning and representative-point
        extraction are unchanged.
    """
    weights_full = pair_weights(psi_v, psi_c)
    w_max = float(weights_full.max())
    require(w_max > 0.0, "pair weights vanish everywhere; orbitals are zero?")

    keep = np.flatnonzero(weights_full >= prune_threshold * w_max)
    if keep.size < n_mu:
        # Pruning was too aggressive for the requested rank: fall back to
        # the n_mu * 4 heaviest points (still deterministic).
        keep = np.argsort(weights_full)[::-1][: max(4 * n_mu, 64)]
        keep = np.sort(keep)
    candidates = grid_points[keep]
    weights = weights_full[keep]

    centroids, labels, inertia, n_iter, converged = weighted_kmeans(
        candidates, weights, n_mu, init=init,
        initial_centroids=initial_centroids, max_iter=max_iter, rng=rng,
        algorithm=algorithm, tile_bytes=tile_bytes,
    )

    indices = representatives(candidates, centroids, labels, keep)
    heaviest = keep[np.argsort(weights)[::-1]]
    for k in np.flatnonzero(indices == NO_INDEX):
        # Empty cluster survived reseeding: take the heaviest candidate that
        # is not an earlier cluster's representative.
        indices[k] = next(i for i in heaviest if i not in indices[:k])
    indices = np.unique(indices)
    if indices.size < n_mu:
        # Duplicate representatives (an empty cluster's pick may win a later
        # cluster too): top up with the heaviest unused candidates.
        extra = heaviest[~np.isin(heaviest, indices)][: n_mu - indices.size]
        indices = np.sort(np.concatenate([indices, extra]))

    return KMeansResult(
        indices=indices,
        centroids=centroids,
        labels=labels,
        candidate_indices=keep,
        inertia=inertia,
        n_iter=n_iter,
        converged=converged,
    )
