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

Cost per iteration is ``O(N_mu N_r')`` and the loop is embarrassingly
data-parallel: its few cross-point steps go through a reducer, the
identity here and collectives in the distributed version
(:func:`repro.parallel.parallel_kmeans.distributed_kmeans`).

Two execution strategies share one code path (``algorithm=``):

* ``"lloyd"`` — the naive full-classification loop: every iteration
  evaluates all ``N_r' x N_mu`` distances (in memory-bounded tiles).
* ``"hamerly"`` (default) — bound-pruned Lloyd: each point carries an
  upper bound on its distance to its assigned centroid and a lower bound
  on the distance to every other centroid, maintained with per-iteration
  centroid drifts.  Points whose bounds prove the assignment cannot change
  skip the ``N_mu``-way classification entirely, collapsing the per-
  iteration cost to ``O(N_active N_mu)`` with ``N_active -> 0`` as the
  clustering converges.  Labels, centroids and inertia are bit-identical
  to ``"lloyd"`` (the bounds only ever *skip provably unchanged* work, and
  the committed distances are evaluated by the same expressions in the
  same order).

Either way the distance matrix is materialized at most one tile at a time
(``tile_bytes``), so the peak working set is bounded regardless of the
candidate count.
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


def _pairwise_sq_dists(
    points: np.ndarray,
    centroids: np.ndarray,
    points_sq: np.ndarray | None = None,
) -> np.ndarray:
    """``(n_points, n_centroids)`` squared Euclidean distances.

    Uses the expanded form with clamping (the cross-term trick keeps this a
    GEMM — the classification step the paper identifies as dominant).  All
    updates are in-place on the GEMM output to avoid temporaries, and the
    per-point squared norms can be precomputed once per Lloyd loop.
    """
    if points_sq is None:
        points_sq = np.einsum("ij,ij->i", points, points)
    c2 = np.einsum("ij,ij->i", centroids, centroids)
    d2 = points @ centroids.T
    d2 *= -2.0
    d2 += points_sq[:, None]
    d2 += c2[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def _init_greedy_weight(
    points: np.ndarray, weights: np.ndarray, n_mu: int
) -> np.ndarray:
    """Greedy highest-weight seeding with a minimum-separation rule.

    Walk candidates in decreasing weight, accepting a point only if it is
    farther than ``r_min`` from every accepted seed, where ``r_min`` is set
    so ``n_mu`` spheres roughly tile the candidate bounding box.  If the
    separation rule exhausts candidates, it is relaxed geometrically.
    """
    order = np.argsort(weights)[::-1]
    span = np.ptp(points[order[: max(4 * n_mu, 64)]], axis=0)
    volume = float(np.prod(np.where(span > 0, span, 1.0)))
    r_min = 0.5 * (volume / max(n_mu, 1)) ** (1.0 / 3.0)

    while True:
        # Walk candidates in decreasing weight keeping a running distance to
        # the accepted set: O(1) test per candidate, one vectorized update
        # per acceptance.
        chosen: list[int] = []
        min_d2 = np.full(points.shape[0], np.inf)
        threshold = r_min * r_min
        for idx in order:
            if min_d2[idx] >= threshold:
                chosen.append(int(idx))
                if len(chosen) == n_mu:
                    return np.asarray(chosen)
                delta = points - points[idx]
                np.minimum(
                    min_d2, np.einsum("ij,ij->i", delta, delta), out=min_d2
                )
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


#: Default cap on the materialized distance-tile size (bytes of float64).
DEFAULT_TILE_BYTES = 1 << 26  # 64 MiB

#: Relative slack applied to the Hamerly bound test so floating-point
#: rounding in the bound bookkeeping can never unsafely prune a point.
_BOUND_RTOL = 1e-12

#: fp64 slack per unit of the largest point or centroid norm ``X``, so the
#: bounds never skip a point the full classification would move: expanded-
#: form squared distances err by up to ~32 eps X^2, i.e. up to sqrt(32 eps) X
#: in distance near zero, on each of the two distances a bound test orders.
_BOUND_NOISE = (2.0 + np.sqrt(2.0)) * np.sqrt(32.0 * np.finfo(float).eps)

#: Enlarged Hamerly slack for fp32 classification: must cover the relative
#: error of a single-precision expanded-form distance (~eps_fp32 * norm
#: scale, with headroom), so the bounds still only skip provably-unchanged
#: points *up to fp32 accuracy* — the fp64 final recheck catches the rest.
_BOUND_RTOL_FP32 = 1e-5


def _assigned_sq_dists(
    points: np.ndarray,
    points_sq: np.ndarray,
    centroids_sq: np.ndarray,
    centroids: np.ndarray,
    labels: np.ndarray,
) -> np.ndarray:
    """Clamped squared distance of every point to its assigned centroid.

    Uses the same expanded form as :func:`_pairwise_sq_dists` so the
    committed per-point distances (and hence the inertia) are evaluated
    identically regardless of which points the bound pruning skipped.
    """
    cross = np.einsum("ij,ij->i", points, centroids[labels])
    d2 = points_sq + centroids_sq[labels] - 2.0 * cross
    np.maximum(d2, 0.0, out=d2)
    return d2


def _classify_tiled(
    points: np.ndarray,
    points_sq: np.ndarray,
    centroids: np.ndarray,
    active: np.ndarray | None,
    tile_bytes: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest/second-nearest classification, one distance tile at a time.

    ``active=None`` classifies every point (the Lloyd path).  Returns
    ``(labels, d2_nearest, d2_second)`` for the classified rows only; the
    ``N x N_mu`` matrix never exists beyond one ``tile_bytes`` tile.
    """
    n_clusters = centroids.shape[0]
    n_rows = points.shape[0] if active is None else active.shape[0]
    labels = np.empty(n_rows, dtype=np.int64)
    d2_near = np.empty(n_rows)
    d2_second = np.empty(n_rows)
    tile_rows = max(1, int(tile_bytes) // (8 * max(n_clusters, 1)))
    for start in range(0, n_rows, tile_rows):
        stop = min(start + tile_rows, n_rows)
        if active is None:
            rows_pts = points[start:stop]
            rows_sq = points_sq[start:stop]
        else:
            idx = active[start:stop]
            rows_pts = points[idx]
            rows_sq = points_sq[idx]
        d2 = _pairwise_sq_dists(rows_pts, centroids, rows_sq)
        lab = np.argmin(d2, axis=1)
        rows = np.arange(stop - start)
        labels[start:stop] = lab
        d2_near[start:stop] = d2[rows, lab]
        if n_clusters > 1:
            d2[rows, lab] = np.inf
            d2_second[start:stop] = d2.min(axis=1)
        else:
            d2_second[start:stop] = np.inf
    return labels, d2_near, d2_second


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
    points_sq = np.einsum("ij,ij->i", points, points)
    labels, _, _ = _classify_tiled(points, points_sq, centroids, None, tile_bytes)
    return labels


class SerialReducer:
    """The cross-point steps of :func:`weighted_kmeans`, all points local.

    Sums and maxima over the point slabs are the identity here;
    :class:`repro.parallel.parallel_kmeans.CommReducer` runs them as
    collectives.
    """

    def sum(self, array: np.ndarray) -> np.ndarray:
        return array

    def max(self, value: float) -> float:
        return value

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
    precision=None,
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
        few steps needed to track the perturbation, and the first iteration
        classifies every point, so the Hamerly bounds are re-seeded
        consistently.
    algorithm:
        ``"hamerly"`` (default) skips the ``N_mu``-way classification for
        points whose distance bounds prove the assignment is unchanged;
        ``"lloyd"`` classifies every point every iteration.  Results are
        bit-identical (see the module docstring).
    tile_bytes:
        Upper bound on the materialized distance-tile size; the full
        ``N x N_mu`` matrix is never allocated at once.
    precision:
        A precision mode string or :class:`repro.precision.PrecisionConfig`.
        With ``kmeans_fp32`` the per-iteration nearest/second-nearest
        classification runs against fp32 copies of points and centroids
        (the GEMM that dominates each iteration at double throughput) with
        an enlarged Hamerly slack; the *committed* per-point distances, the
        inertia and the weighted centroid accumulators stay fp64.  With
        ``kmeans_recheck`` the converged assignment is re-derived in fp64
        and, unless bit-identical, the whole clustering is re-run in fp64
        from the same initial centroids (recorded as a ``kmeans-classify``
        degradation event) — so the returned result is one a pure-fp64 run
        would accept.
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

    from repro.precision import resolve_precision

    precision = resolve_precision(precision)
    fp32 = precision.kmeans_fp32

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

    initial_for_rerun = centroids.copy() if fp32 else None
    labels = np.full(n, -1, dtype=np.int64)
    inertia = np.inf
    converged = False
    iteration = 0
    points_sq = np.einsum("ij,ij->i", points, points)
    # fp32 classification operands: one cast of the points up front, one
    # 3 x n_clusters cast of the centroids per iteration.  Everything the
    # result depends on directly (committed distances, inertia, centroid
    # accumulation) stays on the fp64 arrays.
    if fp32:
        points_cls = np.asarray(points, dtype=np.float32)
        points_sq_cls = np.einsum("ij,ij->i", points_cls, points_cls)
    else:
        points_cls = points
        points_sq_cls = points_sq
    # Hamerly state: upper[i] bounds dist(point_i, assigned centroid) from
    # above, lower[i] bounds the distance to every *other* centroid from
    # below.  upper <= lower proves the assignment cannot change.
    upper = np.full(n, np.inf)
    lower = np.zeros(n)
    bound_rtol = _BOUND_RTOL_FP32 if fp32 else _BOUND_RTOL
    x_max = float(np.sqrt(reduce.max(points_sq.max(initial=0.0))))
    slack = bound_rtol * (x_max + 1.0)
    if not fp32:
        slack += _BOUND_NOISE * max(x_max, np.linalg.norm(centroids, axis=1).max())
    dim = points.shape[1]

    for iteration in range(1, max_iter + 1):
        centroids_sq = np.einsum("ij,ij->i", centroids, centroids)
        centroids_cls = (
            centroids.astype(np.float32) if fp32 else centroids
        )
        new_labels = labels.copy()
        if algorithm == "lloyd" or iteration == 1:
            active = None  # classify everything
        else:
            # First filter on the stale bounds, then tighten the surviving
            # upper bounds with one exact distance and filter again — the
            # standard two-stage Hamerly test.
            maybe = np.flatnonzero(upper + slack >= lower)
            if maybe.size:
                d2a = _assigned_sq_dists(
                    points[maybe], points_sq[maybe], centroids_sq,
                    centroids, labels[maybe],
                )
                upper[maybe] = np.sqrt(d2a)
                active = maybe[upper[maybe] + slack >= lower[maybe]]
            else:
                active = maybe

        if active is None:
            lab, d2n, d2s = _classify_tiled(
                points_cls, points_sq_cls, centroids_cls, None, tile_bytes
            )
            new_labels = lab
            np.sqrt(d2n, out=upper)
            np.sqrt(d2s, out=lower)
        elif active.size:
            lab, d2n, d2s = _classify_tiled(
                points_cls, points_sq_cls, centroids_cls, active, tile_bytes
            )
            new_labels[active] = lab
            upper[active] = np.sqrt(d2n)
            lower[active] = np.sqrt(d2s)

        # Committed per-point distances (same expression in both modes, for
        # all points): the weighted objective of Eq. 11.
        min_d2 = _assigned_sq_dists(
            points, points_sq, centroids_sq, centroids, new_labels
        )

        # One reduced block: weighted coordinate sums (Eq. 13) and weights
        # per cluster, each a scatter-add in point order, then the objective
        # (Eq. 11) and whether any label changed in a trailing row.
        stats = np.zeros((n_clusters + 1, dim + 1))
        for col, values in enumerate([*(points.T * weights), weights]):
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

        # Drift update keeps the bounds valid across the centroid motion.
        drift = np.linalg.norm(centroids - old_centroids, axis=1)
        upper += drift[new_labels]
        lower -= drift.max(initial=0.0)

        if not changed or (
            tol > 0.0 and abs(inertia - new_inertia) <= tol * max(inertia, 1e-300)
        ):
            labels = new_labels
            inertia = new_inertia
            converged = True
            break
        labels = new_labels
        inertia = new_inertia

    if fp32 and precision.kmeans_recheck:
        # Bit-identical assignment recheck: re-derive every label in fp64
        # against the converged centroids.  Any mismatch means the fp32
        # classification steered the iteration off the fp64 trajectory, so
        # the whole clustering re-runs in fp64 from the same initial
        # centroids — the returned result is then exactly the strict64 one.
        # The count is reduced so every rank takes the same branch.
        labels64, _, _ = _classify_tiled(
            points, points_sq, centroids, None, tile_bytes
        )
        n_bad, n_all = reduce.sum(np.array([np.count_nonzero(labels64 != labels), n]))
        if n_bad:
            from repro.resilience.events import resilience_log

            resilience_log().record(
                "kmeans-classify",
                "fallback-fp64",
                f"fp32 classification recheck: {n_bad}/{n_all} assignments "
                "differ from fp64; re-running clustering in fp64",
                mismatches=int(n_bad),
                n_points=int(n_all),
                n_clusters=int(n_clusters),
            )
            return weighted_kmeans(
                points,
                weights,
                n_clusters,
                initial_centroids=initial_for_rerun,
                max_iter=max_iter,
                tol=tol,
                rng=rng,
                algorithm=algorithm,
                tile_bytes=tile_bytes,
                reduce=reduce,
            )

    return centroids, labels, inertia, iteration, converged


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
    precision=None,
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
    precision:
        Forwarded to :func:`weighted_kmeans` (fp32 classification with
        fp64 commits and recheck); the weight evaluation, pruning and
        representative extraction always run in fp64.
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
        algorithm=algorithm, tile_bytes=tile_bytes, precision=precision,
    )

    # Representative grid point per cluster: the member closest to the
    # centroid (ties broken toward larger weight via stable ordering).
    indices = np.empty(n_mu, dtype=np.int64)
    d2 = _pairwise_sq_dists(candidates, centroids)
    order = np.argsort(weights)[::-1]
    for k in range(n_mu):
        members = np.flatnonzero(labels == k)
        if members.size == 0:
            # Empty cluster survived reseeding: take the heaviest unclaimed
            # candidate as its representative.
            for idx in order:
                if idx not in indices[:k]:
                    members = np.array([idx])
                    break
        best = members[np.argmin(d2[members, k])]
        indices[k] = keep[best]
    indices = np.unique(indices)
    if indices.size < n_mu:
        # Duplicate representatives (possible for overlapping clusters):
        # top up with the heaviest unused candidates.
        used = set(indices.tolist())
        extra = [int(keep[i]) for i in order if int(keep[i]) not in used]
        indices = np.sort(
            np.concatenate([indices, np.asarray(extra[: n_mu - indices.size])])
        ).astype(np.int64)

    return KMeansResult(
        indices=np.sort(indices),
        centroids=centroids,
        labels=labels,
        candidate_indices=keep,
        inertia=inertia,
        n_iter=n_iter,
        converged=converged,
    )
