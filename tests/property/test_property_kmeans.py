"""Property-based tests for weighted K-Means (Section 4.2 invariants)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.kmeans import (
    _BOUND_EPS,
    _BOUND_RTOL,
    _NeighbourLists,
    _assigned_sq_dists,
    _classify_near,
    _classify_tiled,
    _pairwise_sq_dists,
    weighted_kmeans,
)
from repro.parallel import BlockDistribution1D, distributed_kmeans, spmd_run
from repro.utils.rng import default_rng


def points_and_weights(min_points=8, max_points=60):
    n = st.integers(min_points, max_points)
    return n.flatmap(
        lambda m: st.tuples(
            hnp.arrays(
                np.float64,
                (m, 3),
                elements=st.floats(-10, 10, allow_nan=False, width=64),
            ),
            hnp.arrays(
                np.float64,
                (m,),
                elements=st.floats(0.0, 5.0, allow_nan=False, width=64),
            ),
        )
    )


@settings(max_examples=40, deadline=None)
@given(points_and_weights(), st.integers(1, 6), st.integers(0, 10**6))
def test_assignment_optimality(data, n_clusters, seed):
    """Every point is assigned to its nearest centroid (Eq. 12)."""
    points, weights = data
    n_clusters = min(n_clusters, len(np.unique(points.round(12), axis=0)))
    if n_clusters == 0:
        return
    weights = weights + 1e-6  # strictly positive
    centroids, labels, *_ = weighted_kmeans(
        points, weights, n_clusters, rng=default_rng(seed)
    )
    d2 = _pairwise_sq_dists(points, centroids)
    best = d2[np.arange(len(points)), labels]
    np.testing.assert_array_less(best, d2.min(axis=1) + 1e-9)


@settings(max_examples=30, deadline=None)
@given(points_and_weights(), st.integers(1, 5))
def test_inertia_nonnegative_and_bounded(data, n_clusters):
    points, weights = data
    n_clusters = min(n_clusters, len(points))
    weights = weights + 1e-6
    _, _, inertia, *_ = weighted_kmeans(points, weights, n_clusters)
    assert inertia >= 0.0
    # Bounded by the single-cluster inertia around the weighted mean.
    mean = (weights[:, None] * points).sum(0) / weights.sum()
    single = float(
        (weights * ((points - mean) ** 2).sum(axis=1)).sum()
    )
    assert inertia <= single + 1e-6 * max(single, 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(8, 60), st.integers(2, 5))
def test_translation_equivariance(seed, n_points, n_clusters):
    """Translating all points leaves the clustering *quality* unchanged.

    Stated for generic (continuous random) clouds: Lloyd is a local
    optimizer whose tie-breaking is representation-dependent, so
    degenerate clouds (coincident/collinear points with equal weights) can
    legitimately land in different local optima after a translation —
    hypothesis supplies the seed, numpy the tie-free geometry.
    """
    rng = default_rng(seed)
    points = rng.standard_normal((n_points, 3)) * 3.0
    weights = rng.random(n_points) + 0.1
    n_clusters = min(n_clusters, n_points)
    shift = np.array([3.0, -2.0, 7.0])
    _, _, i1, *_ = weighted_kmeans(points, weights, n_clusters, rng=default_rng(0))
    _, _, i2, *_ = weighted_kmeans(
        points + shift, weights, n_clusters, rng=default_rng(0)
    )
    # A point sitting within float rounding of a Voronoi boundary can flip
    # its assignment under translation and move the local optimum slightly;
    # the quality must still be preserved to high accuracy.
    assert i2 == pytest.approx(i1, rel=0.02, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(points_and_weights(), st.integers(1, 5), st.integers(1, 100))
def test_weight_scale_invariance(data, n_clusters, scale_int):
    """Multiplying all weights by a power of two changes nothing but the
    inertia scale (exact fp equality of the clustering path)."""
    points, weights = data
    scale = 2.0 ** (scale_int % 7)  # exact in floating point
    n_clusters = min(n_clusters, len(points))
    weights = weights + 2.0**-20
    c1, l1, i1, *_ = weighted_kmeans(points, weights, n_clusters)
    c2, l2, i2, *_ = weighted_kmeans(points, scale * weights, n_clusters)
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_allclose(c1, c2, atol=1e-9)
    assert i2 == pytest.approx(i1 * scale, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(points_and_weights(), st.integers(1, 6), st.integers(1, 4))
def test_distributed_hamerly_matches_serial_lloyd(data, n_clusters, n_ranks):
    """The naive full-classification loop is the oracle for the distributed
    bound-pruned one: same labels and iteration count, centroids equal up
    to the rank-order summation of the reduced statistics.

    On one rank the sums are the serial ones, so even a Lloyd run that
    cycles on rounding-level ties must be matched.  Across ranks, a cycling
    run is chaotic in the last bit of the centroids, so only converged
    reference runs are compared.
    """
    points, weights = data
    weights = weights + 1e-6  # strictly positive
    n_clusters = min(n_clusters, len(np.unique(points.round(12), axis=0)))
    c_ref, l_ref, _, n_ref, converged = weighted_kmeans(
        points, weights, n_clusters, algorithm="lloyd"
    )
    assume(converged or n_ranks == 1)
    dist = BlockDistribution1D(len(points), n_ranks)

    def prog(comm):
        sl = dist.local_slice(comm.rank)
        return distributed_kmeans(comm, points[sl], weights[sl], n_clusters, dist)

    results = spmd_run(n_ranks, prog, backend="thread")
    np.testing.assert_array_equal(np.concatenate([r[1] for r in results]), l_ref)
    assert results[0][3] == n_ref
    np.testing.assert_allclose(results[0][0], c_ref, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(
        np.float64, (12, 3), elements=st.floats(-5, 5, allow_nan=False, width=64)
    ),
    hnp.arrays(
        np.float64, (4, 3), elements=st.floats(-5, 5, allow_nan=False, width=64)
    ),
)
def test_pairwise_distances_match_direct(points, centroids):
    d2 = _pairwise_sq_dists(points, centroids)
    direct = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_allclose(d2, direct, atol=1e-8)
    assert (d2 >= 0).all()


def _restricted_vs_full(
    points, centroids, labels, inflate, neighbours=None, tile_bytes=1 << 20
):
    """Classify with the neighbour-restricted classifier and with the full
    argmin; the restricted one starts from arbitrary labels whose upper
    bounds are the exact distances, inflated by ``inflate >= 1``, with the
    given (possibly stale) neighbour lists or ones built on ``centroids``."""
    upper = np.sqrt(_assigned_sq_dists(points, centroids, labels)) * inflate
    x_max = np.linalg.norm(points, axis=1).max()
    scale = max(x_max, np.linalg.norm(centroids, axis=1).max())
    slack = _BOUND_RTOL * (x_max + 1.0) + _BOUND_EPS * scale
    if neighbours is None:
        neighbours = _NeighbourLists(centroids, tile_bytes)
    got, d2_near, lower = _classify_near(
        points, centroids, labels, upper, slack, neighbours, tile_bytes
    )
    full, d2_full = _classify_tiled(points, centroids, 1 << 20)
    np.testing.assert_array_equal(got, full)
    np.testing.assert_array_equal(d2_near, d2_full)
    d2 = _pairwise_sq_dists(points, centroids)
    d2[np.arange(len(points)), full] = np.inf
    d2_second = d2.min(axis=1)
    # The bound tests add the same slack to every comparison.
    assert (lower <= np.sqrt(d2_second) + slack).all()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 300),
    st.integers(1, 320),
    st.sampled_from(["random", "lattice", "coincident"]),
    st.floats(1.0, 3.0),
    st.booleans(),
)
def test_restricted_classifier_matches_full_argmin(
    seed, n_points, n_centroids, cloud, inflate, from_nearest
):
    """Labels equal the full argmin (ties: lowest index) and ``lower`` bounds
    the second distance, from the nearest or any starting label: random
    clouds, integer lattices with exact ties, and centroids that coincide;
    N_mu spans values below the smallest neighbour block up to past the
    largest one."""
    rng = default_rng(seed)
    if cloud == "random":
        points = rng.standard_normal((n_points, 3)) * 5.0
        centroids = rng.standard_normal((n_centroids, 3)) * 5.0
    else:
        points = rng.integers(0, 8, (n_points, 3)).astype(float)
        centroids = rng.integers(0, 8, (n_centroids, 3)).astype(float)
        if cloud == "coincident":
            centroids = centroids[rng.integers(0, max(1, n_centroids // 3), n_centroids)]
            centroids += 0.5
    labels = rng.integers(0, n_centroids, n_points)
    if from_nearest:
        # The converging loop's case: the second-nearest centroid is often
        # outside the neighbour block, so ``lower`` comes from the bound.
        labels = _classify_tiled(points, centroids, 1 << 20)[0]
    _restricted_vs_full(points, centroids, labels, inflate)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 300),
    st.integers(1, 320),
    st.sampled_from(["random", "lattice", "coincident"]),
    st.floats(0.0, 2.0),
    st.floats(1.0, 3.0),
    st.booleans(),
    st.sampled_from([64, 4096, 1 << 20]),
)
def test_stale_neighbour_lists_match_full_argmin(
    seed, n_points, n_centroids, cloud, move, inflate, from_nearest, tile_bytes
):
    """Neighbour lists built on earlier centroids, with each centroid's
    accumulated drift, still give the full argmin and a valid ``lower`` on
    the moved centroids: the drift-corrected block edges stay lower bounds.
    Centroids move by up to ``move`` typical spacings each, in random
    directions, and the recorded drift is at least the displacement (a sum
    of per-iteration drifts is); tiles from a few rows to all of them."""
    rng = default_rng(seed)
    if cloud == "random":
        points = rng.standard_normal((n_points, 3)) * 5.0
        built = rng.standard_normal((n_centroids, 3)) * 5.0
    else:
        points = rng.integers(0, 8, (n_points, 3)).astype(float)
        built = rng.integers(0, 8, (n_centroids, 3)).astype(float)
        if cloud == "coincident":
            built = built[rng.integers(0, max(1, n_centroids // 3), n_centroids)]
            built += 0.5
    neighbours = _NeighbourLists(built, tile_bytes)
    step = rng.standard_normal((n_centroids, 3))
    step *= (rng.random(n_centroids) * move * max(neighbours.spacing, 0.5)
             / np.maximum(np.linalg.norm(step, axis=1), 1e-300))[:, None]
    centroids = built + step
    neighbours.drift = np.linalg.norm(centroids - built, axis=1)
    neighbours.drift *= 1.0 + rng.random(n_centroids) * (rng.random() < 0.5)
    # Each corrected edge bounds the distance from its (moved) centroid to
    # every (moved) centroid outside the block.
    dist = np.sqrt(_pairwise_sq_dists(centroids, centroids))
    for members, edges in zip(neighbours.members, neighbours.edges()):
        outside = np.ones_like(dist, dtype=bool)
        np.put_along_axis(outside, members, False, axis=1)
        nearest_outside = np.where(outside, dist, np.inf).min(axis=1)
        assert (edges <= nearest_outside + 1e-12 * (1.0 + dist.max())).all()
    labels = rng.integers(0, n_centroids, n_points)
    if from_nearest:
        labels = _classify_tiled(points, centroids, 1 << 20)[0]
    _restricted_vs_full(points, centroids, labels, inflate, neighbours, tile_bytes)
