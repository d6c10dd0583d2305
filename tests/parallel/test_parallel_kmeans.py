"""Distributed weighted K-Means must reproduce the serial algorithm."""

import numpy as np
import pytest

from repro.core import pair_weights
from repro.core.kmeans import weighted_kmeans
from repro.parallel import BlockDistribution1D, distributed_kmeans, spmd_run


@pytest.fixture(scope="module")
def workload(si8_synthetic):
    gs = si8_synthetic
    psi_v, _, psi_c, _ = gs.select_transition_space()
    w = pair_weights(psi_v, psi_c)
    keep = np.flatnonzero(w >= 1e-6 * w.max())
    return gs.basis.grid.cartesian_points[keep], w[keep]


@pytest.fixture(scope="module")
def serial_result(workload):
    points, weights = workload
    return weighted_kmeans(points, weights, 20, init="greedy-weight")


@pytest.mark.parametrize("n_ranks", [1, 2, 3, 4, 8])
def test_matches_serial(workload, serial_result, n_ranks):
    points, weights = workload
    c_ref, l_ref, i_ref, n_ref, conv_ref = serial_result
    dist = BlockDistribution1D(len(points), n_ranks)

    def prog(comm):
        sl = dist.local_slice(comm.rank)
        return distributed_kmeans(
            comm, points[sl], weights[sl], 20, dist
        )

    results = spmd_run(n_ranks, prog)
    centroids = results[0][0]
    labels = np.concatenate([r[1] for r in results])
    inertia = results[0][2]
    converged = results[0][4]

    assert converged == conv_ref
    np.testing.assert_allclose(centroids, c_ref, atol=1e-12)
    np.testing.assert_array_equal(labels, l_ref)
    assert inertia == pytest.approx(i_ref, rel=1e-12)


def test_centroids_replicated_across_ranks(workload):
    points, weights = workload
    dist = BlockDistribution1D(len(points), 3)

    def prog(comm):
        sl = dist.local_slice(comm.rank)
        c, *_ = distributed_kmeans(comm, points[sl], weights[sl], 10, dist)
        return c

    results = spmd_run(3, prog)
    np.testing.assert_array_equal(results[0], results[1])
    np.testing.assert_array_equal(results[0], results[2])


def test_handles_rank_with_no_points():
    rng = np.random.default_rng(0)
    points = rng.standard_normal((3, 3))
    weights = np.ones(3)
    dist = BlockDistribution1D(3, 5)  # ranks 3, 4 own nothing

    def prog(comm):
        sl = dist.local_slice(comm.rank)
        return distributed_kmeans(comm, points[sl], weights[sl], 2, dist)

    results = spmd_run(5, prog)
    assert results[0][0].shape == (2, 3)


def test_communication_is_small(workload):
    """Lloyd traffic must scale with n_clusters, not with the point count
    (only the initial seeding gathers the pruned candidates once)."""
    points, weights = workload
    dist = BlockDistribution1D(len(points), 4)

    def prog(comm):
        sl = dist.local_slice(comm.rank)
        return distributed_kmeans(comm, points[sl], weights[sl], 10, dist)

    results, traffic = spmd_run(4, prog, return_traffic=True)
    n_iter = results[0][3]
    lloyd_bytes = traffic.bytes_by_op.get("allreduce", 0)
    gather_bytes = traffic.bytes_by_op.get("allgather", 0)
    assert lloyd_bytes < 200 * 10 * 5 * 8 * 4  # generous iteration bound
    assert gather_bytes > 0  # the one-time seeding gather happened
    # One allreduce per iteration (statistics and changed flag together)
    # plus the bound slack's max.
    assert traffic.calls_by_op["allreduce"] <= n_iter + 2
    # Each iteration's payload is at most a (10 clusters x 5 stats) float64
    # block; the slack max is one float.  Ring convention: 2 (P - 1) bytes
    # of traffic per payload byte.
    ring = 2 * (4 - 1)
    assert lloyd_bytes <= ring * (n_iter * 10 * 5 * 8 + 8)


def test_warm_start_converges_faster(workload, serial_result):
    """Centroid warm starts (the batch engine's K-Means reuse) must cut the
    iteration count and still land on the same fixed point."""
    points, weights = workload
    c_ref, _, _, n_ref, _ = serial_result
    dist = BlockDistribution1D(len(points), 2)

    def prog(comm):
        sl = dist.local_slice(comm.rank)
        return distributed_kmeans(
            comm, points[sl], weights[sl], 20, dist, initial_centroids=c_ref
        )

    results = spmd_run(2, prog)
    centroids, _, _, n_iter, converged = results[0]
    assert converged
    assert n_iter < n_ref
    np.testing.assert_allclose(centroids, c_ref, atol=1e-12)


@pytest.mark.process_backend
def test_warm_start_bit_identical_across_backends(workload, serial_result):
    """A warm-started distributed selection must return byte-for-byte the
    same clustering on the thread and process SPMD backends."""
    points, weights = workload
    c_ref = serial_result[0]
    dist = BlockDistribution1D(len(points), 2)

    def prog(comm):
        sl = dist.local_slice(comm.rank)
        return distributed_kmeans(
            comm, points[sl], weights[sl], 20, dist, initial_centroids=c_ref
        )

    thread = spmd_run(2, prog, backend="thread")
    process = spmd_run(2, prog, backend="process")
    for t, p in zip(thread, process):
        np.testing.assert_array_equal(t[0], p[0])  # centroids
        np.testing.assert_array_equal(t[1], p[1])  # labels
        assert t[2] == p[2]  # inertia, exact
        assert t[3:] == p[3:]  # n_iter, converged


@pytest.mark.process_backend
def test_past_the_largest_neighbour_block_matches_serial_lloyd():
    """N_mu > 256 on 2 ranks, each seeding its own bounds from the bucket
    grid and keeping its own neighbour lists: labels and iteration count
    equal serial Lloyd's, and the two backends agree to the bit."""
    rng = np.random.default_rng(5)
    points = rng.random((4000, 3)) * 12.0
    weights = rng.random(4000) + 0.1
    c_ref, l_ref, i_ref, n_ref, conv_ref = weighted_kmeans(
        points, weights, 270, algorithm="lloyd"
    )
    dist = BlockDistribution1D(len(points), 2)

    def prog(comm):
        sl = dist.local_slice(comm.rank)
        return distributed_kmeans(comm, points[sl], weights[sl], 270, dist)

    thread = spmd_run(2, prog, backend="thread")
    process = spmd_run(2, prog, backend="process")
    np.testing.assert_array_equal(np.concatenate([r[1] for r in thread]), l_ref)
    assert thread[0][3:] == (n_ref, conv_ref)
    np.testing.assert_allclose(thread[0][0], c_ref, rtol=0, atol=1e-12)
    assert thread[0][2] == pytest.approx(i_ref, rel=1e-12)
    for t, p in zip(thread, process):
        np.testing.assert_array_equal(t[0], p[0])
        np.testing.assert_array_equal(t[1], p[1])
        assert t[2:] == p[2:]
