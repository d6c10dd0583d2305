"""Tests for weighted K-Means interpolation-point selection (Section 4.2)."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.atoms import bulk_silicon
from repro.core import kmeans as kmeans_mod
from repro.core import pair_weights, select_points_kmeans, weighted_kmeans
from repro.core.isdf import default_rank
from repro.core.kmeans import _init_greedy_weight, _pairwise_sq_dists
from repro.synthetic import synthetic_ground_state
from repro.utils.rng import default_rng


class TestPairwiseDistances:
    def test_matches_direct(self, rng):
        p = rng.standard_normal((20, 3))
        c = rng.standard_normal((5, 3))
        d2 = _pairwise_sq_dists(p, c)
        direct = ((p[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(d2, direct, atol=1e-10)

    def test_nonnegative(self, rng):
        p = rng.standard_normal((50, 3)) * 1e-8
        assert (_pairwise_sq_dists(p, p) >= 0).all()


class TestWeightedKMeans:
    def test_well_separated_clusters_found(self):
        rng = default_rng(0)
        centres = np.array([[0.0, 0, 0], [10.0, 0, 0], [0, 10.0, 0]])
        points = np.vstack(
            [c + 0.3 * rng.standard_normal((30, 3)) for c in centres]
        )
        weights = np.ones(90)
        got, labels, inertia, n_iter, converged = weighted_kmeans(
            points, weights, 3, rng=rng
        )
        assert converged
        # Each recovered centroid is near one true centre.
        d = np.linalg.norm(got[:, None] - centres[None], axis=2)
        assert d.min(axis=1).max() < 0.5

    def test_assignments_are_nearest_centroid(self, rng):
        points = rng.standard_normal((100, 3))
        weights = rng.random(100) + 0.1
        centroids, labels, *_ = weighted_kmeans(points, weights, 5, rng=rng)
        d2 = _pairwise_sq_dists(points, centroids)
        np.testing.assert_array_equal(labels, np.argmin(d2, axis=1))

    def test_centroids_are_weighted_means(self, rng):
        points = rng.standard_normal((80, 3))
        weights = rng.random(80) + 0.1
        centroids, labels, *_ = weighted_kmeans(points, weights, 4, rng=rng)
        for k in range(4):
            members = labels == k
            if members.any():
                expect = (weights[members, None] * points[members]).sum(0) / weights[
                    members
                ].sum()
                np.testing.assert_allclose(centroids[k], expect, atol=1e-10)

    def test_zero_weight_points_do_not_attract_centroids(self):
        rng = default_rng(1)
        cluster = 0.1 * rng.standard_normal((40, 3))
        outliers = np.array([[100.0, 100, 100], [120.0, 80, 90]])
        points = np.vstack([cluster, outliers])
        weights = np.concatenate([np.ones(40), np.zeros(2)])
        centroids, *_ = weighted_kmeans(points, weights, 2, rng=rng)
        assert np.linalg.norm(centroids, axis=1).max() < 5.0

    def test_deterministic_greedy_init(self, rng):
        points = rng.standard_normal((60, 3))
        weights = rng.random(60)
        a = weighted_kmeans(points, weights, 4, init="greedy-weight")
        b = weighted_kmeans(points, weights, 4, init="greedy-weight")
        np.testing.assert_array_equal(a[1], b[1])

    def test_plusplus_init_deterministic_with_seed(self, rng):
        points = rng.standard_normal((60, 3))
        weights = rng.random(60)
        a = weighted_kmeans(points, weights, 4, init="plusplus", rng=default_rng(9))
        b = weighted_kmeans(points, weights, 4, init="plusplus", rng=default_rng(9))
        np.testing.assert_array_equal(a[1], b[1])

    def test_invalid_inputs(self, rng):
        points = rng.standard_normal((10, 3))
        with pytest.raises(ValueError):
            weighted_kmeans(points, np.ones(10), 0)
        with pytest.raises(ValueError):
            weighted_kmeans(points, np.ones(9), 2)
        with pytest.raises(ValueError):
            weighted_kmeans(points, -np.ones(10), 2)
        with pytest.raises(ValueError):
            weighted_kmeans(points, np.ones(10), 2, init="bogus")

    def test_relative_inertia_tol_waits_for_a_finite_inertia(self):
        """``tol > 0`` once stopped after iteration 1: the first check
        compared with an infinite previous inertia and always passed."""
        gs = synthetic_ground_state(
            bulk_silicon(8), ecut=10.0, n_valence=16, n_conduction=8, seed=0
        )
        psi_v, _, psi_c, _ = gs.select_transition_space()
        w = pair_weights(psi_v, psi_c)
        keep = np.flatnonzero(w >= 1e-6 * w.max())
        points, weights = gs.basis.grid.cartesian_points[keep], w[keep]
        n_mu = default_rank(psi_v.shape[0], psi_c.shape[0], gs.basis.n_r)
        *_, n_exact, _ = weighted_kmeans(points, weights, n_mu)
        *_, n_tol, converged = weighted_kmeans(points, weights, n_mu, tol=1e-3)
        assert 1 < n_tol <= n_exact
        assert converged

    def test_n_clusters_equals_n_points(self, rng):
        points = rng.standard_normal((6, 3))
        centroids, labels, inertia, *_ = weighted_kmeans(points, np.ones(6), 6)
        assert inertia == pytest.approx(0.0, abs=1e-20)
        assert sorted(labels.tolist()) == list(range(6))


class TestSelectPoints:
    def test_selection_on_synthetic_system(self, si8_synthetic):
        gs = si8_synthetic
        psi_v, _, psi_c, _ = gs.select_transition_space()
        res = select_points_kmeans(
            psi_v, psi_c, 32, grid_points=gs.basis.grid.cartesian_points
        )
        assert res.indices.shape == (32,)
        assert len(set(res.indices.tolist())) == 32
        assert res.indices.min() >= 0
        assert res.indices.max() < gs.basis.n_r

    def test_points_land_in_high_weight_regions(self, si8_synthetic):
        from repro.core import pair_weights

        gs = si8_synthetic
        psi_v, _, psi_c, _ = gs.select_transition_space()
        w = pair_weights(psi_v, psi_c)
        res = select_points_kmeans(
            psi_v, psi_c, 16, grid_points=gs.basis.grid.cartesian_points
        )
        # Every chosen point carries non-trivial weight.
        assert w[res.indices].min() > 1e-6 * w.max()

    def test_pruning_shrinks_candidates(self, si8_synthetic):
        gs = si8_synthetic
        psi_v, _, psi_c, _ = gs.select_transition_space()
        tight = select_points_kmeans(
            psi_v, psi_c, 8,
            grid_points=gs.basis.grid.cartesian_points, prune_threshold=1e-2,
        )
        loose = select_points_kmeans(
            psi_v, psi_c, 8,
            grid_points=gs.basis.grid.cartesian_points, prune_threshold=1e-8,
        )
        assert tight.candidate_indices.size < loose.candidate_indices.size

    def test_zero_orbitals_rejected(self):
        psi = np.zeros((2, 50))
        with pytest.raises(ValueError, match="vanish"):
            select_points_kmeans(psi, psi, 4, grid_points=np.zeros((50, 3)))

    def test_aggressive_pruning_falls_back(self, si8_synthetic):
        """Pruning that leaves fewer candidates than n_mu must not crash."""
        gs = si8_synthetic
        psi_v, _, psi_c, _ = gs.select_transition_space()
        res = select_points_kmeans(
            psi_v, psi_c, 24,
            grid_points=gs.basis.grid.cartesian_points, prune_threshold=0.999,
        )
        assert res.indices.shape == (24,)


def _lattice(n: int) -> np.ndarray:
    axis = np.arange(float(n))
    return np.stack(np.meshgrid(axis, axis, axis), -1).reshape(-1, 3)


def _si64_candidates():
    """The pruned Si64 candidate set the isdf-si64 selection clusters."""
    gs = synthetic_ground_state(
        bulk_silicon(64), ecut=10.0, n_valence=48, n_conduction=24, seed=0
    )
    psi_v, _, psi_c, _ = gs.select_transition_space()
    w = pair_weights(psi_v, psi_c)
    keep = np.flatnonzero(w >= 1e-6 * w.max())
    return gs.basis.grid.cartesian_points[keep], w[keep]


def _greedy_full_scan(points, weights, n_mu):
    """The O(N N_mu) greedy seeding: every acceptance updates every point."""
    order = np.argsort(weights)[::-1]
    span = np.ptp(points[order[: max(4 * n_mu, 64)]], axis=0)
    volume = float(np.prod(np.where(span > 0, span, 1.0)))
    r_min = 0.5 * (volume / max(n_mu, 1)) ** (1.0 / 3.0)
    while True:
        chosen = []
        min_d2 = np.full(points.shape[0], np.inf)
        threshold = r_min * r_min
        for idx in order:
            if min_d2[idx] >= threshold:
                chosen.append(int(idx))
                if len(chosen) == n_mu:
                    return np.asarray(chosen)
                delta = points - points[idx]
                np.minimum(min_d2, np.einsum("ij,ij->i", delta, delta), out=min_d2)
        r_min *= 0.7
        if r_min < 1e-8:
            return order[:n_mu].copy()


class TestGreedySeeding:
    """The slab-restricted seeding accepts exactly the full scan's seeds."""

    @pytest.mark.parametrize("n_mu", [1, 7, 40, 150])
    def test_random_cloud(self, rng, n_mu):
        points = rng.standard_normal((600, 3)) * 4.0
        weights = rng.random(600)
        np.testing.assert_array_equal(
            _init_greedy_weight(points, weights, n_mu),
            _greedy_full_scan(points, weights, n_mu),
        )

    @pytest.mark.parametrize("n_mu", [5, 27, 64, 200])
    def test_lattice_with_tied_weights_and_distances(self, n_mu):
        # Points exactly r_min apart and equal weights: the separation test
        # and the weight order both hinge on exact ties.
        points = _lattice(6) * 0.5
        weights = np.floor(np.linspace(1.0, 4.0, len(points)))[::-1].copy()
        np.testing.assert_array_equal(
            _init_greedy_weight(points, weights, n_mu),
            _greedy_full_scan(points, weights, n_mu),
        )

    def test_si64_candidates(self):
        points, weights = _si64_candidates()
        np.testing.assert_array_equal(
            _init_greedy_weight(points, weights, 340),
            _greedy_full_scan(points, weights, 340),
        )

    def test_selection_does_not_import_scipy_spatial(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.core import select_points_kmeans\n"
            "rng = np.random.default_rng(0)\n"
            "psi = rng.standard_normal((2, 500))\n"
            "select_points_kmeans(psi, psi, 20, grid_points=rng.random((500, 3)))\n"
            "assert 'scipy.spatial' not in sys.modules\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _representatives_d2_matrix(candidates, weights, keep, centroids, labels):
    """Representative step with an ``N x N_mu`` distance matrix: per cluster
    the member nearest its centroid, the heaviest candidate not yet taken for
    an empty cluster, then a top-up with the heaviest unused candidates."""
    n_mu = centroids.shape[0]
    indices = np.empty(n_mu, dtype=np.int64)
    d2 = _pairwise_sq_dists(candidates, centroids)
    order = np.argsort(weights)[::-1]
    for k in range(n_mu):
        members = np.flatnonzero(labels == k)
        if members.size == 0:
            for idx in order:
                if keep[idx] not in indices[:k]:
                    members = np.array([idx])
                    break
        indices[k] = keep[members[np.argmin(d2[members, k])]]
    indices = np.unique(indices)
    if indices.size < n_mu:
        used = set(indices.tolist())
        extra = [int(keep[i]) for i in order if int(keep[i]) not in used]
        indices = np.sort(np.concatenate([indices, extra[: n_mu - indices.size]]))
    return indices.astype(np.int64)


class TestRepresentatives:
    """The O(N log N) representative step against the d2-matrix formula."""

    @staticmethod
    def _select(monkeypatch, weights, points, centroids, labels):
        """Run the representative step of select_points_kmeans on a given
        clustering.  Every third grid point has zero weight and is pruned, so
        candidate and grid indices differ."""
        n_r = 3 * len(points)
        grid = np.zeros((n_r, 3))
        keep = np.arange(1, n_r, 3)
        grid[keep] = points
        psi_v = np.zeros((1, n_r))
        psi_v[0, keep] = np.sqrt(weights)
        monkeypatch.setattr(
            kmeans_mod, "weighted_kmeans",
            lambda *a, **k: (centroids, labels, 0.0, 1, True),
        )
        res = select_points_kmeans(
            psi_v, np.ones((1, n_r)), len(centroids), grid_points=grid
        )
        np.testing.assert_array_equal(res.candidate_indices, keep)
        w = pair_weights(psi_v, np.ones((1, n_r)))[keep]
        return res.indices, _representatives_d2_matrix(
            points, w, keep, centroids, labels
        )

    def test_converged_clustering(self, rng, monkeypatch):
        points = rng.standard_normal((400, 3))
        weights = rng.random(400) + 0.1
        centroids, labels, *_ = weighted_kmeans(points, weights, 30)
        got, expect = self._select(monkeypatch, weights, points, centroids, labels)
        np.testing.assert_array_equal(got, expect)
        assert got.size == 30

    def test_lattice_ties_go_to_lowest_index(self, monkeypatch):
        # Centroids at cell centres: eight members tie for nearest.
        points = _lattice(4)
        centroids = np.array([[0.5, 0.5, 0.5], [2.5, 2.5, 2.5]])
        labels = (points.sum(axis=1) > 4.5).astype(np.int64)
        got, expect = self._select(
            monkeypatch, np.ones(len(points)), points, centroids, labels
        )
        np.testing.assert_array_equal(got, expect)

    def test_empty_cluster_and_duplicate_top_up(self, monkeypatch):
        # Cluster 1 is empty, so it takes the heaviest candidate, point 5;
        # point 5 also wins cluster 2, and the duplicate is topped up with
        # the next heaviest unused candidate, point 2.
        points = np.arange(24.0).reshape(8, 3)
        weights = np.array([1.0, 2.0, 6.0, 3.0, 4.0, 9.0, 5.0, 0.5])
        labels = np.array([0, 0, 2, 2, 2, 2, 3, 3])
        centroids = np.stack([points[0], points[7], points[5], points[6]])
        got, expect = self._select(monkeypatch, weights, points, centroids, labels)
        np.testing.assert_array_equal(got, expect)
        np.testing.assert_array_equal(got, 3 * np.array([0, 2, 5, 6]) + 1)
