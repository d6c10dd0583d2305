"""Bit-identity of the bound-pruned (Hamerly) weighted K-Means.

The pruned loop exists purely for speed: ``algorithm="hamerly"`` must
produce *bit-for-bit* the same labels, centroids and inertia as the naive
``algorithm="lloyd"`` classification at every tested workload — including
the real-orbital pair weights the paper's Eq. 14 selection runs on — or
interpolation-point selection would silently depend on the algorithm flag.
"""

import tracemalloc

import numpy as np
import pytest

from repro.atoms import bulk_silicon
from repro.core import kmeans as kmeans_mod
from repro.core import pair_weights, select_points_kmeans
from repro.core.kmeans import DEFAULT_TILE_BYTES, weighted_kmeans
from repro.synthetic import synthetic_ground_state
from repro.utils.rng import default_rng


def _run_both(points, weights, k, *, seed=None, **kwargs):
    out = {}
    for algorithm in ("lloyd", "hamerly"):
        # Fresh rng per run: stochastic inits must start identically.
        rng = default_rng(seed) if seed is not None else None
        out[algorithm] = weighted_kmeans(
            points, weights, k, algorithm=algorithm, rng=rng, **kwargs
        )
    return out["lloyd"], out["hamerly"]


def _assert_bit_identical(lloyd, hamerly):
    c_l, labels_l, inertia_l, n_iter_l, conv_l = lloyd
    c_h, labels_h, inertia_h, n_iter_h, conv_h = hamerly
    np.testing.assert_array_equal(labels_h, labels_l)
    np.testing.assert_array_equal(c_h, c_l)
    assert inertia_h == inertia_l  # bitwise, not approx
    assert (n_iter_h, conv_h) == (n_iter_l, conv_l)


class TestBitIdentity:
    @pytest.mark.parametrize("k", [3, 17, 64])
    def test_seeded_random_points(self, k):
        rng = default_rng(42)
        points = rng.standard_normal((600, 3))
        weights = rng.random(600) + 1e-3
        _assert_bit_identical(
            *_run_both(points, weights, k, seed=7, init="plusplus")
        )

    def test_greedy_weight_init(self):
        rng = default_rng(5)
        points = rng.standard_normal((400, 3)) * 3.0
        weights = rng.random(400) ** 4  # strongly non-uniform, like Eq. 14
        _assert_bit_identical(
            *_run_both(points, weights, 24, init="greedy-weight")
        )

    def test_clustered_data_with_empty_cluster_reseeds(self):
        # Far more centroids than natural clusters forces the empty-cluster
        # reseed path, which must also stay in lockstep.
        rng = default_rng(3)
        centres = np.array([[0.0, 0, 0], [20.0, 0, 0]])
        points = np.vstack(
            [c + 0.1 * rng.standard_normal((50, 3)) for c in centres]
        )
        weights = np.ones(100)
        _assert_bit_identical(
            *_run_both(points, weights, 40, seed=9, init="plusplus")
        )

    def test_coincident_centroids_where_lloyd_cycles(self):
        # More clusters than distinct points: two centroids sit within an
        # ulp of the duplicated points, whose expanded-form distances to
        # both are rounding noise.  Lloyd cycles on that noise for all
        # max_iter iterations; the bounds must not prune the cycling points.
        a = 3.6379009815621983
        points = np.full((8, 3), a)
        points[1, 0] = 0.0
        lloyd, hamerly = _run_both(points, np.ones(8), 3)
        assert not lloyd[4]
        _assert_bit_identical(lloyd, hamerly)

    def test_real_orbital_weights(self, si8_synthetic):
        gs = si8_synthetic
        psi_v, _, psi_c, _ = gs.select_transition_space()
        w_full = pair_weights(psi_v, psi_c)
        keep = np.flatnonzero(w_full >= 1e-6 * w_full.max())
        points = gs.basis.grid.cartesian_points[keep]
        _assert_bit_identical(
            *_run_both(points, w_full[keep], 32, init="greedy-weight")
        )

    def test_selection_indices_algorithm_invariant(self, si8_synthetic):
        gs = si8_synthetic
        psi_v, _, psi_c, _ = gs.select_transition_space()
        res = {
            alg: select_points_kmeans(
                psi_v, psi_c, 16,
                grid_points=gs.basis.grid.cartesian_points, algorithm=alg,
            )
            for alg in ("lloyd", "hamerly")
        }
        np.testing.assert_array_equal(
            res["hamerly"].indices, res["lloyd"].indices
        )


class TestNoFullClassification:
    def test_hamerly_never_classifies_against_all_centroids(self, monkeypatch):
        # N_mu > 256: some points need the all-N_mu block (the far, light
        # outliers), and the centroids drift far enough to rebuild the
        # neighbour lists.  Neither makes the loop classify every point
        # against every centroid.
        rng = default_rng(11)
        points = np.vstack([rng.random((6000, 3)) * 12.0,
                            rng.random((8, 3)) * 12.0 + 60.0])
        weights = np.concatenate([rng.random(6000) + 0.1, np.full(8, 1e-3)])
        k = 300
        tiled = kmeans_mod._classify_tiled
        calls = {"tiled": 0, "builds": 0, "all": 0}

        def counting_tiled(*args, **kwargs):
            calls["tiled"] += 1
            return tiled(*args, **kwargs)

        class CountingLists(kmeans_mod._NeighbourLists):
            def __init__(self, *args, **kwargs):
                calls["builds"] += 1
                super().__init__(*args, **kwargs)

        near = kmeans_mod._classify_near

        def spying_near(points, centroids, labels, upper, slack, lists, tile):
            past = lists.edges()[:, labels] <= 2.0 * upper + slack
            calls["all"] += int(past.all(axis=0).sum())
            return near(points, centroids, labels, upper, slack, lists, tile)

        monkeypatch.setattr(kmeans_mod, "_classify_tiled", counting_tiled)
        monkeypatch.setattr(kmeans_mod, "_NeighbourLists", CountingLists)
        monkeypatch.setattr(kmeans_mod, "_classify_near", spying_near)
        hamerly = weighted_kmeans(points, weights, k, init="greedy-weight")
        assert calls["tiled"] == 0
        assert calls["builds"] > 1
        assert calls["all"] > 0
        lloyd = weighted_kmeans(
            points, weights, k, init="greedy-weight", algorithm="lloyd"
        )
        assert calls["tiled"] == lloyd[3]
        _assert_bit_identical(lloyd, hamerly)


class TestTiling:
    @pytest.mark.parametrize("tile_bytes", [DEFAULT_TILE_BYTES, 4096])
    def test_hamerly_peak_is_bookkeeping_plus_tiles(self, tile_bytes):
        # Every point is classified in the first iteration; its neighbour
        # blocks are evaluated in row chunks of at most tile_bytes, so the
        # peak is O(N) per-point state, the neighbour lists (a few hundred
        # indices per centroid) and a few tiles, whatever N is.  Measured
        # at 0.81x (default tile) and 0.91x (4 KiB) of this bound; a
        # classification of all points of a block at once needs 1.48x at
        # 4 KiB.
        rng = default_rng(31)
        n, k = 12000, 280
        points = rng.random((n, 3)) * 20.0
        weights = rng.random(n) + 0.1
        tracemalloc.start()
        try:
            weighted_kmeans(points, weights, k, tile_bytes=tile_bytes, max_iter=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (24 * n + 640 * k) + 6 * tile_bytes

    def test_tiny_tiles_change_nothing(self):
        rng = default_rng(21)
        points = rng.standard_normal((300, 3))
        weights = rng.random(300) + 0.1
        reference = weighted_kmeans(
            points, weights, 12, init="greedy-weight",
            tile_bytes=DEFAULT_TILE_BYTES,
        )
        for algorithm in ("lloyd", "hamerly"):
            # 1 KiB tiles: a handful of rows per classification pass.
            tiled = weighted_kmeans(
                points, weights, 12, init="greedy-weight",
                algorithm=algorithm, tile_bytes=1024,
            )
            _assert_bit_identical(reference, tiled)

    def test_tile_floor_of_one_row(self):
        rng = default_rng(22)
        points = rng.standard_normal((50, 3))
        weights = np.ones(50)
        # Smaller than one row's worth of distances: must clamp, not crash.
        _assert_bit_identical(
            weighted_kmeans(points, weights, 5, init="greedy-weight"),
            weighted_kmeans(points, weights, 5, init="greedy-weight",
                            algorithm="hamerly", tile_bytes=1),
        )

    def test_lattice_ties_change_nothing(self):
        # Integer lattice points with uniform weights: many point-centroid
        # distances tie exactly, so the labels hinge on every distance being
        # the same value in every tile and on ties going to the lowest index.
        axis = np.arange(7.0)
        points = np.stack(np.meshgrid(axis, axis, axis), -1).reshape(-1, 3)
        weights = np.ones(len(points))
        reference = weighted_kmeans(points, weights, 20, algorithm="lloyd")
        for algorithm in ("lloyd", "hamerly"):
            for tile_bytes in (1, 1024, DEFAULT_TILE_BYTES):
                _assert_bit_identical(
                    reference,
                    weighted_kmeans(
                        points, weights, 20, algorithm=algorithm,
                        tile_bytes=tile_bytes,
                    ),
                )

    def test_si8_selection_does_not_depend_on_tile_size(self):
        # Near ties abound in a real selection: a distance whose rounding
        # depended on the row blocking (as a blocked GEMM's does) would move
        # most of the 114 points here.
        gs = synthetic_ground_state(
            bulk_silicon(8), ecut=10.0, n_valence=16, n_conduction=8, seed=0
        )
        psi_v, _, psi_c, _ = gs.select_transition_space()
        grid = gs.basis.grid.cartesian_points
        default, tiny = (
            select_points_kmeans(psi_v, psi_c, 114, grid_points=grid, **kwargs)
            for kwargs in ({}, {"tile_bytes": 1024})
        )
        np.testing.assert_array_equal(tiny.indices, default.indices)
        np.testing.assert_array_equal(tiny.labels, default.labels)
        np.testing.assert_array_equal(tiny.centroids, default.centroids)
        assert tiny.n_iter == default.n_iter
