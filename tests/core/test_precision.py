"""Mixed-precision policy: tier resolution, fp32 stages, forced fallbacks.

The tier guarantees under test (see :mod:`repro.precision`): ``strict64``
is bit-identical to the historical fp64 behaviour, ``mixed`` keeps every
stage inside its documented tolerance, and any stage whose a-posteriori
error estimate exceeds its tolerance falls back to fp64 — producing the
strict64 result bit-for-bit from the fallback point and recording a
:class:`repro.resilience.events.DegradationEvent`.
"""

import numpy as np
import pytest

from repro.core import kmeans as kmeans_mod
from repro.core.fitting import fit_interpolation_vectors
from repro.core.kmeans import weighted_kmeans
from repro.core.pair_products import pair_products
from repro.precision import PRECISION_MODES, PrecisionConfig, resolve_precision
from repro.resilience import resilience_log


@pytest.fixture()
def log():
    """The process-wide resilience log plus its length on entry; tests
    assert only on events they appended."""
    log = resilience_log()
    return log, len(log)


class TestResolvePrecision:
    def test_none_is_strict64(self):
        cfg = resolve_precision(None)
        assert cfg.mode == "strict64"
        assert not cfg.any_fp32

    @pytest.mark.parametrize("mode", PRECISION_MODES)
    def test_mode_string_round_trips(self, mode):
        cfg = resolve_precision(mode)
        assert cfg.mode == mode
        assert cfg == resolve_precision(mode)  # frozen: value equality

    def test_config_passes_through(self):
        cfg = PrecisionConfig(mode="mixed", fit_fp32=True, fit_tol=1e-3)
        assert resolve_precision(cfg) is cfg

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            resolve_precision("float16")

    def test_bad_mode_in_config_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            PrecisionConfig(mode="mixed32")

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="fit_tol"):
            PrecisionConfig(fit_tol=-1e-6)

    def test_tier_ladder(self):
        strict = resolve_precision("strict64")
        mixed = resolve_precision("mixed")
        fast = resolve_precision("fast32")
        assert not strict.any_fp32
        assert mixed.any_fp32 and fast.any_fp32
        # mixed keeps SCF fp64 and the bit-identical K-Means recheck;
        # fast32 drops both.
        assert mixed.kmeans_recheck and not mixed.scf_fft_fp32
        assert fast.scf_fft_fp32 and not fast.kmeans_recheck
        # verification stays on in every tier.
        assert strict.verify and mixed.verify and fast.verify

    def test_replace_is_frozen_safe(self):
        base = resolve_precision("mixed")
        forced = base.replace(fit_tol=0.0)
        assert forced.fit_tol == 0.0 and base.fit_tol > 0.0
        assert forced != base


class TestMixedFit:
    @pytest.fixture()
    def problem(self, rng):
        psi_v = rng.standard_normal((8, 2048))
        psi_c = rng.standard_normal((8, 2048))
        # n_mu well below the n_v * n_c Hadamard-Gram rank bound so the
        # fit is well-posed (an ill-conditioned Gram amplifies *any*
        # perturbation through the solve, fp32 or not).
        idx = np.sort(rng.choice(2048, size=32, replace=False))
        return psi_v, psi_c, idx

    def test_mixed_within_tolerance_no_fallback(self, problem, log):
        from repro.core import isdf_decompose

        psi_v, psi_c, idx = problem
        log, before = log
        theta64 = isdf_decompose(psi_v, psi_c, indices=idx).theta
        theta32 = isdf_decompose(
            psi_v, psi_c, indices=idx, precision="mixed"
        ).theta
        err = np.linalg.norm(theta32 - theta64) / np.linalg.norm(theta64)
        assert err <= resolve_precision("mixed").fit_tol
        assert len(log) == before

    def test_forced_fallback_is_bit_identical_and_logged(self, problem, log):
        psi_v, psi_c, idx = problem
        log, before = log
        rows64 = fit_interpolation_vectors(psi_v, psi_c, idx)
        forced = resolve_precision("mixed").replace(fit_tol=0.0)
        rows = fit_interpolation_vectors(psi_v, psi_c, idx, precision=forced)
        np.testing.assert_array_equal(rows, rows64)
        events = log.events()[before:]
        assert [(e.stage, e.action) for e in events] == [
            ("isdf-fit", "fallback-fp64")
        ]

    def test_verify_off_skips_the_check(self, problem, log):
        psi_v, psi_c, idx = problem
        log, before = log
        unchecked = resolve_precision("mixed").replace(
            fit_tol=0.0, verify=False
        )
        rows = fit_interpolation_vectors(
            psi_v, psi_c, idx, precision=unchecked
        )
        # No event, and the fp32-GEMM result (not the fp64 refit) came back.
        assert len(log) == before
        rows64 = fit_interpolation_vectors(psi_v, psi_c, idx)
        assert not np.array_equal(rows, rows64)


class TestMixedGram:
    """The fp32 Coulomb plan behind ``HxcKernel.gram`` (the naive Casida
    ``V_Hxc``): fp32 transform, fp64 Gram, first-call cross-check.  The ISDF
    ``Vtilde`` (``project_kernel``) transforms in fp64 at every tier, so it
    equals strict64 and never touches the plan's check."""

    @pytest.fixture()
    def private_plans(self, monkeypatch):
        """A private plan cache: the fp32 plan meets its first call here."""
        from repro.pw import fft

        monkeypatch.setattr(fft, "_DEFAULT_PLAN_CACHE", fft.PlanCache())

    @pytest.fixture()
    def problem(self, private_plans):
        from repro.atoms import bulk_silicon
        from repro.core import isdf_decompose
        from repro.synthetic import synthetic_ground_state

        gs = synthetic_ground_state(
            bulk_silicon(8), ecut=5.0, n_valence=8, n_conduction=6, seed=11
        )
        psi_v, _, psi_c, _ = gs.select_transition_space()
        isdf = isdf_decompose(
            psi_v, psi_c, 24, grid_points=gs.basis.grid.cartesian_points
        )
        return gs, isdf

    @staticmethod
    def _strict_and_mixed(gs, isdf):
        from repro.core import HxcKernel
        from repro.core.isdf_hamiltonian import project_kernel

        strict = project_kernel(isdf, HxcKernel(gs.basis, gs.density))
        kernel = HxcKernel(gs.basis, gs.density, precision="mixed")
        return strict, project_kernel(isdf, kernel), kernel._coulomb_plan

    def test_mixed_vtilde_within_fft_tol(self, problem, log):
        gs, isdf = problem
        log, before = log
        strict, mixed, plan = self._strict_and_mixed(gs, isdf)
        assert plan.dtype == np.float32
        assert not plan.degraded
        np.testing.assert_array_equal(mixed, strict)
        assert len(log) == before

    def test_near_neighbour_vtilde_is_strict64(self, problem, log):
        """The K-Means points plus each one's grid neighbour: ``C C^T`` has
        cond ~1e5, and solving after an fp32 Gram put ``Vtilde`` 3.9e-6 off
        strict64."""
        from repro.core import isdf_decompose

        gs, isdf = problem
        log, before = log
        psi_v, _, psi_c, _ = gs.select_transition_space()
        km = isdf.indices
        near = np.unique(np.concatenate([km, (km + 1) % gs.basis.n_r]))
        near_isdf = isdf_decompose(psi_v, psi_c, indices=near)
        strict, mixed, plan = self._strict_and_mixed(gs, near_isdf)
        assert not plan.degraded
        np.testing.assert_array_equal(mixed, strict)
        assert len(log) == before

    def test_tampered_fp32_spectra_do_not_reach_vtilde(
        self, problem, log, monkeypatch
    ):
        gs, isdf = problem
        log, before = log
        self._tamper_fp32_spectra(monkeypatch)
        strict, mixed, plan = self._strict_and_mixed(gs, isdf)
        assert not plan.degraded
        np.testing.assert_array_equal(mixed, strict)
        assert len(log) == before

    @staticmethod
    def _tamper_fp32_spectra(monkeypatch):
        import scipy.fft

        rfftn = scipy.fft.rfftn

        def tampered(x, *args, **kwargs):
            spec = rfftn(x, *args, **kwargs)
            if spec.dtype == np.complex64:
                spec[..., 1, 1, 1] *= 2.0
            return spec

        monkeypatch.setattr(scipy.fft, "rfftn", tampered)

    def test_tampered_spectrum_degrades_to_the_fp64_gram(
        self, problem, log, monkeypatch
    ):
        from repro.core import HxcKernel

        gs, isdf = problem
        log, before = log
        rows = isdf.theta.T
        strict = HxcKernel(gs.basis, gs.density).gram(rows)
        kernel = HxcKernel(gs.basis, gs.density, precision="mixed")
        self._tamper_fp32_spectra(monkeypatch)
        np.testing.assert_array_equal(kernel.gram(rows), strict)
        assert kernel._coulomb_plan.degraded
        np.testing.assert_array_equal(kernel.gram(rows), strict)
        events = log.events()[before:]
        assert [(e.stage, e.action) for e in events] == [
            ("fft-convolve", "fallback-fp64")
        ]


class TestMixedKmeans:
    @pytest.fixture()
    def problem(self, rng):
        points = rng.random((2000, 3))
        weights = rng.random(2000) + 0.1
        return points, weights

    def test_mixed_inertia_within_tolerance(self, problem, log):
        points, weights = problem
        log, before = log
        strict = weighted_kmeans(
            points, weights, 16, rng=np.random.default_rng(0)
        )
        mixed = weighted_kmeans(
            points, weights, 16, rng=np.random.default_rng(0),
            precision="mixed",
        )
        drift = abs(mixed[2] - strict[2]) / abs(strict[2])
        assert drift <= 1e-2
        assert len(log) == before

    def test_recheck_mismatch_reruns_in_fp64(self, problem, log, monkeypatch):
        """A failed fp64 assignment recheck re-runs the whole clustering in
        fp64 — the returned result is exactly the strict64 one, and the
        fallback lands in the resilience log."""
        points, weights = problem
        log, before = log
        init = points[:8].copy()
        strict = weighted_kmeans(
            points, weights, 8, initial_centroids=init
        )

        real = kmeans_mod._classify_tiled
        tampered_once = []

        def tampered(pts, centroids, tile_bytes):
            labels, d2n, d2s = real(pts, centroids, tile_bytes)
            # Corrupt exactly the first fp64 classification: in mixed mode
            # the loop classifies against fp32 centroids, so the first
            # fp64 call *is* the converged-assignment recheck.
            if centroids.dtype == np.float64 and not tampered_once:
                tampered_once.append(True)
                labels = labels.copy()
                labels[0] = (labels[0] + 1) % centroids.shape[0]
            return labels, d2n, d2s

        monkeypatch.setattr(kmeans_mod, "_classify_tiled", tampered)
        mixed = weighted_kmeans(
            points, weights, 8, initial_centroids=init, precision="mixed"
        )
        events = log.events()[before:]
        assert [(e.stage, e.action) for e in events] == [
            ("kmeans-classify", "fallback-fp64")
        ]
        np.testing.assert_array_equal(mixed[0], strict[0])
        np.testing.assert_array_equal(mixed[1], strict[1])
        assert mixed[2] == strict[2]
        assert mixed[3:] == strict[3:]

    def test_fast32_skips_the_recheck(self, problem, log):
        points, weights = problem
        log, before = log
        fast = weighted_kmeans(
            points, weights, 16, rng=np.random.default_rng(0),
            precision="fast32",
        )
        strict = weighted_kmeans(
            points, weights, 16, rng=np.random.default_rng(0)
        )
        drift = abs(fast[2] - strict[2]) / abs(strict[2])
        assert drift <= 1e-2
        assert len(log) == before


class TestPairProducts:
    def test_fp32_output_within_rounding(self, rng):
        psi_v = rng.standard_normal((4, 512))
        psi_c = rng.standard_normal((4, 512))
        z64 = pair_products(psi_v, psi_c)
        z32 = pair_products(psi_v, psi_c, dtype=np.float32)
        assert z32.dtype == np.float32
        scale = np.abs(z64).max()
        assert np.abs(z32.astype(np.float64) - z64).max() / scale <= 1e-5
