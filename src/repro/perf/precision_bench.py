"""Measured strict64 vs mixed precision-tier comparison.

The mixed tier (see :mod:`repro.precision`) runs the compute-bound stages
of the ISDF pipeline in fp32 while keeping every accumulation and every
convergence-critical solve in fp64.  This bench measures the three stages
the tier actually accelerates, each with the per-stage a-posteriori error
column the tier's documented tolerances gate on:

* **K-Means point selection** — fp32 distance/assignment classification
  with fp64 centroid accumulators and a converged-assignment fp64
  recheck (:func:`repro.core.kmeans.weighted_kmeans`),
* **ISDF fit rows** — fp32 tall-skinny GEMMs with a sampled fp64 residual
  check (:func:`repro.core.fitting.fit_interpolation_vectors`); the error
  column is taken on Theta, solved from each tier's rows in fp64,
* **pair-product assembly** — :func:`repro.core.pair_products.pair_products`
  with fp32 output (the memory-bound ``Z`` build).

The composite speedup (total strict64 seconds / total mixed seconds) is
the number ``tools/check_bench.py`` gates on (floor 1.5x in the committed
full-mode report); the per-stage error columns double as numerics checks —
a "win" outside its tolerance fails the gate rather than shipping.
"""

from __future__ import annotations

import json
import platform

import numpy as np

from repro.core.fitting import fit_interpolation_vectors, solve_theta
from repro.core.kmeans import weighted_kmeans
from repro.core.pair_products import pair_products
from repro.perf.backend_bench import _figure8_like_weights, _time_best
from repro.precision import resolve_precision
from repro.pw import RealSpaceGrid, UnitCell
from repro.resilience import resilience_log
from repro.utils.threads import blas_info

#: Composite-speedup floor the committed full-mode report must meet.
COMPOSITE_TARGET = 1.5

#: Per-stage error bounds (documented in docs/performance.md).  The kmeans
#: bound is on the relative inertia difference — fp32 classification may
#: legally take a different iteration *trajectory*, so bit-identity is the
#: wrong metric; clustering quality is the right one.  The fit and
#: pair-product bounds are straight fp32-rounding bounds.
STAGE_TOLERANCES = {
    "kmeans": 1e-2,
    "isdf_fit": 1e-4,
    "pair_product": 1e-5,
}


def bench_kmeans_precision(
    *,
    shape: tuple[int, int, int] = (40, 40, 40),
    box: float = 20.0,
    n_clusters: int = 196,
    n_bumps: int = 48,
    prune_threshold: float = 1e-6,
    max_iter: int = 300,
    repeats: int = 2,
    seed: int = 13,
) -> dict:
    """strict64 vs mixed K-Means on the Figure-8-like candidate set."""
    grid = RealSpaceGrid(UnitCell.cubic(box), shape)
    weights_full = _figure8_like_weights(grid, n_bumps, seed)
    keep = np.flatnonzero(weights_full >= prune_threshold * weights_full.max())
    points = grid.cartesian_points[keep]
    weights = weights_full[keep]

    tiers: dict[str, dict] = {}
    results: dict[str, tuple] = {}
    for tier in ("strict64", "mixed"):
        seconds, res = _time_best(
            lambda tier=tier: weighted_kmeans(
                points, weights, n_clusters,
                init="greedy-weight", max_iter=max_iter, tol=0.0,
                algorithm="hamerly", precision=tier,
            ),
            repeats,
        )
        results[tier] = res
        tiers[tier] = {
            "seconds": seconds,
            "n_iter": int(res[3]),
            "converged": bool(res[4]),
        }
    strict, mixed = results["strict64"], results["mixed"]
    inertia_strict, inertia_mixed = float(strict[2]), float(mixed[2])
    error = abs(inertia_mixed - inertia_strict) / max(abs(inertia_strict), 1e-300)
    tol = STAGE_TOLERANCES["kmeans"]
    return {
        "workload": {
            "grid": list(shape),
            "n_candidates": int(points.shape[0]),
            "n_clusters": n_clusters,
            "max_iter": max_iter,
            "repeats": repeats,
        },
        "tiers": tiers,
        "speedup": tiers["strict64"]["seconds"] / tiers["mixed"]["seconds"],
        "error": error,
        "error_metric": "relative inertia difference, mixed vs strict64",
        "tolerance": tol,
        "within_tolerance": bool(error <= tol),
    }


def bench_fit_precision(
    *,
    n_r: int = 32768,
    n_v: int = 24,
    n_c: int = 24,
    n_mu: int = 240,
    repeats: int = 3,
    seed: int = 3,
) -> dict:
    """strict64 vs mixed interpolation-vector fit on synthetic orbitals."""
    rng = np.random.default_rng(seed)
    psi_v = rng.standard_normal((n_v, n_r))
    psi_c = rng.standard_normal((n_c, n_r))
    indices = np.sort(rng.choice(n_r, size=n_mu, replace=False))

    tiers: dict[str, dict] = {}
    thetas: dict[str, np.ndarray] = {}
    for tier in ("strict64", "mixed"):
        seconds, rows = _time_best(
            lambda tier=tier: fit_interpolation_vectors(
                psi_v, psi_c, indices, precision=tier
            ),
            repeats,
        )
        tiers[tier] = {"seconds": seconds}
        thetas[tier] = solve_theta(psi_v[:, indices], psi_c[:, indices], rows)
    scale = float(np.linalg.norm(thetas["strict64"])) or 1.0
    error = float(np.linalg.norm(thetas["mixed"] - thetas["strict64"])) / scale
    tol = STAGE_TOLERANCES["isdf_fit"]
    return {
        "workload": {
            "n_r": n_r, "n_v": n_v, "n_c": n_c, "n_mu": n_mu,
            "repeats": repeats,
        },
        "tiers": tiers,
        "speedup": tiers["strict64"]["seconds"] / tiers["mixed"]["seconds"],
        "error": error,
        "error_metric": "relative Frobenius difference of Theta vs strict64",
        "tolerance": tol,
        "within_tolerance": bool(error <= tol),
    }


def bench_pair_product_precision(
    *,
    n_r: int = 32768,
    n_v: int = 12,
    n_c: int = 12,
    repeats: int = 3,
    seed: int = 5,
) -> dict:
    """fp64 vs fp32 pair-product assembly (``Z``, the memory-bound build)."""
    rng = np.random.default_rng(seed)
    psi_v = rng.standard_normal((n_v, n_r))
    psi_c = rng.standard_normal((n_c, n_r))

    tiers: dict[str, dict] = {}
    outputs: dict[str, np.ndarray] = {}
    for tier, dtype in (("strict64", None), ("mixed", np.float32)):
        seconds, z = _time_best(
            lambda dtype=dtype: pair_products(psi_v, psi_c, dtype=dtype),
            repeats,
        )
        tiers[tier] = {"seconds": seconds}
        outputs[tier] = np.asarray(z)
    scale = float(np.abs(outputs["strict64"]).max()) or 1.0
    error = (
        float(np.abs(outputs["mixed"].astype(np.float64)
                     - outputs["strict64"]).max()) / scale
    )
    tol = STAGE_TOLERANCES["pair_product"]
    return {
        "workload": {"n_r": n_r, "n_v": n_v, "n_c": n_c, "repeats": repeats},
        "tiers": tiers,
        "speedup": tiers["strict64"]["seconds"] / tiers["mixed"]["seconds"],
        "error": error,
        "error_metric": "max abs difference / max abs, fp32 vs fp64",
        "tolerance": tol,
        "within_tolerance": bool(error <= tol),
    }


def run_precision_bench(*, smoke: bool = False) -> dict:
    """Full (or smoke-sized) strict64-vs-mixed composite, JSON-ready."""
    log = resilience_log()
    events_before = len(log)
    if smoke:
        kmeans = bench_kmeans_precision(
            shape=(16, 16, 16), box=8.0, n_clusters=24, n_bumps=12,
            max_iter=100, repeats=1,
        )
        fit = bench_fit_precision(n_r=4096, n_v=8, n_c=8, n_mu=64, repeats=1)
        pair = bench_pair_product_precision(n_r=4096, n_v=6, n_c=6, repeats=1)
    else:
        kmeans = bench_kmeans_precision()
        fit = bench_fit_precision()
        pair = bench_pair_product_precision()
    stages = {"kmeans": kmeans, "isdf_fit": fit, "pair_product": pair}
    strict_total = sum(
        s["tiers"]["strict64"]["seconds"] for s in stages.values()
    )
    mixed_total = sum(s["tiers"]["mixed"]["seconds"] for s in stages.values())
    composite = strict_total / mixed_total
    fallbacks = [
        {"stage": e.stage, "action": e.action, "reason": e.reason}
        for e in log.events()[events_before:]
    ]
    mixed_config = resolve_precision("mixed")
    return {
        "meta": {
            "mode": "smoke" if smoke else "full",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(),
            "mixed_config": {
                "kmeans_fp32": mixed_config.kmeans_fp32,
                "fit_fp32": mixed_config.fit_fp32,
                "pair_fp32": mixed_config.pair_fp32,
                "wire_fp32": mixed_config.wire_fp32,
                "fft_fp32": mixed_config.fft_fp32,
                "fit_tol": mixed_config.fit_tol,
                "fft_tol": mixed_config.fft_tol,
                "wire_tol": mixed_config.wire_tol,
            },
        },
        "stages": stages,
        "composite": {
            "strict64_seconds": strict_total,
            "mixed_seconds": mixed_total,
            "speedup": composite,
            "target": COMPOSITE_TARGET,
            "meets_target": bool(composite >= COMPOSITE_TARGET),
        },
        "all_within_tolerance": bool(
            all(s["within_tolerance"] for s in stages.values())
        ),
        "fallback_events": fallbacks,
    }


def format_summary(report: dict) -> str:
    """Terse human-readable digest of :func:`run_precision_bench` output."""
    lines = [f"precision bench ({report['meta']['mode']} mode)"]
    for name, stage in report["stages"].items():
        strict = stage["tiers"]["strict64"]["seconds"] * 1e3
        mixed = stage["tiers"]["mixed"]["seconds"] * 1e3
        lines.append(
            f"  {name:<13s} {strict:9.2f} ms -> {mixed:9.2f} ms  "
            f"({stage['speedup']:.2f}x, err {stage['error']:.2e} "
            f"<= {stage['tolerance']:.0e}: {stage['within_tolerance']})"
        )
    comp = report["composite"]
    lines.append(
        f"  composite speedup {comp['speedup']:.2f}x "
        f"(target {comp['target']:.1f}x, meets={comp['meets_target']})"
    )
    if report["fallback_events"]:
        lines.append(
            f"  WARNING: {len(report['fallback_events'])} precision "
            "fallback(s) fired during the bench — mixed-tier timings "
            "include fp64 redo work"
        )
    return "\n".join(lines)


def write_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
