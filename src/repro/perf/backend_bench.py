"""Measured A/B comparison of the K-Means point-selection loops.

The naive full-classification Lloyd loop vs the bound-pruned Hamerly loop
of :func:`repro.core.kmeans.weighted_kmeans`, benchmarked at (a scaled-down
analogue of) the paper's Figure-8 workload and emitted as a
machine-readable report (``BENCH_backend.json``), plus a counter sample of
the instrumented f_Hxc apply.

The comparison doubles as an equivalence check: the K-Means labels,
inertia and centroids must be bit-identical, so a numerics regression
fails the smoke run loudly before any benchmark number is believed.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Callable

import numpy as np

from repro.core.kernel import HxcKernel
from repro.core.kmeans import weighted_kmeans
from repro.pw import PlaneWaveBasis, RealSpaceGrid, UnitCell
from repro.utils import threads
from repro.utils.timers import TimerRegistry


def _time_best(fn: Callable[[], object], repeats: int) -> tuple[float, object]:
    """Best-of-``repeats`` wall time after one untimed warmup call."""
    result = fn()  # warmup (also the returned payload)
    best = np.inf
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def blas_info() -> dict:
    """BLAS vendor / version / threading facts for benchmark ``meta`` blocks.

    GEMM-heavy numbers are meaningless without knowing which BLAS ran them
    and on how many threads, so every measured report embeds this: numpy's
    build metadata, the process's thread budget and the *live* thread count
    of each OpenBLAS pool (:mod:`repro.utils.threads`).
    """
    import os

    info: dict = {
        "cpu_count": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "thread_budget": threads.budget(),
        "threadpools": threads.pool_threads(),
        "vendor": None,
        "version": None,
    }
    try:
        config = np.show_config(mode="dicts") or {}
        blas = (config.get("Build Dependencies") or {}).get("blas") or {}
        info["vendor"] = blas.get("name")
        info["version"] = blas.get("version")
        configuration = blas.get("openblas configuration")
        if configuration:
            info["configuration"] = str(configuration)
    except (TypeError, AttributeError, ValueError):
        pass  # older numpy without mode="dicts" — vendor stays None
    return info


# -- K-Means point selection ------------------------------------------------


def _figure8_like_weights(
    grid: RealSpaceGrid, n_bumps: int, seed: int
) -> np.ndarray:
    """Synthetic pair weights: a sum of Gaussian orbital-density bumps.

    Mimics the numerically sparse ``w(r)`` of Eq. 14 (localized mass around
    atomic sites, near-zero elsewhere) without the cost of an SCF at
    benchmark scale.
    """
    rng = np.random.default_rng(seed)
    points = grid.cartesian_points
    lengths = grid.cell.lengths
    centers = rng.random((n_bumps, 3)) * lengths
    sigma = float(lengths.min()) / 12.0
    w = np.zeros(points.shape[0])
    for c in centers:
        delta = points - c
        # Minimum-image so bumps wrap like periodic orbital densities.
        delta -= np.round(delta / lengths) * lengths
        w += np.exp(-np.einsum("ij,ij->i", delta, delta) / (2.0 * sigma**2))
    return w * w  # squared, like the product of two densities


def bench_kmeans_selection(
    *,
    shape: tuple[int, int, int] = (40, 40, 40),
    box: float = 20.0,
    n_clusters: int = 196,
    n_bumps: int = 48,
    prune_threshold: float = 1e-6,
    max_iter: int = 300,
    tol: float = 0.0,
    repeats: int = 2,
    seed: int = 13,
) -> dict:
    """Naive Lloyd vs bound-pruned Hamerly on a Figure-8-sized candidate set.

    ``max_iter`` defaults high enough that the full workload actually
    converges (the shipped report's numbers are then end-to-end times of
    a *finished* clustering, not of an arbitrary iteration cap); both are
    surfaced as ``repro bench-backend --kmeans-max-iter/--kmeans-tol``.
    """
    grid = RealSpaceGrid(UnitCell.cubic(box), shape)
    weights_full = _figure8_like_weights(grid, n_bumps, seed)
    keep = np.flatnonzero(weights_full >= prune_threshold * weights_full.max())
    points = grid.cartesian_points[keep]
    weights = weights_full[keep]

    results: dict[str, tuple] = {}
    algorithms: dict[str, dict] = {}
    for algorithm in ("lloyd", "hamerly"):
        seconds, res = _time_best(
            lambda algorithm=algorithm: weighted_kmeans(
                points, weights, n_clusters,
                init="greedy-weight", max_iter=max_iter, tol=tol,
                algorithm=algorithm,
            ),
            repeats,
        )
        results[algorithm] = res
        algorithms[algorithm] = {
            "seconds": seconds,
            "n_iter": int(res[3]),
            "converged": bool(res[4]),
        }

    lloyd, hamerly = results["lloyd"], results["hamerly"]
    return {
        "workload": {
            "grid": list(shape),
            "n_candidates": int(points.shape[0]),
            "n_clusters": n_clusters,
            "prune_threshold": prune_threshold,
            "max_iter": max_iter,
            "tol": tol,
            "repeats": repeats,
        },
        "algorithms": algorithms,
        "speedup": algorithms["lloyd"]["seconds"] / algorithms["hamerly"]["seconds"],
        "labels_identical": bool(np.array_equal(lloyd[1], hamerly[1])),
        "inertia_identical": bool(lloyd[2] == hamerly[2]),
        "centroids_identical": bool(np.array_equal(lloyd[0], hamerly[0])),
    }


# -- observability spot check ----------------------------------------------


def _phase_metrics_sample(*, box: float, ecut: float, batch: int, seed: int) -> dict:
    """Exercise the counter-instrumented kernel once and report its metrics."""
    basis = PlaneWaveBasis(UnitCell.cubic(box), ecut)
    rng = np.random.default_rng(seed)
    density = 0.05 + 0.01 * rng.random(basis.n_r)
    timers = TimerRegistry(track_allocations=True)
    kernel = HxcKernel(basis, density, timers=timers)
    fields = rng.standard_normal((batch, basis.n_r))
    kernel.apply(fields)
    kernel.apply(fields)  # second call shows steady-state allocation
    return timers.metrics()


# -- top-level driver -------------------------------------------------------


def run_backend_bench(
    *,
    smoke: bool = False,
    kmeans_max_iter: int | None = None,
    kmeans_tol: float | None = None,
) -> dict:
    """Full (or smoke-sized) backend comparison, as a JSON-ready dict."""
    km_kwargs: dict = {}
    if kmeans_max_iter is not None:
        km_kwargs["max_iter"] = kmeans_max_iter
    if kmeans_tol is not None:
        km_kwargs["tol"] = kmeans_tol
    if smoke:
        kmeans = bench_kmeans_selection(
            shape=(16, 16, 16), box=8.0, n_clusters=24, n_bumps=12, repeats=1,
            **km_kwargs,
        )
        metrics = _phase_metrics_sample(box=6.0, ecut=35.0, batch=4, seed=7)
    else:
        kmeans = bench_kmeans_selection(**km_kwargs)
        metrics = _phase_metrics_sample(box=10.0, ecut=114.0, batch=24, seed=7)
    return {
        "meta": {
            "mode": "smoke" if smoke else "full",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(),
            "cpu_count": __import__("os").cpu_count(),
        },
        "kmeans_selection": kmeans,
        "phase_metrics": metrics,
    }


def format_summary(report: dict) -> str:
    """Terse human-readable digest of :func:`run_backend_bench` output."""
    km = report["kmeans_selection"]
    lines = [f"backend bench ({report['meta']['mode']} mode)"]
    for name, stats in km["algorithms"].items():
        lines.append(
            f"  kmeans[{name:<7s}] {stats['seconds'] * 1e3:9.2f} ms"
            f"  ({stats['n_iter']} iter, converged={stats['converged']})"
        )
    lines.append(
        f"  kmeans speedup {km['speedup']:.2f}x  "
        f"(labels_identical={km['labels_identical']}, "
        f"inertia_identical={km['inertia_identical']})"
    )
    unconverged = [
        name
        for name, stats in km["algorithms"].items()
        if not stats["converged"]
    ]
    if unconverged:
        cap = km["workload"].get("max_iter", "?")
        lines.append(
            f"  WARNING: kmeans did not converge within max_iter={cap} "
            f"({', '.join(unconverged)}) — timings compare truncated runs, "
            "not finished clusterings; raise --kmeans-max-iter"
        )
    return "\n".join(lines)


def write_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
