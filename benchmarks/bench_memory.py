"""Section 4's memory claims: the implicit method vs the naive one.

Two layers: the analytic per-process footprint across the paper's silicon
series (the "nearly 2 orders of magnitude" claim and the 32 GB example),
and *measured* peak allocation of the real Python solvers via
``tracemalloc`` on a scaled system.
"""

import tracemalloc

import numpy as np
import pytest

from repro.api import TDDFTConfig
from repro.core import LRTDDFTSolver
from repro.perf import silicon_workload


def test_memory_model_table(benchmark, save_table):
    def run():
        rows = []
        for n in (64, 216, 512, 1000, 4096):
            w = silicon_workload(n)
            rows.append(
                (w.label, w.memory_naive_bytes(), w.memory_implicit_bytes())
            )
        return rows

    rows = benchmark(run)
    lines = [
        "Memory model — naive vs implicit (paper nominal scaling,",
        "N_v ~ N_c ~ 2 N_atoms, N_mu = 8 N_v)",
        "",
        f"{'system':<8s} {'naive':>12s} {'implicit':>12s} {'reduction':>10s}",
    ]
    for label, naive, implicit in rows:
        lines.append(
            f"{label:<8s} {naive / 2**30:10.1f}GB {implicit / 2**30:10.2f}GB "
            f"{naive / implicit:9.0f}x"
        )
    lines += [
        "",
        "Section 4's example: N_v = N_c = 256 double precision ->",
        f"H is {(256 * 256) ** 2 * 8 / 2**30:.1f} GB per process (paper: 32 GB).",
    ]
    save_table("memory_model", "\n".join(lines))

    for label, naive, implicit in rows[2:]:
        assert naive / implicit > 100  # ~2 orders of magnitude


def test_measured_peak_memory(benchmark, si8_state, save_table):
    """tracemalloc peak of the naive vs the implicit solver on the same
    problem: the implicit path must allocate far less."""
    solver = LRTDDFTSolver(si8_state, seed=0)

    def measure(method, **kwargs):
        tracemalloc.start()
        solver.solve(TDDFTConfig(method=method, n_excitations=4, **kwargs))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    naive_peak = measure("naive")
    implicit_peak = measure(
        "implicit-kmeans-isdf-lobpcg", n_mu=max(8, solver.n_pairs // 4)
    )
    benchmark.pedantic(lambda: measure("naive"), rounds=1, iterations=1)

    lines = [
        "Measured peak allocations (tracemalloc, synthetic Si_8 workload)",
        "",
        f"N_cv = {solver.n_pairs}, N_r = {solver.basis.n_r}",
        f"naive solver:    {naive_peak / 2**20:8.1f} MB "
        "(pair matrix + dense H)",
        f"implicit solver: {implicit_peak / 2**20:8.1f} MB "
        "(Theta + Vtilde, never H)",
        f"reduction:       {naive_peak / implicit_peak:8.1f}x",
    ]
    save_table("memory_measured", "\n".join(lines))

    assert implicit_peak < naive_peak
