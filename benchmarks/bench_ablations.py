"""Ablations of the design choices DESIGN.md calls out.

1. Weight-pruning threshold (Section 4.2's N_r' trick): candidates kept vs
   selection quality.
2. ISDF rank sweep: accuracy vs N_mu (the c in N_mu = c N_e).
3. LOBPCG preconditioner (Eq. 17) on/off: iteration counts.
4. Pipelined GEMM+Reduce vs monolithic GEMM+Allreduce (Figures 4-5):
   per-rank memory and traffic.
5. K-Means initialization policy: greedy-weight vs weighted k-means++.
"""

import numpy as np
import pytest

from repro.api import TDDFTConfig
from repro.core import (
    HxcKernel,
    ImplicitCasidaOperator,
    LRTDDFTSolver,
    isdf_decompose,
    pair_products,
    select_points_kmeans,
)
from repro.eigen import lobpcg
from repro.parallel import (
    BlockDistribution1D,
    distributed_build_vhxc,
    pipelined_vhxc_rows,
    spmd_run,
)
from repro.utils.rng import default_rng


@pytest.fixture(scope="module")
def solver(si8_state):
    return LRTDDFTSolver(si8_state, seed=1)


def test_ablation_prune_threshold(benchmark, si8_state, save_table):
    gs = si8_state
    psi_v, _, psi_c, _ = gs.select_transition_space()
    grid_points = gs.basis.grid.cartesian_points

    def sweep():
        rows = []
        for threshold in (1e-8, 1e-4, 1e-2, 1e-1):
            res = select_points_kmeans(
                psi_v, psi_c, 32, grid_points=grid_points,
                prune_threshold=threshold, rng=default_rng(0),
            )
            rows.append((threshold, res.candidate_indices.size, res.inertia))
        return rows

    rows = benchmark(sweep)
    lines = [
        "Ablation — K-Means weight-pruning threshold",
        "",
        f"{'threshold':>10s} {'candidates':>11s} {'inertia':>12s}",
    ]
    for threshold, n_cand, inertia in rows:
        lines.append(f"{threshold:10.0e} {n_cand:11d} {inertia:12.4e}")
    save_table("ablation_prune", "\n".join(lines))

    counts = [r[1] for r in rows]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] < counts[0]


def test_ablation_rank_sweep(benchmark, solver, save_table):
    reference = solver.solve(TDDFTConfig(method="naive", n_excitations=4))

    def sweep():
        rows = []
        for fraction in (0.2, 0.4, 0.6, 0.8, 1.0):
            n_mu = max(4, int(fraction * solver.n_pairs))
            res = solver.solve(
                TDDFTConfig(
                    method="implicit-kmeans-isdf-lobpcg", n_excitations=4, n_mu=n_mu,
                    tol=1e-9,
                )
            )
            err = np.abs(
                (res.energies - reference.energies[:4]) / reference.energies[:4]
            ).max()
            rows.append((fraction, n_mu, err))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "Ablation — ISDF rank (accuracy vs N_mu / N_cv)",
        "",
        f"{'fraction':>9s} {'N_mu':>6s} {'max rel err':>12s}",
    ]
    for fraction, n_mu, err in rows:
        lines.append(f"{fraction:9.2f} {n_mu:6d} {err:12.3e}")
    save_table("ablation_rank", "\n".join(lines))

    errs = [r[2] for r in rows]
    assert errs[-1] < 1e-6  # full rank: exact
    assert errs[0] > errs[-1]  # error decreases overall with rank


def test_ablation_preconditioner(benchmark, si8_state, save_table):
    """Eq. 17's preconditioner must cut LOBPCG iterations."""
    gs = si8_state
    psi_v, eps_v, psi_c, eps_c = gs.select_transition_space()
    kernel = HxcKernel(gs.basis, gs.density)
    isdf = isdf_decompose(
        psi_v, psi_c, 64, method="kmeans",
        grid_points=gs.basis.grid.cartesian_points, rng=default_rng(0),
    )
    op = ImplicitCasidaOperator(isdf, eps_v, eps_c, kernel)
    rng = default_rng(1)
    x0 = rng.standard_normal((op.n_pairs, 6))

    def run():
        with_prec = lobpcg(
            op.apply, x0, preconditioner=op.preconditioner,
            tol=1e-8, max_iter=400,
        )
        without = lobpcg(op.apply, x0, tol=1e-8, max_iter=400)
        return with_prec, without

    with_prec, without = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Ablation — LOBPCG preconditioner (paper Eq. 17)",
        "",
        f"with preconditioner:    {with_prec.iterations:4d} iterations "
        f"(converged={with_prec.converged})",
        f"without preconditioner: {without.iterations:4d} iterations "
        f"(converged={without.converged})",
    ]
    save_table("ablation_preconditioner", "\n".join(lines))
    assert with_prec.converged
    assert with_prec.iterations < without.iterations


def test_ablation_pipelined_reduce(benchmark, si8_state, save_table):
    """Figures 4-5: pipelined per-block Reduce vs monolithic Allreduce."""
    gs = si8_state
    psi_v, _, psi_c, _ = gs.select_transition_space()
    kernel = HxcKernel(gs.basis, gs.density)
    n_ranks = 4
    dist = BlockDistribution1D(gs.basis.n_r, n_ranks)
    z = pair_products(psi_v, psi_c)
    k = kernel.apply(z.T).T
    n_pairs = z.shape[1]

    def monolithic(comm):
        sl = dist.local_slice(comm.rank)
        distributed_build_vhxc(comm, psi_v[:, sl], psi_c[:, sl], kernel, dist)

    def pipelined(comm):
        sl = dist.local_slice(comm.rank)
        rows, _ = pipelined_vhxc_rows(comm, z[sl], k[sl], kernel.basis.grid.dv)
        return rows.shape

    def run():
        _, mono = spmd_run(n_ranks, monolithic, return_traffic=True)
        shapes, pipe = spmd_run(n_ranks, pipelined, return_traffic=True)
        return mono, pipe, shapes

    mono, pipe, shapes = benchmark.pedantic(run, rounds=1, iterations=1)
    mono_reduce = mono.bytes_by_op.get("allreduce", 0)
    pipe_reduce = pipe.bytes_by_op.get("reduce", 0)
    lines = [
        "Ablation — pipelined GEMM+Reduce vs monolithic GEMM+Allreduce",
        "",
        f"monolithic allreduce volume: {mono_reduce / 1e6:8.2f} MB "
        f"(full V_Hxc on every rank)",
        f"pipelined reduce volume:     {pipe_reduce / 1e6:8.2f} MB "
        f"(owner-only rows)",
        f"per-rank V_Hxc storage:      {n_pairs}x{n_pairs} -> "
        f"{shapes[0][0]}x{shapes[0][1]} rows per rank",
    ]
    save_table("ablation_pipeline", "\n".join(lines))
    # The pipelined scheme stores 1/P of the matrix per rank...
    assert shapes[0][0] == pytest.approx(n_pairs / n_ranks, abs=1)
    # ...and moves less reduction volume than the replicate-everywhere path.
    assert pipe_reduce < mono_reduce


def test_ablation_hybrid_threads(benchmark, save_table):
    """Section 6.3: binding more OpenMP threads per MPI rank reduces the
    collective cost at extreme scale (the paper's Si_4096 runs use 16)."""
    from repro.data.calibration import CALIBRATED_SPEC
    from repro.perf import time_alltoall

    def sweep():
        return {
            tpp: time_alltoall(
                8.0 * 4574296 * 768, CALIBRATED_SPEC, 12288,
                threads_per_process=tpp,
            )
            for tpp in (1, 4, 16, 32)
        }

    times = benchmark(sweep)
    lines = [
        "Ablation — hybrid MPI/OpenMP layout (Si_4096 alltoall @ 12,288 cores)",
        "",
        f"{'threads/rank':>13s} {'processes':>10s} {'alltoall (s)':>13s}",
    ]
    for tpp, t in times.items():
        lines.append(f"{tpp:13d} {12288 // tpp:10d} {t:13.4f}")
    save_table("ablation_hybrid", "\n".join(lines))
    values = list(times.values())
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_ablation_kmeans_init(benchmark, si8_state, save_table):
    gs = si8_state
    psi_v, _, psi_c, _ = gs.select_transition_space()
    grid_points = gs.basis.grid.cartesian_points

    def run():
        out = {}
        for init in ("greedy-weight", "plusplus"):
            res = select_points_kmeans(
                psi_v, psi_c, 32, grid_points=grid_points, init=init,
                rng=default_rng(3),
            )
            out[init] = (res.inertia, res.n_iter, res.converged)
        return out

    results = benchmark(run)
    lines = [
        "Ablation — K-Means initialization policy",
        "",
        f"{'init':<16s} {'inertia':>12s} {'iterations':>11s} {'converged':>10s}",
    ]
    for init, (inertia, n_iter, converged) in results.items():
        lines.append(f"{init:<16s} {inertia:12.4e} {n_iter:11d} {converged!s:>10s}")
    save_table("ablation_kmeans_init", "\n".join(lines))
    for inertia, _, converged in results.values():
        assert converged
        assert np.isfinite(inertia)
