"""Cross-layer validation: the cost model's communication volumes must
match what the real SPMD runtime actually moves.

The model predicts times from byte volumes; the runtime traces bytes
exactly. If the two disagree on *volume*, every modeled scaling figure is
suspect — so this is the keystone test tying `repro.perf` to
`repro.parallel`.
"""

import numpy as np
import pytest

from repro.core import HxcKernel
from repro.parallel import (
    BlockDistribution1D,
    distributed_build_vhxc,
    distributed_isdf_vtilde,
    spmd_run,
)
from repro.synthetic import synthetic_ground_state
from repro.atoms import bulk_silicon
from repro.core import isdf_decompose
from repro.utils.rng import default_rng


@pytest.fixture(scope="module")
def problem():
    gs = synthetic_ground_state(
        bulk_silicon(8), ecut=5.0, n_valence=6, n_conduction=4, seed=3
    )
    psi_v, _, psi_c, _ = gs.select_transition_space()
    kernel = HxcKernel(gs.basis, gs.density)
    return gs, psi_v, psi_c, kernel


def test_naive_alltoall_volume_matches_model_formula(problem):
    """Runtime: one transpose of the pair fields' complex z-spectra (2 N_half
    floats per field) from grid blocks to blocks of k3 planes, moving the
    off-diagonal tiles; a z-line the grid split cuts is sent by both of
    the ranks holding parts of it.

    The cost model (repro.perf) keeps the paper's Algorithm 1: two
    transposes of 8 N_r N_cv bytes.  Runtime over model is exactly
    2 N_half / (2 N_r), i.e. (1 + 2 / n3) / 2 for even n3."""
    gs, psi_v, psi_c, kernel = problem
    n_ranks = 4
    dist = BlockDistribution1D(gs.basis.n_r, n_ranks)

    def prog(comm):
        sl = dist.local_slice(comm.rank)
        distributed_build_vhxc(comm, psi_v[:, sl], psi_c[:, sl], kernel, dist)

    _, traffic = spmd_run(n_ranks, prog, return_traffic=True)

    n_r = gs.basis.n_r
    n1, n2, n3 = gs.basis.grid.shape
    n_cv = psi_v.shape[0] * psi_c.shape[0]
    two_n_half = 2 * kernel.coulomb_plan.kernel_half.size
    plane_dist = BlockDistribution1D(n3 // 2 + 1, n_ranks)
    off_diagonal = [(s, d) for s in range(n_ranks) for d in range(n_ranks) if s != d]
    # Sender s ships its z-lines' spectra on the planes d finishes.
    blocks = [dist.local_slice(r) for r in range(n_ranks)]
    lines = [-(-b.stop // n3) - b.start // n3 for b in blocks]
    spectra = sum(16 * n_cv * lines[s] * plane_dist.count(d) for s, d in off_diagonal)
    assert traffic.bytes_by_op["alltoall"] == spectra
    # The (P-1)/P closed form agrees within the uneven-split slack.
    closed_form = 8.0 * n_cv * two_n_half * (n_ranks - 1) / n_ranks
    assert traffic.bytes_by_op["alltoall"] == pytest.approx(closed_form, rel=0.05)
    model = 2 * 8.0 * n_r * n_cv * (n_ranks - 1) / n_ranks
    assert n3 % 2 == 0
    assert two_n_half == 2 * n1 * n2 * (n3 // 2 + 1)
    assert closed_form / model == pytest.approx(two_n_half / (2 * n_r), rel=1e-12)
    assert closed_form / model == pytest.approx((1 + 2 / n3) / 2, rel=1e-12)


def test_isdf_alltoall_volume_scales_with_rank_ratio(problem):
    """The optimized pipeline's traffic is (N_mu / N_cv) of the naive one —
    the byte-level version of the paper's complexity reduction."""
    gs, psi_v, psi_c, kernel = problem
    n_cv = psi_v.shape[0] * psi_c.shape[0]
    isdf = isdf_decompose(psi_v, psi_c, 12, method="qrcp", rng=default_rng(0))
    dist = BlockDistribution1D(gs.basis.n_r, 3)

    def naive_prog(comm):
        sl = dist.local_slice(comm.rank)
        distributed_build_vhxc(comm, psi_v[:, sl], psi_c[:, sl], kernel, dist)

    def isdf_prog(comm):
        rows_local = isdf.fit_rows[:, dist.local_slice(comm.rank)]
        distributed_isdf_vtilde(
            comm, rows_local, isdf.psi_v_mu, isdf.psi_c_mu, kernel, dist
        )

    _, t_naive = spmd_run(3, naive_prog, return_traffic=True)
    _, t_isdf = spmd_run(3, isdf_prog, return_traffic=True)
    ratio = t_isdf.bytes_by_op["alltoall"] / t_naive.bytes_by_op["alltoall"]
    assert ratio == pytest.approx(isdf.n_mu / n_cv, rel=1e-6)


def test_allreduce_volume_matches_matrix_size(problem):
    """Line 8 of Algorithm 1 reduces exactly one N_cv x N_cv matrix; the
    trace convention is 2 (P-1)/P x payload x P."""
    gs, psi_v, psi_c, kernel = problem
    n_ranks = 2
    n_cv = psi_v.shape[0] * psi_c.shape[0]
    dist = BlockDistribution1D(gs.basis.n_r, n_ranks)

    def prog(comm):
        sl = dist.local_slice(comm.rank)
        distributed_build_vhxc(comm, psi_v[:, sl], psi_c[:, sl], kernel, dist)

    _, traffic = spmd_run(n_ranks, prog, return_traffic=True)
    payload = 8 * n_cv * n_cv
    expected = int(2 * (n_ranks - 1) / n_ranks * payload * n_ranks)
    assert traffic.bytes_by_op["allreduce"] == expected
