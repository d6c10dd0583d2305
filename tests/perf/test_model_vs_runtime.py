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
    """Runtime: the first transpose moves the (N_cv x N_r) pair fields to
    whole-field blocks, the second their half spectra (2 N_half floats per
    field) to spectral-row blocks, each moving the off-diagonal tiles.

    The cost model (repro.perf) keeps the paper's Algorithm 1: two
    transposes of 8 N_r N_cv bytes.  Runtime over model is exactly
    (N_r + 2 N_half) / (2 N_r), i.e. 1 + 1 / n3 for even n3."""
    gs, psi_v, psi_c, kernel = problem
    n_ranks = 4
    dist = BlockDistribution1D(gs.basis.n_r, n_ranks)

    def prog(comm):
        sl = dist.local_slice(comm.rank)
        distributed_build_vhxc(comm, psi_v[:, sl], psi_c[:, sl], kernel, dist)

    _, traffic = spmd_run(n_ranks, prog, return_traffic=True)

    n_r = gs.basis.n_r
    n_cv = psi_v.shape[0] * psi_c.shape[0]
    two_n_half = 2 * kernel.coulomb_plan.kernel_half.size
    pair_dist = BlockDistribution1D(n_cv, n_ranks)
    spec_dist = BlockDistribution1D(two_n_half, n_ranks)
    off_diagonal = [(s, d) for s in range(n_ranks) for d in range(n_ranks) if s != d]
    # Sender s ships its grid rows of the pairs d owns, then its pairs'
    # spectra on the spectral rows d owns.
    fields = sum(dist.count(s) * pair_dist.count(d) * 8 for s, d in off_diagonal)
    spectra = sum(pair_dist.count(s) * spec_dist.count(d) * 8 for s, d in off_diagonal)
    assert traffic.bytes_by_op["alltoall"] == fields + spectra
    # The (P-1)/P closed form agrees within the uneven-split slack.
    closed_form = 8.0 * n_cv * (n_r + two_n_half) * (n_ranks - 1) / n_ranks
    assert traffic.bytes_by_op["alltoall"] == pytest.approx(closed_form, rel=0.05)
    model = 2 * 8.0 * n_r * n_cv * (n_ranks - 1) / n_ranks
    n3 = gs.basis.grid.shape[2]
    assert n3 % 2 == 0
    assert closed_form / model == pytest.approx((n_r + two_n_half) / (2 * n_r), rel=1e-12)
    assert closed_form / model == pytest.approx(1 + 1 / n3, rel=1e-12)


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
