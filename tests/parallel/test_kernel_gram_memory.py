"""Peak memory of one rank in the distributed kernel Gram.

Each rank z-transforms only its own z-lines, one k3-slab at a time, and
the planes it finishes arrive in one array, so a rank's allocations rise
by a few slabs over its entry level and never by a copy of its fields.
Measured per forked rank with ``tracemalloc``; this module runs outside
the SPMD sanitizer, whose race check holds on to published buffers until
the next collective.
"""

import numpy as np
import pytest

from repro.atoms import bulk_silicon
from repro.core import HxcKernel
from repro.parallel import BlockDistribution1D, distributed_kernel_gram, spmd_run
from repro.pw.fft import SLAB_PLANES
from repro.synthetic import synthetic_ground_state
from repro.utils.rng import default_rng


@pytest.mark.process_backend
@pytest.mark.parametrize("n_ranks", [2, 3])
def test_rank_peak_has_no_field_term(n_ranks):
    """A rank's traced rise stays under ``3 sigma`` plus ``O(m^2)``, where
    ``sigma`` is one slab of its share of the z-spectrum.  Its fields,
    ``F = 8 m N_r / P`` bytes, are 3 sigma on this 24^3 grid, so a second
    copy of them (a transpose to whole fields) breaks the bound."""
    import tracemalloc

    gs = synthetic_ground_state(
        bulk_silicon(8), ecut=20.0, n_valence=4, n_conduction=4, seed=11
    )
    kernel = HxcKernel(gs.basis, gs.density)
    n1, n2, n3 = gs.basis.grid.shape
    n_r = gs.basis.n_r
    m = 96
    rows = default_rng(4).standard_normal((m, n_r))
    dist = BlockDistribution1D(n_r, n_ranks)
    sigma = 16 * m * n1 * n2 * SLAB_PLANES / n_ranks
    fields = 8 * m * n_r / n_ranks
    assert fields >= 3 * sigma

    def prog(comm):
        local = rows[:, dist.local_slice(comm.rank)]
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            distributed_kernel_gram(comm, local, kernel, dist)
            return tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()

    bound = 3 * sigma + 64 * m * m
    for rise in spmd_run(n_ranks, prog, backend="process"):
        assert rise <= bound, f"rank rise {rise / 1e6:.2f} MB > {bound / 1e6:.2f} MB"
