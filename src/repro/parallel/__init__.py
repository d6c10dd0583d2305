"""Simulated SPMD/MPI runtime and the paper's parallel algorithms.

The paper runs on Cori with MPI; this environment has neither, so the
*algorithms* of Section 5 execute here on an in-process SPMD runtime: one
thread per virtual rank, deterministic rank-ordered collectives, and traced
communication volumes.  Every distributed kernel is tested to reproduce its
serial counterpart exactly; wall-clock *at scale* is the job of
:mod:`repro.perf`.

Contents:

* :mod:`repro.parallel.comm` — communicator + collectives + traffic trace,
* :mod:`repro.parallel.executor` — ``spmd_run(n_ranks, fn)``,
* :mod:`repro.parallel.distributions` — column-block / row-block /
  2-D block-cyclic descriptors (paper Figure 3),
* :mod:`repro.parallel.redistribute` — alltoall transposes and the
  ``pdgemr2d`` stand-in,
* :mod:`repro.parallel.parallel_kmeans` — distributed weighted K-Means,
* :mod:`repro.parallel.parallel_lrtddft` — distributed Hamiltonian
  construction (Algorithm 1) and the ISDF pipeline,
* :mod:`repro.parallel.pipeline` — blocked GEMM + MPI_Reduce overlap
  (Figures 4-5).
"""

from repro.parallel.comm import (
    CommTraffic,
    Communicator,
    MessageTimeout,
    ReduceHandle,
    SpmdAbort,
)
from repro.parallel.executor import (
    SPMD_BACKENDS,
    resolve_backend,
    spmd_run,
    spmd_run_resilient,
)
from repro.parallel.shm import SharedSlab, SlabRegistry, reap_run_segments
from repro.parallel.sanitizer import SanitizerError, SpmdSanitizer
from repro.parallel.distributions import (
    BlockCyclic2D,
    BlockDistribution1D,
)
from repro.parallel.redistribute import (
    allgather_rows,
    gather_matrix,
    transpose_to_column_block,
    transpose_to_row_block,
)
from repro.parallel.parallel_kmeans import distributed_kmeans
from repro.parallel.parallel_lrtddft import (
    distributed_build_vhxc,
    distributed_isdf_vtilde,
    distributed_kernel_gram,
    distributed_lrtddft_solve,
)
from repro.parallel.parallel_lobpcg import (
    distributed_lobpcg,
    make_distributed_implicit_apply,
)
from repro.parallel.pipeline import pipelined_vhxc_full, pipelined_vhxc_rows
from repro.parallel.redistribute import row_block_to_block_cyclic

__all__ = [
    "Communicator",
    "CommTraffic",
    "SpmdAbort",
    "MessageTimeout",
    "SanitizerError",
    "SpmdSanitizer",
    "ReduceHandle",
    "SharedSlab",
    "SlabRegistry",
    "reap_run_segments",
    "SPMD_BACKENDS",
    "resolve_backend",
    "spmd_run",
    "spmd_run_resilient",
    "BlockDistribution1D",
    "BlockCyclic2D",
    "transpose_to_column_block",
    "transpose_to_row_block",
    "allgather_rows",
    "gather_matrix",
    "distributed_kmeans",
    "distributed_build_vhxc",
    "distributed_isdf_vtilde",
    "distributed_kernel_gram",
    "distributed_lrtddft_solve",
    "pipelined_vhxc_rows",
    "pipelined_vhxc_full",
    "row_block_to_block_cyclic",
    "distributed_lobpcg",
    "make_distributed_implicit_apply",
]
