"""The benchmark's workloads: inputs from a seed, one run, and its reference.

Every workload turns ``--seed`` into its inputs in :meth:`setup`, performs
one run of the program in :meth:`run` and computes the exact excitation
energies for that run in :meth:`reference` (the ``naive`` method on the same
ground state).  A run returns an :class:`Outcome`; the caller times it and
checks it.

The seed reaches the Casida eigensolver's start block in every workload
(``TDDFTConfig.seed``, or the ``seed`` of the distributed pipeline).  The
geometry, the SCF start vectors, the trajectory and the synthetic orbitals
are fixed, because they change how much work a run does: under the default
BLAS threading a 0.01-bohr jitter of Si2 moved the median request time by up
to 46%, and a 0.01-bohr jitter of Si64 moved K-Means between 21 and 42
iterations.  Seeding them would bury any bound in input variance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api import BatchConfig, CalculationRequest, SCFConfig, TDDFTConfig
from repro.api.request import execute_request
from repro.atoms import bulk_silicon, silicon_primitive_cell
from repro.batch import perturbed_trajectory, run_batch
from repro.core.driver import LRTDDFTSolver
from repro.core.isdf import default_rank
from repro.core.kernel import HxcKernel
from repro.parallel import BlockDistribution1D, spmd_run
from repro.parallel.parallel_isdf import distributed_optimized_lrtddft
from repro.synthetic import synthetic_ground_state

from spans import TimedComm, Tracer, instrument

#: Ranks of the SPMD workload: never more than the 2 cores of the host the
#: benchmark was calibrated on.
N_RANKS = 2


@dataclass
class Outcome:
    """What one run produced, as far as the checks need it.

    ``converged`` is ``None`` when the run cannot report it without
    instrumentation (the SPMD pipeline returns only energies and vectors).
    """

    energies: list[np.ndarray]
    converged: bool | None
    ground_states: list = field(default_factory=list)
    reselections: int = 0
    traffic: object = None


def _naive(ground_state, n_excitations: int) -> np.ndarray:
    config = TDDFTConfig(method="naive", n_excitations=n_excitations)
    return LRTDDFTSolver(ground_state).solve(config).energies


def _si2_configs(seed: int, smoke: bool) -> tuple[SCFConfig, TDDFTConfig]:
    if smoke:
        return (SCFConfig(ecut=6.0, n_bands=8, tol=1e-6, seed=0),
                TDDFTConfig(n_excitations=3, seed=seed))
    return (SCFConfig(ecut=10.0, n_bands=10, tol=1e-6, seed=0),
            TDDFTConfig(n_excitations=4, seed=seed))


def _si64_ground_state(smoke: bool):
    """The synthetic Si_64 (Si_8 in smoke mode) ground state, seed-independent."""
    if smoke:
        return synthetic_ground_state(
            bulk_silicon(8), ecut=10.0, n_valence=16, n_conduction=8, seed=0
        )
    return synthetic_ground_state(
        bulk_silicon(64), ecut=10.0, n_valence=48, n_conduction=24, seed=0
    )


class TddftSi2:
    """One ``execute_request`` of kind ``tddft`` on the Si2 primitive cell."""

    name = "tddft-si2"
    ceiling_ha = 1e-6

    def setup(self, seed: int, smoke: bool):
        scf, tddft = _si2_configs(seed, smoke)
        return CalculationRequest(
            kind="tddft", structure=silicon_primitive_cell(), scf=scf, tddft=tddft
        )

    def run(self, request, tracer: Tracer | None = None) -> Outcome:
        out = execute_request(request)
        return Outcome(
            [out.result.energies],
            out.ground_state.converged and out.result.converged,
            [out.ground_state],
        )

    def reference(self, request, outcome: Outcome) -> list[np.ndarray]:
        k = request.tddft.n_excitations
        return [_naive(gs, k) for gs in outcome.ground_states]


class IsdfSi64:
    """The K-Means -> ISDF -> implicit LOBPCG chain on a synthetic Si_64."""

    name = "isdf-si64"
    ceiling_ha = 1e-3

    def setup(self, seed: int, smoke: bool):
        k = 4 if smoke else 8
        return _si64_ground_state(smoke), TDDFTConfig(n_excitations=k, seed=seed)

    def run(self, inputs, tracer: Tracer | None = None) -> Outcome:
        gs, config = inputs
        result = LRTDDFTSolver(gs, seed=config.seed).solve(config)
        return Outcome([result.energies], result.converged)

    def reference(self, inputs, outcome: Outcome) -> list[np.ndarray]:
        gs, config = inputs
        return [_naive(gs, config.n_excitations)]


@dataclass
class _SpmdInputs:
    ground_state: object
    psi_v: np.ndarray
    eps_v: np.ndarray
    psi_c: np.ndarray
    eps_c: np.ndarray
    kernel: HxcKernel
    grid_dist: BlockDistribution1D
    points: np.ndarray
    n_mu: int
    n_excitations: int
    seed: int


def _rank_program(comm, inputs: _SpmdInputs, tracer: Tracer | None):
    """One rank of the distributed pipeline; returns energies and its spans."""
    start = 0
    if tracer is not None:
        tracer.set_rank(comm.rank)
        start = len(tracer.spans)
        comm = TimedComm(comm, tracer)
    rows = inputs.grid_dist.local_slice(comm.rank)
    energies, _ = distributed_optimized_lrtddft(
        comm, inputs.psi_v[:, rows], inputs.psi_c[:, rows], inputs.eps_v,
        inputs.eps_c, inputs.kernel, inputs.grid_dist, inputs.n_mu,
        inputs.n_excitations, grid_points_local=inputs.points[rows], tol=1e-8,
        seed=inputs.seed,
    )
    return energies, (tracer.spans_since(start) if tracer is not None else [])


class Spmd2Si64:
    """The same inputs through the fully distributed pipeline on 2 ranks."""

    name = "spmd2-si64"
    ceiling_ha = 1e-3

    def setup(self, seed: int, smoke: bool) -> _SpmdInputs:
        gs = _si64_ground_state(smoke)
        psi_v, eps_v, psi_c, eps_c = gs.select_transition_space()
        n_r = gs.basis.n_r
        return _SpmdInputs(
            gs, psi_v, eps_v, psi_c, eps_c, HxcKernel(gs.basis, gs.density),
            BlockDistribution1D(n_r, N_RANKS), gs.basis.grid.cartesian_points,
            default_rank(psi_v.shape[0], psi_c.shape[0], n_r),
            4 if smoke else 8, seed,
        )

    def run(self, inputs: _SpmdInputs, tracer: Tracer | None = None,
            backend: str = "process") -> Outcome:
        results, traffic = spmd_run(
            N_RANKS, _rank_program, inputs, tracer, backend=backend, return_traffic=True,
        )
        converged = None
        if tracer is not None:
            for _, spans in results:
                tracer.adopt(spans)
            solves = [s for s in tracer.spans if s["name"] == "parallel.lobpcg"]
            converged = bool(solves) and all(s["attrs"]["converged"] for s in solves)
        return Outcome([results[0][0]], converged, traffic=traffic)

    def cross_check(self, inputs: _SpmdInputs) -> Outcome:
        """The same run on the thread backend, traced only to read convergence."""
        tracer = Tracer(f"{self.name}-thread")
        with instrument(tracer), tracer.run():
            return self.run(inputs, tracer, backend="thread")

    def reference(self, inputs: _SpmdInputs, outcome: Outcome) -> list[np.ndarray]:
        return [_naive(inputs.ground_state, inputs.n_excitations)]


class BatchSi2Traj:
    """A warm-started ``run_batch`` over a perturbed Si2 trajectory."""

    name = "batch-si2-traj"
    ceiling_ha = 1e-5

    def setup(self, seed: int, smoke: bool):
        scf, tddft = _si2_configs(seed, smoke)
        frames = perturbed_trajectory(
            silicon_primitive_cell(), 2 if smoke else 3, amplitude=0.012,
            period=16, seed=0,
        )
        return frames, BatchConfig(scf=scf, tddft=tddft, warm_start=True)

    def run(self, inputs, tracer: Tracer | None = None) -> Outcome:
        frames, config = inputs
        result = run_batch(frames, config)
        records = result.records
        return Outcome(
            [frame.tddft.energies for frame in result.results],
            all(r.scf_converged and r.tddft_converged for r in records),
            [frame.ground_state for frame in result.results],
            reselections=sum(r.isdf_reselected for r in records[1:]),
        )

    def reference(self, inputs, outcome: Outcome) -> list[np.ndarray]:
        _, config = inputs
        k = config.tddft.n_excitations
        return [_naive(gs, k) for gs in outcome.ground_states]


WORKLOADS = {w.name: w for w in (TddftSi2(), IsdfSi64(), Spmd2Si64(), BatchSi2Traj())}
