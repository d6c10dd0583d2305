"""The cross-calculation batch engine: warm-started trajectory pipelines.

Runs an ordered sequence of related structures through the full
SCF -> K-Means/ISDF -> LR-TDDFT pipeline, reusing everything reusable
between consecutive frames:

* converged densities/orbitals warm-start the next SCF
  (:class:`~repro.dft.scf.SCFWarmStart`, built by
  :class:`~repro.batch.warm.BatchWarmState`);
* converged K-Means centroids seed the next selection, and the
  interpolation points themselves are carried forward while the
  assignment drift stays under a threshold
  (:class:`~repro.core.driver.TDDFTWarmStart`);
* previous Casida eigenvectors seed the next LOBPCG solve;
* FFT plans (G-diagonal convolution kernels + half-spectrum slices) are
  shared across frames via :func:`repro.pw.fft.default_plan_cache`, since
  a common lattice means a common grid.

Frames shard across SPMD ranks (thread or process backend) in contiguous
chunks so each rank keeps its own warm chain; chunk heads run cold.
Identical frames (equal :func:`~repro.batch.trajectory.frame_fingerprint`)
are detected up front and replayed bit-identically without recomputing.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.batch.results import BatchResult, FrameRecord, FrameResult
from repro.batch.trajectory import frame_fingerprint
from repro.batch.warm import BatchWarmState
from repro.core.driver import LRTDDFTResult, _solver_for
from repro.dft.groundstate import GroundState
from repro.dft.scf import run_scf as _run_scf_core
from repro.utils.validation import require

__all__ = ["run_batch"]


def _frame_checkpoint(resilience, index: int):
    """Per-frame SCF checkpointer (frames must not share snapshot tags)."""
    if resilience is None or resilience.checkpoint_dir is None:
        return None
    return resilience.checkpointer(f"batch-scf-{index:04d}")


def _solve_frame(index, cell, config, resilience, state, rank):
    """Run one frame through SCF + LR-TDDFT, warm when ``state`` allows."""
    scf_warm = state.scf_warm_start() if state is not None else None
    t0 = time.perf_counter()
    gs = _run_scf_core(
        cell,
        config.scf,
        warm_start=scf_warm,
        checkpoint=_frame_checkpoint(resilience, index),
    )
    t1 = time.perf_counter()

    td = config.tddft
    solver = _solver_for(gs, td)
    tddft_warm = state.tddft_warm_start(solver) if state is not None else None
    frame_resilience = (
        resilience.replace(checkpoint_dir=None) if resilience is not None else None
    )
    result = solver.solve(td, resilience=frame_resilience, warm=tddft_warm)
    t2 = time.perf_counter()

    if state is not None:
        state.observe(gs, result)

    info = result.isdf.selection_info if result.isdf is not None else None
    record = FrameRecord(
        index=index,
        rank=rank,
        warm=scf_warm is not None or tddft_warm is not None,
        reused_identical=False,
        scf_iterations=len(gs.history),
        eigensolver_iterations=result.eigensolver_iterations,
        kmeans_iterations=0 if info is None else int(info.n_iter),
        isdf_reselected=result.isdf is None or info is not None,
        scf_converged=gs.converged,
        tddft_converged=result.converged,
        seconds_scf=t1 - t0,
        seconds_tddft=t2 - t1,
        total_energy=float(gs.total_energy),
        excitation_energies=tuple(float(w) for w in result.energies),
    )
    return FrameResult(record, gs, result)


def _warm_state(config, seed_ground_state=None):
    """A fresh warm chain, optionally pre-seeded with a cached ground state.

    Seeding observes ``seed_ground_state`` before any frame runs, so the
    chunk head starts from the cached density/orbitals instead of cold —
    the job-server cache reusing the batch machinery (ROADMAP item 5
    follow-up).  The seed must be *compatible* with frame 0 (same lattice,
    species, cutoff and band count — :func:`repro.serve.store.
    warm_compatible` is the canonical check); an incompatible seed fails
    loudly inside the SCF warm-start validation.
    """
    if not config.warm_start:
        return None
    state = BatchWarmState(
        density_extrapolation=config.density_extrapolation,
        isdf_drift_threshold=config.isdf_drift_threshold,
        residual_hint_floor=config.residual_hint_floor,
    )
    if seed_ground_state is not None:
        state.observe(seed_ground_state)
    return state


def _run_chunk(chunk, config, resilience, rank=0, on_result=None, seed_ground_state=None):
    """Run one rank's contiguous chunk with its own warm chain."""
    state = _warm_state(config, seed_ground_state)
    out = []
    for index, cell in chunk:
        frame = _solve_frame(index, cell, config, resilience, state, rank)
        if on_result is not None:
            on_result(frame if config.store_results else _strip(frame))
        out.append(frame)
    return out


def _strip(frame: FrameResult) -> FrameResult:
    return FrameResult(frame.record, None, None)


def _rank_program(comm, chunks, config, resilience, seed_payload=None):
    """SPMD rank body: run this rank's chunk, return serialized payloads.

    Results cross the rank boundary as ``to_dict`` payloads so the thread
    and process backends return byte-for-byte the same thing (the process
    backend must serialize anyway).  The seed ground state (if any) also
    crosses as a payload and only rank 0 uses it — rank 0 owns frame 0,
    the only chunk head adjacent to the cached structure.
    """
    seed = None
    if seed_payload is not None and comm.rank == 0:
        seed = GroundState.from_dict(seed_payload)
    frames = _run_chunk(
        chunks[comm.rank],
        config,
        resilience,
        rank=comm.rank,
        seed_ground_state=seed,
    )
    payload = []
    for frame in frames:
        payload.append(
            (
                frame.record.to_dict(),
                frame.ground_state.to_dict() if config.store_results else None,
                frame.tddft.to_dict() if config.store_results else None,
            )
        )
    return payload


def _contiguous_chunks(items, n_ranks):
    """Split ``items`` into ``n_ranks`` contiguous, near-equal chunks."""
    n = len(items)
    base, extra = divmod(n, n_ranks)
    chunks, start = [], 0
    for rank in range(n_ranks):
        size = base + (1 if rank < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


def run_batch(
    cells,
    config=None,
    *,
    resilience=None,
    on_result=None,
    seed_ground_state=None,
) -> BatchResult:
    """Run a sequence of related structures with cross-frame reuse.

    Parameters
    ----------
    cells:
        Ordered iterable of :class:`~repro.pw.UnitCell` frames.  Warm
        starts exploit adjacency, so the order should be physically
        meaningful (trajectory order, not shuffled).
    config:
        :class:`~repro.api.BatchConfig` (defaults apply when ``None``).
    resilience:
        Optional :class:`~repro.api.ResilienceConfig`: enables per-frame
        SCF checkpoint/restart (tags are namespaced per frame index) and
        the usual degradation policies inside each solve.
    on_result:
        Streaming callback receiving each :class:`FrameResult` as it
        completes.  Serial runs stream in frame order; SPMD runs invoke
        the callback after the final gather (still in frame order).
    seed_ground_state:
        Optional converged :class:`~repro.dft.GroundState` used to seed
        frame 0's warm chain (e.g. the job server's nearest cached ground
        state), so the first frame no longer runs cold.  Must be
        warm-compatible with frame 0 (same lattice, species, cutoff, band
        count); ignored when ``warm_start`` is off.  With ``n_ranks > 1``
        only rank 0's chunk head is seeded.

    Returns
    -------
    :class:`~repro.batch.results.BatchResult` with per-frame records and
    (when ``store_results``) the full result objects.

    Notes
    -----
    With ``n_ranks > 1`` the *unique* frames are split into contiguous
    chunks, one warm chain per rank — each chunk head runs cold, so
    speedup from warm-starting degrades gracefully with rank count while
    the frames themselves run concurrently.  Cross-rank results round-trip
    through ``to_dict``/``from_dict`` on both SPMD backends, keeping the
    two backends' outputs identical.
    """
    from repro.api.config import BatchConfig

    config = config or BatchConfig()
    require(
        isinstance(config, BatchConfig),
        f"config must be a BatchConfig, got {type(config).__name__}",
    )
    cells = list(cells)
    require(len(cells) > 0, "run_batch needs at least one frame")

    # Identical-frame detection: a later frame whose fingerprint matches an
    # earlier one replays that frame's results bit-identically.
    alias: dict[int, int] = {}
    unique_indices: list[int] = []
    if config.reuse_identical_frames:
        scf_payload = config.scf.to_dict()
        td_payload = config.tddft.to_dict()
        first_of: dict[str, int] = {}
        for i, cell in enumerate(cells):
            fp = frame_fingerprint(cell, scf_payload, td_payload)
            if fp in first_of:
                alias[i] = first_of[fp]
            else:
                first_of[fp] = i
                unique_indices.append(i)
    else:
        unique_indices = list(range(len(cells)))

    work = [(i, cells[i]) for i in unique_indices]
    computed: dict[int, FrameResult] = {}

    if config.n_ranks == 1:
        # Serial: stream strictly in frame order, replaying duplicates
        # inline (aliases only ever point backward).
        warm_state = _warm_state(config, seed_ground_state)
        ordered: list[FrameResult] = []
        for i, cell in enumerate(cells):
            if i in alias:
                frame = _replay(computed[alias[i]], i)
            else:
                frame = _solve_frame(i, cell, config, resilience, warm_state, 0)
                computed[i] = frame
            ordered.append(frame)
            if on_result is not None:
                on_result(frame if config.store_results else _strip(frame))
        frames = ordered
    else:
        from repro.parallel.executor import spmd_run

        chunks = _contiguous_chunks(work, config.n_ranks)
        seed_payload = (
            seed_ground_state.to_dict() if seed_ground_state is not None else None
        )
        per_rank = spmd_run(
            config.n_ranks,
            _rank_program,
            chunks,
            config,
            resilience,
            seed_payload,
            backend=config.spmd_backend,
        )
        for rank_payload in per_rank:
            for record_d, gs_d, td_d in rank_payload:
                record = FrameRecord.from_dict(record_d)
                computed[record.index] = FrameResult(
                    record,
                    GroundState.from_dict(gs_d) if gs_d is not None else None,
                    LRTDDFTResult.from_dict(td_d) if td_d is not None else None,
                )
        frames = []
        for i in range(len(cells)):
            frame = _replay(computed[alias[i]], i) if i in alias else computed[i]
            frames.append(frame)
            if on_result is not None:
                on_result(frame if config.store_results else _strip(frame))

    if not config.store_results:
        frames = [_strip(f) for f in frames]
    return BatchResult(
        records=tuple(f.record for f in frames),
        results=tuple(frames),
        n_ranks=config.n_ranks,
        spmd_backend=config.spmd_backend or "thread",
        warm_start=config.warm_start,
    )


def _replay(source: FrameResult, index: int) -> FrameResult:
    """A bit-identical replay record for a duplicate frame (no work done)."""
    record = replace(
        source.record,
        index=index,
        reused_identical=True,
        warm=False,
        scf_iterations=0,
        eigensolver_iterations=0,
        kmeans_iterations=0,
        isdf_reselected=False,
        seconds_scf=0.0,
        seconds_tddft=0.0,
    )
    return FrameResult(record, source.ground_state, source.tddft)
