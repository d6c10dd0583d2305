"""The unified calculation request: one typed object for every entry point.

A :class:`CalculationRequest` describes a complete calculation — *what* to
compute (``kind``), *on which* structure(s), and *how* (the nested frozen
config objects plus an optional :class:`~repro.api.config.ResilienceConfig`).
It replaces the four parallel facade entry points (``run_scf`` /
``solve_tddft`` / ``run_rt`` / ``run_batch``), which survive as thin
deprecation shims that build a request and execute it.

The request's **canonical serialization is its identity**: ``to_dict()``
produces a nested tree of primitives (configs via their exact dict
round-trip, structures as lattice/species/position lists), and
:meth:`CalculationRequest.cache_key` hashes the sorted-key JSON encoding of
that tree.  Python's JSON float encoding uses ``repr`` (shortest
round-trip), so the key is invariant under serialize/deserialize cycles and
under dict-key ordering, and two requests that would produce bit-identical
results hash equal while any physical or numerical difference — a perturbed
atom, a changed tolerance — changes the key.  The facade, the job server
(:mod:`repro.serve`) and the result store all use this one hash path.

Execution:

* :meth:`CalculationRequest.compute` — synchronous, in-process, no cache:
  exactly what the legacy entry points did.
* :meth:`CalculationRequest.submit` — hand the request to a
  :class:`repro.serve.CalculationServer` (the process-default one when none
  is given) and get a :class:`repro.serve.JobHandle` back; repeat requests
  are served from the content-addressed result store and near-duplicates
  warm-start from the nearest cached ground state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro.api.config import (
    BatchConfig,
    ResilienceConfig,
    RTConfig,
    SCFConfig,
    TDDFTConfig,
)
from repro.utils.validation import require

__all__ = [
    "CalculationRequest",
    "ExecutionOutcome",
    "REQUEST_KINDS",
    "structure_from_dict",
    "structure_to_dict",
]

#: The calculation kinds a request can describe.
REQUEST_KINDS = ("scf", "tddft", "rt", "batch")


def structure_to_dict(cell) -> dict:
    """Exact, JSON-able description of a :class:`~repro.pw.UnitCell`.

    Floats pass through as native Python floats; JSON encodes them with
    ``repr`` (shortest round-trip), so serializing and re-parsing this dict
    reconstructs bit-identical coordinates.
    """
    return {
        "lattice": np.asarray(cell.lattice, dtype=float).tolist(),
        "species": list(cell.species),
        "fractional_positions": np.asarray(
            cell.fractional_positions, dtype=float
        ).tolist(),
    }


def structure_from_dict(data: dict):
    """Rebuild a :class:`~repro.pw.UnitCell` from :func:`structure_to_dict`."""
    from repro.pw.cell import UnitCell

    return UnitCell(
        np.asarray(data["lattice"], dtype=float),
        tuple(data["species"]),
        np.asarray(data["fractional_positions"], dtype=float).reshape(-1, 3),
    )


def _is_cell(obj) -> bool:
    from repro.pw.cell import UnitCell

    return isinstance(obj, UnitCell)


@dataclass(frozen=True, eq=False)
class CalculationRequest:
    """One complete, hashable calculation description.

    Parameters
    ----------
    kind:
        ``"scf"``, ``"tddft"``, ``"rt"`` or ``"batch"``.
    structure:
        A :class:`~repro.pw.UnitCell` — or, for ``kind="batch"``, an
        ordered sequence of them (stored as a tuple).
    scf / tddft / rt / batch:
        The nested config objects the kind consumes.  Construction
        normalizes them: configs the kind needs default to their
        default-constructed instance (so a request built with explicit
        defaults hashes identically to one built with ``None``), and
        configs the kind does *not* consume must be ``None`` (so an
        irrelevant knob can never perturb the cache key).  ``kind="batch"``
        carries everything in ``batch`` (which nests its own SCF/TDDFT
        configs).
    resilience:
        Optional :class:`~repro.api.config.ResilienceConfig`.  Part of the
        cache key: degradation policies (``selection_fallback``,
        ``dense_fallback_max_pairs``) can change the numerical result, so
        two requests differing in resilience are conservatively treated as
        different calculations.

    Notes
    -----
    Instances are frozen; equality is identity (structures hold numpy
    arrays) — compare :meth:`cache_key` to test whether two requests
    describe the same calculation.
    """

    kind: str
    structure: object
    scf: SCFConfig | None = None
    tddft: TDDFTConfig | None = None
    rt: RTConfig | None = None
    batch: BatchConfig | None = None
    resilience: ResilienceConfig | None = None

    def __post_init__(self) -> None:
        require(
            self.kind in REQUEST_KINDS,
            f"kind must be one of {REQUEST_KINDS}, got {self.kind!r}",
        )
        forbidden = {
            "scf": ("tddft", "rt", "batch"),
            "tddft": ("rt", "batch"),
            "rt": ("tddft", "batch"),
            "batch": ("scf", "tddft", "rt"),
        }[self.kind]
        for name in forbidden:
            require(
                getattr(self, name) is None,
                f"a {self.kind!r} request does not consume the {name!r} "
                f"config; leave it None",
            )
        # Normalize: fill the configs this kind consumes with defaults so
        # default-vs-explicit construction is canonical (same cache key).
        if self.kind == "batch":
            cells = self.structure
            require(
                isinstance(cells, (list, tuple))
                and len(cells) > 0
                and all(_is_cell(c) for c in cells),
                "a 'batch' request needs a non-empty sequence of UnitCells",
            )
            object.__setattr__(self, "structure", tuple(cells))
            if self.batch is None:
                object.__setattr__(self, "batch", BatchConfig())
        else:
            require(
                _is_cell(self.structure),
                f"a {self.kind!r} request needs a single UnitCell structure, "
                f"got {type(self.structure).__name__}",
            )
            if self.scf is None:
                object.__setattr__(self, "scf", SCFConfig())
            if self.kind == "tddft" and self.tddft is None:
                object.__setattr__(self, "tddft", TDDFTConfig())
            if self.kind == "rt" and self.rt is None:
                object.__setattr__(self, "rt", RTConfig())

    # -- canonical serialization / identity --------------------------------

    def to_dict(self) -> dict:
        """Exact round-trip payload (primitives only; JSON-serializable)."""
        if self.kind == "batch":
            structure = [structure_to_dict(c) for c in self.structure]
        else:
            structure = structure_to_dict(self.structure)
        return {
            "kind": self.kind,
            "structure": structure,
            "scf": self.scf.to_dict() if self.scf is not None else None,
            "tddft": self.tddft.to_dict() if self.tddft is not None else None,
            "rt": self.rt.to_dict() if self.rt is not None else None,
            "batch": self.batch.to_dict() if self.batch is not None else None,
            "resilience": (
                self.resilience.to_dict() if self.resilience is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalculationRequest":
        """Rebuild a request from :meth:`to_dict` (wire/JSON payloads)."""
        known = {"kind", "structure", "scf", "tddft", "rt", "batch", "resilience"}
        unknown = sorted(set(data) - known)
        require(
            not unknown,
            f"unknown CalculationRequest keys {unknown}; valid: {sorted(known)}",
        )
        kind = data.get("kind")
        raw = data.get("structure")
        if kind == "batch":
            require(
                isinstance(raw, (list, tuple)),
                "a 'batch' request payload needs a list of structures",
            )
            structure = tuple(structure_from_dict(s) for s in raw)
        else:
            structure = structure_from_dict(raw)

        def cfg(key, config_cls):
            value = data.get(key)
            if value is None or not isinstance(value, dict):
                return value
            return config_cls.from_dict(value)

        return cls(
            kind=kind,
            structure=structure,
            scf=cfg("scf", SCFConfig),
            tddft=cfg("tddft", TDDFTConfig),
            rt=cfg("rt", RTConfig),
            batch=cfg("batch", BatchConfig),
            resilience=cfg("resilience", ResilienceConfig),
        )

    def canonical_json(self) -> str:
        """Sorted-key JSON of :meth:`to_dict` — the hashed byte stream.

        ``sort_keys=True`` makes the encoding invariant under dict ordering
        and the default float encoding (``repr``) is the shortest exact
        round-trip, so ``from_dict(json.loads(...))`` reproduces the same
        canonical text.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def cache_key(self) -> str:
        """Content hash (sha256 hex) of the canonical serialization.

        This is *the* dedup/cache identity used by the facade shims, the
        job server and the result store: equal keys license serving a
        stored result bit-identically.
        """
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def scf_subrequest(self) -> "CalculationRequest":
        """The ground-state request nested inside a tddft/rt request.

        The server stores ground states under this key, so an LR-TDDFT
        request, an RT request and a plain SCF request on the same
        structure+config share one cached ground state.
        """
        require(
            self.kind in ("tddft", "rt"),
            f"only tddft/rt requests nest an SCF stage, not {self.kind!r}",
        )
        return CalculationRequest(
            kind="scf",
            structure=self.structure,
            scf=self.scf,
            resilience=self.resilience,
        )

    # -- execution ----------------------------------------------------------

    def compute(self):
        """Run this request synchronously in the current process.

        No queue, no cache — the direct equivalent of the legacy entry
        points.  Returns the kind's result object (:class:`~repro.dft.
        GroundState`, :class:`~repro.core.driver.LRTDDFTResult`,
        :class:`~repro.rt.tddft.RTResult` or
        :class:`~repro.batch.results.BatchResult`).
        """
        return execute_request(self).result

    def submit(self, server=None, *, tenant: str = "default", priority: int = 0):
        """Submit to a job server; returns a :class:`repro.serve.JobHandle`.

        ``server=None`` uses the process-default in-memory server
        (:func:`repro.serve.default_server`).  ``tenant`` and ``priority``
        are scheduling metadata, not calculation inputs — they never enter
        the cache key.
        """
        if server is None:
            from repro.serve import default_server

            server = default_server()
        return server.submit(self, tenant=tenant, priority=priority)


@dataclass
class ExecutionOutcome:
    """What executing one request produced (result + reusable artifacts).

    Attributes
    ----------
    result:
        The kind's primary result object.
    ground_state:
        The converged :class:`~repro.dft.GroundState` for scf/tddft/rt
        kinds (the server stores it for cache hits and warm starts);
        ``None`` for batch requests.
    scf_iterations:
        SCF iterations actually executed (0 when a precomputed ground
        state was supplied) — the honest "work done" metric the cache and
        warm-start benchmarks gate on.
    eigensolver_iterations:
        Casida eigensolver iterations executed (tddft kind only).
    warm:
        Whether a cross-calculation warm start reached the SCF loop.
    """

    result: object
    ground_state: object | None = None
    scf_iterations: int = 0
    eigensolver_iterations: int = 0
    warm: bool = False


def _dense_equivalent(method: str) -> str:
    """The dense-diagonalization twin of an iterative method string."""
    m = method
    if m.startswith("implicit-"):
        m = m[len("implicit-"):]
    for suffix in ("-lobpcg", "-davidson"):
        if m.endswith(suffix):
            m = m[: -len(suffix)]
    return m


def _run_scf_stage(request, *, warm=None, progress=None, timers=None):
    """The ground-state stage shared by scf/tddft/rt kinds."""
    from repro.dft.scf import SCFOptions
    from repro.dft.scf import run_scf as _run_scf_core

    resilience = request.resilience
    checkpoint = (
        resilience.checkpointer("scf") if resilience is not None else None
    )
    return _run_scf_core(
        request.structure,
        SCFOptions(**request.scf.to_dict()),
        timers=timers,
        checkpoint=checkpoint,
        warm_start=warm,
        progress=progress,
    )


def _solve_tddft_stage(request, ground_state, *, progress=None):
    """The LR-TDDFT stage, including the dense-degradation policy."""
    from repro.core.driver import LRTDDFTSolver

    config = request.tddft
    resilience = request.resilience
    solver = LRTDDFTSolver(
        ground_state,
        n_valence=config.n_valence,
        n_conduction=config.n_conduction,
        include_xc=config.include_xc,
        spin=config.spin,
        seed=config.seed,
    )
    result = solver.solve(config, resilience=resilience, progress=progress)

    if (
        resilience is not None
        and not result.converged
        and 0 < solver.n_pairs <= resilience.dense_fallback_max_pairs
    ):
        dense_method = _dense_equivalent(config.method)
        if dense_method != config.method:
            # Fresh (non-restart) solve: the dense path must not consume the
            # iterative run's checkpoints.
            dense_resilience = resilience.replace(checkpoint_dir=None)
            result = solver.solve(
                config.replace(method=dense_method),
                resilience=dense_resilience,
                progress=progress,
            )
    return result


def execute_request(
    request: CalculationRequest,
    *,
    ground_state=None,
    scf_warm=None,
    seed_ground_state=None,
    progress=None,
    timers=None,
    on_result=None,
) -> ExecutionOutcome:
    """Execute a request in-process and return result + reusable artifacts.

    This is the single execution path behind :meth:`CalculationRequest.
    compute`, the legacy facade shims, and the job-server workers.

    Parameters
    ----------
    ground_state:
        Precomputed ground state for tddft/rt kinds: the SCF stage is
        skipped entirely (``scf_iterations=0``).  Used by the legacy
        ``solve_tddft(gs, ...)`` / ``run_rt(gs, ...)`` shims and by the
        server on an SCF-subrequest cache hit.
    scf_warm:
        Optional :class:`~repro.dft.scf.SCFWarmStart` seeding the SCF
        stage (the server's nearest-cached-ground-state warm start).
    seed_ground_state:
        Batch kind only: a cached nearby ground state seeding frame 0 of
        the warm chain (see :func:`repro.batch.run_batch`).
    progress:
        Optional callback receiving per-iteration event dicts (SCF
        iterations, eigensolver iterations, RT steps have no hook yet).
    on_result:
        Batch kind only: streaming per-frame callback.
    """
    if request.kind == "batch":
        from repro.batch.engine import run_batch as _run_batch_core

        result = _run_batch_core(
            request.structure,
            request.batch,
            resilience=request.resilience,
            on_result=on_result,
            seed_ground_state=seed_ground_state,
        )
        return ExecutionOutcome(
            result=result,
            scf_iterations=sum(r.scf_iterations for r in result.records),
            eigensolver_iterations=sum(
                r.eigensolver_iterations for r in result.records
            ),
            warm=any(r.warm for r in result.records),
        )

    def scf_progress(info: dict) -> None:
        if progress is not None:
            progress({"stage": "scf", **info})

    scf_iterations = 0
    if ground_state is None:
        ground_state = _run_scf_stage(
            request,
            warm=scf_warm,
            progress=scf_progress if progress is not None else None,
            timers=timers,
        )
        scf_iterations = len(ground_state.history)

    if request.kind == "scf":
        return ExecutionOutcome(
            result=ground_state,
            ground_state=ground_state,
            scf_iterations=scf_iterations,
            warm=scf_warm is not None,
        )

    if request.kind == "tddft":
        def eig_progress(info: dict) -> None:
            if progress is not None:
                progress({"stage": "eigensolver", **info})

        result = _solve_tddft_stage(
            request,
            ground_state,
            progress=eig_progress if progress is not None else None,
        )
        return ExecutionOutcome(
            result=result,
            ground_state=ground_state,
            scf_iterations=scf_iterations,
            eigensolver_iterations=result.eigensolver_iterations,
            warm=scf_warm is not None,
        )

    # kind == "rt"
    from repro.rt.tddft import RealTimeTDDFT

    rt = request.rt
    resilience = request.resilience
    checkpoint = resilience.checkpointer("rt") if resilience is not None else None
    propagator = RealTimeTDDFT(ground_state, self_consistent=rt.self_consistent)
    if rt.kick_strength:
        propagator.kick(rt.kick_strength, rt.kick_direction)
    result = propagator.propagate(
        rt.dt,
        rt.n_steps,
        krylov_dim=rt.krylov_dim,
        etrs=rt.etrs,
        record_every=rt.record_every,
        checkpoint=checkpoint,
    )
    return ExecutionOutcome(
        result=result,
        ground_state=ground_state,
        scf_iterations=scf_iterations,
        warm=scf_warm is not None,
    )
