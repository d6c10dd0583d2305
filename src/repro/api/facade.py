"""Legacy entry points: ``run_scf`` / ``solve_tddft`` / ``run_rt`` / ``run_batch``.

These four functions predate the unified request API.  Each is now a thin
shim that builds a :class:`~repro.api.request.CalculationRequest` and
executes it through the one shared path (:func:`~repro.api.request.
execute_request`) — the same path the job server (:mod:`repro.serve`) runs,
so legacy callers and served requests are bit-identical.  Every shim warns
exactly once per process via the existing deprecation machinery; new code
should build a request::

    from repro import api

    request = api.CalculationRequest(
        kind="scf", structure=cell, scf=api.SCFConfig(ecut=10.0)
    )
    gs = request.compute()                 # synchronous, in-process
    handle = request.submit()              # async, cached, warm-started

:func:`load_result` is not deprecated — it has no request equivalent.
"""

from __future__ import annotations

import os

from repro.api.config import BatchConfig, ResilienceConfig, RTConfig, SCFConfig, TDDFTConfig
from repro.api.request import (
    CalculationRequest,
    execute_request,
)
from repro.batch.results import BatchResult
from repro.core.driver import LRTDDFTResult
from repro.dft.groundstate import GroundState
from repro.rt.tddft import RTResult
from repro.utils.deprecation import reset_deprecation_warnings, warn_once
from repro.utils.serialization import SerializationError, load_payload
from repro.utils.timers import TimerRegistry
from repro.utils.validation import require

__all__ = [
    "SCFResult",
    "load_result",
    "reset_deprecation_warnings",
    "run_batch",
    "run_rt",
    "run_scf",
    "solve_tddft",
]

#: The facade's name for the ground-state result object.
SCFResult = GroundState


def run_scf(
    cell,
    config: SCFConfig | None = None,
    *,
    resilience: ResilienceConfig | None = None,
    timers: TimerRegistry | None = None,
    **legacy,
) -> GroundState:
    """Ground-state SCF (deprecated shim over :class:`CalculationRequest`).

    Equivalent to ``CalculationRequest(kind="scf", structure=cell,
    scf=config, resilience=resilience).compute()``.  Bare option keywords
    (``run_scf(cell, ecut=8.0)``) are the oldest signature and are folded
    into the config.  Warns once per process.
    """
    warn_once(
        "api.run_scf",
        "repro.api.run_scf() is deprecated; build a repro.api."
        "CalculationRequest(kind='scf', structure=cell, scf=SCFConfig(...)) "
        "and call .compute() (or .submit() for the cached job server)",
    )
    if legacy:
        require(
            config is None,
            "run_scf(cell, config) does not accept additional option "
            f"keywords (got {sorted(legacy)}); use config.replace(...)",
        )
        config = SCFConfig.from_dict(legacy)
    request = CalculationRequest(
        kind="scf", structure=cell, scf=config, resilience=resilience
    )
    return execute_request(request, timers=timers).result


def solve_tddft(
    ground_state: GroundState,
    config: TDDFTConfig | None = None,
    *,
    resilience: ResilienceConfig | None = None,
    **legacy,
) -> LRTDDFTResult:
    """LR-TDDFT excitations (deprecated shim over :class:`CalculationRequest`).

    Builds a ``kind="tddft"`` request on the ground state's cell and
    executes it with the supplied ``ground_state`` (the SCF stage is
    skipped, exactly as before).  The request path carries the same
    dense-eigensolver degradation policy.  Warns once per process —
    build a ``CalculationRequest`` with a ``TDDFTConfig`` instead.
    """
    warn_once(
        "api.solve_tddft",
        "repro.api.solve_tddft() is deprecated; build a repro.api."
        "CalculationRequest(kind='tddft', structure=cell, "
        "tddft=TDDFTConfig(...)) and call .compute() (or .submit())",
    )
    if legacy:
        require(
            config is None,
            "solve_tddft(gs, config) does not accept additional option "
            f"keywords (got {sorted(legacy)}); use config.replace(...)",
        )
        config = TDDFTConfig.from_dict(legacy)
    request = CalculationRequest(
        kind="tddft",
        structure=ground_state.basis.cell,
        tddft=config,
        resilience=resilience,
    )
    return execute_request(request, ground_state=ground_state).result


def run_rt(
    ground_state: GroundState,
    *,
    dt: float = 0.2,
    n_steps: int = 600,
    kick_strength: float = 1e-3,
    kick_direction=(0.0, 0.0, 1.0),
    krylov_dim: int = 10,
    etrs: bool = True,
    record_every: int = 1,
    self_consistent: bool = True,
    resilience: ResilienceConfig | None = None,
) -> RTResult:
    """Real-time TDDFT (deprecated shim over :class:`CalculationRequest`).

    The bare keywords become an :class:`~repro.api.config.RTConfig` on a
    ``kind="rt"`` request executed with the supplied ground state.  Warns
    once per process.
    """
    warn_once(
        "api.run_rt",
        "repro.api.run_rt() is deprecated; build a repro.api."
        "CalculationRequest(kind='rt', structure=cell, rt=RTConfig(...)) "
        "and call .compute() (or .submit())",
    )
    request = CalculationRequest(
        kind="rt",
        structure=ground_state.basis.cell,
        rt=RTConfig(
            dt=dt,
            n_steps=n_steps,
            kick_strength=kick_strength,
            kick_direction=tuple(kick_direction),
            krylov_dim=krylov_dim,
            etrs=etrs,
            record_every=record_every,
            self_consistent=self_consistent,
        ),
        resilience=resilience,
    )
    return execute_request(request, ground_state=ground_state).result


def run_batch(
    cells,
    config: BatchConfig | None = None,
    *,
    resilience: ResilienceConfig | None = None,
    on_result=None,
) -> BatchResult:
    """Warm-started batch pipeline (deprecated shim over :class:`CalculationRequest`).

    Equivalent to ``CalculationRequest(kind="batch", structure=tuple(cells),
    batch=config, resilience=resilience).compute()`` plus the streaming
    ``on_result`` callback.  Warns once per process.
    """
    warn_once(
        "api.run_batch",
        "repro.api.run_batch() is deprecated; build a repro.api."
        "CalculationRequest(kind='batch', structure=cells, "
        "batch=BatchConfig(...)) and call .compute() (or .submit())",
    )
    request = CalculationRequest(
        kind="batch", structure=tuple(cells), batch=config, resilience=resilience
    )
    return execute_request(request, on_result=on_result).result


#: Result classes :func:`load_result` can dispatch to, by class tag.
_RESULT_CLASSES = {
    "GroundState": GroundState,
    "LRTDDFTResult": LRTDDFTResult,
    "RTResult": RTResult,
}


def load_result(path: str | os.PathLike):
    """Load any saved result file, dispatching on its embedded class tag."""
    payload = load_payload(path)
    tag = payload.get("class")
    cls = _RESULT_CLASSES.get(tag)
    if cls is None:
        raise SerializationError(
            f"{path}: unknown result class {tag!r}; "
            f"expected one of {sorted(_RESULT_CLASSES)}"
        )
    return cls.from_dict(payload["data"])
