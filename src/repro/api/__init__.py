"""``repro.api`` — the stable, typed facade over the calculation pipeline.

Everything a downstream user needs lives here:

* **the unified request**: :class:`CalculationRequest` — one frozen,
  content-hashable object (kind + structure + configs + resilience) with
  synchronous :meth:`~CalculationRequest.compute` and asynchronous
  :meth:`~CalculationRequest.submit` (job server with content-addressed
  result cache and warm starts, see :mod:`repro.serve`);
* config objects: :class:`SCFConfig`, :class:`TDDFTConfig`,
  :class:`RTConfig`, :class:`BatchConfig`, :class:`ResilienceConfig`
  (frozen dataclasses with exact dict round-trip);
* legacy entry points: :func:`run_scf`, :func:`solve_tddft`,
  :func:`run_batch`, :func:`run_rt` — deprecation shims that build a
  request and execute it through the same path;
* result types: :class:`SCFResult` (= :class:`~repro.dft.GroundState`),
  :class:`LRTDDFTResult`, :class:`RTResult` — all with ``save``/``load`` —
  and the batch containers :class:`BatchResult` / :class:`FrameRecord`;
* :func:`load_result` — load any saved result by its embedded class tag;
* :func:`execute_request` — the shared execution path (power users /
  the job server).

The exported surface is snapshot-tested against
``tools/public_api_manifest.json`` (see ``tools/check_public_api.py``), so
accidental breaking changes fail CI instead of downstream users.
"""

from repro.api.config import (
    BatchConfig,
    ResilienceConfig,
    RTConfig,
    SCFConfig,
    TDDFTConfig,
)
from repro.api.facade import (
    SCFResult,
    load_result,
    reset_deprecation_warnings,
    run_batch,
    run_rt,
    run_scf,
    solve_tddft,
)
from repro.api.request import (
    REQUEST_KINDS,
    CalculationRequest,
    ExecutionOutcome,
    execute_request,
    structure_from_dict,
    structure_to_dict,
)
from repro.batch.results import BatchResult, FrameRecord
from repro.core.driver import LRTDDFTResult
from repro.rt.tddft import RTResult

__all__ = [
    "BatchConfig",
    "BatchResult",
    "CalculationRequest",
    "ExecutionOutcome",
    "FrameRecord",
    "LRTDDFTResult",
    "REQUEST_KINDS",
    "RTConfig",
    "RTResult",
    "ResilienceConfig",
    "SCFConfig",
    "SCFResult",
    "TDDFTConfig",
    "execute_request",
    "load_result",
    "reset_deprecation_warnings",
    "run_batch",
    "run_rt",
    "run_scf",
    "solve_tddft",
    "structure_from_dict",
    "structure_to_dict",
]
