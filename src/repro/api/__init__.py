"""``repro.api`` — the stable, typed facade over the calculation pipeline.

Everything a downstream user needs lives here:

* **the unified request**: :class:`CalculationRequest` — one frozen,
  content-hashable object (kind + structure + configs + resilience) with
  synchronous :meth:`~CalculationRequest.compute` and asynchronous
  :meth:`~CalculationRequest.submit` (job server with content-addressed
  result cache and warm starts, see :mod:`repro.serve`).  It is the one
  calling convention: every stage takes a frozen config, never loose
  option keywords;
* config objects: :class:`SCFConfig`, :class:`TDDFTConfig`,
  :class:`RTConfig`, :class:`BatchConfig`, :class:`ResilienceConfig`
  (frozen dataclasses with exact dict round-trip) — the same objects the
  stage functions :func:`repro.dft.run_scf` and
  :meth:`repro.core.LRTDDFTSolver.solve` take;
* result types: :class:`SCFResult` (= :class:`~repro.dft.GroundState`),
  :class:`LRTDDFTResult`, :class:`RTResult` — all with ``save``/``load`` —
  and the batch containers :class:`BatchResult` / :class:`FrameRecord`;
* :func:`load_result` — load any saved result by its embedded class tag;
* :func:`execute_request` — the shared execution path (power users /
  the job server); ``execute_request(request, ground_state=gs)`` runs a
  tddft/rt request on an existing ground state.

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
from repro.api.request import (
    REQUEST_KINDS,
    CalculationRequest,
    ExecutionOutcome,
    execute_request,
    structure_from_dict,
    structure_to_dict,
)
from repro.batch.results import BatchResult, FrameRecord

# Imported after ``repro.batch``: this order decides the call depth at
# which scipy is first imported, and on CPython 3.11 scipy's import-time
# docstring processing runs ~4x slower at some depths (measured as
# ``setup_s`` in bench/).
from repro.api.facade import SCFResult, load_result
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
    "structure_from_dict",
    "structure_to_dict",
]
