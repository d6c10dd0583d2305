"""``repro.serve`` — the async calculation service.

One :class:`CalculationServer` turns the unified request API into a job
service: submissions dedupe by content hash, repeat requests are served
bit-identically from the :class:`ResultStore`, near-duplicates warm-start
from the nearest cached ground state, and progress streams per iteration
through subscribable :class:`~repro.serve.events.EventChannel`\\ s.

Quick start::

    from repro.api import CalculationRequest, SCFConfig
    from repro.serve import CalculationServer, ServeClient

    with CalculationServer(n_workers=2) as server:
        handle = CalculationRequest(
            kind="scf", structure=cell, scf=SCFConfig(ecut=8.0)
        ).submit(server)
        gs = handle.result()

:func:`default_server` holds the process-wide server that
:meth:`CalculationRequest.submit() <repro.api.CalculationRequest.submit>`
uses when no server is given.

See ``docs/serving.md`` for queue semantics, the cache / warm-start
contract, fairness, and failure modes.
"""

from __future__ import annotations

import atexit
import threading

from repro.serve.client import ServeClient
from repro.serve.events import EventChannel, JobEvent, Subscription
from repro.serve.queue import AdmissionError, JobQueue
from repro.serve.server import (
    CalculationServer,
    JobCancelled,
    JobFailed,
    JobHandle,
)
from repro.serve.store import ResultStore, StoreEntry

__all__ = [
    "AdmissionError",
    "CalculationServer",
    "EventChannel",
    "JobCancelled",
    "JobEvent",
    "JobFailed",
    "JobHandle",
    "JobQueue",
    "ResultStore",
    "ServeClient",
    "StoreEntry",
    "Subscription",
    "default_server",
    "shutdown_default_server",
]

_default_lock = threading.Lock()
_default: CalculationServer | None = None


def default_server() -> CalculationServer:
    """The process-wide server (created on first use, one worker).

    Backs :meth:`CalculationRequest.submit() <repro.api.
    CalculationRequest.submit>` when no server is passed; shut down
    automatically at interpreter exit (or explicitly via
    :func:`shutdown_default_server`).
    """
    global _default
    with _default_lock:
        if _default is None:
            _default = CalculationServer()
            atexit.register(shutdown_default_server)
        return _default


def shutdown_default_server() -> None:
    """Tear down the process-default server (idempotent)."""
    global _default
    with _default_lock:
        server, _default = _default, None
    if server is not None:
        server.shutdown()
