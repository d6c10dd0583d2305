"""Resilience subsystem: checkpoint/restart, fault injection, recovery policies.

The production context of the paper (PWDFT on Cori at 12,288 cores)
assumes long-running jobs that survive node loss and restart
mid-iteration.  This package supplies the three ingredients for the
reproduction:

* :mod:`repro.resilience.checkpoint` — versioned on-disk snapshots for the
  three iterative loops (SCF, LOBPCG, the ISDF pipeline) plus real-time
  propagation, built on :mod:`repro.utils.serialization`;
* :mod:`repro.resilience.faults` — a fault-injection harness wired into
  the SPMD executor and communicator: kill a rank, drop or delay a
  message, or corrupt a reduce buffer at a configured step;
* :mod:`repro.resilience.policies` — retry-with-backoff, reliable
  (ack-based) point-to-point delivery, verified collectives, and graceful
  degradation (K-Means->QRCP selection, iterative->dense eigensolver).
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    CheckpointManager,
    LoopCheckpointer,
)
from repro.resilience.events import (
    DegradationEvent,
    ResilienceLog,
    resilience_log,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    InjectedRankFailure,
)
from repro.resilience.policies import (
    RetryPolicy,
    reliable_recv,
    reliable_send,
    verified_allreduce,
    with_retry,
)

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointManager",
    "DegradationEvent",
    "LoopCheckpointer",
    "FAULT_KINDS",
    "ResilienceLog",
    "resilience_log",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "InjectedRankFailure",
    "RetryPolicy",
    "reliable_recv",
    "reliable_send",
    "verified_allreduce",
    "with_retry",
]
