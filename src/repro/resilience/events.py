"""The resilience event log: a process-wide record of degradation events.

The degradation ladders (K-Means->QRCP selection, iterative->dense
eigensolver) each fall back *silently* from the caller's point of view —
the result is still correct, just produced by a slower or stricter path.
Other degradations fire deep inside a run (the thread-budget probe leaves
the OpenBLAS pools unchanged when it cannot drive them), so operators need
a single place to see *that* a fallback happened, *where*, and *why*.

:func:`resilience_log` returns the process-wide :class:`ResilienceLog`;
stages record :class:`DegradationEvent` entries through it.  The log is
append-only and thread-safe; tests and the serve layer read it with
:meth:`ResilienceLog.events` and reset it with :meth:`ResilienceLog.clear`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = ["DegradationEvent", "ResilienceLog", "resilience_log"]


@dataclass(frozen=True)
class DegradationEvent:
    """One recorded fallback.

    Attributes
    ----------
    stage:
        The degrading stage (``"thread-budget"``, ...).
    action:
        What the ladder did (``"pools-unchanged"``, ...).
    reason:
        Human-readable cause, including the estimate and its bound where
        applicable.
    detail:
        Machine-readable extras (error estimates, tolerances, iteration
        numbers).
    timestamp:
        ``time.time()`` at record time.
    """

    stage: str
    action: str
    reason: str
    detail: dict = field(default_factory=dict)
    timestamp: float = 0.0


class ResilienceLog:
    """Append-only, thread-safe list of :class:`DegradationEvent`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[DegradationEvent] = []

    def record(
        self, stage: str, action: str, reason: str, **detail
    ) -> DegradationEvent:
        """Append one event; returns it (handy for exception chaining)."""
        event = DegradationEvent(
            stage=stage,
            action=action,
            reason=reason,
            detail=dict(detail),
            timestamp=time.time(),
        )
        with self._lock:
            self._events.append(event)
        return event

    def events(self, stage: str | None = None) -> tuple[DegradationEvent, ...]:
        """All recorded events, optionally filtered by ``stage``."""
        with self._lock:
            snapshot = tuple(self._events)
        if stage is None:
            return snapshot
        return tuple(e for e in snapshot if e.stage == stage)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


_GLOBAL_LOG = ResilienceLog()


def resilience_log() -> ResilienceLog:
    """The process-wide log every degradation ladder records into."""
    return _GLOBAL_LOG
