"""Recovery policies: retry-with-backoff, reliable delivery, degradation.

Two layers of graceful degradation back the facade's
``ResilienceConfig``:

* **transport** — :func:`reliable_send` / :func:`reliable_recv` implement
  ack-based at-least-once point-to-point delivery on top of the lossy
  (fault-injected) communicator, and :func:`verified_allreduce` re-runs a
  reduction whose combined buffer arrives non-finite (the signature of a
  corrupted contribution);
* **algorithm** — K-Means -> QRCP point selection on non-convergence and
  iterative -> dense eigensolver fallback live with their call sites
  (:func:`repro.core.isdf.isdf_decompose` and the tddft stage of
  :func:`repro.api.execute_request`) and are driven by the same
  :class:`RetryPolicy` knobs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.parallel.comm import Communicator, MessageTimeout
from repro.resilience.faults import InjectedFault
from repro.utils.validation import require

__all__ = [
    "RetryPolicy",
    "reliable_recv",
    "reliable_send",
    "verified_allreduce",
    "with_retry",
]

#: Tag offset reserved for delivery acknowledgements.
_ACK_TAG_OFFSET = 1 << 20


@dataclass(frozen=True)
class RetryPolicy:
    """Retry-with-exponential-backoff parameters.

    ``retry_on`` limits which exceptions are considered transient; by
    default only injected faults and message timeouts are retried, so
    genuine programming errors still fail fast.
    """

    max_retries: int = 3
    backoff: float = 0.01
    backoff_factor: float = 2.0
    timeout: float = 0.25  #: per-attempt wait for an expected message/ack
    retry_on: tuple[type[BaseException], ...] = (InjectedFault, MessageTimeout)

    def __post_init__(self) -> None:
        require(self.max_retries >= 0, "max_retries must be >= 0")
        require(self.backoff >= 0.0, "backoff must be >= 0")
        require(self.backoff_factor >= 1.0, "backoff_factor must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        return self.backoff * self.backoff_factor**attempt

    def total_recv_timeout(self) -> float:
        """How long a receiver should wait for an at-least-once sender."""
        budget = self.timeout * (self.max_retries + 1)
        budget += sum(self.delay(a) for a in range(self.max_retries))
        return budget + 1.0


def with_retry(
    fn: Callable,
    *args,
    policy: RetryPolicy | None = None,
    sleep: Callable[[float], None] = time.sleep,
    **kwargs,
):
    """Call ``fn(*args, **kwargs)``, retrying transient failures with backoff."""
    policy = policy or RetryPolicy()
    for attempt in range(policy.max_retries + 1):
        try:
            return fn(*args, **kwargs)
        except policy.retry_on:
            if attempt == policy.max_retries:
                raise
            sleep(policy.delay(attempt))


# -- reliable point-to-point ------------------------------------------------


def reliable_send(
    comm: Communicator,
    value,
    dest: int,
    tag: int = 0,
    *,
    policy: RetryPolicy | None = None,
) -> int:
    """Send with ack-based at-least-once delivery; returns attempts used.

    The payload is (re)sent until the matching :func:`reliable_recv` acks
    it or the retry budget is exhausted.  Duplicates are possible when an
    *ack* (rather than the payload) is lost — callers that cannot tolerate
    redelivery must deduplicate by tag.
    """
    policy = policy or RetryPolicy()
    require(0 <= tag < _ACK_TAG_OFFSET, f"tag must be < {_ACK_TAG_OFFSET}")
    for attempt in range(policy.max_retries + 1):
        comm.send(value, dest, tag=tag)
        try:
            comm.recv(
                dest,
                tag=tag + _ACK_TAG_OFFSET,
                timeout=policy.timeout,
                strict_tags=False,
            )
            return attempt + 1
        except MessageTimeout:
            if attempt < policy.max_retries:
                time.sleep(policy.delay(attempt))
    raise MessageTimeout(
        f"rank {comm.rank}: message tag={tag} to rank {dest} was never "
        f"acknowledged after {policy.max_retries + 1} attempts"
    )


def reliable_recv(
    comm: Communicator,
    source: int,
    tag: int = 0,
    *,
    policy: RetryPolicy | None = None,
):
    """Receive the payload of a :func:`reliable_send` and acknowledge it."""
    policy = policy or RetryPolicy()
    require(0 <= tag < _ACK_TAG_OFFSET, f"tag must be < {_ACK_TAG_OFFSET}")
    value = comm.recv(
        source, tag=tag, timeout=policy.total_recv_timeout(), strict_tags=False
    )
    comm.send(True, source, tag=tag + _ACK_TAG_OFFSET)
    return value


# -- verified collectives ---------------------------------------------------


def _all_finite(value) -> bool:
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if isinstance(value, (list, tuple)):
        return all(_all_finite(v) for v in value)
    if isinstance(value, (int, float, complex, np.generic)):
        return bool(np.isfinite(complex(value).real) and np.isfinite(complex(value).imag))
    return True


def verified_allreduce(
    comm: Communicator,
    value,
    op: str = "sum",
    *,
    policy: RetryPolicy | None = None,
):
    """Allreduce that detects a poisoned buffer and re-runs the reduction.

    Every rank observes the *same* combined result, so the finite/retry
    decision is consistent across ranks without extra synchronization.
    """
    policy = policy or RetryPolicy()
    for attempt in range(policy.max_retries + 1):
        result = comm.allreduce(value, op=op)
        if _all_finite(result):
            return result
    raise ArithmeticError(
        f"allreduce({op}) stayed non-finite after "
        f"{policy.max_retries + 1} attempts — corrupt contribution?"
    )
