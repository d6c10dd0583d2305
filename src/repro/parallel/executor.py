"""The SPMD executor: run one function on N virtual ranks.

Two interchangeable backends (``backend=`` or ``REPRO_SPMD_BACKEND``):

* ``"thread"`` (default) — thread-per-rank in this process; numpy releases
  the GIL inside BLAS/FFT, so virtual ranks even overlap for real.
* ``"process"`` — one forked OS process per rank with shared-memory
  collectives (:mod:`repro.parallel.process_backend`): pure-Python rank
  code runs genuinely in parallel and bulk arrays move zero-copy.

Both produce bit-identical results for the same rank program (same
deterministic rank-ordered combine trees) and the same logical traffic
totals.  On both, the ranks split the host's thread budget: the OpenBLAS
pools and FFT workers run at ``budget // n_ranks`` for the run
(:func:`repro.utils.threads.split_for_ranks`).  A rank that raises aborts
the shared barrier; every surviving rank unwinds with
:class:`~repro.parallel.comm.SpmdAbort` and the *original* exception is
re-raised to the caller.

Fault tolerance: :func:`spmd_run` accepts a
:class:`~repro.resilience.faults.FaultInjector` that can kill a rank,
drop/delay a message, or corrupt a reduce buffer at a configured step, and
:func:`spmd_run_resilient` wraps the whole run in retry-with-backoff — the
restart-after-node-loss model of the paper's production context (one-shot
fault specs are consumed by the failing attempt, so the retried run
completes cleanly).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable

from repro.parallel.comm import CommTraffic, Communicator, SpmdAbort, _SharedState
from repro.parallel.sanitizer import SpmdSanitizer, board_size, env_enabled
from repro.utils.threads import split_for_ranks
from repro.utils.validation import require

_ENV_BACKEND = "REPRO_SPMD_BACKEND"
SPMD_BACKENDS = ("thread", "process")


def resolve_backend(backend: str | None) -> str:
    """``backend`` argument > ``REPRO_SPMD_BACKEND`` > ``"thread"``."""
    if backend is None:
        backend = os.environ.get(_ENV_BACKEND, "").strip() or "thread"
    if backend not in SPMD_BACKENDS:
        raise ValueError(
            f"unknown SPMD backend {backend!r}; choose from {SPMD_BACKENDS}"
        )
    return backend


def spmd_run(
    n_ranks: int,
    fn: Callable[..., object],
    *args,
    return_traffic: bool = False,
    fault_injector=None,
    sanitize: bool | None = None,
    sanitize_timeout: float | None = None,
    backend: str | None = None,
):
    """Execute ``fn(comm, *args)`` on ``n_ranks`` virtual ranks.

    Parameters
    ----------
    fn:
        The rank program; receives its :class:`Communicator` first.
    return_traffic:
        Also return the :class:`CommTraffic` accumulated by the run.
    fault_injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` consulted
        by every collective, reduce contribution, and p2p send.
    sanitize:
        Run under the :class:`~repro.parallel.sanitizer.SpmdSanitizer`
        (its board is a ``bytearray`` on the thread backend, a
        shared-memory slab on the process backend).  Mismatched
        collectives, unsynchronized shared-buffer writes and deadlocks
        become diagnosed
        :class:`~repro.parallel.sanitizer.SanitizerError` instead of
        silent corruption or hangs.  ``None`` (default) consults the
        ``REPRO_SANITIZE`` environment variable.
    sanitize_timeout:
        Seconds after which a collective that never completes is declared
        a deadlock (default: ``REPRO_SANITIZE_TIMEOUT`` or 10).
    backend:
        ``"thread"`` (default) or ``"process"`` — see the module
        docstring; ``None`` consults ``REPRO_SPMD_BACKEND``.

    Returns
    -------
    ``results`` — list of per-rank return values (rank order) — or
    ``(results, traffic)`` when ``return_traffic`` is set.
    """
    require(n_ranks >= 1, f"need at least one rank, got {n_ranks}")
    backend = resolve_backend(backend)
    if sanitize is None:
        sanitize = env_enabled()
    if backend == "process":
        from repro.parallel.process_backend import process_spmd_run as run
    else:
        run = _thread_spmd_run
    # The OpenBLAS setters are process-wide: split the budget once, before
    # the rank threads start or the ranks fork.
    with split_for_ranks(n_ranks):
        return run(
            n_ranks,
            fn,
            *args,
            return_traffic=return_traffic,
            fault_injector=fault_injector,
            sanitize=sanitize,
            sanitize_timeout=sanitize_timeout,
        )


def _thread_spmd_run(
    n_ranks: int,
    fn: Callable[..., object],
    *args,
    return_traffic: bool,
    fault_injector,
    sanitize: bool,
    sanitize_timeout: float | None,
):
    """The thread backend: one ``threading.Thread`` per rank."""
    sanitizer = (
        SpmdSanitizer(
            n_ranks,
            memoryview(bytearray(board_size(n_ranks))),
            threading.Barrier(n_ranks),
            threading.Event(),
            sanitize_timeout,
        )
        if sanitize
        else None
    )
    shared = _SharedState(n_ranks, fault_injector=fault_injector, sanitizer=sanitizer)
    results: list = [None] * n_ranks

    def worker(rank: int) -> None:
        comm = Communicator(rank, shared)
        try:
            results[rank] = fn(comm, *args)
            if sanitizer is not None:
                sanitizer.rank_done(rank)
        except SpmdAbort:
            pass  # secondary failure; the original error is in shared.error
        except BaseException as exc:  # repro-lint: disable=no-blind-except -- the worker must capture every failure to abort peers; spmd_run re-raises shared.error
            shared.abort(exc)

    threads = [
        threading.Thread(target=worker, args=(rank,), name=f"spmd-rank-{rank}")
        for rank in range(n_ranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    if shared.error is not None:
        raise shared.error
    if return_traffic:
        return results, shared.traffic
    return results


def spmd_run_resilient(
    n_ranks: int,
    fn: Callable[..., object],
    *args,
    policy=None,
    fault_injector=None,
    return_traffic: bool = False,
    sleep: Callable[[float], None] = time.sleep,
    backend: str | None = None,
):
    """:func:`spmd_run` with whole-run retry on transient rank faults.

    When any rank dies with an exception matching ``policy.retry_on`` the
    entire SPMD program is re-launched after the policy's backoff, up to
    ``policy.max_retries`` times.  Rank programs must therefore be
    restartable from their arguments — which is exactly what the
    checkpoint/restart machinery provides for the long loops.
    """
    from repro.resilience.policies import RetryPolicy

    policy = policy or RetryPolicy()
    attempt = 0
    while True:
        try:
            return spmd_run(
                n_ranks,
                fn,
                *args,
                return_traffic=return_traffic,
                fault_injector=fault_injector,
                backend=backend,
            )
        except policy.retry_on:
            if attempt >= policy.max_retries:
                raise
            sleep(policy.delay(attempt))
            attempt += 1


def spmd_traffic(n_ranks: int, fn: Callable[..., object], *args) -> CommTraffic:
    """Convenience: run and return only the traffic trace."""
    _, traffic = spmd_run(n_ranks, fn, *args, return_traffic=True)
    return traffic
