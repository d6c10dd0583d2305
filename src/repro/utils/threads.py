"""The process's thread budget: OpenBLAS pools and pocketfft workers.

The budget is the smaller of the CPUs this process may run on
(``os.sched_getaffinity``, which honours the affinity and cgroup masks that
``os.cpu_count`` ignores) and the thread count the OpenBLAS pools started
with, so an explicit ``OPENBLAS_NUM_THREADS`` still caps it.

numpy and scipy each bundle their own OpenBLAS; both are found through the
loaded-library list (``/proc/self/maps``) and driven through ctypes with
``scipy_openblas_{set,get}_num_threads64_`` (numpy's ILP64 build) or
``scipy_openblas_{set,get}_num_threads`` (scipy's).  Outside
:func:`split_for_ranks` nothing is changed: the pools keep their startup
counts and :func:`fft_workers` is the budget.

Inside :func:`split_for_ranks` (entered by ``spmd_run`` on both backends)
both pools and the FFT workers get ``max(1, budget // n_ranks)`` threads, so
N virtual ranks share the host's cores instead of each starting a full set.
The OpenBLAS setters are process-wide, so the share is set once before the
rank threads start or the ranks fork, never per rank; nested or concurrent
runs share one refcount and only the last exit restores the counts.

Where a library lacks the setters, or the platform has no
``/proc/self/maps``, one ``thread-budget`` event is recorded in the
resilience log and the pools are left as they are.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

__all__ = ["budget", "fft_workers", "pool_threads", "split_for_ranks"]

_MAPS = Path("/proc/self/maps")
#: ``(setter, getter)`` symbol pairs of numpy's and scipy's bundled builds.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


@dataclass(frozen=True)
class _Pool:
    name: str
    set: object
    get: object


def _find_pools() -> tuple[list[_Pool], str | None]:
    """The loaded OpenBLAS pools, and why some could not be used (or None)."""
    try:
        paths = sorted(
            {
                line.split()[-1]
                for line in _MAPS.read_text().splitlines()
                if "openblas" in line.rsplit("/", 1)[-1]
            }
        )
    except OSError as exc:
        return [], f"cannot list the loaded libraries ({exc})"
    pools, missing = [], []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # the mapped file is gone or not loadable
            missing.append(Path(path).name)
            continue
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                pools.append(_Pool(Path(path).name, setter, getter))
                break
        else:
            missing.append(Path(path).name)
    if not paths:
        return pools, "no OpenBLAS library is loaded"
    if missing:
        return pools, f"no thread setter in {', '.join(missing)}"
    return pools, None


_lock = threading.Lock()
#: ``(pools, budget)``, found once per process by :func:`_discovered`.
_found: tuple[list[_Pool], int] | None = None
_depth = 0
_share: int | None = None
_saved: list[int] = []


def _discovered() -> tuple[list[_Pool], int]:
    """The pools and the budget, found once; a failure is noted once."""
    global _found
    if _found is not None:
        return _found
    pools, problem = _find_pools()
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        cpus = os.cpu_count() or 1
    found = pools, max(1, min([cpus] + [pool.get() for pool in pools]))
    with _lock:
        first = _found is None
        if first:
            _found = found
    if first and problem is not None:
        from repro.resilience.events import resilience_log

        resilience_log().record(
            "thread-budget",
            "pools-unchanged",
            f"{problem}; OpenBLAS thread counts are left as they are",
        )
    return _found


def budget() -> int:
    """Threads this process may use: usable CPUs capped by the pools' start."""
    return _discovered()[1]


def fft_workers() -> int:
    """pocketfft ``workers=`` for a transform issued now."""
    share = _share
    return budget() if share is None else share


def pool_threads() -> dict[str, int]:
    """Live thread count of each OpenBLAS pool, keyed by library file name."""
    return {pool.name: pool.get() for pool in _discovered()[0]}


@contextmanager
def split_for_ranks(n_ranks: int):
    """Give the pools and FFT workers ``max(1, budget // n_ranks)`` threads.

    Yields the share in force.  The pre-split counts come back when the
    last nested or concurrent split exits, also when the body raises;
    overlapping splits run at the smallest share any of them asked for.
    """
    global _depth, _share, _saved
    pools, total = _discovered()
    share = max(1, total // n_ranks)
    with _lock:
        if _depth == 0:
            _saved = [pool.get() for pool in pools]
        else:
            share = min(share, _share)
        _share = share
        _depth += 1
        for pool in pools:
            pool.set(share)
    try:
        yield share
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                _share = None
                for pool, count in zip(pools, _saved):
                    pool.set(count)
