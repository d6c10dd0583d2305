"""The process's thread budget: OpenBLAS pools and pocketfft workers.

The budget is the smaller of the CPUs this process may run on
(``os.sched_getaffinity``, which honours the affinity and cgroup masks that
``os.cpu_count`` ignores) and the thread count the OpenBLAS pools started
with, so an explicit ``OPENBLAS_NUM_THREADS`` still caps it.

numpy and scipy each bundle their own OpenBLAS; both are found through the
loaded-library list (``/proc/self/maps``) and driven through ctypes with
``scipy_openblas_{set,get}_num_threads64_`` (numpy's ILP64 build) or
``scipy_openblas_{set,get}_num_threads`` (scipy's).  Outside every
:func:`blas_threads` scope the pools keep their startup counts and
:func:`fft_workers` is the budget.

Inside ``blas_threads(n)`` both pools and the FFT workers run at
``min(n, share in force)``.  Two kinds of caller open a scope:

* :func:`split_for_ranks` (entered by ``spmd_run`` on both backends) gives
  each of N virtual ranks ``max(1, budget // n_ranks)`` threads, so the
  ranks share the host's cores instead of each starting a full set;
* the iterative Casida eigensolves run at one thread.  Their GEMMs are
  ``k`` columns wide and their Rayleigh-Ritz pencils ~3k x 3k, too small
  to split, and between calls the idle workers of one library's pool spin
  against the other's.

The OpenBLAS setters are process-wide, so a share is set once per scope,
never per rank or per thread.  Nested or concurrent scopes run at the
smallest share still open; the pre-scope counts come back when the last
one exits.

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

__all__ = [
    "blas_info",
    "blas_threads",
    "budget",
    "fft_workers",
    "pool_threads",
    "split_for_ranks",
]

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
#: The share each open :func:`blas_threads` scope asked for, in entry order.
_open: list[int] = []
#: The share in force (the smallest open one), or None outside every scope.
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


def blas_info() -> dict:
    """BLAS vendor / version / threading facts for benchmark ``meta`` blocks.

    GEMM-heavy numbers are meaningless without knowing which BLAS ran them
    and on how many threads, so every measured report embeds this: numpy's
    build metadata, the process's thread budget and the *live* thread count
    of each OpenBLAS pool.
    """
    import numpy as np

    info: dict = {
        "cpu_count": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "thread_budget": budget(),
        "threadpools": pool_threads(),
        "vendor": None,
        "version": None,
    }
    try:
        config = np.show_config(mode="dicts") or {}
        blas = (config.get("Build Dependencies") or {}).get("blas") or {}
        info["vendor"] = blas.get("name")
        info["version"] = blas.get("version")
        configuration = blas.get("openblas configuration")
        if configuration:
            info["configuration"] = str(configuration)
    except (TypeError, AttributeError, ValueError):
        pass  # older numpy without mode="dicts" — vendor stays None
    return info


def _set_share(pools: list[_Pool], share: int | None) -> None:
    """Put every pool at ``share`` (None: back to the saved counts); call
    with ``_lock`` held.

    An unchanged share makes no setter call: in a forked rank the setter
    restarts the pool's worker threads, which the fork did not copy.
    """
    global _share
    if share == _share:
        return
    _share = share
    counts = _saved if share is None else [share] * len(pools)
    for pool, count in zip(pools, counts):
        pool.set(count)


@contextmanager
def blas_threads(n: int):
    """Run the body with the OpenBLAS pools and FFT workers at
    ``min(n, share in force)`` threads.

    Yields that share.  Nested or concurrent scopes run at the smallest
    share still open: when one exits, the others' smallest comes back, and
    the pre-scope counts come back when the last exits, also when the body
    raises.
    """
    global _saved
    pools, total = _discovered()
    asked = max(1, min(n, total))
    with _lock:
        if not _open:
            _saved = [pool.get() for pool in pools]
        _open.append(asked)
        share = min(_open)
        _set_share(pools, share)
    try:
        yield share
    finally:
        with _lock:
            _open.remove(asked)
            _set_share(pools, min(_open) if _open else None)


def split_for_ranks(n_ranks: int):
    """``blas_threads(max(1, budget // n_ranks))``: the share of each of
    ``n_ranks`` virtual ranks, set once for all of them."""
    return blas_threads(max(1, budget() // n_ranks))
