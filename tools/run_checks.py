#!/usr/bin/env python
"""Unified static-analysis + test gate: ``python tools/run_checks.py``.

Runs, in order:

1. **ruff** — baseline style/correctness lint (skipped when not installed;
   the container image does not ship it),
2. **mypy** — type check of the static-analysis subsystem (skipped when not
   installed),
3. **repro-lint** — the project's own per-file AST passes
   (``python -m repro lint``),
4. **lint suppressions** — ``repro lint --check-suppressions``: every
   suppression comment must still match a live finding (stale waivers fail),
5. **lint baseline** — ``tools/check_lint_baseline.py``: no new findings
   versus the committed baseline, and no silently-vanished rules,
6. **sanitizer smoke** — on both SPMD backends, the bench-spmd GIL-bound
   workload under the runtime sanitizer: results bit-identical to
   unsanitized, overhead within 25%, and a deliberately mismatched
   collective *diagnosed* with every rank's call site, proving the
   sanitizer is alive and not a no-op (the process half is skipped where
   ``fork`` is unavailable),
7. **public API snapshot** — ``tools/check_public_api.py``,
8. **bytecode guard** — ``tools/check_no_pyc.py``,
9. **bench gate** — ``tools/check_bench.py``: validates the committed
   ``BENCH_*.json`` reports and re-runs the smoke benchmarks, gating on
   correctness flags and dimensionless ratios (never raw seconds); skip
   with ``--no-bench`` for the fast loop, refresh the committed reports
   with ``python tools/check_bench.py --update-bench``,
10. **tier-1 tests** — ``pytest -x -q``, with every ``@array_contract``
    enforced at runtime (``tests/conftest.py`` sets
    ``REPRO_ARRAY_CONTRACTS=1``; skip with ``--no-tests`` for the fast
    pre-commit loop).  Tier-1 also asserts what the deleted process
    and serve smoke stages did: thread/process bit-identity, zero-copy
    traffic and no ``/dev/shm`` residue
    (``tests/parallel/test_process_backend.py``), and bit-identical cache
    hits and warm starts (``tests/serve/test_server.py``).

Exit status is nonzero if any mandatory stage fails.  Optional tools that
are absent are reported as SKIP, never as failures — the repo must be
checkable in the minimal numpy/scipy container.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import time

_TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(_TOOLS_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _have_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):
        return False


class Gate:
    """Collects stage results and renders the summary table."""

    def __init__(self) -> None:
        self.results: list[tuple[str, str, float]] = []

    def run(self, name: str, argv: list[str], *, optional_module: str | None = None) -> None:
        if optional_module is not None and not _have_module(optional_module):
            print(f"-- {name}: SKIP ({optional_module} not installed)")
            self.results.append((name, "SKIP", 0.0))
            return
        shown = " ".join(a if len(a) < 80 else a[:77].replace("\n", " ") + "..." for a in argv)
        print(f"-- {name}: {shown}")
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=REPO_ROOT, env=_env())
        elapsed = time.perf_counter() - start
        status = "ok" if proc.returncode == 0 else f"FAIL (exit {proc.returncode})"
        self.results.append((name, status, elapsed))

    def summary(self) -> int:
        print("\n== run_checks summary ==")
        failed = 0
        for name, status, elapsed in self.results:
            print(f"  {name:<18s} {status:<14s} {elapsed:6.1f}s")
            failed += status.startswith("FAIL")
        if failed:
            print(f"run_checks: {failed} stage(s) failed")
            return 1
        print("run_checks: all stages passed")
        return 0


_SANITIZER_SMOKE = """
import multiprocessing, os, time

from repro.parallel import SanitizerError, spmd_run
from repro.perf.spmd_bench import _gil_bound_program

STEPS, WORK, RANKS = 10, 50_000, 3
try:
    multiprocessing.get_context("fork")
    BACKENDS = ("thread", "process")
except ValueError:
    BACKENDS = ("thread",)
    print("sanitizer smoke [process]: SKIP (no fork start method)")

def bad(comm):
    if comm.rank == 1:
        return comm.gather(comm.rank, root=0)
    return comm.allreduce(comm.rank)

for backend in BACKENDS:
    def once(sanitize):
        t0 = time.perf_counter()
        out = spmd_run(
            RANKS, _gil_bound_program, STEPS, WORK,
            backend=backend, sanitize=sanitize, sanitize_timeout=30.0,
        )
        return out, time.perf_counter() - t0

    # Bit-identity: the sanitizer must observe, never perturb.
    plain_times, sane_times = [], []
    for _ in range(3):
        plain, t_plain = once(False)
        sane, t_sane = once(True)
        assert sane == plain, (backend, sane, plain)
        plain_times.append(t_plain)
        sane_times.append(t_sane)

    # Overhead gate: min-of-3 vs min-of-3 (both pay the same spawn costs).
    ratio = min(sane_times) / min(plain_times)
    assert ratio <= 1.25, f"{backend}: sanitizer overhead {ratio:.2f}x exceeds 1.25x"

    # A mismatched collective must be diagnosed with every rank's call site.
    try:
        spmd_run(RANKS, bad, backend=backend, sanitize=True, sanitize_timeout=5.0)
    except SanitizerError as exc:
        text = str(exc)
        assert "allreduce" in text and "gather" in text, text
        assert text.count("<string>") == RANKS, text
    else:
        raise SystemExit(f"{backend}: sanitizer missed a mismatched collective")
    residue = [f for f in os.listdir("/dev/shm") if f.startswith("reprospmd")]
    assert not residue, residue
    print(f"sanitizer smoke [{backend}]: ok (bit-identical, overhead {ratio:.2f}x, "
          "mismatch diagnosed)")
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--no-tests", action="store_true",
                        help="skip the tier-1 pytest stage (fast loop)")
    parser.add_argument("--no-bench", action="store_true",
                        help="skip the perf-regression bench gate (fast loop)")
    args = parser.parse_args(argv)

    gate = Gate()
    gate.run("ruff", [sys.executable, "-m", "ruff", "check", "src", "tests", "tools"],
             optional_module="ruff")
    gate.run("mypy", [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
             optional_module="mypy")
    gate.run("repro-lint", [sys.executable, "-m", "repro", "lint", "src"])
    gate.run("lint-suppressions",
             [sys.executable, "-m", "repro", "lint", "src", "--check-suppressions"])
    gate.run("lint-baseline",
             [sys.executable, os.path.join("tools", "check_lint_baseline.py")])
    gate.run("sanitizer-smoke", [sys.executable, "-c", _SANITIZER_SMOKE])
    gate.run("public-api", [sys.executable, os.path.join("tools", "check_public_api.py")])
    gate.run("no-pyc", [sys.executable, os.path.join("tools", "check_no_pyc.py")])
    if not args.no_bench:
        gate.run("bench-gate", [sys.executable, os.path.join("tools", "check_bench.py")])
    else:
        print("-- bench-gate: SKIP (--no-bench)")
        gate.results.append(("bench-gate", "SKIP", 0.0))
    if not args.no_tests:
        gate.run("tier1-tests", [sys.executable, "-m", "pytest", "-x", "-q"])
    else:
        print("-- tier1-tests: SKIP (--no-tests)")
        gate.results.append(("tier1-tests", "SKIP", 0.0))
    return gate.summary()


if __name__ == "__main__":
    sys.exit(main())
