#!/usr/bin/env python
"""Unified static-analysis + test gate: ``python tools/run_checks.py``.

Runs, in order:

1. **ruff** — baseline style/correctness lint (skipped when not installed;
   the container image does not ship it),
2. **mypy** — type check of the static-analysis subsystem (skipped when not
   installed),
3. **repro-lint** — the project's own AST + whole-program passes
   (``python -m repro lint``, file rules plus the call-graph rules),
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
7. **process-backend smoke** — a 3-rank ``backend="process"`` run whose
   collectives must match the thread backend bit-for-bit and leave no
   ``/dev/shm`` residue (skipped where ``fork`` is unavailable),
8. **precision smoke** — the mixed precision tier (``repro.precision``)
   against strict64: fit and K-Means errors inside their documented
   tolerances with no fallback fired, the fp32 wire provably halving the
   shared-memory reduce bytes on the pipelined GEMM+Reduce, and the
   thread/process backends bit-identical to each other under the fp32
   wire (skip with ``--no-precision``),
9. **serve smoke** — an in-process job server handling a duplicate
   request pair: the second submission must be a bit-identical,
   zero-SCF-iteration cache hit, and a perturbed third request must
   warm-start off the cached ground state,
10. **public API snapshot** — ``tools/check_public_api.py``,
11. **bytecode guard** — ``tools/check_no_pyc.py``,
12. **bench gate** — ``tools/check_bench.py``: validates the committed
    ``BENCH_*.json`` reports and re-runs the smoke benchmarks, gating on
    correctness flags and dimensionless ratios (never raw seconds); skip
    with ``--no-bench`` for the fast loop, refresh the committed reports
    with ``python tools/check_bench.py --update-bench``,
13. **tier-1 tests** — ``pytest -x -q``, with every ``@array_contract``
    enforced at runtime (``tests/conftest.py`` sets
    ``REPRO_ARRAY_CONTRACTS=1``; skip with ``--no-tests`` for the fast
    pre-commit loop).

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


_PROCESS_SMOKE = """
import multiprocessing, os, sys
try:
    multiprocessing.get_context("fork")
except ValueError:
    print("process smoke: SKIP (no fork start method)")
    sys.exit(0)

import numpy as np
from repro.parallel import spmd_run

def prog(comm):
    rng = np.random.default_rng(99)
    a = rng.standard_normal((6, 5))
    out = comm.allreduce(a * (comm.rank + 1))
    got = comm.alltoall([a + d for d in range(comm.size)])
    h = comm.ireduce(a, root=0)
    red = h.wait()
    return (out.sum(), sum(g.sum() for g in got),
            None if red is None else red.sum())

thread = spmd_run(3, prog, backend="thread")
process, traffic = spmd_run(3, prog, backend="process", return_traffic=True)
assert thread == process, (thread, process)
assert traffic.zero_copy_bytes > 0, "no bytes moved through shared memory?"
residue = [f for f in os.listdir("/dev/shm") if f.startswith("reprospmd")]
assert not residue, residue
print("process smoke: ok (bit-identical, zero-copy, no shm residue)")
"""


_PRECISION_SMOKE = """
import multiprocessing, sys
import numpy as np

from repro.core.fitting import fit_interpolation_vectors
from repro.core.kmeans import weighted_kmeans
from repro.resilience import resilience_log

# 1) mixed-tier numerics: the fp32 compute stages must stay inside the
#    tier's documented tolerances against strict64, with no fallback.
rng = np.random.default_rng(11)
psi_v = rng.standard_normal((8, 2048))
psi_c = rng.standard_normal((8, 2048))
# n_mu well below the n_v*n_c Hadamard-Gram rank bound: the fit must be
# well-posed for a tier comparison to be meaningful (an ill-conditioned
# Gram amplifies *any* perturbation through the solve, fp32 or not).
idx = np.sort(rng.choice(2048, size=32, replace=False))
theta64 = fit_interpolation_vectors(psi_v, psi_c, idx)
theta32 = fit_interpolation_vectors(psi_v, psi_c, idx, precision="mixed")
err = np.linalg.norm(theta32 - theta64) / np.linalg.norm(theta64)
assert err <= 1e-4, f"mixed fit error {err:.3e} exceeds 1e-4"

pts = rng.random((4000, 3))
wts = rng.random(4000) + 0.1
strict = weighted_kmeans(pts, wts, 16, rng=np.random.default_rng(0))
mixed = weighted_kmeans(
    pts, wts, 16, rng=np.random.default_rng(0), precision="mixed"
)
drift = abs(mixed[2] - strict[2]) / abs(strict[2])
assert drift <= 1e-2, f"mixed kmeans inertia drift {drift:.3e} exceeds 1e-2"
assert not resilience_log().events(), resilience_log().events()

# 2) fp32 wire: on the pipelined GEMM+Reduce the shared-memory reduce
#    bytes must provably halve, and thread/process backends must stay
#    bit-identical to each other under the fp32 wire.
try:
    multiprocessing.get_context("fork")
except ValueError:
    print("precision smoke: ok (wire-byte check skipped: no fork)")
    sys.exit(0)

from repro.parallel import spmd_run
from repro.parallel.pipeline import pipelined_vhxc_full

def prog(precision):
    def body(comm):
        r = np.random.default_rng(5 + comm.rank)
        z = r.standard_normal((8, 32))
        k = r.standard_normal((8, 32))
        return pipelined_vhxc_full(comm, z, k, 0.1, precision=precision)
    return body

out64, t64 = spmd_run(2, prog("strict64"), backend="process", return_traffic=True)
out32, t32 = spmd_run(2, prog("mixed"), backend="process", return_traffic=True)
b64 = t64.shm_bytes_by_op["reduce"]
b32 = t32.shm_bytes_by_op["reduce"]
assert 2 * b32 <= b64, f"fp32 reduce bytes {b32} not <= half of fp64 {b64}"
scale = max(float(np.abs(a).max()) for a in out64)
wire_err = max(
    float(np.abs(a - b).max()) for a, b in zip(out32, out64)
) / scale
assert wire_err <= 1e-5, f"fp32-wire error {wire_err:.3e} exceeds 1e-5"
thread32 = spmd_run(2, prog("mixed"), backend="thread")
assert all(np.array_equal(a, b) for a, b in zip(thread32, out32)), (
    "thread/process backends disagree under the fp32 wire"
)
print(
    f"precision smoke: ok (fit err {err:.1e}, inertia drift {drift:.1e}, "
    f"reduce bytes {b64} -> {b32}, wire err {wire_err:.1e}, "
    "backends bit-identical)"
)
"""


_SERVE_SMOKE = """
import numpy as np
from repro.api import CalculationRequest, SCFConfig
from repro.pw.cell import UnitCell
from repro.serve import CalculationServer

cell = UnitCell(
    10.0 * np.eye(3), ("H", "H"),
    np.array([[0.5, 0.5, 0.43], [0.5, 0.5, 0.57]]),
)
config = SCFConfig(ecut=4.0, n_bands=4, tol=1e-6, seed=0)
request = CalculationRequest(kind="scf", structure=cell, scf=config)

with CalculationServer() as server:
    first = request.submit(server)
    gs1 = first.result(timeout=300)
    assert not first.cache_hit and first.record()["scf_iterations"] > 0

    # Duplicate: must be a bit-identical cache hit with zero work.
    second = request.submit(server)
    gs2 = second.result(timeout=300)
    assert second.cache_hit, "duplicate request missed the cache"
    assert second.record()["scf_iterations"] == 0
    assert gs2.total_energy == gs1.total_energy
    assert np.array_equal(gs2.density, gs1.density)

    # Near-duplicate: must warm-start from the cached ground state.
    moved = UnitCell(
        cell.lattice, cell.species,
        cell.fractional_positions + np.array([[0.0, 0.0, 1e-3]] * 2),
    )
    third = CalculationRequest(kind="scf", structure=moved, scf=config).submit(server)
    gs3 = third.result(timeout=300)
    assert not third.cache_hit and third.warm, "perturbed request did not warm-start"
print("serve smoke: ok (cache hit bit-identical, warm start engaged)")
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--no-tests", action="store_true",
                        help="skip the tier-1 pytest stage (fast loop)")
    parser.add_argument("--no-bench", action="store_true",
                        help="skip the perf-regression bench gate (fast loop)")
    parser.add_argument("--no-precision", action="store_true",
                        help="skip the mixed-precision smoke stage")
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
    gate.run("process-smoke", [sys.executable, "-c", _PROCESS_SMOKE])
    if not args.no_precision:
        gate.run("precision-smoke", [sys.executable, "-c", _PRECISION_SMOKE])
    else:
        print("-- precision-smoke: SKIP (--no-precision)")
        gate.results.append(("precision-smoke", "SKIP", 0.0))
    gate.run("serve-smoke", [sys.executable, "-c", _SERVE_SMOKE])
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
