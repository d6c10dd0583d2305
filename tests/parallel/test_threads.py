"""The thread budget: SPMD ranks split it, the Casida eigensolve runs at
one thread, and every count comes back."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.api import TDDFTConfig
from repro.core import LRTDDFTSolver
from repro.parallel import spmd_run
from repro.resilience import resilience_log
from repro.utils import threads

pytestmark = pytest.mark.usefixtures("lock_recorder")

SRC = Path(__file__).resolve().parents[2] / "src"


def _counts():
    return threads.pool_threads(), threads.fft_workers()


def _share(n_ranks):
    return max(1, threads.budget() // n_ranks)


def test_every_loaded_openblas_is_a_pool():
    loaded = {
        Path(line.split()[-1]).name
        for line in Path("/proc/self/maps").read_text().splitlines()
        if "openblas" in line.rsplit("/", 1)[-1]
    }
    assert loaded, "numpy and scipy load their bundled OpenBLAS"
    assert set(threads.pool_threads()) == loaded


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("n_ranks", [1, 2])
def test_ranks_run_on_their_share(backend, n_ranks):
    share = _share(n_ranks)
    results = spmd_run(n_ranks, lambda comm: _counts(), backend=backend)
    for pools, workers in results:
        assert workers == share
        assert pools and set(pools.values()) == {share}


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_counts_restored_after_return_and_raise(backend):
    before = _counts()
    spmd_run(2, lambda comm: None, backend=backend)
    assert _counts() == before

    def prog(comm):
        if comm.rank == 1:
            raise ValueError("rank 1 fails")

    with pytest.raises(ValueError, match="rank 1 fails"):
        spmd_run(2, prog, backend=backend)
    assert _counts() == before


def _at(share):
    """The counts at ``share``: every pool and the FFT workers."""
    return {name: share for name in threads.pool_threads()}, share


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("n_ranks, inner", [(1, 1), (2, 2)])
def test_nested_scope_runs_at_the_smaller_share(backend, n_ranks, inner):
    """Inside a rank, ``blas_threads(inner)`` runs at the smaller of its
    share and the rank's, and the rank's share comes back after it."""
    outer = _share(n_ranks)

    def prog(comm):
        with threads.blas_threads(inner) as share:
            inside = share, _counts()
        return inside, _counts()

    for (share, inside), after in spmd_run(n_ranks, prog, backend=backend):
        assert share == min(inner, outer)
        assert inside == _at(share)
        assert after == _at(outer)


def test_unchanged_share_starts_no_pool_workers_in_a_forked_rank():
    """A forked rank has none of the pools' worker threads, and a setter
    call restarts them; a scope at the rank's own share must not call it."""

    def prog(comm):
        tasks = Path("/proc/self/task")
        before = len(list(tasks.iterdir()))
        with threads.blas_threads(_share(2)):
            inside = len(list(tasks.iterdir()))
        return before, inside

    for before, inside in spmd_run(2, prog, backend="process"):
        assert inside == before


@pytest.mark.parametrize("raises", [False, True], ids=["return", "raise"])
def test_scope_restores_the_counts(raises):
    before = _counts()

    def body():
        with threads.blas_threads(1):
            assert _counts() == _at(1)
            if raises:
                raise ValueError("the body fails")

    if raises:
        with pytest.raises(ValueError, match="the body fails"):
            body()
    else:
        body()
    assert _counts() == before


def test_scope_outlives_a_concurrent_run():
    """``blas_threads(1)`` opens, a 1-rank ``spmd_run`` (share: the whole
    budget) starts and ends inside it: the run sees one thread, and its exit
    does not restore the counts while the scope is still open."""
    before, opened, release = _counts(), threading.Event(), threading.Event()

    def scope():
        with threads.blas_threads(1):
            opened.set()
            assert release.wait(60)

    worker = threading.Thread(target=scope)
    worker.start()
    try:
        assert opened.wait(60)
        assert spmd_run(1, lambda comm: _counts()) == [_at(1)]
        assert _counts() == _at(1)
    finally:
        release.set()
        worker.join(60)
    assert not worker.is_alive()
    assert _counts() == before


def test_run_outlives_a_concurrent_scope():
    """A 1-rank ``spmd_run`` is open when ``blas_threads(1)`` opens and
    closes in another thread: the run's share comes back, not the counts
    from before the run."""
    before, inside, release = _counts(), threading.Event(), threading.Event()
    seen = {}

    def prog(comm):
        inside.set()
        assert release.wait(60)
        return _counts()

    def run():
        seen["run"] = spmd_run(1, prog)

    worker = threading.Thread(target=run)
    worker.start()
    try:
        assert inside.wait(60)
        with threads.blas_threads(1):
            assert _counts() == _at(1)
        assert _counts() == _at(_share(1))
    finally:
        release.set()
        worker.join(60)
    assert not worker.is_alive()
    assert seen["run"] == [_at(_share(1))]
    assert _counts() == before


@pytest.mark.parametrize(
    "method", ["implicit-kmeans-isdf-lobpcg", "kmeans-isdf-lobpcg"]
)
def test_casida_eigensolve_runs_at_one_thread(si8_synthetic, method):
    """Every LOBPCG step of the serial solve sees one thread in every pool
    and FFT worker; after ``solve`` returns the counts are back."""
    before, seen = _counts(), []
    result = LRTDDFTSolver(si8_synthetic).solve(
        TDDFTConfig(method=method, n_excitations=4),
        progress=lambda event: seen.append(_counts()),
    )
    assert result.converged
    assert len(seen) == result.eigensolver_iterations > 0
    assert all(counts == _at(1) for counts in seen)
    assert _counts() == before
    assert threads.fft_workers() == threads.budget()


def test_counts_come_back_after_an_eigensolve_raises(si8_synthetic):
    before = _counts()

    def fail(event):
        raise RuntimeError("the observer fails")

    with pytest.raises(RuntimeError, match="the observer fails"):
        LRTDDFTSolver(si8_synthetic).solve(
            TDDFTConfig(n_excitations=4), progress=fail
        )
    assert _counts() == before


def test_concurrent_runs_leave_no_reduced_count():
    """Two overlapping runs; the first to finish must not restore early."""
    before = _counts()
    b_inside, a_done = threading.Event(), threading.Event()
    seen = {}

    def run_a():
        def prog(comm):
            assert b_inside.wait(60)
            return _counts()

        seen["a"] = spmd_run(2, prog)
        a_done.set()

    def run_b():
        def prog(comm):
            b_inside.set()
            assert a_done.wait(60)
            return _counts()

        seen["b"] = spmd_run(2, prog)

    _run_threads([run_a, run_b])
    share = _share(2)
    for pools, fft in seen["a"] + seen["b"]:
        assert fft == share
        assert set(pools.values()) == {share}
    assert _counts() == before


def test_overlapping_runs_stress():
    """More runs than cores and a short switch interval: no lost update."""
    before, share, bad = _counts(), _share(2), []

    def loop():
        for _ in range(10):
            for pools, fft in spmd_run(2, lambda comm: _counts()):
                if fft != share or set(pools.values()) != {share}:
                    bad.append((pools, fft))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_threads([loop] * 4)
    finally:
        sys.setswitchinterval(interval)
    assert bad == []
    assert _counts() == before


def _run_threads(targets):
    workers = [threading.Thread(target=target) for target in targets]
    for t in workers:
        t.start()
    for t in workers:
        t.join(120)
        assert not t.is_alive()


@pytest.mark.parametrize(
    "attribute, value",
    [
        ("_MAPS", Path("/nonexistent/maps")),
        ("_SYMBOLS", (("no_such_setter", "no_such_getter"),)),
    ],
    ids=["no-library-list", "no-setter-symbol"],
)
def test_undiscoverable_pools_give_one_notice(monkeypatch, attribute, value):
    monkeypatch.setattr(threads, attribute, value)
    monkeypatch.setattr(threads, "_found", None)
    notices = len(resilience_log().events("thread-budget"))

    assert threads.pool_threads() == {}
    assert threads.budget() >= 1
    assert spmd_run(2, lambda comm: threads.fft_workers()) == [_share(2)] * 2
    with threads.blas_threads(1) as share:
        assert share == threads.fft_workers() == 1
    assert threads.fft_workers() == threads.budget()

    events = resilience_log().events("thread-budget")
    assert len(events) == notices + 1
    assert events[-1].action == "pools-unchanged"


_SCF = """
import json
from repro.api import SCFConfig
from repro.atoms.structures import silicon_primitive_cell
from repro.dft import run_scf
from repro.utils import threads
gs = run_scf(silicon_primitive_cell(),
             SCFConfig(ecut=10, n_bands=10, tol=1e-6, seed=0))
print(json.dumps([float(gs.total_energy), threads.budget()]))
"""


def test_strict64_energy_across_thread_budgets():
    """Strict64 is bit-identical only at a fixed budget; across budgets the
    Si2 SCF energy moves by ~1e-8 Ha (BLAS reduction order)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)

    def energy(extra):
        out = subprocess.run(
            [sys.executable, "-c", _SCF],
            env={**env, **extra},
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
        return json.loads(out.stdout.splitlines()[-1])

    e_one, budget_one = energy({"OPENBLAS_NUM_THREADS": "1"})
    e_default, _ = energy({})
    assert budget_one == 1
    assert abs(e_one - e_default) <= 1e-7
