"""One workload in a fresh process: set up, warm up, time, trace, check.

``run.py`` starts this script with the checkout's ``src`` on ``PYTHONPATH``
and a scrubbed environment, passing the monotonic clock reading taken just
before the spawn; set-up time runs from that reading to the inputs being
built.  The last line of standard output is one JSON record of raw samples,
which ``run.py`` summarises.

Order of work (the load is a closed loop: one run outstanding at a time):

1. build the inputs (``setup_s``); with ``--setup-only``, stop here;
2. one untimed warm-up run;
3. timed runs without instrumentation until ``--seconds`` is used up;
4. with ``--trace 1``, one traced run;
5. read the peak RSS;
6. the untimed checks: a thread-backend run where the workload has one,
   the exact reference solve, and the gates on every run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from repro.perf.backend_bench import blas_info
from spans import Tracer, instrument, layer_metrics
from workloads import WORKLOADS

RESULTS = Path(__file__).resolve().parent / "results"


def _cpu() -> float:
    """Process CPU seconds, waited-for children included."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Session:
    """The runs of one workload invocation and what each produced."""

    def __init__(self, workload, inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.runs: list[dict] = []
        self.outcomes: list = []

    def attempt(self, kind: str, call) -> dict:
        """Run ``call()`` once, recording wall and CPU time and any error."""
        entry = {"kind": kind}
        outcome = None
        cpu0, start = _cpu(), time.perf_counter()
        try:
            outcome = call()
        except Exception as exc:  # a failed run is counted, not fatal
            entry["error"] = f"{type(exc).__name__}: {exc}"
        entry["wall_s"] = time.perf_counter() - start
        entry["cpu_s"] = _cpu() - cpu0
        self.runs.append(entry)
        self.outcomes.append(outcome)
        return entry

    def check(self, corrupt_reference: bool) -> float:
        """Apply the gates to every run; returns the max energy error."""
        done = [(e, o) for e, o in zip(self.runs, self.outcomes) if o is not None]
        if not done:
            return float("nan")
        first = next((o for e, o in done if e["kind"] == "timed"), done[0][1])
        reference = self.workload.reference(self.inputs, first)
        if corrupt_reference:
            reference = [r + 0.1 for r in reference]
        reported = [o.converged for _, o in done if o.converged is not None]
        worst = 0.0
        for entry, outcome in done:
            problems = entry.setdefault("failed", [])
            # The SPMD runs cannot report convergence uninstrumented; they
            # inherit the instrumented run's verdict, which the bit-identity
            # gate below ties them to.
            ok = outcome.converged
            if ok is None:
                ok = bool(reported) and all(reported)
            if not ok:
                problems.append("not converged")
            if not all(np.array_equal(a, b) for a, b in zip(outcome.energies, first.energies)):
                problems.append("energies differ from the first timed run")
            err = max(float(np.abs(e - r).max()) for e, r in zip(outcome.energies, reference))
            entry["energy_err_ha"] = err
            worst = max(worst, err)
            if not err <= self.workload.ceiling_ha:
                problems.append(f"energy error {err:.3e} Ha above {self.workload.ceiling_ha:.0e}")
        for entry in self.runs:
            if "error" in entry:
                entry.setdefault("failed", []).append(entry["error"])
        return worst


def _traced_run(session: Session, args) -> dict:
    """One instrumented run; returns its per-layer metrics."""
    workload = session.workload
    tracer = Tracer(f"{workload.name}-{args.seed}-traced")

    def call():
        with instrument(tracer), tracer.run():
            return workload.run(session.inputs, tracer)

    entry = session.attempt("traced", call)
    outcome = session.outcomes[-1]
    if outcome is None:
        return {}
    metrics = layer_metrics(tracer.spans)
    traffic = outcome.traffic
    metrics["parallel.comm.mb"] = traffic.total_bytes / 1e6 if traffic else 0.0
    metrics["parallel.comm.shm_mb"] = traffic.zero_copy_bytes / 1e6 if traffic else 0.0
    metrics["parallel.comm.pickled_mb"] = traffic.pickled_bytes / 1e6 if traffic else 0.0
    metrics["batch.reselections"] = outcome.reselections
    timed = [e["wall_s"] for e in session.runs if e["kind"] == "timed"]
    metrics["trace.overhead"] = entry["wall_s"] / statistics.median(timed)

    (root,) = [s for s in tracer.spans if s["name"] == "run"]
    spans = [
        dict(s, start=s["start"] - root["start"], end=s["end"] - root["start"])
        for s in sorted(tracer.spans, key=lambda s: s["start"])
    ]
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{workload.name}.trace.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "spans": spans}, fh, indent=1)
        fh.write("\n")
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, args.smoke)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    session = Session(workload, inputs)
    run = lambda: workload.run(inputs)  # noqa: E731
    session.attempt("warmup", run)
    start = time.perf_counter()
    while True:
        last = session.attempt("timed", run)
        if time.perf_counter() - start + last["wall_s"] > args.seconds:
            break
    layers = _traced_run(session, args) if args.trace else {}
    peak_rss_mb = _peak_rss_mb()
    if hasattr(workload, "cross_check"):
        session.attempt("cross-check", lambda: workload.cross_check(inputs))
    layers["energy_err_ha"] = session.check(args.corrupt_reference)

    timed = [e for e in session.runs if e["kind"] == "timed"]
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": [e["wall_s"] for e in timed],
        "cpu_s": [e["cpu_s"] for e in timed],
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "runs": session.runs,
        "host": {
            "nproc": os.cpu_count(),
            "blas": blas_info(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }))


if __name__ == "__main__":
    main()
