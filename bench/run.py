"""End-to-end benchmark of the SCF -> K-Means -> ISDF -> LOBPCG pipeline.

Run from the root of a checkout (``bench/README.md`` has the details)::

    python3 bench/run.py [--workload W] [--seed S] [--seconds T] [--trace 0|1]
                         [--smoke] [--out FILE]
    python3 bench/run.py compare A.json B.json

Each workload runs in fresh worker processes (``bench/worker.py``) whose
environment has the BLAS/OpenMP thread variables and every ``REPRO_*``
variable removed, so the program runs on its own defaults.  Every metric is
printed by name with its unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0`` and its
``per_layer`` metrics with ``--trace 1``.  Without ``--workload`` every
workload runs in turn and prints its own JSON line.  The exit code is
non-zero when any run fails a check.

``compare`` reads two ``--out`` files and gives, per workload and end-to-end
metric, both medians and IQRs, their ratio and a verdict: ``ok``, ``worse``
(the median got worse by more than the metric's bound) or ``unresolved`` (an
IQR is wider than the bound).  It exits non-zero on ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Environment variables removed from every worker, so both sides of a
#: comparison run the program's own defaults.
SCRUBBED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up is measured this many times (fresh processes); the median counts.
SETUP_REPEATS = 3

#: Every invocation must end within this many seconds.
DEADLINE_S = 170.0


def _worker_env() -> dict:
    env = {
        key: value for key, value in os.environ.items()
        if key not in SCRUBBED and not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(argv: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON record."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *argv, "--spawned", repr(spawned)],
        cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker timed out: {' '.join(argv)}") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(argv)}")
    return json.loads(out.strip().splitlines()[-1])


def _summary(samples: list[float], unit: str) -> dict:
    """Median and quartiles (``statistics.quantiles``) of one metric."""
    median = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (median,) * 3
    return {"value": median, "unit": unit, "n": len(samples), "q1": q1, "q3": q3}


def _git_head() -> str | None:
    """``git describe --always --dirty``, or None outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def run_workload(name: str, args) -> dict:
    """All processes of one workload; returns its summarised record."""
    deadline = time.monotonic() + DEADLINE_S
    argv = ["--workload", name, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    repeats = 1 if args.smoke else SETUP_REPEATS
    setups = [_spawn([*argv, "--setup-only"], deadline)["setup_s"] for _ in range(repeats - 1)]
    if args.corrupt_reference:
        argv.append("--corrupt-reference")
    raw = _spawn(argv, deadline)
    setups.append(raw["setup_s"])

    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    end_to_end = {
        "wall_s": _summary(raw["wall_s"], units["wall_s"]),
        "cpu_s": _summary(raw["cpu_s"], units["cpu_s"]),
        "setup_s": _summary(setups, units["setup_s"]),
        "peak_rss_mb": _summary([raw["peak_rss_mb"]], units["peak_rss_mb"]),
    }
    per_layer = {key: {"value": value, "unit": units[key]} for key, value in raw["layers"].items()}
    failed = sum(bool(run.get("failed")) for run in raw["runs"])
    return {
        "seed": args.seed,
        "correct": failed == 0,
        "attempted": len(raw["runs"]),
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "runs": raw["runs"],
        "host": raw["host"],
    }


def report(name: str, record: dict, trace: int) -> dict:
    """Print one workload's metrics and return its contract result line."""
    host = record["host"]
    blas = host["blas"]
    print(f"[{name}] seed {record['seed']}, nproc {host['nproc']}, "
          f"python {host['python']}, numpy {host['numpy']}, "
          f"blas {blas.get('vendor')} {blas.get('version')} "
          f"(OPENBLAS_NUM_THREADS={blas.get('openblas_num_threads')})")
    for key, m in record["end_to_end"].items():
        print(f"  {key:<26s} {m['value']:.6g} {m['unit']}  "
              f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]")
    for key, m in record["per_layer"].items():
        print(f"  {key:<26s} {m['value']:.6g} {m['unit']}")
    for run in record["runs"]:
        if run.get("failed"):
            print(f"  FAILED {run['kind']} run: {'; '.join(run['failed'])}")
    print(f"  failed_frac                {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']} runs)")

    kind = "per_layer" if trace else "end_to_end"
    metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in record[kind].items()}
    declared = sorted(m["name"] for m in SPEC[kind])
    if sorted(metrics) != declared:
        raise SystemExit(f"{name}: measured {kind} metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {declared}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def compare(path_a: str, path_b: str) -> int:
    """Print the comparison table of two ``--out`` files; 1 if any is worse."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    print(f"A: {path_a} (commit {a['commit']}, seed {a['seed']})")
    print(f"B: {path_b} (commit {b['commit']}, seed {b['seed']})")
    print(f"{'workload':<16s}{'metric':<14s}{'median A':>11s}{'IQR A':>10s}"
          f"{'median B':>11s}{'IQR B':>10s}{'B/A':>8s}  verdict")
    worse = False
    for workload in [w for w in a["workloads"] if w in b["workloads"]]:
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for metric in SPEC["end_to_end"]:
            ma, mb = wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]]
            ratio = mb["value"] / ma["value"]
            change = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            spread = max((m["q3"] - m["q1"]) / m["value"] for m in (ma, mb))
            if spread > metric["bound"]:
                verdict = "unresolved"
            elif change > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            worse |= verdict == "worse"
            print(f"{workload:<16s}{metric['name']:<14s}{ma['value']:>11.4g}"
                  f"{ma['q3'] - ma['q1']:>10.3g}{mb['value']:>11.4g}"
                  f"{mb['q3'] - mb['q1']:>10.3g}{ratio:>8.3f}  {verdict}")
        frac_a = wa["failed"] / wa["attempted"]
        frac_b = wb["failed"] / wb["attempted"]
        verdict = "worse" if frac_b > frac_a else "ok"
        worse |= verdict == "worse"
        print(f"{workload:<16s}{'failed_frac':<14s}{frac_a:>11.4g}{'':>10s}"
              f"{frac_b:>11.4g}{'':>10s}{'':>8s}  {verdict}")
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all of them in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help=f"timed window per workload (default {SPEC['run_seconds']}; "
                        "0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and one timed run, for the tests")
    parser.add_argument("--out", help="write the full records to this JSON file")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="shift the reference energies (tests the gates)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(SPEC["run_seconds"])
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    records, correct = {}, True
    for name in [args.workload] if args.workload else WORKLOADS:
        record = run_workload(name, args)
        result = report(name, record, args.trace)
        print(json.dumps(result), flush=True)
        records[name] = record
        correct &= record["correct"]
    if args.out:
        out = {"commit": _git_head(), "seed": args.seed, "seconds": args.seconds,
               "smoke": args.smoke, "workloads": records}
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
