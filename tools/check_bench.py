#!/usr/bin/env python
"""Perf-regression gate over the committed ``BENCH_*.json`` reports.

Benchmark wall-seconds on a shared 1-CPU container are far too noisy to
gate on directly, so this check gates on what *is* stable:

* **structure** — every committed report parses and carries the fields
  downstream consumers read (including the null-with-reason semantics of
  ``meets_2x_target``: ``null`` is only acceptable alongside a
  machine-readable ``meets_2x_target_reason``);
* **correctness flags** — equivalence/bit-identity verdicts must hold in
  the committed reports *and* in a fresh smoke re-run (a perf "win" that
  breaks numerics must fail here, not ship);
* **dimensionless ratios with generous floors** — a fresh smoke re-run
  of the batch bench must still show the warm pass beating cold by at
  least ``--min-batch-speedup`` (default 1.2: far below the committed
  full-mode number, so only a real regression — e.g. warm-start plumbing
  silently disconnected — trips it, not timing noise), and the warm pass
  must show the *mechanism* (fewer SCF iterations than cold on warm
  frames, interpolation-point reuse actually occurring).

``--update-bench`` re-runs the full-mode benchmarks and rewrites the
committed reports (use after intentional perf-relevant changes, then
commit the diff).

Exit code 0 = gate passes, 1 = regression or malformed report.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

_FAILURES: list[str] = []


def _fail(message: str) -> None:
    _FAILURES.append(message)
    print(f"check-bench: FAIL: {message}")


def _ok(message: str) -> None:
    print(f"check-bench: ok: {message}")


def _load(path: pathlib.Path) -> dict | None:
    if not path.exists():
        _fail(f"{path.name} is missing")
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        _fail(f"{path.name} is not valid JSON: {exc}")
        return None


# -- committed-report structure checks ---------------------------------------


def check_committed_spmd() -> None:
    report = _load(REPO / "BENCH_spmd.json")
    if report is None:
        return
    target = report.get("meets_2x_target", "absent")
    reason = report.get("meets_2x_target_reason")
    if target is None:
        if reason != "insufficient_cores":
            _fail(
                "BENCH_spmd.json: meets_2x_target is null but "
                f"meets_2x_target_reason is {reason!r} (expected "
                "'insufficient_cores')"
            )
        else:
            _ok("BENCH_spmd.json: 2x target n/a with machine-readable reason")
    elif isinstance(target, bool):
        _ok(f"BENCH_spmd.json: meets_2x_target={target}")
    else:
        _fail(f"BENCH_spmd.json: meets_2x_target must be bool or null, got {target!r}")
    for workload, data in report.get("workloads", {}).items():
        if not data.get("backends_agree", False):
            _fail(f"BENCH_spmd.json: workload {workload!r} backends disagree")


def check_committed_backend() -> None:
    failures = len(_FAILURES)
    report = _load(REPO / "BENCH_backend.json")
    if report is None:
        return
    km = report.get("kmeans_selection", {})
    for flag in ("centroids_identical", "labels_identical", "inertia_identical"):
        if not km.get(flag, False):
            _fail(f"BENCH_backend.json: kmeans_selection.{flag} is false")
    if len(_FAILURES) == failures:
        _ok("BENCH_backend.json: K-Means bit-identity flags hold")


def check_committed_batch(min_full_speedup: float) -> None:
    report = _load(REPO / "BENCH_batch.json")
    if report is None:
        return
    eq = report.get("equivalence", {})
    if not eq.get("within_tolerance", False):
        _fail("BENCH_batch.json: warm pass out of tolerance vs cold")
    if not eq.get("frame0_bit_identical", False):
        _fail("BENCH_batch.json: frame 0 not bit-identical (warm-start leak)")
    speedup = float(report.get("speedup_end_to_end", 0.0))
    mode = report.get("meta", {}).get("mode")
    if mode == "full" and speedup < min_full_speedup:
        _fail(
            f"BENCH_batch.json: committed full-mode speedup {speedup:.2f}x "
            f"< {min_full_speedup:.1f}x"
        )
    else:
        _ok(f"BENCH_batch.json: committed speedup {speedup:.2f}x ({mode} mode)")


def check_committed_serve() -> None:
    failures = len(_FAILURES)
    report = _load(REPO / "BENCH_serve.json")
    if report is None:
        return
    hit = report.get("cache_hit", {})
    if not hit.get("bit_identical", False):
        _fail("BENCH_serve.json: cache hit not bit-identical")
    if hit.get("scf_iterations_hit", -1) != 0:
        _fail(
            "BENCH_serve.json: cache hit ran "
            f"{hit.get('scf_iterations_hit')!r} SCF iterations (expected 0)"
        )
    warm = report.get("warm_start", {})
    if not warm.get("equivalence", {}).get("within_tolerance", False):
        _fail("BENCH_serve.json: warm-started result out of tolerance")
    if int(warm.get("iterations_saved", -1)) < 1:
        _fail(
            "BENCH_serve.json: warm start saved "
            f"{warm.get('iterations_saved')!r} SCF iterations (expected >= 1)"
        )
    sub = report.get("scf_subrequest", {})
    if sub.get("tddft_scf_iterations", -1) != 0:
        _fail(
            "BENCH_serve.json: tddft on cached structure re-ran its SCF "
            f"({sub.get('tddft_scf_iterations')!r} iterations, expected 0)"
        )
    if len(_FAILURES) == failures:
        _ok(
            "BENCH_serve.json: cache hit bit-identical at 0 iterations, "
            f"warm start saved {warm.get('iterations_saved')} iteration(s)"
        )


# -- fresh smoke re-runs ------------------------------------------------------


def rerun_batch_smoke(min_speedup: float) -> None:
    from repro.perf.batch_bench import run_batch_bench

    report = run_batch_bench(smoke=True)
    eq = report["equivalence"]
    if not eq["within_tolerance"]:
        _fail(
            "fresh batch smoke: warm/cold deviation "
            f"dE={eq['max_total_energy_delta_ha']:.1e} Ha exceeds "
            f"{eq['tolerance_bound_ha']:.0e}"
        )
    if not eq["frame0_bit_identical"]:
        _fail("fresh batch smoke: frame 0 not bit-identical to cold")
    speedup = float(report["speedup_end_to_end"])
    if speedup < min_speedup:
        _fail(
            f"fresh batch smoke: warm-vs-cold speedup {speedup:.2f}x "
            f"< floor {min_speedup:.2f}x"
        )
    else:
        _ok(f"fresh batch smoke: speedup {speedup:.2f}x >= {min_speedup:.2f}x")

    cold_frames = report["cold"]["frames"]
    warm_frames = report["warm"]["frames"]
    warm_only = [w for w in warm_frames if w["warm"]]
    if not warm_only:
        _fail("fresh batch smoke: no frame actually ran warm")
    cold_iters = sum(f["scf_iterations"] for f in cold_frames[1:])
    warm_iters = sum(f["scf_iterations"] for f in warm_frames[1:])
    if warm_iters >= cold_iters:
        _fail(
            "fresh batch smoke: warm SCF iterations "
            f"({warm_iters}) not below cold ({cold_iters}) — "
            "warm start is not reaching the SCF"
        )
    else:
        _ok(f"fresh batch smoke: SCF iterations {cold_iters} -> {warm_iters}")
    if not any(not f["isdf_reselected"] for f in warm_frames):
        _fail(
            "fresh batch smoke: interpolation points were never reused — "
            "the drift check is not reaching ISDF"
        )


def rerun_serve_smoke() -> None:
    from repro.perf.serve_bench import run_serve_bench

    failures = len(_FAILURES)
    report = run_serve_bench(smoke=True)
    hit = report["cache_hit"]
    if not hit["bit_identical"] or hit["scf_iterations_hit"] != 0:
        _fail(
            "fresh serve smoke: cache hit not bit-identical/zero-work "
            f"(bit_identical={hit['bit_identical']}, "
            f"iterations={hit['scf_iterations_hit']})"
        )
    warm = report["warm_start"]
    if not warm["warm_flag"]:
        _fail("fresh serve smoke: near-duplicate request did not warm-start")
    if warm["scf_iterations_warm"] >= warm["scf_iterations_cold"]:
        _fail(
            "fresh serve smoke: warm SCF iterations "
            f"({warm['scf_iterations_warm']}) not below cold "
            f"({warm['scf_iterations_cold']})"
        )
    if not warm["equivalence"]["within_tolerance"]:
        _fail("fresh serve smoke: warm-started result out of tolerance")
    if report["scf_subrequest"]["tddft_scf_iterations"] != 0:
        _fail("fresh serve smoke: tddft did not reuse the cached ground state")
    if len(_FAILURES) == failures:
        _ok(
            "fresh serve smoke: cache hit + warm start + subrequest reuse "
            f"(scf iterations {warm['scf_iterations_cold']} -> "
            f"{warm['scf_iterations_warm']})"
        )


def rerun_spmd_smoke() -> None:
    from repro.perf.spmd_bench import run_spmd_bench

    report = run_spmd_bench(smoke=True, ranks=(1, 2))
    for workload, data in report["workloads"].items():
        if not data["backends_agree"]:
            _fail(f"fresh spmd smoke: workload {workload!r} backends disagree")
    target = report["meets_2x_target"]
    if target is None and report.get("meets_2x_target_reason") is None:
        _fail("fresh spmd smoke: null meets_2x_target without a reason")
    else:
        _ok("fresh spmd smoke: backends agree, target field well-formed")


# -- full regeneration --------------------------------------------------------


def update_bench() -> None:
    """Re-run the full-mode benchmarks and rewrite the committed reports."""
    from repro.perf.batch_bench import run_batch_bench
    from repro.perf.batch_bench import write_report as write_batch
    from repro.perf.spmd_bench import run_spmd_bench
    from repro.perf.spmd_bench import write_report as write_spmd

    print("check-bench: regenerating BENCH_batch.json (full mode)...")
    write_batch(run_batch_bench(smoke=False), REPO / "BENCH_batch.json")
    print("check-bench: regenerating BENCH_spmd.json (full mode)...")
    write_spmd(run_spmd_bench(smoke=False), REPO / "BENCH_spmd.json")
    from repro.perf.serve_bench import run_serve_bench
    from repro.perf.serve_bench import write_report as write_serve

    print("check-bench: regenerating BENCH_serve.json (full mode)...")
    write_serve(run_serve_bench(smoke=False), REPO / "BENCH_serve.json")
    print(
        "check-bench: BENCH_backend.json is regenerated via "
        "'python benchmarks/bench_backend.py' (slow); not rerun here."
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--min-batch-speedup", type=float, default=1.2,
        help="floor on the fresh smoke warm-vs-cold ratio (default 1.2)",
    )
    parser.add_argument(
        "--min-full-speedup", type=float, default=2.0,
        help="floor on the committed full-mode batch speedup (default 2.0)",
    )
    parser.add_argument(
        "--skip-rerun", action="store_true",
        help="only validate the committed reports (no fresh smoke runs)",
    )
    parser.add_argument(
        "--update-bench", action="store_true",
        help="re-run full-mode benchmarks and rewrite the committed reports",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO / "src"))

    if args.update_bench:
        update_bench()

    check_committed_spmd()
    check_committed_backend()
    check_committed_batch(args.min_full_speedup)
    check_committed_serve()
    if not args.skip_rerun:
        rerun_batch_smoke(args.min_batch_speedup)
        rerun_spmd_smoke()
        rerun_serve_smoke()

    if _FAILURES:
        print(f"check-bench: {len(_FAILURES)} failure(s)")
        return 1
    print("check-bench: all gates pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
