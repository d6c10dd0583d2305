"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Library version, available LR-TDDFT methods and built-in systems.
``scf``
    Run a ground-state SCF on a built-in system and print the bands.
``tddft``
    SCF + LR-TDDFT; prints the lowest excitation energies.
``scaling``
    Print a cost-model scaling table (fig7 / fig8 / weak / table6).
``rt``
    Real-time TDDFT kick-and-propagate run; prints spectrum peaks.
``bench-backend``
    Measured A/B benchmark of naive Lloyd vs bound-pruned Hamerly K-Means;
    writes machine-readable ``BENCH_backend.json``.
``bench-spmd``
    Thread vs process SPMD backend comparison (wall time, speedup, and
    the zero-copy/pickled transport split); writes ``BENCH_spmd.json``.
``batch``
    Warm-started SCF + LR-TDDFT over a perturbed trajectory of a built-in
    system; prints the per-frame reuse table.
``bench-batch``
    Warm vs cold trajectory benchmark (the batch engine); writes
    ``BENCH_batch.json``.
``serve``
    Demo of the async job server: submits duplicate and near-duplicate
    requests and prints the per-job cache-hit / warm-start table.
``bench-serve``
    Job-server cache / warm-start benchmark; writes ``BENCH_serve.json``.
``lint``
    Run the project's AST lint passes (``repro.lint``) over source paths;
    exits nonzero when findings remain.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

import numpy as np

from repro import __version__
from repro.constants import ANGSTROM_TO_BOHR, HARTREE_TO_EV


def _builtin_systems() -> dict[str, Callable]:
    from repro.atoms import (
        bulk_silicon,
        graphene_bilayer,
        silicon_primitive_cell,
        water_molecule,
    )
    from repro.pw import UnitCell

    def h2():
        box, bond = 10.0, 1.4
        return UnitCell(
            box * np.eye(3), ("H", "H"),
            np.array([[0.5, 0.5, 0.5 - bond / 2 / box],
                      [0.5, 0.5, 0.5 + bond / 2 / box]]),
        )

    return {
        "si2": silicon_primitive_cell,
        "si8": lambda: bulk_silicon(8),
        "water": lambda: water_molecule(box=8.0 * ANGSTROM_TO_BOHR),
        "bilayer": graphene_bilayer,
        "h2": h2,
    }


def _resilience_from(args) -> "object | None":
    """Build the ResilienceConfig the common CLI flags describe (or None)."""
    from repro.api import ResilienceConfig

    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    if checkpoint_dir is None:
        if getattr(args, "restart", False):
            raise SystemExit("--restart requires --checkpoint-dir")
        return None
    return ResilienceConfig(
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=getattr(args, "checkpoint_every", 1),
        restart=getattr(args, "restart", False),
    )


def _run_scf_for(args) -> "object":
    from repro.api import CalculationRequest, SCFConfig

    if getattr(args, "xyz", None):
        from repro.atoms import read_xyz

        cell = read_xyz(args.xyz, box=getattr(args, "box", None))
    else:
        cell = _builtin_systems()[args.system]()
    needs_smearing = args.system == "bilayer"
    config = SCFConfig(
        ecut=args.ecut,
        n_bands=args.bands,
        tol=args.tol,
        smearing_width=0.01 if needs_smearing else 0.0,
        seed=0,
    )
    request = CalculationRequest(
        kind="scf", structure=cell, scf=config, resilience=_resilience_from(args)
    )
    return request.compute()


def cmd_info(args) -> int:
    from repro.core import METHODS

    print(f"repro {__version__} — ICPP'22 LR-TDDFT + ISDF/K-Means reproduction")
    print("\nLR-TDDFT methods (paper Table 4 + extensions):")
    for m in METHODS:
        print(f"  {m}")
    print("\nbuilt-in systems:", ", ".join(sorted(_builtin_systems())))
    return 0


def cmd_scf(args) -> int:
    gs = _run_scf_for(args)
    print(f"converged: {gs.converged}   total energy: {gs.total_energy:.6f} Ha")
    print(f"{'band':>5s} {'energy (Ha)':>12s} {'energy (eV)':>12s} {'occ':>6s}")
    for i, (e, f) in enumerate(zip(gs.energies, gs.occupations)):
        print(f"{i:5d} {e:12.6f} {e * HARTREE_TO_EV:12.4f} {f:6.3f}")
    if gs.n_occupied < gs.n_bands:
        print(f"gap: {gs.homo_lumo_gap() * HARTREE_TO_EV:.3f} eV")
    return 0


def cmd_tddft(args) -> int:
    from repro.api import CalculationRequest, TDDFTConfig, execute_request

    gs = _run_scf_for(args)
    n_pairs = gs.n_occupied * (gs.n_bands - gs.n_occupied)
    config = TDDFTConfig(
        method=args.method,
        n_excitations=min(args.n_excitations, n_pairs),
        tda=not args.full_casida,
        spin="triplet" if args.triplet else "singlet",
        seed=0,
    )
    request = CalculationRequest(
        kind="tddft",
        structure=gs.basis.cell,
        tddft=config,
        resilience=_resilience_from(args),
    )
    result = execute_request(request, ground_state=gs).result
    kind = "triplet" if args.triplet else "singlet"
    form = "full Casida" if args.full_casida else "TDA"
    print(f"{kind} excitations ({form}, method={args.method}, "
          f"N_cv={n_pairs}, N_mu={result.n_mu}):")
    print(f"{'#':>3s} {'E (Ha)':>10s} {'E (eV)':>10s}")
    for i, e in enumerate(result.energies, 1):
        print(f"{i:3d} {e:10.6f} {e * HARTREE_TO_EV:10.4f}")
    return 0


def cmd_scaling(args) -> int:
    from repro.data.calibration import (
        CALIBRATED_SPEC,
        STRONG_SCALING_CORES,
        TABLE6_CORES,
        WEAK_SCALING_CORES,
        paper_workload,
    )
    from repro.perf import (
        parallel_efficiency,
        predict_construction_breakdown,
        predict_version_time,
        strong_scaling_series,
    )

    if args.figure == "fig7":
        w = paper_workload(1000)
        cores = list(STRONG_SCALING_CORES)
        print("Figure 7 — Si_1000 strong scaling (modeled seconds)")
        for version in ("naive", "kmeans-isdf", "implicit-kmeans-isdf-lobpcg"):
            series = strong_scaling_series(version, w, cores, CALIBRATED_SPEC)
            effs = parallel_efficiency(series, cores)
            row = " ".join(f"{t.total:8.2f}" for t in series)
            print(f"{version:<30s} {row}  eff@2048={effs[-1]:.0%}")
    elif args.figure == "fig8":
        w = paper_workload(1000)
        print("Figure 8 — construction breakdown (modeled seconds)")
        for c in STRONG_SCALING_CORES:
            b = predict_construction_breakdown(w, c, CALIBRATED_SPEC)
            parts = " ".join(f"{k}={v:.3f}" for k, v in b.items())
            print(f"{c:5d} cores: {parts}")
    elif args.figure == "weak":
        print("Section 6.4 — weak scaling at 1,024 cores (modeled seconds)")
        for n in (512, 1000, 1728, 2744, 4096):
            t = predict_version_time(
                "implicit-kmeans-isdf-lobpcg", paper_workload(n),
                WEAK_SCALING_CORES, CALIBRATED_SPEC,
            )
            print(f"Si{n:<5d} {t.total:8.2f}")
    else:  # table6
        print(f"Table 6 — modeled at {TABLE6_CORES} cores")
        for n in (64, 216, 512, 1000):
            w = paper_workload(n)
            tn = predict_version_time("naive", w, TABLE6_CORES, CALIBRATED_SPEC).total
            to = predict_version_time(
                "implicit-kmeans-isdf-lobpcg", w, TABLE6_CORES, CALIBRATED_SPEC
            ).total
            print(f"Si{n:<5d} naive={tn:7.2f}s  optimized={to:6.2f}s  "
                  f"speedup={tn / to:5.2f}x")
    return 0


def cmd_rt(args) -> int:
    from repro.api import CalculationRequest, RTConfig, execute_request
    from repro.rt import dipole_spectrum, find_peaks

    gs = _run_scf_for(args)
    request = CalculationRequest(
        kind="rt",
        structure=gs.basis.cell,
        rt=RTConfig(dt=args.dt, n_steps=args.steps, kick_strength=args.kick),
        resilience=_resilience_from(args),
    )
    result = execute_request(request, ground_state=gs).result
    omega, spectrum = dipole_spectrum(
        result.times, result.dipole_along_kick(), result.kick_strength,
        damping=args.damping,
    )
    peaks = find_peaks(omega, spectrum, threshold=0.25)
    print(f"propagated {args.steps} steps of dt={args.dt} a.u.; "
          f"norm drift {abs(result.norms[-1] - result.norms[0]):.2e}")
    print("spectrum peaks (eV):",
          ", ".join(f"{p * HARTREE_TO_EV:.3f}" for p in peaks) or "(none)")
    return 0


def cmd_bench_backend(args) -> int:
    from repro.perf.backend_bench import (
        format_summary,
        run_backend_bench,
        write_report,
    )

    report = run_backend_bench(
        smoke=args.smoke,
        kmeans_max_iter=args.kmeans_max_iter,
        kmeans_tol=args.kmeans_tol,
    )
    print(format_summary(report))
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_bench_spmd(args) -> int:
    from repro.perf.spmd_bench import (
        format_summary,
        run_spmd_bench,
        write_report,
    )

    ranks = tuple(int(r) for r in args.ranks.split(","))
    report = run_spmd_bench(smoke=args.smoke, ranks=ranks)
    print(format_summary(report))
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_batch(args) -> int:
    from repro.api import (
        BatchConfig,
        CalculationRequest,
        SCFConfig,
        TDDFTConfig,
    )
    from repro.batch import perturbed_trajectory
    from repro.constants import HARTREE_TO_EV

    cell = _builtin_systems()[args.system]()
    frames = perturbed_trajectory(
        cell,
        args.frames,
        amplitude=args.amplitude,
        period=args.period,
        seed=args.seed,
    )
    config = BatchConfig(
        scf=SCFConfig(ecut=args.ecut, n_bands=args.bands, tol=args.tol, seed=0),
        tddft=TDDFTConfig(n_excitations=args.n_excitations, seed=0),
        warm_start=not args.cold,
        n_ranks=args.ranks,
        spmd_backend=args.backend,
        store_results=False,
    )
    request = CalculationRequest(
        kind="batch",
        structure=frames,
        batch=config,
        resilience=_resilience_from(args),
    )
    result = request.compute()
    print(result.summary())
    last = result.records[-1]
    print("last frame excitations (eV):",
          ", ".join(f"{w * HARTREE_TO_EV:.4f}" for w in last.excitation_energies))
    return 0


def cmd_bench_batch(args) -> int:
    from repro.perf.batch_bench import (
        format_summary,
        run_batch_bench,
        write_report,
    )

    report = run_batch_bench(
        smoke=args.smoke,
        n_frames=args.frames,
        repeats=args.repeats,
        amplitude=args.amplitude,
    )
    print(format_summary(report))
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_serve(args) -> int:
    """Demo the job server: duplicates hit the cache, neighbors warm-start."""
    from repro.api import CalculationRequest, SCFConfig
    from repro.batch import perturbed_trajectory
    from repro.serve import CalculationServer, ResultStore

    cell = _builtin_systems()[args.system]()
    frames = perturbed_trajectory(
        cell, args.requests, amplitude=args.amplitude, seed=args.seed
    )
    config = SCFConfig(ecut=args.ecut, n_bands=args.bands, tol=args.tol, seed=0)
    store = ResultStore(args.store_dir) if args.store_dir else ResultStore()

    # Workload: each perturbed geometry once (near-duplicates warm-start
    # off each other), then the first one again — the replay must come
    # back as a zero-work, bit-identical cache hit.
    requests = [
        CalculationRequest(kind="scf", structure=frame, scf=config)
        for frame in frames
    ]

    with CalculationServer(store, n_workers=args.workers) as server:
        handles = [
            request.submit(server, tenant=f"tenant-{i % args.tenants}")
            for i, request in enumerate(requests)
        ]
        for handle in handles:
            handle.result(timeout=600)
        handles.append(requests[0].submit(server, tenant="tenant-0"))
        print(f"{'job':>10s} {'tenant':>9s} {'status':>9s} {'hit':>5s} "
              f"{'warm':>5s} {'rms[b]':>8s} {'scf':>4s} {'E [Ha]':>13s}")
        for handle in handles:
            result = handle.result(timeout=600)
            rec = handle.record()
            rms = f"{rec['warm_rms']:.4f}" if rec["warm_rms"] is not None else "-"
            print(f"{rec['id']:>10s} {rec['tenant']:>9s} {rec['status']:>9s} "
                  f"{str(rec['cache_hit']):>5s} {str(rec['warm']):>5s} "
                  f"{rms:>8s} {rec['scf_iterations']:4d} "
                  f"{result.total_energy:13.8f}")
        stats = server.stats()
    print(f"stats: {stats['submitted']} submitted, "
          f"{stats['cache_hits']} cache hit(s), "
          f"{stats['warm_starts']} warm start(s), "
          f"{stats['deduplicated']} deduplicated")
    if args.store_dir:
        print(f"result store persisted under {args.store_dir} "
              f"({len(store)} entr{'y' if len(store) == 1 else 'ies'})")
    return 0


def cmd_bench_serve(args) -> int:
    from repro.perf.serve_bench import (
        format_summary,
        run_serve_bench,
        write_report,
    )

    report = run_serve_bench(smoke=args.smoke, amplitude=args.amplitude)
    print(format_summary(report))
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_lint(args) -> int:
    from repro.lint import (
        all_rules,
        check_suppressions,
        format_findings,
        lint_paths,
        rule_inventory,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name}: {rule.description}")
        return 0
    if args.check_suppressions:
        findings = check_suppressions(args.paths)
        rules_enabled = None
    else:
        findings = lint_paths(args.paths, rules=args.select or None)
        # Embed the active inventory only for a full run, where it is a
        # faithful statement of what was checked (baseline tooling relies
        # on it to catch silently-vanished rules).
        rules_enabled = rule_inventory() if args.select is None else None
    output = format_findings(findings, fmt=args.format, rules_enabled=rules_enabled)
    if output:
        print(output)
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library and method overview")

    def add_system_args(p, default_bands):
        p.add_argument("--system", choices=sorted(_builtin_systems()), default="si2")
        p.add_argument("--xyz", help="structure file (overrides --system)")
        p.add_argument("--box", type=float, default=None,
                       help="cubic box edge in Bohr for plain XYZ files")
        p.add_argument("--ecut", type=float, default=10.0, help="cutoff (Ha)")
        p.add_argument("--bands", type=int, default=default_bands)
        p.add_argument("--tol", type=float, default=1e-7)

    def add_resilience_args(p):
        p.add_argument("--checkpoint-dir", default=None,
                       help="snapshot loop state into this directory")
        p.add_argument("--checkpoint-every", type=int, default=1,
                       help="snapshot every N-th loop iteration")
        p.add_argument("--restart", action="store_true",
                       help="resume from the newest snapshot in "
                            "--checkpoint-dir")

    p_scf = sub.add_parser("scf", help="ground-state SCF")
    add_system_args(p_scf, default_bands=10)
    add_resilience_args(p_scf)

    p_td = sub.add_parser("tddft", help="LR-TDDFT excitations")
    add_system_args(p_td, default_bands=10)
    add_resilience_args(p_td)
    p_td.add_argument("--method", default="implicit-kmeans-isdf-lobpcg")
    p_td.add_argument("-k", "--n-excitations", type=int, default=5)
    p_td.add_argument("--full-casida", action="store_true",
                      help="solve Eq. 1 instead of the TDA")
    p_td.add_argument("--triplet", action="store_true",
                      help="spin-flip (triplet) excitations")

    p_sc = sub.add_parser("scaling", help="cost-model scaling tables")
    p_sc.add_argument("--figure", choices=("fig7", "fig8", "weak", "table6"),
                      default="fig7")

    p_rt = sub.add_parser("rt", help="real-time TDDFT run")
    add_system_args(p_rt, default_bands=5)
    add_resilience_args(p_rt)
    p_rt.add_argument("--steps", type=int, default=600)
    p_rt.add_argument("--dt", type=float, default=0.2)
    p_rt.add_argument("--kick", type=float, default=1e-3)
    p_rt.add_argument("--damping", type=float, default=0.01)

    p_bb = sub.add_parser("bench-backend",
                          help="benchmark Lloyd vs pruned Hamerly K-Means")
    p_bb.add_argument("--smoke", action="store_true",
                      help="tiny workload for CI (seconds, not minutes)")
    p_bb.add_argument("--out", default=None,
                      help="write the JSON report here (e.g. BENCH_backend.json)")
    p_bb.add_argument("--kmeans-max-iter", type=int, default=None,
                      help="K-Means iteration cap (default converges the "
                           "full workload; the summary warns if it doesn't)")
    p_bb.add_argument("--kmeans-tol", type=float, default=None,
                      help="K-Means centroid-movement convergence tolerance")

    p_bs = sub.add_parser("bench-spmd",
                          help="benchmark thread vs process SPMD backends")
    p_bs.add_argument("--smoke", action="store_true",
                      help="tiny workload for CI (seconds, not minutes)")
    p_bs.add_argument("--ranks", default="1,2,4,8",
                      help="comma-separated rank counts to sweep")
    p_bs.add_argument("--out", default=None,
                      help="write the JSON report here (e.g. BENCH_spmd.json)")

    p_batch = sub.add_parser("batch",
                             help="warm-started pipeline over a trajectory")
    p_batch.add_argument("--system", choices=sorted(_builtin_systems()),
                         default="si2")
    p_batch.add_argument("--frames", type=int, default=6,
                         help="trajectory length")
    p_batch.add_argument("--amplitude", type=float, default=0.012,
                         help="displacement scale (Bohr)")
    p_batch.add_argument("--period", type=float, default=16.0,
                         help="oscillation period in frames")
    p_batch.add_argument("--seed", type=int, default=7,
                         help="trajectory seed")
    p_batch.add_argument("--ecut", type=float, default=10.0, help="cutoff (Ha)")
    p_batch.add_argument("--bands", type=int, default=10)
    p_batch.add_argument("--tol", type=float, default=1e-6)
    p_batch.add_argument("-k", "--n-excitations", type=int, default=4)
    p_batch.add_argument("--cold", action="store_true",
                         help="disable all cross-frame reuse")
    p_batch.add_argument("--ranks", type=int, default=1,
                         help="SPMD ranks to shard frames over")
    p_batch.add_argument("--backend", choices=("thread", "process"),
                         default=None, help="SPMD backend for --ranks > 1")
    add_resilience_args(p_batch)

    p_bbt = sub.add_parser("bench-batch",
                           help="benchmark warm vs cold trajectory batching")
    p_bbt.add_argument("--smoke", action="store_true",
                       help="tiny workload for CI (seconds, not minutes)")
    p_bbt.add_argument("--frames", type=int, default=None,
                       help="trajectory length (default: 4 smoke / 10 full)")
    p_bbt.add_argument("--repeats", type=int, default=None,
                       help="cold+warm pairs; minimum is reported")
    p_bbt.add_argument("--amplitude", type=float, default=0.012,
                       help="displacement scale (Bohr)")
    p_bbt.add_argument("--out", default=None,
                       help="write the JSON report here (e.g. BENCH_batch.json)")

    p_srv = sub.add_parser("serve",
                           help="demo the async job server + result cache")
    p_srv.add_argument("--system", choices=sorted(_builtin_systems()),
                       default="si2")
    p_srv.add_argument("--requests", type=int, default=3,
                       help="distinct near-duplicate geometries to submit "
                            "(the first is then submitted again)")
    p_srv.add_argument("--amplitude", type=float, default=0.012,
                       help="geometry perturbation scale (Bohr)")
    p_srv.add_argument("--seed", type=int, default=7,
                       help="perturbation seed")
    p_srv.add_argument("--ecut", type=float, default=10.0, help="cutoff (Ha)")
    p_srv.add_argument("--bands", type=int, default=10)
    p_srv.add_argument("--tol", type=float, default=1e-6)
    p_srv.add_argument("--workers", type=int, default=1,
                       help="server worker threads")
    p_srv.add_argument("--tenants", type=int, default=2,
                       help="spread submissions over this many tenants")
    p_srv.add_argument("--store-dir", default=None,
                       help="persist the result store in this directory "
                            "(rerunning then serves everything from cache)")

    p_bsv = sub.add_parser("bench-serve",
                           help="benchmark the job-server cache/warm tiers")
    p_bsv.add_argument("--smoke", action="store_true",
                       help="tiny workload for CI (seconds, not minutes)")
    p_bsv.add_argument("--amplitude", type=float, default=0.012,
                       help="near-duplicate perturbation scale (Bohr)")
    p_bsv.add_argument("--out", default=None,
                       help="write the JSON report here (e.g. BENCH_serve.json)")

    p_lint = sub.add_parser("lint", help="run the repro.lint AST passes")
    p_lint.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    p_lint.add_argument("--format", choices=("text", "json"), default="text",
                        help="human-readable lines or a machine JSON report")
    p_lint.add_argument("--select", action="append", default=None,
                        metavar="RULE",
                        help="run only this rule (repeatable)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    p_lint.add_argument("--check-suppressions", action="store_true",
                        help="audit for suppression comments that no longer "
                             "match a live finding (stale-suppression)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": cmd_info,
        "scf": cmd_scf,
        "tddft": cmd_tddft,
        "scaling": cmd_scaling,
        "rt": cmd_rt,
        "bench-backend": cmd_bench_backend,
        "bench-spmd": cmd_bench_spmd,
        "batch": cmd_batch,
        "bench-batch": cmd_bench_batch,
        "serve": cmd_serve,
        "bench-serve": cmd_bench_serve,
        "lint": cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
