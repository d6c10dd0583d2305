"""Measured K-Means A/B benchmark (not a cost-model regeneration).

Unlike the other benches in this directory — which regenerate the paper's
tables from the calibrated cost model — this one *measures* weighted
K-Means point selection on the local machine: naive Lloyd vs bound-pruned
Hamerly.

Writes a machine-readable report (default ``BENCH_backend.json`` at the
repo root) whose bit-identity flags double as a numerics check; see
``docs/performance.md`` for how to read it.

Usage::

    PYTHONPATH=src python benchmarks/bench_backend.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import pathlib
import sys


def main(argv=None) -> int:
    from repro.perf.backend_bench import (
        format_summary,
        run_backend_bench,
        write_report,
    )

    default_out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_backend.json"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload for CI (seconds, not minutes)")
    parser.add_argument("--out", default=str(default_out),
                        help=f"JSON report path (default: {default_out})")
    args = parser.parse_args(argv)

    report = run_backend_bench(smoke=args.smoke)
    print(format_summary(report))
    write_report(report, args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
