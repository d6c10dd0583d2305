"""Tests of the benchmark itself, on its ``--smoke`` inputs.

Run with ``python -m pytest bench/`` (under a minute on a 2-core host).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> tuple[int, list[dict]]:
    """Exit code and the JSON result lines of one smoke invocation."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, [
        json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")
    ]


@pytest.fixture(scope="module")
def untraced():
    return _run("--trace", "0")


@pytest.fixture(scope="module")
def traced():
    return _run("--trace", "1")


@pytest.mark.parametrize("mode, kind", [("untraced", "end_to_end"), ("traced", "per_layer")])
def test_printed_metrics_match_declaration(request, mode, kind):
    _, results = request.getfixturevalue(mode)
    assert len(results) == len(SPEC["workloads"])
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    for result in results:
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared


def test_trace_covers_the_run(traced):
    _, results = traced
    for result in results:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95


@pytest.mark.parametrize("mode", ["untraced", "traced"])
def test_correctness_gates_pass(request, mode):
    code, results = request.getfixturevalue(mode)
    assert code == 0
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2


def test_corrupted_reference_fails_every_run():
    code, results = _run("--workload", "isdf-si64", "--corrupt-reference")
    assert code != 0
    (result,) = results
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
