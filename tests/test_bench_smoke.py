"""Smoke coverage for the measured backend benchmark and repo hygiene.

Runs ``benchmarks/bench_backend.py --smoke`` end-to-end (subprocess, like a
user would) and checks the emitted JSON: structure, and — more importantly —
the embedded K-Means bit-identity flags, which turn the bench into a
Lloyd-vs-Hamerly numerics test.  Also invokes the ``tools/check_no_pyc.py``
guard so tracked bytecode can't creep back in.
"""

import json
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(cmd, **kwargs):
    env = dict(kwargs.pop("env", {}) or {})
    return subprocess.run(
        cmd, cwd=REPO_ROOT, capture_output=True, text=True,
        env={**__import__("os").environ, "PYTHONPATH": str(REPO_ROOT / "src"), **env},
        **kwargs,
    )


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_backend.json"
    proc = _run([sys.executable, "benchmarks/bench_backend.py", "--smoke",
                 "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert "backend bench (smoke mode)" in proc.stdout
    return json.loads(out.read_text())


class TestBenchSmoke:
    def test_report_structure(self, smoke_report):
        assert smoke_report["meta"]["mode"] == "smoke"
        assert smoke_report["meta"]["cpu_count"] >= 1
        km = smoke_report["kmeans_selection"]
        assert set(km["algorithms"]) == {"lloyd", "hamerly"}
        assert smoke_report["phase_metrics"]  # counters were recorded

    def test_kmeans_bit_identical(self, smoke_report):
        km = smoke_report["kmeans_selection"]
        assert km["labels_identical"]
        assert km["inertia_identical"]
        assert km["centroids_identical"]

    def test_cli_subcommand(self, tmp_path):
        out = tmp_path / "report.json"
        proc = _run([sys.executable, "-m", "repro", "bench-backend",
                     "--smoke", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["meta"]["mode"] == "smoke"


@pytest.fixture(scope="module")
def batch_smoke_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_batch.json"
    proc = _run([sys.executable, "benchmarks/bench_batch.py", "--smoke",
                 "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert "batch bench (smoke mode" in proc.stdout
    return json.loads(out.read_text())


@pytest.mark.batch
class TestBatchBenchSmoke:
    def test_report_structure(self, batch_smoke_report):
        report = batch_smoke_report
        assert report["meta"]["mode"] == "smoke"
        n = report["meta"]["n_frames"]
        assert len(report["cold"]["frames"]) == n
        assert len(report["warm"]["frames"]) == n
        for frame in report["cold"]["frames"] + report["warm"]["frames"]:
            assert frame["scf_converged"] and frame["tddft_converged"]
        assert report["speedup_end_to_end"] > 0
        assert isinstance(report["isdf_reselection_frames"], list)

    def test_equivalence_flags(self, batch_smoke_report):
        eq = batch_smoke_report["equivalence"]
        assert eq["within_tolerance"], eq
        assert eq["frame0_bit_identical"], eq
        assert eq["max_total_energy_delta_ha"] <= eq["tolerance_bound_ha"]

    def test_warm_mechanism_visible(self, batch_smoke_report):
        cold = batch_smoke_report["cold"]["frames"]
        warm = batch_smoke_report["warm"]["frames"]
        assert sum(f["scf_iterations"] for f in warm[1:]) < sum(
            f["scf_iterations"] for f in cold[1:]
        )
        assert any(not f["isdf_reselected"] for f in warm)

    def test_cli_subcommand(self, tmp_path):
        out = tmp_path / "report.json"
        proc = _run([sys.executable, "-m", "repro", "bench-batch",
                     "--smoke", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["meta"]["mode"] == "smoke"


def test_no_tracked_bytecode():
    proc = _run([sys.executable, "tools/check_no_pyc.py"])
    assert proc.returncode == 0, proc.stderr
