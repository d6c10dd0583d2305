"""``tools/check_bench.py`` attributes each failure to the check that raised it."""

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_PASSING_SERVE = {
    "cache_hit": {"bit_identical": True, "scf_iterations_hit": 0},
    "warm_start": {"equivalence": {"within_tolerance": True}, "iterations_saved": 2},
    "scf_subrequest": {"tddft_scf_iterations": 0},
}
_PASSING_BACKEND = {
    "kmeans_selection": {
        "centroids_identical": True,
        "labels_identical": True,
        "inertia_identical": True,
    }
}


@pytest.fixture
def check_bench(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "check_bench_under_test", REPO_ROOT / "tools" / "check_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPO", tmp_path)
    return module


def _write(directory: pathlib.Path, name: str, payload: dict) -> None:
    (directory / name).write_text(json.dumps(payload))


def test_earlier_failure_does_not_hide_a_later_pass(check_bench, tmp_path, capsys):
    _write(tmp_path, "BENCH_spmd.json", {"meets_2x_target": "yes", "workloads": {}})
    _write(tmp_path, "BENCH_serve.json", _PASSING_SERVE)
    check_bench.check_committed_spmd()
    check_bench.check_committed_serve()
    out = capsys.readouterr().out
    assert "check-bench: FAIL: BENCH_spmd.json" in out
    assert "check-bench: ok: BENCH_serve.json" in out
    assert len(check_bench._FAILURES) == 1


def test_failing_check_prints_no_ok_line(check_bench, tmp_path, capsys):
    _write(tmp_path, "BENCH_serve.json", {**_PASSING_SERVE, "cache_hit": {}})
    check_bench.check_committed_serve()
    out = capsys.readouterr().out
    assert "check-bench: FAIL: BENCH_serve.json" in out
    assert "check-bench: ok: BENCH_serve.json" not in out


def test_backend_report_gates_only_kmeans_flags(check_bench, tmp_path, capsys):
    _write(tmp_path, "BENCH_backend.json", _PASSING_BACKEND)
    check_bench.check_committed_backend()
    assert "check-bench: ok: BENCH_backend.json" in capsys.readouterr().out
    assert not check_bench._FAILURES

    _write(
        tmp_path,
        "BENCH_backend.json",
        {"kmeans_selection": {**_PASSING_BACKEND["kmeans_selection"],
                              "labels_identical": False}},
    )
    check_bench.check_committed_backend()
    assert check_bench._FAILURES == [
        "BENCH_backend.json: kmeans_selection.labels_identical is false"
    ]
