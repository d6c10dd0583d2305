"""The ``repro lint`` subcommand."""

import json

from repro.cli import main

import pytest

pytestmark = pytest.mark.lint

BAD = (
    "from repro.utils import hot_kernel\n"
    "import numpy as np\n"
    "@hot_kernel\n"
    "def kernel(x):\n"
    "    return np.zeros(3) + x\n"
)



def test_clean_path_exits_zero(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    assert main(["lint", str(target)]) == 0
    assert "no findings" in capsys.readouterr().out


def test_findings_exit_nonzero_with_rule_and_line(tmp_path, capsys):
    target = tmp_path / "bad.py"
    target.write_text(BAD)
    assert main(["lint", str(target)]) == 1
    out = capsys.readouterr().out
    assert "no-alloc-in-hot" in out
    assert f"{target}:5:" in out


def test_json_format_matches_engine_payload(tmp_path, capsys):
    target = tmp_path / "bad.py"
    target.write_text(BAD)
    assert main(["lint", str(target), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == len(payload["findings"]) >= 1
    assert payload["counts_by_rule"]["no-alloc-in-hot"] >= 1


def test_select_restricts_rules(tmp_path):
    target = tmp_path / "bad.py"
    target.write_text(BAD)
    assert main(["lint", str(target), "--select", "no-blind-except"]) == 0
    assert main(["lint", str(target), "--select", "no-alloc-in-hot"]) == 1


RULES = [
    "no-alloc-in-hot",
    "no-blind-except",
    "nondeterminism-in-replay",
]


def test_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    listed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == RULES


def test_json_inventory_lists_every_rule(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    assert main(["lint", str(target), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules_enabled"] == RULES


def test_select_omits_inventory_from_json(tmp_path, capsys):
    # A partial run is not a faithful inventory statement; baseline
    # tooling must never consume it.
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    assert main(
        ["lint", str(target), "--format", "json", "--select", "no-blind-except"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload.get("rules_enabled") is None
