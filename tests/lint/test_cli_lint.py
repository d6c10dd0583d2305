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


def test_deleting_a_copy_exits_nonzero_with_rule_and_line(tmp_path, capsys):
    # The ISSUE acceptance scenario end-to-end: a program that is clean
    # because of a defensive .copy() regresses the moment it's deleted,
    # and `repro lint` reports the exact rule and line.
    with_copy = (
        "def prog(comm):\n"
        "    buf = comm.recv(0, tag=1)\n"
        "    buf = buf.copy()\n"
        "    buf[0] = 99.0\n"
        "    return buf\n"
    )
    target = tmp_path / "prog.py"
    target.write_text(with_copy)
    assert main(["lint", str(target)]) == 0
    capsys.readouterr()
    target.write_text(with_copy.replace("    buf = buf.copy()\n", ""))
    assert main(["lint", str(target)]) == 1
    out = capsys.readouterr().out
    assert "mutated-recv-buffer" in out
    assert f"{target}:3:" in out  # the mutation line after the deletion


def test_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in ("no-alloc-in-hot", "no-blind-except",
                 "mutated-recv-buffer", "nondeterminism-in-replay"):
        assert name in out
    # The array-contract rules register as project rules.
    for name in ("silent-upcast-in-hot", "hidden-copy-into-kernel",
                 "shape-mismatch", "undeclared-downcast-in-hot"):
        assert f"{name} [project]:" in out


ARRAY_BAD = (
    "import numpy as np\n"
    "from repro.utils.hot import array_contract\n"
    "@array_contract(dtypes={'x': 'float64'})\n"
    "def apply(x):\n"
    "    return x.astype(np.complex128)\n"
)


def test_array_rules_run_by_default(tmp_path, capsys):
    target = tmp_path / "kern.py"
    target.write_text(ARRAY_BAD)
    assert main(["lint", str(target)]) == 1
    out = capsys.readouterr().out
    assert "silent-upcast-in-hot" in out
    assert f"{target}:5:" in out


def test_no_arrays_skips_only_the_array_rules(tmp_path, capsys):
    target = tmp_path / "kern.py"
    target.write_text(ARRAY_BAD)
    assert main(["lint", str(target), "--no-arrays"]) == 0
    capsys.readouterr()
    # Non-array findings still fire under --no-arrays.
    target.write_text(BAD)
    assert main(["lint", str(target), "--no-arrays"]) == 1
    assert "no-alloc-in-hot" in capsys.readouterr().out


def test_json_inventory_includes_array_rules(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    assert main(["lint", str(target), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for name in ("silent-upcast-in-hot", "hidden-copy-into-kernel",
                 "shape-mismatch", "undeclared-downcast-in-hot"):
        assert name in payload["rules_enabled"]


def test_json_witness_chain_for_array_finding(tmp_path, capsys):
    target = tmp_path / "kern.py"
    target.write_text(
        "import numpy as np\n"
        "from repro.utils.hot import array_contract\n"
        "@array_contract(shapes={'z': 'any'}, contiguous=('z',))\n"
        "def kern(z):\n"
        "    return z\n"
        "def caller():\n"
        "    a = np.zeros((8, 8))\n"
        "    return kern(a[:, ::2])\n"
    )
    assert main(["lint", str(target), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    finding = next(
        f for f in payload["findings"]
        if f["rule"] == "hidden-copy-into-kernel"
    )
    assert "caller -> kern" in finding["message"]  # the witness chain


def test_no_arrays_omits_inventory_from_json(tmp_path, capsys):
    # A partial run is not a faithful inventory statement; baseline
    # tooling must never consume it.
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    assert main(["lint", str(target), "--format", "json", "--no-arrays"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload.get("rules_enabled") is None
