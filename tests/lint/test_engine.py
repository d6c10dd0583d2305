"""Engine mechanics: registry, suppression protocol, output formats."""

import json

import pytest

from repro.lint import (
    Finding,
    format_findings,
    get_rules,
    lint_paths,
    lint_source,
)

HOT_ALLOC = (
    "from repro.utils import hot_kernel\n"
    "import numpy as np\n"
    "@hot_kernel\n"
    "def kernel(x):\n"
    "    return np.zeros(3) + x\n"
)

pytestmark = pytest.mark.lint


class TestRegistry:
    def test_all_expected_rules_registered(self):
        names = {r.name for r in get_rules()}
        assert names >= {
            "no-alloc-in-hot",
            "nondeterminism-in-replay",
            "no-blind-except",
        }

    def test_unknown_rule_name_is_an_error(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            get_rules(["no-such-rule"])

    def test_rule_selection_restricts_findings(self):
        assert lint_source(HOT_ALLOC, rules=["no-blind-except"]) == []
        assert lint_source(HOT_ALLOC, rules=["no-alloc-in-hot"])


class TestSuppression:
    def test_trailing_comment_suppresses_that_line_only(self):
        src = HOT_ALLOC.replace(
            "    return np.zeros(3) + x\n",
            "    a = np.zeros(3)  # repro-lint: disable=no-alloc-in-hot -- test fixture\n"
            "    return np.empty(3) + a\n",
        )
        findings = lint_source(src)
        assert [f.rule for f in findings] == ["no-alloc-in-hot"]
        assert "np.empty" in findings[0].message

    def test_own_line_comment_suppresses_whole_file(self):
        src = (
            "# repro-lint: disable=no-alloc-in-hot -- fixture-wide waiver\n"
            + HOT_ALLOC
        )
        assert lint_source(src) == []

    def test_disable_all_matches_every_rule(self):
        src = "# repro-lint: disable=all -- fixture\n" + HOT_ALLOC
        assert lint_source(src) == []

    def test_suppression_without_reason_is_itself_a_finding(self):
        src = HOT_ALLOC.replace(
            "    return np.zeros(3) + x\n",
            "    return np.zeros(3) + x  # repro-lint: disable=no-alloc-in-hot\n",
        )
        findings = lint_source(src)
        assert [f.rule for f in findings] == ["suppression-without-reason"]
        assert "reason" in findings[0].message

    def test_suppressing_one_rule_keeps_the_others(self):
        src = (
            "# repro-lint: disable=no-blind-except -- fixture\n" + HOT_ALLOC
        )
        assert [f.rule for f in lint_source(src)] == ["no-alloc-in-hot"]


class TestOutput:
    def test_syntax_error_becomes_a_finding(self):
        findings = lint_source("def broken(:\n", path="bad.py")
        assert [f.rule for f in findings] == ["syntax-error"]
        assert findings[0].path == "bad.py"

    def test_text_format_lists_locations_and_total(self):
        out = format_findings(lint_source(HOT_ALLOC, path="mod.py"))
        assert "mod.py:5:" in out
        assert "no-alloc-in-hot" in out
        assert "finding(s)" in out

    def test_text_format_clean(self):
        assert format_findings([]) == "repro-lint: no findings"

    def test_json_format_is_machine_readable(self):
        payload = json.loads(
            format_findings(lint_source(HOT_ALLOC, path="mod.py"), fmt="json")
        )
        assert payload["total"] == len(payload["findings"]) > 0
        assert payload["counts_by_rule"]["no-alloc-in-hot"] >= 1
        first = payload["findings"][0]
        assert set(first) == {"rule", "path", "line", "col", "message"}

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format"):
            format_findings([], fmt="xml")

    def test_render_is_path_line_col(self):
        f = Finding(rule="r", path="p.py", line=3, col=7, message="m")
        assert f.render() == "p.py:3:7: r: m"


class TestPathDiscovery:
    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text(HOT_ALLOC)
        (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text(HOT_ALLOC)
        findings = lint_paths([tmp_path])
        assert len(findings) == 1
        assert findings[0].path.endswith("a.py")
        assert "__pycache__" not in findings[0].path
