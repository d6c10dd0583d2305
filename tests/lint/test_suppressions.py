"""Suppression hygiene: the ``--check-suppressions`` staleness audit.

A waiver that outlives its bug is worse than no waiver — it hides the
*next* finding on that line too.  ``check_suppressions`` runs every rule
with suppressions recorded but not applied and reports entries that no
longer match a live finding as ``stale-suppression`` findings; these tests
pin the live/stale boundary, the file-level and ``all`` scopes, and the
tokenizer detail that comment syntax inside a string is not a suppression.
"""

import pytest

from repro.lint import check_suppressions, lint_source

pytestmark = pytest.mark.lint

HOT_ALLOC_LINE = "    a = np.zeros(3)"
HOT_PREFIX = (
    "from repro.utils import hot_kernel\n"
    "import numpy as np\n"
    "@hot_kernel\n"
    "def kernel(x):\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestStaleDetection:
    def test_live_suppression_is_not_reported(self, tmp_path):
        path = write(
            tmp_path,
            "live.py",
            HOT_PREFIX
            + HOT_ALLOC_LINE
            + "  # repro-lint: disable=no-alloc-in-hot -- fixture\n"
            "    return a + x\n",
        )
        assert check_suppressions([path]) == []

    def test_stale_line_suppression_is_reported(self, tmp_path):
        path = write(
            tmp_path,
            "stale.py",
            HOT_PREFIX
            + "    return x  # repro-lint: disable=no-alloc-in-hot -- fixed long ago\n",
        )
        findings = check_suppressions([path])
        assert [f.rule for f in findings] == ["stale-suppression"]
        assert "no longer matches" in findings[0].message
        assert "'no-alloc-in-hot'" in findings[0].message

    def test_suppression_of_a_different_rule_is_stale(self, tmp_path):
        # The line has a live finding, but for another rule: still stale.
        path = write(
            tmp_path,
            "wrong_rule.py",
            HOT_PREFIX
            + HOT_ALLOC_LINE
            + "  # repro-lint: disable=no-blind-except -- wrong waiver\n"
            "    return a + x\n",
        )
        findings = check_suppressions([path])
        assert [f.rule for f in findings] == ["stale-suppression"]

    def test_file_level_suppression_live_then_stale(self, tmp_path):
        waiver = "# repro-lint: disable=no-alloc-in-hot -- file-wide fixture\n"
        live = write(
            tmp_path, "live.py",
            waiver + HOT_PREFIX + HOT_ALLOC_LINE + "\n    return a + x\n",
        )
        assert check_suppressions([live]) == []
        stale = write(tmp_path, "stale.py", waiver + HOT_PREFIX + "    return x\n")
        findings = check_suppressions([stale])
        assert [f.rule for f in findings] == ["stale-suppression"]
        assert "file-level" in findings[0].message

    def test_all_waiver_is_live_against_any_finding(self, tmp_path):
        path = write(
            tmp_path,
            "blanket.py",
            HOT_PREFIX
            + HOT_ALLOC_LINE
            + "  # repro-lint: disable=all -- kitchen-sink fixture\n"
            "    return a + x\n",
        )
        assert check_suppressions([path]) == []

    def test_all_waiver_with_no_findings_is_stale(self, tmp_path):
        path = write(
            tmp_path,
            "blanket.py",
            "x = 1  # repro-lint: disable=all -- nothing here\n",
        )
        findings = check_suppressions([path])
        assert [f.rule for f in findings] == ["stale-suppression"]


class TestSuppressionParsing:
    def test_comment_syntax_inside_a_string_is_not_a_suppression(self):
        src = (
            HOT_PREFIX
            + '    doc = "# repro-lint: disable=no-alloc-in-hot -- not a comment"\n'
            + HOT_ALLOC_LINE + "\n"
            "    return a + x + len(doc)\n"
        )
        findings = lint_source(src)
        assert [f.rule for f in findings] == ["no-alloc-in-hot"]

    def test_comment_syntax_inside_a_docstring_is_not_a_suppression(self):
        src = (
            HOT_PREFIX
            + '    """# repro-lint: disable=no-alloc-in-hot -- docstring"""\n'
            + HOT_ALLOC_LINE + "\n"
            "    return a + x\n"
        )
        findings = lint_source(src)
        assert [f.rule for f in findings] == ["no-alloc-in-hot"]

    def test_missing_reason_is_its_own_finding(self):
        src = (
            HOT_PREFIX
            + HOT_ALLOC_LINE + "  # repro-lint: disable=no-alloc-in-hot\n"
            "    return a + x\n"
        )
        rules = [f.rule for f in lint_source(src)]
        assert "suppression-without-reason" in rules

    def test_stale_audit_still_reports_parse_errors(self, tmp_path):
        path = write(tmp_path, "broken.py", "def broken(:\n")
        findings = check_suppressions([path])
        assert [f.rule for f in findings] == ["syntax-error"]
