"""Regressions for per-file traversal gaps in the lint passes.

The original per-file passes confused names across nested scopes: the
replay rule reported a nested replay scope twice.  The test here failed
against the old traversal.
"""

import pytest

from repro.lint import lint_source

pytestmark = pytest.mark.lint


def findings_for(src, rule):
    return lint_source(src, rules=[rule])


class TestReplayScopeDedup:
    def test_nested_def_inside_replay_scope_reports_once(self):
        # Both the outer (checkpoint param) and the nested def qualify as
        # replay scopes; the walk of the outer already covers the inner,
        # so the finding must not double up.
        findings = findings_for(
            "import time\n"
            "def outer(checkpoint):\n"
            "    def refresh_checkpoint():\n"
            "        return time.time()\n"
            "    return refresh_checkpoint()\n",
            "nondeterminism-in-replay",
        )
        assert len(findings) == 1
