"""Regressions for the per-file traversal gaps closed in the whole-program
refactor.

The original per-file passes confused names across nested scopes: the
recv-buffer tracker let an inner ``def`` shadow or leak tracking, and the
replay rule reported a nested replay scope twice.  Each test here failed
against the old traversal.
"""

import pytest

from repro.lint import lint_source

pytestmark = pytest.mark.lint


def findings_for(src, rule):
    return lint_source(src, rules=[rule])


RECV_PREFIX = "def run(comm):\n    buf = comm.recv(0)\n"


class TestRecvBufferScopes:
    def test_nested_def_shadow_does_not_untrack_outer_name(self):
        # The inner ``buf`` is a different variable; the outer one is
        # still the shared recv buffer when mutated afterwards.
        findings = findings_for(
            RECV_PREFIX
            + "    def inner():\n"
            "        buf = make_local()\n"
            "        return buf\n"
            "    buf[0] = 1.0\n",
            "mutated-recv-buffer",
        )
        assert len(findings) == 1
        assert "'buf'" in findings[0].message

    def test_nested_def_recv_does_not_leak_tracking_out(self):
        findings = findings_for(
            "def run(comm):\n"
            "    def inner():\n"
            "        tmp = comm.recv(0)\n"
            "        return tmp\n"
            "    tmp = make_local()\n"
            "    tmp[0] = 1.0\n",
            "mutated-recv-buffer",
        )
        assert findings == []

    def test_mutation_inside_nested_def_gets_its_own_pass(self):
        # The nested function receives its own buffer and mutates it:
        # flagged on the inner pass, attributed to the inner qualname.
        findings = findings_for(
            "def run(comm):\n"
            "    def inner():\n"
            "        tmp = comm.recv(0)\n"
            "        tmp[0] = 1.0\n"
            "    return inner\n",
            "mutated-recv-buffer",
        )
        assert len(findings) == 1
        assert "run.inner" in findings[0].message

    def test_lambda_closing_over_tracked_buffer_is_flagged(self):
        # A lambda cannot rebind ``buf``; a mutation in its body hits the
        # shared buffer, so the lambda body stays in the outer scope walk.
        findings = findings_for(
            RECV_PREFIX + "    cb = lambda: buf.fill(0.0)\n",
            "mutated-recv-buffer",
        )
        assert len(findings) == 1

    def test_comprehension_mutation_is_in_outer_scope(self):
        findings = findings_for(
            RECV_PREFIX + "    [buf.fill(float(i)) for i in range(3)]\n",
            "mutated-recv-buffer",
        )
        assert len(findings) == 1


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
