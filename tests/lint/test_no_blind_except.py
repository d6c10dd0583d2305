"""The blanket-except pass guarding the typed-fault contract."""

from repro.lint import lint_source

import pytest

pytestmark = pytest.mark.lint

RULE = ["no-blind-except"]


def findings_in(src: str):
    return lint_source(src, rules=RULE)


class TestPositive:
    def test_bare_except(self):
        src = "try:\n    work()\nexcept:\n    pass\n"
        (finding,) = findings_in(src)
        assert "everything" in finding.message

    def test_except_exception(self):
        src = "try:\n    work()\nexcept Exception:\n    log()\n"
        assert len(findings_in(src)) == 1

    def test_except_baseexception_in_tuple(self):
        src = "try:\n    work()\nexcept (ValueError, BaseException):\n    log()\n"
        assert len(findings_in(src)) == 1

    def test_conditional_reraise_still_flagged(self):
        # The two handlers this PR fixed had exactly this shape: a raise
        # buried in an `if` swallows every other path.
        src = (
            "try:\n"
            "    work()\n"
            "except Exception:\n"
            "    if fallback is None:\n"
            "        raise\n"
            "    recover()\n"
        )
        assert len(findings_in(src)) == 1


class TestNegative:
    def test_named_types_are_clean(self):
        src = "try:\n    work()\nexcept (RuntimeError, ValueError):\n    recover()\n"
        assert findings_in(src) == []

    def test_unconditional_reraise_is_clean(self):
        src = (
            "try:\n"
            "    work()\n"
            "except Exception as exc:\n"
            "    log(exc)\n"
            "    raise\n"
        )
        assert findings_in(src) == []

    def test_raise_from_is_clean(self):
        src = (
            "try:\n"
            "    work()\n"
            "except Exception as exc:\n"
            "    raise RuntimeError('wrapped') from exc\n"
        )
        assert findings_in(src) == []


class TestFixedHandlersStayFixed:
    """The two call sites named in the issue must remain clean."""

    def test_policies_and_isdf_have_no_blind_except(self):
        import repro.core.isdf as isdf
        import repro.resilience.policies as policies

        for mod in (isdf, policies):
            source = open(mod.__file__).read()
            assert lint_source(source, path=mod.__file__, rules=RULE) == []

    def test_narrowed_handlers_catch_what_tests_inject(self):
        # The fallback paths are driven by RuntimeError in the resilience
        # suite; the narrowed tuples must still cover it.
        from repro.core.isdf import _SELECTION_FAILURES

        assert RuntimeError in _SELECTION_FAILURES
        assert Exception not in _SELECTION_FAILURES
        assert BaseException not in _SELECTION_FAILURES
