"""``repro.lint`` — per-file lint passes for this codebase's hazards.

The generic engine (rule registry, suppression comments, text/JSON output)
lives in :mod:`repro.lint.engine`.  The passes encoding the invariants the
reproduction relies on live in :mod:`repro.lint.rules`:

* ``no-alloc-in-hot`` — per-call allocations inside hot kernels,
* ``nondeterminism-in-replay`` — wall-clock/global-RNG/dict-order inside
  checkpoint-replayed loops,
* ``no-blind-except`` — ``except Exception`` handlers that swallow
  everything.

Invariants that need the whole program are checked at runtime instead.
Whether every rank enters the same collectives with conforming buffers is
not a lint question: the runtime SPMD sanitizer
(:mod:`repro.parallel.sanitizer`, ``REPRO_SANITIZE=1``) diagnoses skipped,
extra, divergent and ragged collectives on both backends, and the test
suite runs every distributed algorithm under it.  Likewise, the
``@array_contract`` declarations on hot kernels (:mod:`repro.utils.hot`)
are enforced at runtime under ``REPRO_ARRAY_CONTRACTS=1``, which the test
suite sets for the whole session; they are not a lint pass.  The cache
key's determinism is a property test
(``tests/property/test_property_cache_key.py``), and the serving layer's lock
discipline is checked by a recorder that swaps in instrumented locks
around the tests that drive it (``tests/lock_recorder.py``).

Run it via ``repro lint [paths]``, ``python tools/run_checks.py``, or the
API below.  ``repro lint --check-suppressions`` audits for suppression
comments that no longer match a live finding.  See
``docs/static-analysis.md`` for rule rationale and suppression syntax.
"""

from repro.lint.engine import (
    Finding,
    LintRule,
    all_rules,
    check_suppressions,
    format_findings,
    get_rules,
    lint_file,
    lint_paths,
    lint_source,
    register_rule,
    rule_inventory,
)
from repro.lint.hotpaths import (
    HOT_DECORATORS,
    HOT_PATH_MANIFEST,
    hot_functions_for,
)

# Importing the rule module populates the registry.
from repro.lint import rules as _rules  # noqa: F401  (registration side effect)

__all__ = [
    "Finding",
    "LintRule",
    "all_rules",
    "check_suppressions",
    "format_findings",
    "get_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register_rule",
    "rule_inventory",
    "HOT_DECORATORS",
    "HOT_PATH_MANIFEST",
    "hot_functions_for",
]
