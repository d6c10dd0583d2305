"""``repro.lint`` — whole-program lint passes for this codebase's hazards.

The generic engine (rule registry, suppression comments, text/JSON output)
lives in :mod:`repro.lint.engine`.  Per-file passes encoding the
invariants the reproduction relies on live in :mod:`repro.lint.rules`:

* ``no-alloc-in-hot`` — per-call allocations inside hot kernels,
* ``nondeterminism-in-replay`` — wall-clock/global-RNG/dict-order inside
  checkpoint-replayed loops,
* ``mutated-recv-buffer`` — in-place writes to arrays received through the
  comm layer without a defensive copy,
* ``no-blind-except`` — ``except Exception`` handlers that swallow
  everything.

Whole-program passes run over the project call graph
(:mod:`repro.lint.callgraph` + :mod:`repro.lint.flow`) and live in
:mod:`repro.lint.project_rules`:

* ``impure-cache-key`` — nondeterminism reachable from
  ``CalculationRequest`` serialization (the content-addressed cache key),
* ``lock-order-cycle`` / ``blocking-under-lock`` — the static lock graph
  of the serving layer.

The array-contract pass (:mod:`repro.lint.arrays`) abstractly interprets
numpy code against the ``@array_contract`` declarations on hot kernels —
symbolic shapes, a dtype lattice, and layout (contiguity) facts:

* ``silent-upcast-in-hot`` — a hot kernel's float64 data widening to
  complex128 (or float32 to float64) without an explicit cast,
* ``hidden-copy-into-kernel`` — strided/copied views passed where a
  contract requires C-contiguity (BLAS packing, pocketfft input copies),
* ``shape-mismatch`` — inferred shapes contradicting a contract or a
  GEMM's inner dimension,
* ``undeclared-downcast-in-hot`` — a float64 value narrowed to float32
  inside a hot kernel whose contract declares no ``precision_policy``.

Whether every rank enters the same collectives with conforming buffers is
not a lint question: the runtime SPMD sanitizer
(:mod:`repro.parallel.sanitizer`, ``REPRO_SANITIZE=1``) diagnoses skipped,
extra, divergent and ragged collectives on both backends, and the test
suite runs every distributed algorithm under it.

Set ``REPRO_ARRAY_CONTRACTS=1`` to also enforce the same contracts at
runtime (:mod:`repro.utils.hot`); the default is off with zero overhead.

Run it via ``repro lint [paths]``, ``python tools/run_checks.py``, or the
API below.  ``repro lint --check-suppressions`` audits for suppression
comments that no longer match a live finding.  See
``docs/static-analysis.md`` for rule rationale and suppression syntax.
"""

from repro.lint.engine import (
    Finding,
    LintRule,
    ProjectRule,
    all_project_rules,
    all_rules,
    check_suppressions,
    format_findings,
    get_rules,
    lint_file,
    lint_paths,
    lint_source,
    register_project_rule,
    register_rule,
    rule_inventory,
)
from repro.lint.hotpaths import (
    ARRAY_CONTRACT_DECORATORS,
    HOT_DECORATORS,
    HOT_PATH_MANIFEST,
    array_contract,
    hot_functions_for,
)

# Importing the rule modules populates both registries.
from repro.lint import arrays as _arrays  # noqa: F401  (registration side effect)
from repro.lint import project_rules as _project_rules  # noqa: F401
from repro.lint import rules as _rules  # noqa: F401  (registration side effect)
from repro.lint.arrays import ARRAY_RULE_NAMES, analyze_arrays

__all__ = [
    "Finding",
    "LintRule",
    "ProjectRule",
    "all_project_rules",
    "all_rules",
    "check_suppressions",
    "format_findings",
    "get_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register_project_rule",
    "register_rule",
    "rule_inventory",
    "ARRAY_CONTRACT_DECORATORS",
    "ARRAY_RULE_NAMES",
    "HOT_DECORATORS",
    "HOT_PATH_MANIFEST",
    "analyze_arrays",
    "array_contract",
    "hot_functions_for",
]
