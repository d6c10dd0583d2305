#!/usr/bin/env python
"""Committed lint baseline: no new findings, no silently-vanished rules.

Runs the full ``repro.lint`` pass over ``src`` and
diffs the result against ``tools/lint_baseline.json``:

* a finding not in the baseline **fails** — new lint debt must be fixed or
  suppressed-with-reason, never accumulated,
* a rule present in the baseline's ``rules_enabled`` inventory but missing
  from the live registry **fails** — a rule that stops registering (refactor
  accident, import error swallowed somewhere) would otherwise pass CI
  forever as "zero findings",
* a live rule missing from the baseline inventory **fails** — new rules
  must be blessed explicitly so the baseline stays a reviewed artifact,
* findings present in the baseline but no longer produced are reported as
  shrinkage (informational) — re-bless to keep the file tight.

Usage::

    python tools/check_lint_baseline.py            # verify (exit 1 on drift)
    python tools/check_lint_baseline.py --update   # re-bless the baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(_TOOLS_DIR)
BASELINE_PATH = os.path.join(_TOOLS_DIR, "lint_baseline.json")
_SRC_DIR = os.path.join(REPO_ROOT, "src")

#: Paths the baseline covers (repo-relative).
LINTED_PATHS = ("src",)


def current_state() -> dict:
    """The live lint result in the committed-baseline shape."""
    if _SRC_DIR not in sys.path:
        sys.path.insert(0, _SRC_DIR)
    from repro.lint import lint_paths, rule_inventory

    findings = lint_paths([os.path.join(REPO_ROOT, p) for p in LINTED_PATHS])
    return {
        "paths": list(LINTED_PATHS),
        "rules_enabled": rule_inventory(),
        "findings": sorted(
            f"{os.path.relpath(f.path, REPO_ROOT)}:{f.line}: {f.rule}: {f.message}"
            for f in findings
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="re-bless tools/lint_baseline.json from the live run")
    args = parser.parse_args(argv)

    state = current_state()
    if args.update:
        with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
            json.dump(state, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"lint-baseline: blessed {len(state['findings'])} finding(s), "
              f"{len(state['rules_enabled'])} rule(s)")
        return 0

    if not os.path.exists(BASELINE_PATH):
        print("lint-baseline: tools/lint_baseline.json is missing; "
              "run with --update to create it")
        return 1
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        baseline = json.load(fh)

    problems: list[str] = []
    vanished_rules = sorted(
        set(baseline.get("rules_enabled", [])) - set(state["rules_enabled"])
    )
    for rule in vanished_rules:
        problems.append(
            f"rule {rule!r} is in the baseline but no longer registers — "
            "a lint pass silently vanished"
        )
    unblessed_rules = sorted(
        set(state["rules_enabled"]) - set(baseline.get("rules_enabled", []))
    )
    for rule in unblessed_rules:
        problems.append(
            f"rule {rule!r} registers but is not in the baseline — "
            "bless it with --update"
        )
    new_findings = sorted(
        set(state["findings"]) - set(baseline.get("findings", []))
    )
    for finding in new_findings:
        problems.append(f"new finding: {finding}")

    fixed = sorted(set(baseline.get("findings", [])) - set(state["findings"]))
    if fixed:
        print(f"lint-baseline: {len(fixed)} baseline finding(s) no longer "
              "fire; run --update to shrink the baseline")

    if problems:
        print("lint-baseline: drift against tools/lint_baseline.json:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"lint-baseline: ok ({len(state['rules_enabled'])} rules, "
          f"{len(state['findings'])} blessed finding(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
