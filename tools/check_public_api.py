#!/usr/bin/env python
"""Snapshot test for the exported public surfaces (``repro``, ``repro.api``, ``repro.serve``).

Describes every name in each tracked module's ``__all__`` — kind, dataclass
fields with default reprs, callable signatures, and public method
signatures on classes (the job-server client surface: ``submit`` /
``result`` / ``cancel`` / ...) — and diffs the description against the
committed manifest ``tools/public_api_manifest.json``.  An unreviewed
change to a public surface — removed export, changed default, changed
signature — shows up as a diff and fails CI.

Usage::

    python tools/check_public_api.py            # verify (exit 1 on drift)
    python tools/check_public_api.py --update   # re-bless the manifest
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import json
import os
import sys

_TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
MANIFEST_PATH = os.path.join(_TOOLS_DIR, "public_api_manifest.json")
_SRC_DIR = os.path.join(os.path.dirname(_TOOLS_DIR), "src")

#: Modules whose exported surface is snapshot-tested.
TRACKED_MODULES = ("repro", "repro.api", "repro.serve")


def _field_default(f: dataclasses.Field) -> str:
    if f.default is not dataclasses.MISSING:
        return repr(f.default)
    if f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        return "<factory>"
    return "<required>"


def _public_methods(cls) -> dict[str, str]:
    """Signatures of the class's public methods (incl. classmethods)."""
    methods: dict[str, str] = {}
    for name, member in inspect.getmembers(cls, inspect.isroutine):
        if name.startswith("_"):
            continue
        try:
            methods[name] = str(inspect.signature(member))
        except (ValueError, TypeError):  # pragma: no cover - builtins
            methods[name] = "<unknown>"
    return methods


def describe_api(module_name: str = "repro.api") -> dict:
    """A JSON-able description of the module's exported surface."""
    if _SRC_DIR not in sys.path:
        sys.path.insert(0, _SRC_DIR)
    api = importlib.import_module(module_name)
    surface: dict[str, dict] = {}
    for name in sorted(api.__all__):
        obj = getattr(api, name)
        if inspect.isclass(obj) and dataclasses.is_dataclass(obj):
            surface[name] = {
                "kind": "dataclass",
                "fields": {
                    f.name: _field_default(f) for f in dataclasses.fields(obj)
                },
                "methods": _public_methods(obj),
            }
        elif inspect.isclass(obj):
            surface[name] = {"kind": "class", "methods": _public_methods(obj)}
        elif callable(obj):
            surface[name] = {
                "kind": "function",
                "signature": str(inspect.signature(obj)),
            }
        else:
            surface[name] = {"kind": type(obj).__name__}
    return surface


def describe_all() -> dict:
    """Per-module surface descriptions for every tracked module."""
    return {module: describe_api(module) for module in TRACKED_MODULES}


def diff_surfaces(expected: dict, actual: dict) -> list[str]:
    """Human-readable drift lines (empty = surfaces match)."""
    problems: list[str] = []
    for name in sorted(set(expected) - set(actual)):
        problems.append(f"removed export: {name}")
    for name in sorted(set(actual) - set(expected)):
        problems.append(f"new unblessed export: {name}")
    for name in sorted(set(expected) & set(actual)):
        if expected[name] != actual[name]:
            problems.append(
                f"changed: {name}\n  manifest: {expected[name]}\n"
                f"  current:  {actual[name]}"
            )
    return problems


def check(manifest_path: str | None = None) -> list[str]:
    """Drift lines between the committed manifest and the live surfaces."""
    manifest_path = manifest_path or MANIFEST_PATH
    if not os.path.exists(manifest_path):
        return [f"manifest missing: {manifest_path} (run with --update)"]
    with open(manifest_path) as fh:
        expected = json.load(fh)
    actual = describe_all()
    problems: list[str] = []
    for module in sorted(set(expected) | set(actual)):
        if module not in actual:
            problems.append(f"manifest tracks unknown module: {module}")
            continue
        if module not in expected:
            problems.append(f"untracked module in surface: {module}")
            continue
        problems.extend(
            f"{module}: {line}"
            for line in diff_surfaces(expected[module], actual[module])
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the manifest from the current surface",
    )
    args = parser.parse_args(argv)
    if args.update:
        surface = describe_all()
        with open(MANIFEST_PATH, "w") as fh:
            json.dump(surface, fh, indent=2, sort_keys=True)
            fh.write("\n")
        count = sum(len(v) for v in surface.values())
        print(
            f"wrote {MANIFEST_PATH} ({count} exports across "
            f"{len(surface)} modules)"
        )
        return 0
    problems = check()
    if problems:
        print("public API drift detected:")
        for p in problems:
            print(f"- {p}")
        print("\nif intentional, re-bless with: python tools/check_public_api.py --update")
        return 1
    print("public API matches the manifest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
