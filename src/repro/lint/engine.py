"""The lint engine: rule registry, suppression comments, output formats.

A rule is a named check over one parsed module.  The engine owns
everything rule-agnostic — file discovery, parsing, the suppression
protocol, and the two output formats consumed by humans (``text``) and by
tooling (``json``).

Suppression protocol
--------------------
``# repro-lint: disable=rule-a,rule-b -- reason`` as a *trailing* comment
suppresses those rules on that line only; the same comment on a line of its
own suppresses them for the whole file.  ``disable=all`` matches every
rule.  The reason string after ``--`` is mandatory by convention (reviewed
suppressions must say why); the engine records findings suppressed without
one under the pseudo-rule ``suppression-without-reason`` so bare waivers
are themselves lint findings.  Suppressions that no longer match any live
finding are reported by :func:`check_suppressions` under the pseudo-rule
``stale-suppression`` (see ``repro lint --check-suppressions``).
"""

from __future__ import annotations

import ast
import dataclasses
import io
import json
import re
import tokenize
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Finding",
    "LintRule",
    "SourceModule",
    "all_rules",
    "check_suppressions",
    "dotted_name",
    "format_findings",
    "get_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register_rule",
    "rule_inventory",
]


@dataclasses.dataclass(frozen=True)
class Finding:
    """One lint violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


def dotted_name(node: ast.AST) -> str:
    """``np.linalg.solve`` for nested attributes, ``''`` when not name-like."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return ""


_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_\-, *]+?)\s*(?:--\s*(?P<reason>\S.*))?$"
)


@dataclasses.dataclass(frozen=True)
class _SuppressionEntry:
    """One ``rule`` named by one suppression comment."""

    line: int  #: line of the comment itself
    rule: str
    reason: str
    file_level: bool


@dataclasses.dataclass
class _Suppressions:
    """Parsed suppression comments of one module."""

    #: rule -> reason (or "") for file-wide waivers.
    file_level: dict[str, str] = dataclasses.field(default_factory=dict)
    #: line -> {rule -> reason} for single-line waivers.
    by_line: dict[int, dict[str, str]] = dataclasses.field(default_factory=dict)
    #: (line, rules) of waivers missing a reason string.
    missing_reason: list[tuple[int, str]] = dataclasses.field(default_factory=list)
    #: every (line, rule) pair, for staleness auditing.
    entries: list[_SuppressionEntry] = dataclasses.field(default_factory=list)

    def covers(self, rule: str, line: int) -> bool:
        for table in (self.file_level, self.by_line.get(line, {})):
            if rule in table or "all" in table or "*" in table:
                return True
        return False


def _iter_comment_tokens(text: str) -> Iterator[tuple[int, int, str]]:
    """``(line, col, comment_text)`` for every real comment token.

    Tokenizing (rather than regex-scanning every line) keeps suppression
    syntax quoted inside strings/docstrings — like the protocol example in
    this module's own docstring — from parsing as a live suppression.
    """
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.start[1], tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparseable tail: fall back silently; the lint pass itself will
        # report the syntax error.
        return


def _parse_suppressions(text: str) -> _Suppressions:
    sup = _Suppressions()
    lines = text.splitlines()
    for lineno, col, comment in _iter_comment_tokens(text):
        match = _SUPPRESS_RE.search(comment)
        if match is None:
            continue
        rules = [r.strip() for r in match.group(1).split(",") if r.strip()]
        reason = match.group("reason") or ""
        if not reason:
            sup.missing_reason.append((lineno, ",".join(rules)))
        source_line = lines[lineno - 1] if lineno - 1 < len(lines) else ""
        own_line = not source_line[:col].strip()
        target = sup.file_level if own_line else sup.by_line.setdefault(lineno, {})
        for rule in rules:
            target[rule] = reason
            sup.entries.append(
                _SuppressionEntry(
                    line=lineno, rule=rule, reason=reason, file_level=own_line
                )
            )
    return sup


@dataclasses.dataclass
class SourceModule:
    """One parsed python file handed to every rule."""

    path: str
    text: str
    tree: ast.Module

    @property
    def posix_path(self) -> str:
        return Path(self.path).as_posix()


class LintRule:
    """Base class for a per-file lint pass.

    Subclasses set :attr:`name` / :attr:`description` and implement
    :meth:`check`, yielding :class:`Finding` objects (the engine applies
    suppressions afterwards, rules never need to).
    """

    name: str = "abstract"
    description: str = ""

    def check(self, module: SourceModule) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: SourceModule, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.name,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_REGISTRY: dict[str, LintRule] = {}


def register_rule(rule_cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding one instance of the rule to the registry."""
    rule = rule_cls()
    if rule.name in _REGISTRY:
        raise ValueError(f"duplicate lint rule name {rule.name!r}")
    _REGISTRY[rule.name] = rule
    return rule_cls


def _load_builtin_rules() -> None:
    """Make ``lint_paths``/``get_rules`` see the built-in rules regardless
    of which ``repro.lint`` submodule the caller imported first."""
    from repro.lint import rules  # noqa: F401


def all_rules() -> tuple[LintRule, ...]:
    _load_builtin_rules()
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def get_rules(names: Sequence[str] | None = None) -> tuple[LintRule, ...]:
    """Resolve rule names to rule instances (``None`` = all rules)."""
    if names is None:
        return all_rules()
    _load_builtin_rules()
    unknown = sorted(set(names) - set(_REGISTRY))
    if unknown:
        raise ValueError(
            f"unknown lint rule(s) {unknown}; available: {sorted(_REGISTRY)}"
        )
    return tuple(_REGISTRY[name] for name in names)


def rule_inventory() -> list[str]:
    """Sorted names of every registered rule."""
    _load_builtin_rules()
    return sorted(_REGISTRY)


def _parse_module(text: str, path: str) -> SourceModule | Finding:
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        return Finding(
            rule="syntax-error",
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            message=f"file does not parse: {exc.msg}",
        )
    return SourceModule(path=path, text=text, tree=tree)


def _missing_reason_findings(path: str, sup: _Suppressions) -> list[Finding]:
    return [
        Finding(
            rule="suppression-without-reason",
            path=path,
            line=lineno,
            col=1,
            message=(
                f"suppression of {rule_list!r} has no reason string; "
                "append ' -- <why this is safe>'"
            ),
        )
        for lineno, rule_list in sup.missing_reason
    ]


def lint_source(
    text: str,
    path: str = "<string>",
    rules: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint one source string; returns unsuppressed findings sorted by line."""
    parsed = _parse_module(text, path)
    if isinstance(parsed, Finding):
        return [parsed]
    suppressions = _parse_suppressions(text)
    findings = [
        f
        for rule in get_rules(rules)
        for f in rule.check(parsed)
        if not suppressions.covers(f.rule, f.line)
    ]
    findings.extend(_missing_reason_findings(path, suppressions))
    return sorted(findings, key=lambda f: (f.line, f.col, f.rule))


def lint_file(path: str | Path, rules: Sequence[str] | None = None) -> list[Finding]:
    path = Path(path)
    return lint_source(path.read_text(), str(path), rules)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into sorted ``.py`` files (skips caches)."""
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            yield from sorted(
                p for p in entry.rglob("*.py") if "__pycache__" not in p.parts
            )
        else:
            yield entry


def lint_paths(
    paths: Iterable[str | Path], rules: Sequence[str] | None = None
) -> list[Finding]:
    """Lint every python file under ``paths`` (files or directories).

    Findings honour each file's suppression comments and come back sorted
    by ``(path, line, col, rule)``.
    """
    get_rules(rules)  # unknown names fail before any file is read
    findings = [f for path in iter_python_files(paths) for f in lint_file(path, rules)]
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def check_suppressions(paths: Iterable[str | Path]) -> list[Finding]:
    """Report suppression comments that no longer match any live finding.

    Every rule runs with suppressions *recorded but not applied*; a
    suppression entry is live when at least one raw finding in its scope
    (its line for trailing comments, the whole file for own-line comments)
    names its rule — or any rule, for ``all``/``*`` waivers.  Stale entries
    come back as ``stale-suppression`` findings so the gate in
    ``tools/run_checks.py`` can fail on waivers that outlived their bug.
    """
    stale: list[Finding] = []
    for path in iter_python_files(paths):
        text = path.read_text()
        module = _parse_module(text, str(path))
        if isinstance(module, Finding):
            stale.append(module)  # parse errors pass through
            continue
        raw = [f for rule in all_rules() for f in rule.check(module)]
        for entry in _parse_suppressions(text).entries:
            in_scope = [
                f for f in raw if entry.file_level or f.line == entry.line
            ]
            if entry.rule in ("all", "*"):
                live = bool(in_scope)
            else:
                live = any(f.rule == entry.rule for f in in_scope)
            if not live:
                scope = "file-level" if entry.file_level else "line"
                stale.append(
                    Finding(
                        rule="stale-suppression",
                        path=module.path,
                        line=entry.line,
                        col=1,
                        message=(
                            f"{scope} suppression of {entry.rule!r} no longer "
                            "matches any finding; delete the comment"
                        ),
                    )
                )
    return sorted(stale, key=lambda f: (f.path, f.line, f.col, f.rule))


def format_findings(
    findings: Sequence[Finding],
    fmt: str = "text",
    *,
    rules_enabled: Sequence[str] | None = None,
) -> str:
    """Render findings as ``text`` (one line each) or machine ``json``.

    ``rules_enabled`` (json only) embeds the active rule inventory in the
    payload so baseline tooling can detect silently-vanished rules, not
    just new findings.
    """
    if fmt == "json":
        counts: dict[str, int] = {}
        for f in findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        payload = {
            "findings": [f.as_dict() for f in findings],
            "counts_by_rule": dict(sorted(counts.items())),
            "total": len(findings),
        }
        if rules_enabled is not None:
            payload["rules_enabled"] = sorted(rules_enabled)
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt == "text":
        if not findings:
            return "repro-lint: no findings"
        lines = [f.render() for f in findings]
        lines.append(f"repro-lint: {len(findings)} finding(s)")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}; choose 'text' or 'json'")
