"""The lint passes encoding this codebase's parallel-correctness invariants.

Each rule documents its rationale in the class docstring; worked examples
and the suppression syntax live in ``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import (
    Finding,
    LintRule,
    SourceModule,
    dotted_name,
    register_rule,
)
from repro.lint.hotpaths import HOT_DECORATORS, hot_functions_for

__all__ = [
    "NoAllocInHot",
    "NoBlindExcept",
    "NondeterminismInReplay",
    "dotted_name",
]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _iter_functions(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Yield ``(qualname, node)`` for every function/method in the module."""

    def walk(node: ast.AST, prefix: str) -> Iterator[tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNC_NODES):
                qual = f"{prefix}{child.name}"
                yield qual, child
                yield from walk(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    for qual, node in walk(tree, ""):
        yield qual, node  # type: ignore[misc]


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted_name(target)
        if name:
            names.add(name.rsplit(".", maxsplit=1)[-1])
    return names


# ---------------------------------------------------------------------------
# no-alloc-in-hot
# ---------------------------------------------------------------------------

#: numpy constructors that always materialize a fresh buffer.
_ALLOC_FUNCS = frozenset(
    {
        "array",
        "column_stack",
        "concatenate",
        "copy",
        "empty",
        "empty_like",
        "full",
        "full_like",
        "hstack",
        "kron",
        "ones",
        "ones_like",
        "outer",
        "repeat",
        "stack",
        "tile",
        "vstack",
        "zeros",
        "zeros_like",
    }
)
_NUMPY_ALIASES = frozenset({"np", "numpy"})


@register_rule
class NoAllocInHot(LintRule):
    """Allocations inside hot kernels silently regress the PR-1 speedups.

    Scope: functions decorated ``@hot_kernel`` or listed in
    :data:`repro.lint.hotpaths.HOT_PATH_MANIFEST`.  Flagged anywhere in the
    function: numpy constructor calls (``np.zeros`` / ``np.empty`` /
    ``np.concatenate`` / ...) and ``.copy()`` method calls.  Flagged only
    inside ``for``/``while`` bodies (the per-iteration hazard): plain
    assignments whose value is a binary operation, which materialize a
    temporary every pass — use ``out=`` kwargs or augmented assignment.
    """

    name = "no-alloc-in-hot"
    description = "allocation or operator temporary inside a hot kernel"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        manifest = hot_functions_for(module.posix_path)
        for qual, fn in _iter_functions(module.tree):
            if qual in manifest or _decorator_names(fn) & HOT_DECORATORS:
                yield from self._check_function(module, qual, fn)

    def _check_function(
        self, module: SourceModule, qual: str, fn: ast.AST
    ) -> Iterator[Finding]:
        loop_lines = _loop_body_lines(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                head, _, leaf = name.rpartition(".")
                if leaf in _ALLOC_FUNCS and head.split(".")[0] in _NUMPY_ALIASES:
                    yield self.finding(
                        module,
                        node,
                        f"hot kernel {qual!r} allocates via {name}(); "
                        "preallocate outside the kernel or reuse a workspace",
                    )
                elif leaf == "copy" and head and not node.args:
                    yield self.finding(
                        module,
                        node,
                        f"hot kernel {qual!r} copies {head!r}; copies in hot "
                        "paths must be reviewed (suppress with a reason) or "
                        "hoisted",
                    )
            elif (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.BinOp)
                and node.lineno in loop_lines
            ):
                yield self.finding(
                    module,
                    node,
                    f"hot kernel {qual!r} builds an operator temporary every "
                    "loop iteration; use an out= contraction or augmented "
                    "assignment",
                )


def _loop_body_lines(fn: ast.AST) -> set[int]:
    """Line numbers inside ``for``/``while`` bodies of ``fn`` (not nested
    function definitions — those are linted on their own)."""
    lines: set[int] = set()

    def visit(node: ast.AST, in_loop: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNC_NODES) and node is not fn:
                continue
            child_in_loop = in_loop or isinstance(child, (ast.For, ast.While))
            if in_loop and hasattr(child, "lineno"):
                lines.add(child.lineno)
            visit(child, child_in_loop)

    visit(fn, False)
    return lines


# ---------------------------------------------------------------------------
# nondeterminism-in-replay
# ---------------------------------------------------------------------------

_WALLCLOCK = frozenset(
    {"time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
     "datetime.datetime.now", "datetime.datetime.utcnow"}
)
_SEEDED_RNG_FACTORIES = frozenset({"default_rng", "Generator", "SeedSequence"})
_DICT_ITERATORS = frozenset({"items", "keys", "values"})
_REDUCTIONS = frozenset({"allreduce", "reduce", "sum", "verified_allreduce"})


def _is_replay_scope(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Checkpoint-replayed = takes a ``checkpoint`` argument or builds a
    ``LoopCheckpointer`` / calls ``<checkpoint>.resume() / .save()``."""
    args = fn.args
    names = [
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    ]
    if any("checkpoint" in n for n in names):
        return True
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name.rpartition(".")[2] == "LoopCheckpointer":
                return True
            base, _, leaf = name.rpartition(".")
            if leaf in ("resume", "save") and "checkpoint" in base:
                return True
    return False


@register_rule
class NondeterminismInReplay(LintRule):
    """Checkpoint replay promises bit-identical resumption (PR 2).

    Anything that differs between the original run and the replayed one —
    wall-clock reads, the unseeded global numpy RNG, or hash-order dict
    iteration feeding a reduction — silently breaks that contract.  The
    rule scopes itself to functions that participate in checkpointing (a
    ``checkpoint`` parameter or ``LoopCheckpointer`` usage).
    """

    name = "nondeterminism-in-replay"
    description = "nondeterministic construct inside a checkpoint-replayed loop"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        replay = [
            (qual, fn)
            for qual, fn in _iter_functions(module.tree)
            if _is_replay_scope(fn)
        ]
        quals = {qual for qual, _ in replay}
        for qual, fn in replay:
            # A nested def inside a replay scope is covered by the outer
            # walk; re-checking it on its own would duplicate findings.
            if any(qual.startswith(outer + ".") for outer in quals if outer != qual):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    yield from self._check_call(module, qual, node)
                elif isinstance(node, (ast.For, ast.comprehension)):
                    yield from self._check_iteration(module, qual, node)

    def _check_call(
        self, module: SourceModule, qual: str, node: ast.Call
    ) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name in _WALLCLOCK:
            yield self.finding(
                module,
                node,
                f"{name}() inside checkpoint-replayed {qual!r} differs on "
                "replay; thread timestamps through the snapshot instead",
            )
            return
        parts = name.split(".")
        if (
            len(parts) >= 3
            and parts[0] in _NUMPY_ALIASES
            and parts[1] == "random"
            and parts[2] not in _SEEDED_RNG_FACTORIES
        ):
            yield self.finding(
                module,
                node,
                f"unseeded global RNG {name}() inside checkpoint-replayed "
                f"{qual!r}; pass an explicit np.random.Generator",
            )

    def _check_iteration(
        self, module: SourceModule, qual: str, node: ast.For | ast.comprehension
    ) -> Iterator[Finding]:
        iter_expr = node.iter
        if not (
            isinstance(iter_expr, ast.Call)
            and isinstance(iter_expr.func, ast.Attribute)
            and iter_expr.func.attr in _DICT_ITERATORS
        ):
            return
        if isinstance(node, ast.For):
            feeds_reduction = any(
                isinstance(sub, ast.AugAssign)
                or (
                    isinstance(sub, ast.Call)
                    and dotted_name(sub.func).rpartition(".")[2] in _REDUCTIONS
                )
                for stmt in node.body
                for sub in ast.walk(stmt)
            )
        else:  # comprehension: assume its consumer accumulates
            feeds_reduction = True
        if feeds_reduction:
            target = dotted_name(iter_expr.func.value) or "<mapping>"
            yield self.finding(
                module,
                iter_expr,
                f"iteration over {target}.{iter_expr.func.attr}() feeds a "
                f"reduction inside checkpoint-replayed {qual!r}; wrap in "
                "sorted(...) so replay order is deterministic",
            )


# ---------------------------------------------------------------------------
# no-blind-except
# ---------------------------------------------------------------------------


@register_rule
class NoBlindExcept(LintRule):
    """``except Exception`` hides injected faults, aborts and real bugs.

    The resilience layer communicates through typed exceptions
    (``InjectedFault``, ``SpmdAbort``, ``MessageTimeout``); a blanket
    handler that can swallow them turns a diagnosed failure into silent
    corruption.  Catch the specific expected types, or end the handler
    with an unconditional re-raise (a ``raise`` buried inside an ``if``
    still swallows every other path).
    """

    name = "no-blind-except"
    description = "blanket except handler that can swallow typed faults"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_blind(node.type):
                continue
            always_reraises = bool(node.body) and isinstance(
                node.body[-1], ast.Raise
            )
            if not always_reraises:
                caught = dotted_name(node.type) if node.type else "everything"
                yield self.finding(
                    module,
                    node,
                    f"handler catches {caught} without unconditionally "
                    "re-raising; name the expected exception types (typed "
                    "faults must propagate)",
                )

    @staticmethod
    def _is_blind(type_node: ast.AST | None) -> bool:
        if type_node is None:
            return True
        names = (
            [dotted_name(e) for e in type_node.elts]
            if isinstance(type_node, ast.Tuple)
            else [dotted_name(type_node)]
        )
        return any(n in ("Exception", "BaseException") for n in names)
