"""Whole-program lint rules over the call graph and flow analyses.

Two rule families, each closing a hole the per-file rules in
:mod:`repro.lint.rules` cannot see:

* ``impure-cache-key`` — everything reachable from
  ``CalculationRequest.to_dict``/``canonical_json``/``cache_key`` must be
  bit-deterministic, or the content-addressed store in ``repro.serve``
  aliases distinct calculations / misses identical ones.
* ``lock-order-cycle`` / ``blocking-under-lock`` — the static lock graph
  of the serving layer: conflicting acquisition orders, re-acquiring a
  non-reentrant lock, and blocking operations (``join``, ``wait``,
  collectives, disk I/O, timed queue gets) while holding an unrelated
  lock.

Worked example findings live in ``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.lint.callgraph import FunctionInfo, Project
from repro.lint.engine import (
    Finding,
    ProjectRule,
    SourceModule,
    dotted_name,
    register_project_rule,
)
from repro.lint.flow import LockAnalysis, describe_chain, reachable_with_paths
from repro.lint.rules import _NUMPY_ALIASES, _SEEDED_RNG_FACTORIES

__all__ = [
    "BlockingUnderLock",
    "ImpureCacheKey",
    "LockOrderCycle",
]


# ---------------------------------------------------------------------------
# impure-cache-key
# ---------------------------------------------------------------------------

#: the request-serialization entry points whose closure must be pure.
_PURITY_ROOTS = (
    "CalculationRequest.to_dict",
    "CalculationRequest.canonical_json",
    "CalculationRequest.cache_key",
)
_IMPURE_OS_LEAVES = frozenset(
    {"getenv", "getpid", "urandom", "listdir", "uname", "getcwd"}
)
_IMPURE_UUID_LEAVES = frozenset({"uuid1", "uuid4"})
_DATETIME_NOW_LEAVES = frozenset({"now", "utcnow", "today"})


@register_project_rule
class ImpureCacheKey(ProjectRule):
    """Nothing nondeterministic may feed the content-addressed cache key.

    ``CalculationRequest.canonical_json`` is sha256-hashed into the key
    the entire ``repro.serve`` reuse hierarchy trusts: a ``time.time()``
    or hash-order set iteration anywhere in its call closure makes
    identical calculations miss the cache — or worse, lets distinct ones
    alias after an interpreter restart (``PYTHONHASHSEED``).  The rule
    walks everything reachable from the serialization roots over *both*
    call and reference edges (soundness over precision) and flags
    wall-clock reads, RNG draws, environment/PID reads, locale-dependent
    formatting, ``hash()``/``id()``, and iteration over sets.
    """

    name = "impure-cache-key"
    description = "nondeterministic construct reachable from the cache key"

    def check(
        self, project: Project, modules: Sequence[SourceModule]
    ) -> Iterator[Finding]:
        roots = [
            fn.uid
            for suffix in _PURITY_ROOTS
            for fn in project.find_functions(suffix)
        ]
        if not roots:
            return
        chains = reachable_with_paths(project, roots, kinds=("call", "ref"))
        for uid, chain in chains.items():
            info = project.functions.get(uid)
            if info is None:
                continue
            for node, desc in self._impure_constructs(project, info):
                yield self.finding_at(
                    info.path,
                    node,
                    f"{desc} in {info.qualname!r} is reachable from the "
                    f"cache key ({describe_chain(chain)}); request "
                    "serialization must be bit-deterministic",
                )

    def _impure_constructs(
        self, project: Project, info: FunctionInfo
    ) -> Iterator[tuple[ast.AST, str]]:
        for node in project.scope_nodes(info):
            if isinstance(node, ast.Call):
                desc = self._impure_call(dotted_name(node.func))
                if desc:
                    yield node, desc
            elif isinstance(node, ast.Attribute):
                if dotted_name(node) == "os.environ":
                    yield node, "os.environ read"
            elif isinstance(node, (ast.For, ast.comprehension)):
                target = node.iter
                if self._is_set_expr(target):
                    yield target, "iteration over a set (hash order)"

    @staticmethod
    def _is_set_expr(expr: ast.AST) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(expr, ast.Call)
            and dotted_name(expr.func) in ("set", "frozenset")
        )

    @staticmethod
    def _impure_call(name: str) -> str | None:
        if not name:
            return None
        parts = name.split(".")
        head, _, leaf = name.rpartition(".")
        if parts[0] == "time":
            return f"wall-clock read {name}()"
        if leaf in _DATETIME_NOW_LEAVES and (
            "datetime" in parts or "date" in parts
        ):
            return f"wall-clock read {name}()"
        if parts[0] == "random":
            return f"RNG draw {name}()"
        if (
            parts[0] in _NUMPY_ALIASES
            and "random" in parts
            and leaf not in _SEEDED_RNG_FACTORIES
        ):
            return f"unseeded RNG draw {name}()"
        if parts[0] == "secrets":
            return f"RNG draw {name}()"
        if leaf in _IMPURE_UUID_LEAVES:
            return f"UUID generation {name}()"
        if parts[0] == "os" and leaf in _IMPURE_OS_LEAVES:
            return f"environment read {name}()"
        if name in ("hash", "id"):
            return f"per-process builtin {name}()"
        if parts[0] == "locale":
            return f"locale-dependent {name}()"
        if leaf == "strftime":
            return f"locale-dependent formatting {name}()"
        return None


# ---------------------------------------------------------------------------
# lock-order-cycle / blocking-under-lock
# ---------------------------------------------------------------------------


@register_project_rule
class LockOrderCycle(ProjectRule):
    """Conflicting lock-acquisition orders deadlock under contention.

    From the static lock graph (see :class:`repro.lint.flow.LockAnalysis`):
    if one code path acquires A then B while another acquires B then A —
    directly or through resolved calls — two threads can each hold one
    lock and wait forever for the other.  Re-acquiring a non-reentrant
    ``Lock`` already held deadlocks unconditionally and is flagged too.
    """

    name = "lock-order-cycle"
    description = "cyclic lock-acquisition order or non-reentrant re-acquire"

    def check(
        self, project: Project, modules: Sequence[SourceModule]
    ) -> Iterator[Finding]:
        analysis = LockAnalysis(project)
        for cycle in analysis.cycles():
            edges = [
                (cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
            ]
            witnesses = [analysis.edge_witness(src, dst) for src, dst in edges]
            anchor = next((w for w in witnesses if w is not None), None)
            if anchor is None:
                continue
            order = " -> ".join((*cycle, cycle[0]))
            sites = "; ".join(
                f"{src} -> {dst} at {w.path}:{w.line}"
                for (src, dst), w in zip(edges, witnesses)
                if w is not None
            )
            yield Finding(
                rule=self.name,
                path=anchor.path,
                line=anchor.line,
                col=1,
                message=(
                    f"locks are acquired in a cyclic order {order} ({sites}); "
                    "pick one global order and stick to it"
                ),
            )
        seen: set[tuple[str, str, int]] = set()
        for lock_id, fn_uid, path, line in analysis.self_deadlocks:
            key = (lock_id, path, line)
            if key in seen:
                continue
            seen.add(key)
            yield Finding(
                rule=self.name,
                path=path,
                line=line,
                col=1,
                message=(
                    f"non-reentrant lock {lock_id} is acquired while already "
                    f"held (in {fn_uid.rpartition(':')[2]}) — this "
                    "self-deadlocks; use an RLock or restructure"
                ),
            )


@register_project_rule
class BlockingUnderLock(ProjectRule):
    """Blocking while holding a lock serializes — or deadlocks — the server.

    ``join``/``wait``/collectives/disk I/O/timed queue gets made while a
    lock is held stall every other thread contending for it; the only
    exempt shape is the classic monitor pattern, ``cond.wait()`` while
    holding exactly the lock the condition releases.  Facts propagate
    through resolved calls, so ``with self._lock: self.store.put(...)``
    is flagged when ``put`` does disk I/O anywhere inside.  Call sites
    pinning a callee's ``timeout`` parameter to literal ``0`` (the
    non-blocking drain idiom) are exempt.
    """

    name = "blocking-under-lock"
    description = "blocking operation while holding a lock"

    def check(
        self, project: Project, modules: Sequence[SourceModule]
    ) -> Iterator[Finding]:
        analysis = LockAnalysis(project)
        seen: set[tuple[str, int, str, tuple[str, ...]]] = set()
        for item in analysis.held_blocking:
            key = (item.path, item.line, item.fact.desc, item.held)
            if key in seen:
                continue
            seen.add(key)
            held = ", ".join(item.held)
            origin = (
                ""
                if len(item.fact.chain) <= 1
                else f" (via {describe_chain(item.fact.chain)} at "
                f"{item.fact.path}:{item.fact.line})"
            )
            yield Finding(
                rule=self.name,
                path=item.path,
                line=item.line,
                col=1,
                message=(
                    f"blocking {item.fact.desc} while holding {held}"
                    f"{origin}; release the lock first or make the slow "
                    "work lock-free"
                ),
            )
