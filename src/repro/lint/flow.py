"""Reachability and lock analyses over the project call graph.

This is the dataflow layer between :mod:`repro.lint.callgraph` (which only
knows who calls whom) and :mod:`repro.lint.project_rules` (which decide
what is a finding).  Two analyses live here:

* **reachability** — everything a set of root functions can reach over
  chosen edge kinds, with one witness chain per function for diagnostics;
* **lock analysis** — a static lock graph: which locks exist (including
  ``Condition(self._lock)`` aliasing back to the lock it wraps), which
  acquisition orders occur (directly or through calls), and which blocking
  operations (``join``/``wait``/collectives/disk I/O/timed queue gets)
  run while a lock is held.

Both are conservative in the same direction the call graph is:
unresolvable dynamic dispatch drops edges (documented in
:mod:`repro.lint.callgraph`), so these analyses can miss, never invent,
paths — except for timeouts, where a blocking fact bounded by a caller
``timeout`` parameter is kept unless the call site pins it to a literal
``0`` (the ``queue.pop(timeout=0)`` drain idiom).
"""

from __future__ import annotations

import ast
import dataclasses
from collections import deque
from typing import Iterable, Sequence

from repro.lint.callgraph import ClassInfo, FunctionInfo, ModuleInfo, Project
from repro.lint.engine import dotted_name
from repro.lint.rules import _NUMPY_ALIASES

__all__ = [
    "BlockingFact",
    "HeldBlocking",
    "LockAcquisition",
    "LockAnalysis",
    "LockDecl",
    "reachable_with_paths",
]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFERRED_NODES = (*_FUNC_NODES, ast.Lambda)


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------


def reachable_with_paths(
    project: Project,
    roots: Iterable[str],
    kinds: Sequence[str] = ("call",),
) -> dict[str, tuple[str, ...]]:
    """BFS over the chosen edge kinds; ``uid -> (root, ..., uid)`` witness."""
    wanted = set(kinds)
    paths: dict[str, tuple[str, ...]] = {}
    queue: deque[str] = deque()
    for root in roots:
        if root not in paths:
            paths[root] = (root,)
            queue.append(root)
    while queue:
        uid = queue.popleft()
        for edge in project.edges_from.get(uid, []):
            if edge.kind in wanted and edge.callee not in paths:
                paths[edge.callee] = paths[uid] + (edge.callee,)
                queue.append(edge.callee)
    return paths


# ---------------------------------------------------------------------------
# lock analysis
# ---------------------------------------------------------------------------

_LOCK_CTORS = frozenset({"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"})
_REENTRANT = frozenset({"RLock"})
#: comm methods that block until every rank arrives.
_COLLECTIVES = frozenset(
    {
        "allgather",
        "allreduce",
        "alltoall",
        "barrier",
        "bcast",
        "gather",
        "reduce",
        "scatter",
        "verified_allreduce",
    }
)
_DISK_LEAVES = frozenset(
    {"open", "replace", "fsync", "read_text", "write_text", "read_bytes",
     "write_bytes", "save", "savez", "savez_compressed", "unlink", "rename"}
)


@dataclasses.dataclass(frozen=True)
class LockDecl:
    """One statically-declared lock (class attribute or module global)."""

    lock_id: str  #: ``module:Class.attr`` or ``module:name``
    kind: str  #: ctor leaf: Lock / RLock / Condition / ...
    canonical: str  #: underlying lock id (``Condition(self.x)`` -> x's id)

    @property
    def reentrant(self) -> bool:
        return self.kind in _REENTRANT


@dataclasses.dataclass(frozen=True)
class BlockingFact:
    """One operation that can block, attributed to where it happens."""

    desc: str
    path: str
    line: int
    #: lock id this op releases while blocked (``Condition.wait``), if any.
    releases: str | None
    #: blocking time bounded by a caller-supplied ``timeout`` parameter.
    timeout_param: bool
    #: function uids from the summarized fn down to the fact's own fn.
    chain: tuple[str, ...]

    def rechained(self, caller: str) -> "BlockingFact":
        return dataclasses.replace(self, chain=(caller,) + self.chain)


@dataclasses.dataclass(frozen=True)
class LockAcquisition:
    """Acquiring ``dst`` while already holding ``src``."""

    src: str
    dst: str
    fn_uid: str
    path: str
    line: int
    via: str  #: "" for a direct ``with``; call-chain text when transitive


@dataclasses.dataclass(frozen=True)
class HeldBlocking:
    """A blocking fact occurring while ``held`` locks are owned."""

    held: tuple[str, ...]
    fact: BlockingFact
    fn_uid: str
    path: str
    line: int  #: the line inside ``fn_uid`` (call site for transitive facts)


@dataclasses.dataclass
class _FnLockFacts:
    """Per-function raw events before transitive propagation."""

    acquisitions: list[LockAcquisition] = dataclasses.field(default_factory=list)
    self_deadlocks: list[tuple[str, int]] = dataclasses.field(default_factory=list)
    direct_blocking: list[tuple[tuple[str, ...], BlockingFact]] = dataclasses.field(
        default_factory=list
    )
    #: (held, call node, callee uids, literal-zero-timeout?) per resolved call.
    calls: list[tuple[tuple[str, ...], ast.Call, tuple[str, ...], bool]] = (
        dataclasses.field(default_factory=list)
    )
    #: every lock acquired by a direct ``with`` in this function.
    acquires: set[str] = dataclasses.field(default_factory=set)


class LockAnalysis:
    """Static lock graph + blocking-under-lock facts for a whole project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.locks: dict[str, LockDecl] = {}
        #: per-class/module lookup: (module, class or None, attr) -> decl.
        self._decl_index: dict[tuple[str, str | None, str], LockDecl] = {}
        self.acquisitions: list[LockAcquisition] = []
        self.self_deadlocks: list[tuple[str, str, str, int]] = []
        self.held_blocking: list[HeldBlocking] = []
        #: transitive summaries: uid -> (acquired lock ids, blocking facts).
        self.summaries: dict[str, tuple[set[str], dict[tuple, BlockingFact]]] = {}
        self._discover_locks()
        self._fn_facts = {
            uid: self._scan_function(info)
            for uid, info in list(project.functions.items())
        }
        self._propagate()
        self._contextualize()

    # -- lock discovery ------------------------------------------------------

    def _discover_locks(self) -> None:
        pending_conditions: list[tuple[ClassInfo | None, ModuleInfo, str, ast.Call]] = []
        for mod in self.project.modules.values():
            for stmt in mod.source.tree.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Call)
                ):
                    leaf = dotted_name(stmt.value.func).rpartition(".")[2]
                    if leaf in _LOCK_CTORS:
                        name = stmt.targets[0].id
                        if leaf == "Condition":
                            pending_conditions.append((None, mod, name, stmt.value))
                        else:
                            self._add_decl(mod.name, None, name, leaf, None)
            for cls in mod.classes.values():
                for attr, call in cls.attr_ctors.items():
                    leaf = dotted_name(call.func).rpartition(".")[2]
                    if leaf not in _LOCK_CTORS:
                        continue
                    if leaf == "Condition":
                        pending_conditions.append((cls, mod, attr, call))
                    else:
                        self._add_decl(mod.name, cls.name, attr, leaf, None)
        # Conditions second, so the lock they wrap is already declared.
        for cls, mod, attr, call in pending_conditions:
            canonical = None
            if call.args:
                arg = call.args[0]
                if (
                    cls is not None
                    and isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                    and arg.value.id == "self"
                ):
                    wrapped = self._decl_index.get((mod.name, cls.name, arg.attr))
                    canonical = wrapped.canonical if wrapped else None
                elif cls is None and isinstance(arg, ast.Name):
                    wrapped = self._decl_index.get((mod.name, None, arg.id))
                    canonical = wrapped.canonical if wrapped else None
            self._add_decl(
                mod.name, cls.name if cls else None, attr, "Condition", canonical
            )

    def _add_decl(
        self,
        module: str,
        class_name: str | None,
        attr: str,
        kind: str,
        canonical: str | None,
    ) -> None:
        scope = f"{class_name}.{attr}" if class_name else attr
        lock_id = f"{module}:{scope}"
        decl = LockDecl(lock_id=lock_id, kind=kind, canonical=canonical or lock_id)
        self.locks[lock_id] = decl
        self._decl_index[(module, class_name, attr)] = decl

    def _lock_expr_decl(
        self, info: FunctionInfo, expr: ast.expr
    ) -> LockDecl | None:
        """Resolve a ``with``-statement context expression to a lock decl."""
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id in ("self", "cls")
            and info.class_name is not None
        ):
            return self._decl_index.get((info.module, info.class_name, expr.attr))
        if isinstance(expr, ast.Name):
            return self._decl_index.get((info.module, None, expr.id))
        return None

    # -- per-function scan ---------------------------------------------------

    def _scan_function(self, info: FunctionInfo) -> _FnLockFacts:
        facts = _FnLockFacts()
        calls_by_id: dict[int, list[str]] = {}
        for edge in self.project.edges_from.get(info.uid, []):
            if edge.kind == "call" and isinstance(edge.node, ast.Call):
                calls_by_id.setdefault(id(edge.node), []).append(edge.callee)
        root = info.node
        body: Iterable[ast.AST]
        if isinstance(root, ast.Lambda):
            body = [root.body]
        elif isinstance(root, ast.Module):
            body = [s for s in root.body if not isinstance(s, (*_FUNC_NODES, ast.ClassDef))]
        else:
            body = list(getattr(root, "body", []))
        for node in body:
            self._visit(node, (), info, facts, calls_by_id)
        return facts

    def _visit(
        self,
        node: ast.AST,
        held: tuple[str, ...],
        info: FunctionInfo,
        facts: _FnLockFacts,
        calls_by_id: dict[int, list[str]],
    ) -> None:
        if isinstance(node, _DEFERRED_NODES) or isinstance(node, ast.ClassDef):
            return  # runs later, under whatever locks are held *then*
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: list[str] = []
            for item in node.items:
                decl = self._lock_expr_decl(info, item.context_expr)
                if decl is not None:
                    self._record_acquire(decl, held, info, item.context_expr, facts)
                    acquired.append(decl.canonical)
                else:
                    # e.g. ``with open(...)`` while holding a lock.
                    self._visit(item.context_expr, held, info, facts, calls_by_id)
            inner = held + tuple(a for a in acquired if a not in held)
            for child in node.body:
                self._visit(child, inner, info, facts, calls_by_id)
            return
        if isinstance(node, ast.Call):
            self._examine_call(node, held, info, facts, calls_by_id)
        for child in ast.iter_child_nodes(node):
            self._visit(child, held, info, facts, calls_by_id)

    def _record_acquire(
        self,
        decl: LockDecl,
        held: tuple[str, ...],
        info: FunctionInfo,
        node: ast.AST,
        facts: _FnLockFacts,
    ) -> None:
        target = decl.canonical
        facts.acquires.add(target)
        if target in held:
            if not self._is_reentrant(target):
                facts.self_deadlocks.append(
                    (target, getattr(node, "lineno", info.lineno))
                )
            return
        for src in held:
            if src != target:
                facts.acquisitions.append(
                    LockAcquisition(
                        src=src,
                        dst=target,
                        fn_uid=info.uid,
                        path=info.path,
                        line=getattr(node, "lineno", info.lineno),
                        via="",
                    )
                )

    def _is_reentrant(self, lock_id: str) -> bool:
        decl = self.locks.get(lock_id)
        return decl is not None and decl.reentrant

    def _examine_call(
        self,
        call: ast.Call,
        held: tuple[str, ...],
        info: FunctionInfo,
        facts: _FnLockFacts,
        calls_by_id: dict[int, list[str]],
    ) -> None:
        fact = self._direct_blocking_fact(call, info)
        if fact is not None and held:
            facts.direct_blocking.append((held, fact))
        if fact is not None:
            # Also keep the fact for callers even when no lock is held here.
            facts.direct_blocking.append(((), fact))
        callees = calls_by_id.get(id(call))
        if callees:
            facts.calls.append(
                (held, call, tuple(callees), _has_literal_zero_timeout(call))
            )

    def _direct_blocking_fact(
        self, call: ast.Call, info: FunctionInfo
    ) -> BlockingFact | None:
        name = dotted_name(call.func)
        head, _, leaf = name.rpartition(".")
        line = call.lineno
        timeout_kw = _timeout_keyword(call)
        timeout_param = isinstance(timeout_kw, (ast.Name, ast.Attribute))
        if _is_literal_zero(timeout_kw):
            return None  # non-blocking poll

        if leaf == "wait" and isinstance(call.func, ast.Attribute):
            releases = None
            base_decl = self._lock_expr_decl(info, call.func.value)
            if base_decl is not None and base_decl.kind == "Condition":
                releases = base_decl.canonical
            return BlockingFact(
                desc=f"{name or 'wait'}()",
                path=info.path,
                line=line,
                releases=releases,
                timeout_param=timeout_param,
                chain=(info.uid,),
            )
        if leaf == "join" and isinstance(call.func, ast.Attribute) and not call.args:
            # ``str.join`` always takes the iterable positionally.
            return BlockingFact(
                desc=f"{name}()", path=info.path, line=line,
                releases=None, timeout_param=timeout_param, chain=(info.uid,),
            )
        if leaf in _COLLECTIVES:
            return BlockingFact(
                desc=f"collective {leaf}()", path=info.path, line=line,
                releases=None, timeout_param=False, chain=(info.uid,),
            )
        if name == "time.sleep":
            return BlockingFact(
                desc="time.sleep()", path=info.path, line=line,
                releases=None, timeout_param=False, chain=(info.uid,),
            )
        if leaf == "get" and timeout_kw is not None:
            return BlockingFact(
                desc=f"{name}(timeout=...)", path=info.path, line=line,
                releases=None, timeout_param=timeout_param, chain=(info.uid,),
            )
        if self._is_disk_io(name, head, leaf, call):
            return BlockingFact(
                desc=f"disk I/O via {name or leaf}()", path=info.path, line=line,
                releases=None, timeout_param=False, chain=(info.uid,),
            )
        return None

    @staticmethod
    def _is_disk_io(name: str, head: str, leaf: str, call: ast.Call) -> bool:
        if leaf == "open" and not head:
            return True
        if name in ("os.replace", "os.fsync", "os.remove", "shutil.move"):
            return True
        if name in ("json.dump", "json.load"):
            return True  # the file-handle forms used by the result store
        if head.split(".")[0] in _NUMPY_ALIASES and leaf in (
            "save", "savez", "savez_compressed", "load",
        ):
            return True
        if leaf in ("read_text", "write_text", "read_bytes", "write_bytes"):
            return True
        return False

    # -- transitive propagation ---------------------------------------------

    def _propagate(self) -> None:
        summaries: dict[str, tuple[set[str], dict[tuple, BlockingFact]]] = {}
        for uid, facts in self._fn_facts.items():
            blocking = {
                (f.desc, f.path, f.line): f for _, f in facts.direct_blocking
            }
            summaries[uid] = (set(facts.acquires), blocking)
        changed = True
        while changed:
            changed = False
            for uid, facts in self._fn_facts.items():
                acquires, blocking = summaries[uid]
                for _, _, callees, literal_zero in facts.calls:
                    for callee in callees:
                        sub = summaries.get(callee)
                        if sub is None:
                            continue
                        sub_acquires, sub_blocking = sub
                        if not sub_acquires <= acquires:
                            acquires |= sub_acquires
                            changed = True
                        for key, fact in sub_blocking.items():
                            if literal_zero and fact.timeout_param:
                                continue
                            if key not in blocking:
                                blocking[key] = fact.rechained(uid)
                                changed = True
        self.summaries = summaries

    def _contextualize(self) -> None:
        """Turn per-function facts + summaries into held-context findings."""
        for uid, facts in self._fn_facts.items():
            info = self.project.functions[uid]
            self.acquisitions.extend(facts.acquisitions)
            for lock_id, line in facts.self_deadlocks:
                self.self_deadlocks.append((lock_id, uid, info.path, line))
            for held, fact in facts.direct_blocking:
                if held:
                    self._maybe_blocking(held, fact, uid, info.path, fact.line)
            for held, call, callees, literal_zero in facts.calls:
                if not held:
                    continue
                for callee in callees:
                    sub = self.summaries.get(callee)
                    if sub is None:
                        continue
                    sub_acquires, sub_blocking = sub
                    for target in sub_acquires:
                        if target in held:
                            if not self._is_reentrant(target):
                                self.self_deadlocks.append(
                                    (target, uid, info.path, call.lineno)
                                )
                            continue
                        for src in held:
                            if src != target:
                                self.acquisitions.append(
                                    LockAcquisition(
                                        src=src,
                                        dst=target,
                                        fn_uid=uid,
                                        path=info.path,
                                        line=call.lineno,
                                        via=" -> ".join(
                                            _short_uid(u) for u in (uid, callee)
                                        ),
                                    )
                                )
                    for fact in sub_blocking.values():
                        if literal_zero and fact.timeout_param:
                            continue
                        self._maybe_blocking(
                            held, fact.rechained(uid), uid, info.path, call.lineno
                        )

    def _maybe_blocking(
        self,
        held: tuple[str, ...],
        fact: BlockingFact,
        uid: str,
        path: str,
        line: int,
    ) -> None:
        """A blocking fact under ``held`` locks is fine only in the classic
        condition-wait shape: the *only* held lock is the one the wait
        releases."""
        offending = tuple(h for h in held if h != fact.releases)
        if offending:
            self.held_blocking.append(
                HeldBlocking(
                    held=offending, fact=fact, fn_uid=uid, path=path, line=line
                )
            )

    # -- queries -------------------------------------------------------------

    def order_edges(self) -> dict[str, set[str]]:
        graph: dict[str, set[str]] = {}
        for acq in self.acquisitions:
            graph.setdefault(acq.src, set()).add(acq.dst)
        return graph

    def cycles(self) -> list[tuple[str, ...]]:
        """Elementary cycles of the lock-order graph (canonicalized)."""
        graph = self.order_edges()
        cycles: set[tuple[str, ...]] = set()

        def dfs(start: str, node: str, path: tuple[str, ...]) -> None:
            for nxt in sorted(graph.get(node, ())):
                if nxt == start:
                    cycles.add(_canonical_cycle(path))
                elif nxt not in path and len(path) < 8:
                    dfs(start, nxt, path + (nxt,))

        for start in sorted(graph):
            dfs(start, start, (start,))
        return sorted(cycles)

    def edge_witness(self, src: str, dst: str) -> LockAcquisition | None:
        for acq in self.acquisitions:
            if acq.src == src and acq.dst == dst:
                return acq
        return None


def _canonical_cycle(path: tuple[str, ...]) -> tuple[str, ...]:
    pivot = min(range(len(path)), key=lambda i: path[i])
    return path[pivot:] + path[:pivot]


def _timeout_keyword(call: ast.Call) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == "timeout":
            return kw.value
    return None


def _is_literal_zero(expr: ast.expr | None) -> bool:
    return (
        isinstance(expr, ast.Constant)
        and isinstance(expr.value, (int, float))
        and not isinstance(expr.value, bool)
        and expr.value == 0
    )


def _has_literal_zero_timeout(call: ast.Call) -> bool:
    return _is_literal_zero(_timeout_keyword(call))


def _short_uid(uid: str) -> str:
    return uid.rpartition(":")[2]


def describe_chain(chain: Sequence[str]) -> str:
    """Human-readable call chain: ``submit -> get -> _load``."""
    return " -> ".join(_short_uid(uid) for uid in chain)
