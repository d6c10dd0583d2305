"""Abstract interpretation of numpy shapes, dtypes and layouts (PR 9).

This module infers three kinds of facts for the numpy values flowing
through the project call graph (:mod:`repro.lint.callgraph`):

* **symbolic shapes** — tuples of :class:`Dim`, each a literal size, a
  named symbol (``n_grid``, ``n_pairs``, ...) or unknown;
* **a dtype lattice** — ``bool < int64 < float32 < float64 < complex128``
  with join = widest (numpy names canonicalize onto these buckets);
* **layout facts** — C-contiguous, plain view, transposed (F-contiguous),
  strided (neither), or a reshape that must copy.

Ground truth comes from ``@array_contract`` declarations
(:func:`repro.utils.hot.array_contract`, re-exported by
:mod:`repro.lint.hotpaths`): contracts seed parameter facts inside the
declaring function, and resolved call sites are checked against the
callee's contract.  On top of the interpreter sit four project rules:

* ``silent-upcast-in-hot`` — a float64 value acquires complex128 (or
  float32 acquires float64) inside a hot kernel via ``astype``, a complex
  literal / ``1j``, or a mixed-operand broadcast; also raised when a call
  site passes a wider dtype than the callee's contract allows.
* ``undeclared-downcast-in-hot`` — the mirror rule for mixed precision: a
  float64 value is cast to float32 (``astype``, or a narrowing ``dtype=``
  on ``asarray``/``array``/``ascontiguousarray``) inside a hot kernel
  whose ``@array_contract`` does *not* declare a ``precision_policy``.
  Sanctioned mixed-precision stages (see :mod:`repro.precision`) declare
  ``precision_policy="fp32-compute"`` (or ``"fp32-wire"`` /
  ``"fp32-scratch"``) on their contract, turning the downcast into a
  reviewed policy; anything else is treated as accidental precision loss.
* ``hidden-copy-into-kernel`` — a non-contiguous view (strided slice, or
  a reshape that must copy; a bare transpose of a contiguous block is
  *allowed* into GEMM, where BLAS consumes F-contiguous operands
  natively, but not into FFT entries) reaching ``rfftn``/``fftn``-family
  calls, ``@``/``matmul``/``einsum``/``dot``, a ``SharedSlab`` publish,
  or a parameter the callee's contract declares contiguous.
* ``shape-mismatch`` — symbolic-dim conflicts against a callee's
  contract, malformed/unconfirmable contracts, and broadcasts inside hot
  kernels that materialize a temporary larger than both operands
  (mutual ``(n, 1) x (1, m)`` outer-product style).

Precision policy: every rule fires only on facts the interpreter *knows*;
unknown shapes/dtypes/layouts never produce findings.  That keeps the
committed tree lintable without a flood of suppressions at the cost of
missing dynamically-constructed hazards (see ``docs/static-analysis.md``).
"""

from __future__ import annotations

import ast
import dataclasses
import weakref
from pathlib import PurePosixPath
from typing import Iterator, Sequence

from repro.lint.callgraph import FunctionInfo, Project
from repro.lint.engine import (
    Finding,
    ProjectRule,
    SourceModule,
    dotted_name,
    register_project_rule,
)
from repro.lint.hotpaths import (
    ARRAY_CONTRACT_DECORATORS,
    HOT_DECORATORS,
    hot_functions_for,
)
from repro.utils.hot import DTYPE_LATTICE, canonical_dtype

__all__ = [
    "ARRAY_RULE_NAMES",
    "ArrayAnalysis",
    "ArrayFact",
    "Dim",
    "analyze_arrays",
    "join_dtypes",
    "unify_dims",
]

#: The rule names this module registers (CLI ``--no-arrays`` filter).
ARRAY_RULE_NAMES = (
    "hidden-copy-into-kernel",
    "shape-mismatch",
    "silent-upcast-in-hot",
    "undeclared-downcast-in-hot",
)

#: Conventional ``precision_policy`` values (informational — any non-empty
#: string is accepted, matching the runtime decorator).
PRECISION_POLICIES = ("fp32-compute", "fp32-wire", "fp32-scratch")

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_NUMPY_ALIASES = frozenset({"np", "numpy"})

#: Layout lattice values.
CONTIG = "contiguous"
VIEW = "view"
TRANSPOSED = "transposed"
STRIDED = "strided"
COPIED = "copied-reshape"
UNKNOWN = "unknown"

#: Layouts that force a silent materialization when fed to a GEMM (BLAS
#: packs strided operands; transposes are consumed natively).
_GEMM_BAD = frozenset({STRIDED, COPIED})
#: Layouts that force a copy inside pocketfft / a slab publish.
_COPY_BAD = frozenset({TRANSPOSED, STRIDED, COPIED})

_FFT_LEAVES = frozenset({"fftn", "ifftn", "rfftn", "irfftn"})
_GEMM_LEAVES = frozenset({"matmul", "dot"})
_SLAB_PUBLISH_QUALNAMES = frozenset(
    {"SharedSlab.write", "SlabArena.write_array"}
)

_DTYPE_RANK = {name: rank for rank, name in enumerate(DTYPE_LATTICE)}

#: dtype "kinds" for numpy's weak-scalar promotion (NEP 50): a python
#: scalar only widens an array when its kind is strictly higher.
_DTYPE_KIND = {
    "bool": 0,
    "int64": 1,
    "float32": 2,
    "float64": 2,
    "complex128": 3,
}


def join_dtypes(a: str | None, b: str | None) -> str | None:
    """Lattice join (widest); unknown joins to unknown."""
    if a is None or b is None:
        return None
    return a if _DTYPE_RANK[a] >= _DTYPE_RANK[b] else b


@dataclasses.dataclass(frozen=True)
class Dim:
    """One axis extent: literal value, symbolic name, or unknown."""

    name: str | None = None
    value: int | None = None

    def render(self) -> str:
        if self.value is not None:
            return str(self.value)
        if self.name is not None:
            return self.name
        return "?"


UNKNOWN_DIM = Dim()


def unify_dims(a: Dim, b: Dim) -> tuple[Dim, bool]:
    """Merge two dims; returns ``(merged, conflict)``.

    Conflict only when both extents are *literally* known and differ —
    two distinct symbols may well be equal at runtime, so they merge to
    the first symbol without conflict (precision-first).
    """
    if a.value is not None and b.value is not None:
        if a.value != b.value:
            return a, True
    merged = Dim(
        name=a.name if a.name is not None else b.name,
        value=a.value if a.value is not None else b.value,
    )
    return merged, False


@dataclasses.dataclass(frozen=True)
class ArrayFact:
    """What the interpreter knows about one value.

    ``shape is None`` means unknown rank; ``dtype is None`` unknown bucket.
    ``weak`` marks python scalar literals, which follow NEP-50 weak
    promotion (a ``3.0`` does not widen a float32 array; a ``1j`` widens
    any real array to complex128).
    """

    shape: tuple[Dim, ...] | None = None
    dtype: str | None = None
    layout: str = UNKNOWN
    weak: bool = False

    @property
    def is_scalar(self) -> bool:
        return self.shape is not None and len(self.shape) == 0

    def render_shape(self) -> str:
        if self.shape is None:
            return "?"
        return "(" + ", ".join(d.render() for d in self.shape) + ")"


_SCALAR_FACTS = {
    bool: ArrayFact(shape=(), dtype="bool", layout=CONTIG, weak=True),
    int: ArrayFact(shape=(), dtype="int64", layout=CONTIG, weak=True),
    float: ArrayFact(shape=(), dtype="float64", layout=CONTIG, weak=True),
    complex: ArrayFact(shape=(), dtype="complex128", layout=CONTIG, weak=True),
}


def _broadcast_shapes(
    a: tuple[Dim, ...] | None, b: tuple[Dim, ...] | None
) -> tuple[Dim, ...] | None:
    if a is None or b is None:
        return None
    out: list[Dim] = []
    for i in range(max(len(a), len(b))):
        da = a[len(a) - 1 - i] if i < len(a) else Dim(value=1)
        db = b[len(b) - 1 - i] if i < len(b) else Dim(value=1)
        if da.value == 1:
            out.append(db)
        elif db.value == 1:
            out.append(da)
        else:
            merged, _ = unify_dims(da, db)
            out.append(merged)
    return tuple(reversed(out))


def _promote(a: ArrayFact, b: ArrayFact) -> str | None:
    """Result dtype of a binary op under weak-scalar promotion."""
    if a.dtype is None or b.dtype is None:
        return None
    if a.weak and b.weak:
        return join_dtypes(a.dtype, b.dtype)
    if a.weak or b.weak:
        weak, strong = (a, b) if a.weak else (b, a)
        if _DTYPE_KIND[weak.dtype] > _DTYPE_KIND[strong.dtype]:
            return join_dtypes(weak.dtype, strong.dtype)
        return strong.dtype
    return join_dtypes(a.dtype, b.dtype)


# ---------------------------------------------------------------------------
# Contracts (static side)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ContractFacts:
    """One ``@array_contract`` declaration read straight off the AST."""

    node: ast.expr  #: the decorator expression (finding anchor)
    shapes: dict[str, object] = dataclasses.field(default_factory=dict)
    dtypes: dict[str, tuple[str, ...]] = dataclasses.field(default_factory=dict)
    contiguous: tuple[str, ...] = ()
    returns: dict[str, object] = dataclasses.field(default_factory=dict)
    precision_policy: str | None = None
    problems: list[str] = dataclasses.field(default_factory=list)

    @property
    def well_formed(self) -> bool:
        return not self.problems


def _literal(node: ast.expr) -> tuple[object, bool]:
    try:
        return ast.literal_eval(node), True
    except (ValueError, TypeError, SyntaxError, MemoryError):
        return None, False


def _shape_spec_problems(name: str, spec: object) -> list[str]:
    if isinstance(spec, str):
        return [] if spec == "any" else [
            f"shape for {name!r} must be a dim tuple or 'any', got {spec!r}"
        ]
    if not isinstance(spec, (tuple, list)):
        return [f"shape for {name!r} must be a tuple, got {spec!r}"]
    problems = []
    for index, dim in enumerate(spec):
        if dim == "...":
            if index != 0:
                problems.append(
                    f"shape for {name!r}: '...' only allowed leading"
                )
        elif not isinstance(dim, (str, int)):
            problems.append(
                f"shape for {name!r}: dim {dim!r} is neither a symbol nor an int"
            )
    return problems


def _parse_contract(dec: ast.expr) -> ContractFacts | None:
    """Read an ``@array_contract(...)`` decorator; ``None`` if some other
    decorator."""
    if not isinstance(dec, ast.Call):
        return None
    leaf = dotted_name(dec.func).rpartition(".")[2]
    if leaf not in ARRAY_CONTRACT_DECORATORS:
        return None
    facts = ContractFacts(node=dec)
    if dec.args:
        facts.problems.append("array_contract takes keyword arguments only")
    for kw in dec.keywords:
        if kw.arg is None:
            facts.problems.append("array_contract does not accept **kwargs")
            continue
        value, ok = _literal(kw.value)
        if not ok:
            facts.problems.append(
                f"{kw.arg}= must be a literal the static pass can read"
            )
            continue
        if kw.arg == "shapes":
            if not isinstance(value, dict):
                facts.problems.append("shapes= must be a dict")
                continue
            for name, spec in value.items():
                facts.problems.extend(_shape_spec_problems(str(name), spec))
            facts.shapes = {str(k): v for k, v in value.items()}
        elif kw.arg == "dtypes":
            if not isinstance(value, dict):
                facts.problems.append("dtypes= must be a dict")
                continue
            out: dict[str, tuple[str, ...]] = {}
            for name, spec in value.items():
                names = (spec,) if isinstance(spec, str) else tuple(spec)
                for dtype_name in names:
                    if dtype_name not in DTYPE_LATTICE:
                        facts.problems.append(
                            f"dtype {dtype_name!r} for {name!r} is not on "
                            f"the lattice {DTYPE_LATTICE}"
                        )
                out[str(name)] = tuple(str(n) for n in names)
            facts.dtypes = out
        elif kw.arg == "contiguous":
            if not isinstance(value, (tuple, list)) or not all(
                isinstance(v, str) for v in value
            ):
                facts.problems.append("contiguous= must be a tuple of names")
                continue
            facts.contiguous = tuple(value)
        elif kw.arg == "returns":
            if not isinstance(value, dict):
                facts.problems.append("returns= must be a dict")
                continue
            unknown = set(value) - {"contiguous", "dtype", "shape"}
            if unknown:
                facts.problems.append(
                    f"returns= keys {sorted(unknown)} unknown"
                )
            if "shape" in value:
                facts.problems.extend(
                    _shape_spec_problems("return", value["shape"])
                )
            if "dtype" in value:
                spec = value["dtype"]
                names = (spec,) if isinstance(spec, str) else tuple(spec)
                for dtype_name in names:
                    if dtype_name not in DTYPE_LATTICE:
                        facts.problems.append(
                            f"return dtype {dtype_name!r} not on the lattice"
                        )
                value = {**value, "dtype": tuple(str(n) for n in names)}
            facts.returns = {str(k): v for k, v in value.items()}
        elif kw.arg == "precision_policy":
            if not isinstance(value, str) or not value:
                facts.problems.append(
                    "precision_policy= must be a non-empty string"
                )
                continue
            facts.precision_policy = value
        else:
            facts.problems.append(f"unknown array_contract keyword {kw.arg!r}")
    return facts


def _signature_params(info: FunctionInfo) -> tuple[str, ...]:
    node = info.node
    if not isinstance(node, _FUNC_NODES):
        return ()
    args = node.args
    names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return tuple(names)


def _seed_fact(contract: ContractFacts, name: str) -> ArrayFact:
    """Entry fact of a contracted parameter (the contract's assumption)."""
    shape_spec = contract.shapes.get(name)
    shape: tuple[Dim, ...] | None = None
    if isinstance(shape_spec, (tuple, list)) and "..." not in shape_spec:
        shape = tuple(
            Dim(value=d) if isinstance(d, int) else Dim(name=str(d))
            for d in shape_spec
        )
    allowed = contract.dtypes.get(name)
    dtype = allowed[0] if allowed is not None and len(allowed) == 1 else None
    layout = CONTIG if name in contract.contiguous else UNKNOWN
    return ArrayFact(shape=shape, dtype=dtype, layout=layout)


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Event:
    rule: str
    path: str
    node: ast.AST
    message: str


class ArrayAnalysis:
    """Shared result of one interpretation pass over a project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.events: list[_Event] = []
        self.contracts: dict[str, ContractFacts] = {}
        self.verified: dict[str, bool] = {}
        self.hot: set[str] = set()
        self._collect_contracts()
        self._collect_hot()
        for uid, info in sorted(project.functions.items()):
            if isinstance(info.node, _FUNC_NODES):
                _Interpreter(self, info).run()

    # -- scope discovery -----------------------------------------------------

    def _collect_contracts(self) -> None:
        for uid, info in self.project.functions.items():
            node = info.node
            if not isinstance(node, _FUNC_NODES):
                continue
            for dec in node.decorator_list:
                contract = _parse_contract(dec)
                if contract is None:
                    continue
                self.contracts[uid] = contract
                self.verified[uid] = contract.well_formed
                params = set(_signature_params(info))
                for name in (
                    *contract.shapes,
                    *contract.dtypes,
                    *contract.contiguous,
                ):
                    if name not in params:
                        contract.problems.append(
                            f"contract names unknown parameter {name!r}"
                        )
                for problem in contract.problems:
                    self.verified[uid] = False
                    self.events.append(
                        _Event(
                            "shape-mismatch",
                            info.path,
                            contract.node,
                            f"unconfirmable @array_contract on "
                            f"{info.qualname}: {problem}",
                        )
                    )
                break

    def _collect_hot(self) -> None:
        for uid, info in self.project.functions.items():
            posix = PurePosixPath(info.path).as_posix()
            if info.qualname in hot_functions_for(posix):
                self.hot.add(uid)
                continue
            leaves = {d.rpartition(".")[2] for d in info.decorators}
            if leaves & HOT_DECORATORS:
                self.hot.add(uid)
            elif uid in self.contracts:
                # A declared contract opts the function into the hot-path
                # dtype discipline: its declared-real parameters must not
                # silently acquire complex inside.
                self.hot.add(uid)

    # -- event emission ------------------------------------------------------

    def emit(self, rule: str, info: FunctionInfo, node: ast.AST, message: str) -> None:
        self.events.append(_Event(rule, info.path, node, message))
        if rule == "shape-mismatch" and info.uid in self.verified:
            self.verified[info.uid] = False


_ANALYSES: "weakref.WeakKeyDictionary[Project, ArrayAnalysis]" = (
    weakref.WeakKeyDictionary()
)


def analyze_arrays(project: Project) -> ArrayAnalysis:
    """The memoized analysis for ``project`` (all four rules share it)."""
    analysis = _ANALYSES.get(project)
    if analysis is None:
        analysis = ArrayAnalysis(project)
        _ANALYSES[project] = analysis
    return analysis


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------


class _Interpreter:
    """Forward pass over one function body, accumulating events."""

    def __init__(self, analysis: ArrayAnalysis, info: FunctionInfo) -> None:
        self.analysis = analysis
        self.project = analysis.project
        self.info = info
        self.hot = info.uid in analysis.hot
        contract = analysis.contracts.get(info.uid)
        #: A declared ``precision_policy`` sanctions fp64 -> fp32 downcasts.
        self.precision_policy = (
            contract.precision_policy if contract is not None else None
        )
        self.env: dict[str, ArrayFact] = {}
        self.return_fact: ArrayFact | None = None
        #: call AST node id -> resolved callee uids.
        self.callees: dict[int, list[str]] = {}
        for edge in self.project.edges_from.get(info.uid, []):
            if edge.kind == "call" and isinstance(edge.node, ast.Call):
                self.callees.setdefault(id(edge.node), []).append(edge.callee)
        self._seen_calls: set[int] = set()

    # -- entry ---------------------------------------------------------------

    def run(self) -> None:
        contract = self.analysis.contracts.get(self.info.uid)
        if contract is not None:
            for name in {
                *contract.shapes,
                *contract.dtypes,
                *contract.contiguous,
            }:
                self.env[name] = _seed_fact(contract, name)
        node = self.info.node
        assert isinstance(node, _FUNC_NODES)
        self._exec_block(node.body)
        if contract is not None and contract.returns:
            self._check_return_contract(contract)

    def _check_return_contract(self, contract: ContractFacts) -> None:
        fact = self.return_fact
        if fact is None:
            return
        allowed = contract.returns.get("dtype")
        if (
            isinstance(allowed, tuple)
            and fact.dtype is not None
            and fact.dtype not in allowed
        ):
            self.analysis.emit(
                "shape-mismatch",
                self.info,
                self.info.node,
                f"{self.info.qualname}: contract declares return dtype "
                f"{allowed} but the body returns {fact.dtype}",
            )
        if contract.returns.get("contiguous") and fact.layout in _COPY_BAD:
            self.analysis.emit(
                "shape-mismatch",
                self.info,
                self.info.node,
                f"{self.info.qualname}: contract declares a contiguous "
                f"return but the body returns a {fact.layout} value",
            )

    # -- statements ----------------------------------------------------------

    def _exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (*_FUNC_NODES, ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            fact = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, fact)
        elif isinstance(stmt, ast.AnnAssign):
            fact = self._eval(stmt.value) if stmt.value is not None else None
            if isinstance(stmt.target, ast.Name):
                self._bind_name(stmt.target.id, fact)
        elif isinstance(stmt, ast.AugAssign):
            self._eval(stmt.value)
            # In-place ops keep the target's dtype (numpy raises on a
            # genuinely widening in-place op), so no upcast event here.
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                fact = self._eval(stmt.value)
                if fact is not None:
                    self.return_fact = fact
        elif isinstance(stmt, ast.For):
            iter_fact = self._eval(stmt.iter)
            if isinstance(stmt.target, ast.Name):
                element = None
                if iter_fact is not None and iter_fact.shape:
                    element = ArrayFact(
                        shape=iter_fact.shape[1:],
                        dtype=iter_fact.dtype,
                        layout=VIEW,
                    )
                self._bind_name(stmt.target.id, element)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)

    def _bind(self, target: ast.expr, fact: ArrayFact | None) -> None:
        if isinstance(target, ast.Name):
            self._bind_name(target.id, fact)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, None)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            self._eval(target.value)

    def _bind_name(self, name: str, fact: ArrayFact | None) -> None:
        if fact is None:
            self.env.pop(name, None)
        else:
            self.env[name] = fact

    # -- expressions ---------------------------------------------------------

    def _eval(self, expr: ast.expr | None) -> ArrayFact | None:
        if expr is None:
            return None
        if isinstance(expr, ast.Constant):
            fact = _SCALAR_FACTS.get(type(expr.value))
            return fact
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr)
        if isinstance(expr, ast.Subscript):
            return self._eval_subscript(expr)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr)
        if isinstance(expr, ast.UnaryOp):
            inner = self._eval(expr.operand)
            if isinstance(expr.op, ast.Not):
                return _SCALAR_FACTS[bool]
            return inner
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test)
            a = self._eval(expr.body)
            b = self._eval(expr.orelse)
            if a is None or b is None:
                return None
            return ArrayFact(
                shape=a.shape if a.shape == b.shape else None,
                dtype=join_dtypes(a.dtype, b.dtype),
                layout=a.layout if a.layout == b.layout else UNKNOWN,
                weak=a.weak and b.weak,
            )
        if isinstance(expr, (ast.Compare, ast.BoolOp)):
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    self._eval(child)
            if isinstance(expr, ast.Compare):
                left = self._eval(expr.left)
                if left is not None and left.shape is not None and left.shape:
                    return ArrayFact(
                        shape=left.shape, dtype="bool", layout=CONTIG
                    )
            return _SCALAR_FACTS[bool]
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value)
        if isinstance(expr, ast.Lambda):
            return None  # analyzed as its own FunctionInfo
        if isinstance(
            expr,
            (
                ast.ListComp,
                ast.SetComp,
                ast.DictComp,
                ast.GeneratorExp,
            ),
        ):
            for generator in expr.generators:
                self._eval(generator.iter)
                if isinstance(generator.target, ast.Name):
                    self._bind_name(generator.target.id, None)
                for condition in generator.ifs:
                    self._eval(condition)
            if isinstance(expr, ast.DictComp):
                self._eval(expr.key)
                self._eval(expr.value)
            else:
                self._eval(expr.elt)
            return None
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._eval(child)
        return None

    def _eval_attribute(self, expr: ast.Attribute) -> ArrayFact | None:
        base = self._eval(expr.value)
        if expr.attr == "T":
            if base is None:
                return None
            if base.shape is not None and len(base.shape) <= 1:
                return base
            shape = None if base.shape is None else tuple(reversed(base.shape))
            layout = TRANSPOSED if base.layout in (CONTIG, VIEW) else base.layout
            if base.layout == UNKNOWN:
                layout = TRANSPOSED
            return ArrayFact(shape=shape, dtype=base.dtype, layout=layout)
        if expr.attr in ("real", "imag"):
            if base is None:
                return None
            if base.dtype == "complex128":
                return ArrayFact(
                    shape=base.shape, dtype="float64", layout=STRIDED
                )
            if base.dtype is not None:
                # real view of a real array is the array itself.
                return base
            return ArrayFact(shape=base.shape, dtype=None, layout=UNKNOWN)
        return None

    # -- subscripts ----------------------------------------------------------

    def _eval_subscript(self, expr: ast.Subscript) -> ArrayFact | None:
        base = self._eval(expr.value)
        index = expr.slice
        elements = list(index.elts) if isinstance(index, ast.Tuple) else [index]
        for element in elements:
            if isinstance(element, ast.Slice):
                self._eval(element.lower)
                self._eval(element.upper)
                self._eval(element.step)
            else:
                self._eval(element)
        if base is None or base.shape == ():
            return None

        dims: list[Dim] = []
        layout = base.layout
        shape = list(base.shape) if base.shape is not None else None
        axis = 0
        advanced_copy = False
        for position, element in enumerate(elements):
            if isinstance(element, ast.Slice):
                full = (
                    element.lower is None
                    and element.upper is None
                    and (
                        element.step is None
                        or (
                            isinstance(element.step, ast.Constant)
                            and element.step.value in (1, None)
                        )
                    )
                )
                step_known_unit = element.step is None or (
                    isinstance(element.step, ast.Constant)
                    and element.step.value in (1, None)
                )
                if not step_known_unit:
                    layout = STRIDED
                elif not full and position > 0:
                    layout = STRIDED
                dims.append(self._slice_dim(element, shape, axis, full))
                axis += 1
            elif isinstance(element, ast.Constant) and element.value is None:
                dims.append(Dim(value=1))
            elif isinstance(element, ast.Constant) and element.value is Ellipsis:
                # Give up on precise axes past an ellipsis.
                shape = None
                dims = []
                layout = layout if layout != CONTIG else VIEW
                break
            else:
                fact = self._eval(element)
                if fact is not None and fact.shape is not None and fact.shape:
                    # Integer/boolean array index: advanced indexing copies.
                    advanced_copy = True
                    dims.append(UNKNOWN_DIM)
                    axis += 1
                elif isinstance(element, ast.Constant) and isinstance(
                    element.value, int
                ):
                    if position > 0:
                        layout = STRIDED
                    axis += 1  # dim removed
                else:
                    # Unknown scalar-or-slice index.
                    if position > 0:
                        layout = STRIDED
                    dims.append(UNKNOWN_DIM)
                    shape = None
                    axis += 1
        if advanced_copy:
            return ArrayFact(shape=None, dtype=base.dtype, layout=CONTIG)
        if shape is not None and axis <= len(shape):
            dims.extend(shape[axis:])
            result_shape: tuple[Dim, ...] | None = tuple(dims)
        else:
            result_shape = None
        if layout == CONTIG:
            layout = VIEW if result_shape is None else CONTIG
        return ArrayFact(shape=result_shape, dtype=base.dtype, layout=layout)

    def _slice_dim(
        self,
        element: ast.Slice,
        shape: list[Dim] | None,
        axis: int,
        full: bool,
    ) -> Dim:
        if full:
            if shape is not None and axis < len(shape):
                return shape[axis]
            return UNKNOWN_DIM
        lower = element.lower
        upper = element.upper
        if (
            (lower is None or (isinstance(lower, ast.Constant) and lower.value == 0))
            and isinstance(upper, ast.Constant)
            and isinstance(upper.value, int)
            and upper.value >= 0
        ):
            return Dim(value=upper.value)
        return UNKNOWN_DIM

    # -- binary operators ----------------------------------------------------

    def _eval_binop(self, expr: ast.BinOp) -> ArrayFact | None:
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        if isinstance(expr.op, ast.MatMult):
            self._check_gemm_operand(expr, expr.left, left, "left operand of @")
            self._check_gemm_operand(expr, expr.right, right, "right operand of @")
            return self._gemm_fact(expr, left, right)
        if left is None or right is None:
            return None
        dtype = _promote(left, right)
        self._check_upcast_binop(expr, left, right, dtype)
        shape = _broadcast_shapes(left.shape, right.shape)
        self._check_broadcast_blowup(expr, left, right)
        weak = left.weak and right.weak
        layout = CONTIG if not weak else left.layout
        return ArrayFact(shape=shape, dtype=dtype, layout=layout, weak=weak)

    def _gemm_fact(
        self, expr: ast.BinOp, left: ArrayFact | None, right: ArrayFact | None
    ) -> ArrayFact:
        shape: tuple[Dim, ...] | None = None
        if (
            left is not None
            and right is not None
            and left.shape is not None
            and right.shape is not None
            and len(left.shape) == 2
            and len(right.shape) == 2
        ):
            _, conflict = unify_dims(left.shape[1], right.shape[0])
            if conflict:
                self.analysis.emit(
                    "shape-mismatch",
                    self.info,
                    expr,
                    f"{self.info.qualname}: matmul inner dims disagree: "
                    f"{left.render_shape()} @ {right.render_shape()}",
                )
            shape = (left.shape[0], right.shape[1])
        dtype = None
        if left is not None and right is not None:
            dtype = _promote(left, right)
        return ArrayFact(shape=shape, dtype=dtype, layout=CONTIG)

    def _check_upcast_binop(
        self,
        expr: ast.BinOp,
        left: ArrayFact,
        right: ArrayFact,
        result: str | None,
    ) -> None:
        if not self.hot or result not in ("complex128", "float64"):
            return
        for narrow, wide in ((left, right), (right, left)):
            if narrow.weak or narrow.dtype is None or wide.dtype is None:
                continue
            if narrow.dtype == result:
                continue
            if result == "complex128" and narrow.dtype in ("float32", "float64"):
                source = (
                    "a complex literal"
                    if wide.weak
                    else f"a {wide.dtype} operand"
                )
                self.analysis.emit(
                    "silent-upcast-in-hot",
                    self.info,
                    expr,
                    f"{self.info.qualname}: {narrow.dtype} value acquires "
                    f"complex128 through {source} in a mixed-operand "
                    "broadcast — the real-FFT fast path and half-precision "
                    "memory budget are lost silently",
                )
                return
            if result == "float64" and narrow.dtype == "float32" and not wide.weak:
                self.analysis.emit(
                    "silent-upcast-in-hot",
                    self.info,
                    expr,
                    f"{self.info.qualname}: float32 value acquires float64 "
                    f"through a {wide.dtype} operand in a mixed-operand "
                    "broadcast",
                )
                return

    def _check_broadcast_blowup(
        self, expr: ast.BinOp, left: ArrayFact, right: ArrayFact
    ) -> None:
        if not self.hot:
            return
        if left.shape is None or right.shape is None:
            return
        if len(left.shape) != len(right.shape) or len(left.shape) < 2:
            return
        left_expands = any(
            a.value == 1 and b.value not in (1, None)
            for a, b in zip(left.shape, right.shape)
        )
        right_expands = any(
            b.value == 1 and a.value not in (1, None)
            for a, b in zip(left.shape, right.shape)
        )
        if left_expands and right_expands:
            self.analysis.emit(
                "shape-mismatch",
                self.info,
                expr,
                f"{self.info.qualname}: broadcasting "
                f"{left.render_shape()} against {right.render_shape()} "
                "materializes a temporary larger than both operands",
            )

    def _check_gemm_operand(
        self,
        site: ast.AST,
        operand_expr: ast.expr,
        fact: ArrayFact | None,
        role: str,
    ) -> None:
        if fact is None or fact.layout not in _GEMM_BAD:
            return
        self.analysis.emit(
            "hidden-copy-into-kernel",
            self.info,
            site,
            f"{self.info.qualname}: {role} is a {fact.layout} view "
            f"({ast.unparse(operand_expr)}) — BLAS must pack a hidden "
            "copy; stage it into a contiguous buffer explicitly",
        )

    # -- calls ---------------------------------------------------------------

    def _eval_call(self, call: ast.Call) -> ArrayFact | None:
        if id(call) in self._seen_calls:
            return None
        self._seen_calls.add(id(call))
        name = dotted_name(call.func)
        head, _, leaf = name.rpartition(".")
        root = head.split(".")[0] if head else ""

        method_base: ArrayFact | None = None
        if isinstance(call.func, ast.Attribute):
            method_base = self._eval(call.func.value)
        arg_facts = [self._eval(a) for a in call.args]
        kw_facts = {
            kw.arg: self._eval(kw.value) for kw in call.keywords if kw.arg
        }

        self._check_fft_entry(call, leaf, arg_facts)
        self._check_gemm_call(call, leaf, root, arg_facts, kw_facts, name)
        self._check_resolved_call(call, arg_facts, kw_facts)

        return self._constructor_fact(
            call, name, head, leaf, root, method_base, arg_facts, kw_facts
        )

    # .. FFT entries .........................................................

    def _check_fft_entry(
        self, call: ast.Call, leaf: str, arg_facts: list[ArrayFact | None]
    ) -> None:
        if leaf not in _FFT_LEAVES or not call.args:
            return
        fact = arg_facts[0]
        if fact is None or fact.layout not in _COPY_BAD:
            return
        self.analysis.emit(
            "hidden-copy-into-kernel",
            self.info,
            call,
            f"{self.info.qualname}: {fact.layout} view passed to {leaf} — "
            "pocketfft copies non-contiguous input axes silently; pass a "
            "C-contiguous block",
        )

    # .. GEMM-shaped calls ...................................................

    def _check_gemm_call(
        self,
        call: ast.Call,
        leaf: str,
        root: str,
        arg_facts: list[ArrayFact | None],
        kw_facts: dict[str, ArrayFact | None],
        name: str,
    ) -> None:
        is_gemm = leaf in _GEMM_LEAVES and (root in _NUMPY_ALIASES or not root)
        is_einsum = leaf == "einsum" and (root in _NUMPY_ALIASES or not root)
        if not (is_gemm or is_einsum):
            return
        operands = arg_facts[1:] if is_einsum else arg_facts[:2]
        exprs = call.args[1:] if is_einsum else call.args[:2]
        for expr, fact in zip(exprs, operands):
            if fact is not None and fact.layout in _GEMM_BAD:
                self.analysis.emit(
                    "hidden-copy-into-kernel",
                    self.info,
                    call,
                    f"{self.info.qualname}: {fact.layout} operand "
                    f"({ast.unparse(expr)}) in {leaf} — BLAS/einsum must "
                    "pack a hidden copy",
                )
        out_fact = kw_facts.get("out")
        if out_fact is not None and out_fact.layout in _GEMM_BAD:
            self.analysis.emit(
                "hidden-copy-into-kernel",
                self.info,
                call,
                f"{self.info.qualname}: out= buffer of {leaf} is "
                f"{out_fact.layout} — the kernel writes a temporary and "
                "copies it back",
            )

    # .. resolved project calls (contract checking) ..........................

    def _check_resolved_call(
        self,
        call: ast.Call,
        arg_facts: list[ArrayFact | None],
        kw_facts: dict[str, ArrayFact | None],
    ) -> None:
        for callee_uid in self.callees.get(id(call), []):
            callee = self.project.functions.get(callee_uid)
            if callee is None:
                continue
            if callee.qualname in _SLAB_PUBLISH_QUALNAMES and call.args:
                fact = arg_facts[0]
                if fact is not None and fact.layout in _COPY_BAD:
                    self.analysis.emit(
                        "hidden-copy-into-kernel",
                        self.info,
                        call,
                        f"{self.info.qualname}: {fact.layout} view published "
                        f"to {callee.qualname} (call chain: "
                        f"{self.info.qualname} -> {callee.qualname}) — the "
                        "slab write materializes a contiguous copy",
                    )
            contract = self.analysis.contracts.get(callee_uid)
            if contract is None or not contract.well_formed:
                continue
            self._check_contract_call(call, callee, contract, arg_facts, kw_facts)

    def _check_contract_call(
        self,
        call: ast.Call,
        callee: FunctionInfo,
        contract: ContractFacts,
        arg_facts: list[ArrayFact | None],
        kw_facts: dict[str, ArrayFact | None],
    ) -> None:
        params = list(_signature_params(callee))
        facts = arg_facts
        if params and params[0] in ("self", "cls"):
            base = call.func
            if isinstance(base, ast.Attribute) and dotted_name(base.value) == (
                callee.class_name or ""
            ):
                facts = arg_facts[1:]  # unbound ClassName.method(obj, ...)
            params = params[1:]
        bound: list[tuple[str, ArrayFact | None]] = list(zip(params, facts))
        bound.extend((n, f) for n, f in kw_facts.items() if n in set(params))
        chain = f"{self.info.qualname} -> {callee.qualname}"
        dims: dict[str, Dim] = {}
        for name, fact in bound:
            if fact is None:
                continue
            self._check_contract_dtype(call, callee, contract, name, fact, chain)
            self._check_contract_layout(call, callee, contract, name, fact, chain)
            self._check_contract_shape(
                call, callee, contract, name, fact, dims, chain
            )

    def _check_contract_dtype(
        self,
        call: ast.Call,
        callee: FunctionInfo,
        contract: ContractFacts,
        name: str,
        fact: ArrayFact,
        chain: str,
    ) -> None:
        allowed = contract.dtypes.get(name)
        if allowed is None or fact.dtype is None or fact.weak:
            return
        if fact.dtype in allowed:
            return
        widest = max(_DTYPE_RANK[d] for d in allowed)
        if _DTYPE_RANK[fact.dtype] > widest:
            self.analysis.emit(
                "silent-upcast-in-hot",
                self.info,
                call,
                f"{fact.dtype} value passed for {name!r} of "
                f"{callee.qualname}, whose contract allows {allowed} "
                f"(call chain: {chain})",
            )

    def _check_contract_layout(
        self,
        call: ast.Call,
        callee: FunctionInfo,
        contract: ContractFacts,
        name: str,
        fact: ArrayFact,
        chain: str,
    ) -> None:
        if name not in contract.contiguous or fact.layout not in _COPY_BAD:
            return
        self.analysis.emit(
            "hidden-copy-into-kernel",
            self.info,
            call,
            f"{fact.layout} view passed for {name!r} of {callee.qualname}, "
            f"whose contract requires C-contiguity (call chain: {chain})",
        )

    def _check_contract_shape(
        self,
        call: ast.Call,
        callee: FunctionInfo,
        contract: ContractFacts,
        name: str,
        fact: ArrayFact,
        dims: dict[str, Dim],
        chain: str,
    ) -> None:
        spec = contract.shapes.get(name)
        if not isinstance(spec, (tuple, list)) or fact.shape is None:
            return
        declared = list(spec)
        ellipsis = bool(declared) and declared[0] == "..."
        if ellipsis:
            declared = declared[1:]
            if len(fact.shape) < len(declared):
                self.analysis.emit(
                    "shape-mismatch",
                    self.info,
                    call,
                    f"rank-{len(fact.shape)} value passed for {name!r} of "
                    f"{callee.qualname}, whose contract requires at least "
                    f"{len(declared)} trailing dims (call chain: {chain})",
                )
                return
            actual = fact.shape[len(fact.shape) - len(declared) :]
        else:
            if len(fact.shape) != len(declared):
                self.analysis.emit(
                    "shape-mismatch",
                    self.info,
                    call,
                    f"rank-{len(fact.shape)} value "
                    f"{fact.render_shape()} passed for {name!r} of "
                    f"{callee.qualname}, whose contract declares rank "
                    f"{len(declared)} (call chain: {chain})",
                )
                return
            actual = fact.shape
        for spec_dim, dim in zip(declared, actual):
            if isinstance(spec_dim, int):
                if dim.value is not None and dim.value != spec_dim:
                    self.analysis.emit(
                        "shape-mismatch",
                        self.info,
                        call,
                        f"dim {spec_dim} of {name!r} in {callee.qualname} "
                        f"got extent {dim.value} (call chain: {chain})",
                    )
                continue
            known = dims.get(str(spec_dim))
            if known is None:
                dims[str(spec_dim)] = dim
                continue
            merged, conflict = unify_dims(known, dim)
            if conflict:
                self.analysis.emit(
                    "shape-mismatch",
                    self.info,
                    call,
                    f"symbolic dim {spec_dim!r} of {callee.qualname} binds "
                    f"to both {known.render()} and {dim.render()} in one "
                    f"call (call chain: {chain})",
                )
            dims[str(spec_dim)] = merged

    # .. constructors / transforms ..........................................

    def _constructor_fact(
        self,
        call: ast.Call,
        name: str,
        head: str,
        leaf: str,
        root: str,
        method_base: ArrayFact | None,
        arg_facts: list[ArrayFact | None],
        kw_facts: dict[str, ArrayFact | None],
    ) -> ArrayFact | None:
        is_np = root in _NUMPY_ALIASES
        dtype_kw = self._dtype_from_kwarg(call)

        if is_np and leaf in ("zeros", "ones", "empty", "full"):
            shape = self._shape_from_expr(call.args[0]) if call.args else None
            dtype = dtype_kw
            if dtype is None:
                if leaf == "full" and len(call.args) > 1:
                    fill = arg_facts[1]
                    dtype = fill.dtype if fill is not None else None
                else:
                    dtype = "float64"
            return ArrayFact(shape=shape, dtype=dtype, layout=CONTIG)
        if is_np and leaf in ("zeros_like", "ones_like", "empty_like", "full_like"):
            base = arg_facts[0] if arg_facts else None
            dtype = dtype_kw or (base.dtype if base is not None else None)
            shape = base.shape if base is not None else None
            return ArrayFact(shape=shape, dtype=dtype, layout=CONTIG)
        if is_np and leaf == "asarray":
            base = arg_facts[0] if arg_facts else None
            if base is None:
                return ArrayFact(shape=None, dtype=dtype_kw, layout=UNKNOWN)
            self._check_constructor_downcast(call, leaf, base, dtype_kw)
            return ArrayFact(
                shape=base.shape,
                dtype=dtype_kw or base.dtype,
                layout=base.layout,
            )
        if is_np and leaf in ("array", "ascontiguousarray"):
            base = arg_facts[0] if arg_facts else None
            if base is not None:
                self._check_constructor_downcast(call, leaf, base, dtype_kw)
            return ArrayFact(
                shape=base.shape if base is not None else None,
                dtype=dtype_kw or (base.dtype if base is not None else None),
                layout=CONTIG,
            )
        if is_np and leaf == "copy":
            base = arg_facts[0] if arg_facts else None
            return ArrayFact(
                shape=base.shape if base is not None else None,
                dtype=base.dtype if base is not None else None,
                layout=CONTIG,
            )
        if is_np and leaf in ("rfftn", "fftn", "ifftn"):
            return ArrayFact(shape=None, dtype="complex128", layout=CONTIG)
        if is_np and leaf == "irfftn":
            return ArrayFact(shape=None, dtype="float64", layout=CONTIG)
        if is_np and leaf in ("matmul", "dot", "einsum"):
            facts = [f for f in arg_facts if f is not None]
            dtype = None
            if facts:
                dtype = facts[0].dtype
                for fact in facts[1:]:
                    promoted = _promote(
                        ArrayFact(dtype=dtype), fact
                    ) if dtype is not None else None
                    dtype = promoted
            return ArrayFact(shape=None, dtype=dtype, layout=CONTIG)
        if is_np and leaf in ("maximum", "minimum", "abs", "conj", "conjugate"):
            base = arg_facts[0] if arg_facts else None
            if base is None:
                return None
            return ArrayFact(shape=base.shape, dtype=base.dtype, layout=CONTIG)

        # Method calls on tracked values.
        if method_base is not None:
            if leaf == "astype":
                return self._astype_fact(call, method_base)
            if leaf == "copy":
                return ArrayFact(
                    shape=method_base.shape,
                    dtype=method_base.dtype,
                    layout=CONTIG,
                )
            if leaf == "reshape":
                shape = self._reshape_shape(call)
                if method_base.layout in (TRANSPOSED, STRIDED):
                    layout = COPIED
                elif method_base.layout == CONTIG:
                    layout = CONTIG
                else:
                    layout = UNKNOWN
                return ArrayFact(
                    shape=shape, dtype=method_base.dtype, layout=layout
                )
            if leaf == "transpose":
                shape = (
                    tuple(reversed(method_base.shape))
                    if method_base.shape is not None and not call.args
                    else None
                )
                return ArrayFact(
                    shape=shape, dtype=method_base.dtype, layout=TRANSPOSED
                )
            if leaf in ("ravel", "flatten"):
                layout = CONTIG if leaf == "flatten" else (
                    CONTIG if method_base.layout == CONTIG else COPIED
                )
                return ArrayFact(shape=None, dtype=method_base.dtype, layout=layout)
            if leaf == "conj":
                if method_base.dtype is not None and method_base.dtype != "complex128":
                    return method_base
                return ArrayFact(
                    shape=method_base.shape,
                    dtype=method_base.dtype,
                    layout=CONTIG if method_base.dtype == "complex128" else UNKNOWN,
                )

        # Calls into contracted project functions propagate return facts.
        for callee_uid in self.callees.get(id(call), []):
            contract = self.analysis.contracts.get(callee_uid)
            if contract is None or not contract.returns:
                continue
            dtype_spec = contract.returns.get("dtype")
            dtype = (
                dtype_spec[0]
                if isinstance(dtype_spec, tuple) and len(dtype_spec) == 1
                else None
            )
            layout = CONTIG if contract.returns.get("contiguous") else UNKNOWN
            return ArrayFact(shape=None, dtype=dtype, layout=layout)
        return None

    def _astype_fact(self, call: ast.Call, base: ArrayFact) -> ArrayFact:
        target = (
            self._dtype_from_expr(call.args[0]) if call.args else None
        )
        if self.hot and target is not None:
            widening_complex = target == "complex128" and base.dtype in (
                None,
                "float32",
                "float64",
            )
            widening_double = target == "float64" and base.dtype == "float32"
            if widening_complex or widening_double:
                origin = base.dtype or "a real-typed"
                self.analysis.emit(
                    "silent-upcast-in-hot",
                    self.info,
                    call,
                    f"{self.info.qualname}: astype({target}) widens "
                    f"{origin} value inside a hot kernel — doubles the "
                    "memory traffic and disables the real-FFT fast path",
                )
            elif target == "float32" and base.dtype == "float64":
                self._check_downcast(call, "astype(float32)")
        return ArrayFact(shape=base.shape, dtype=target, layout=CONTIG)

    def _check_constructor_downcast(
        self,
        call: ast.Call,
        leaf: str,
        base: ArrayFact,
        dtype_kw: str | None,
    ) -> None:
        if (
            self.hot
            and dtype_kw == "float32"
            and base.dtype == "float64"
        ):
            self._check_downcast(call, f"{leaf}(..., dtype=float32)")

    def _check_downcast(self, node: ast.AST, how: str) -> None:
        """fp64 -> fp32 in a hot kernel needs a declared precision policy."""
        if self.precision_policy is not None:
            return
        self.analysis.emit(
            "undeclared-downcast-in-hot",
            self.info,
            node,
            f"{self.info.qualname}: {how} narrows a float64 value inside a "
            "hot kernel with no declared precision policy — sanctioned "
            "mixed-precision stages must set precision_policy= on their "
            f"@array_contract (conventional values: {PRECISION_POLICIES})",
        )

    # -- literal helpers -----------------------------------------------------

    def _dtype_from_kwarg(self, call: ast.Call) -> str | None:
        for kw in call.keywords:
            if kw.arg == "dtype":
                return self._dtype_from_expr(kw.value)
        return None

    def _dtype_from_expr(self, expr: ast.expr) -> str | None:
        text = dotted_name(expr)
        leaf = text.rpartition(".")[2]
        if leaf:
            return canonical_dtype(leaf)
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return canonical_dtype(expr.value)
        return None

    def _shape_from_expr(self, expr: ast.expr) -> tuple[Dim, ...] | None:
        if isinstance(expr, (ast.Tuple, ast.List)):
            return tuple(self._dim_from_expr(e) for e in expr.elts)
        return (self._dim_from_expr(expr),)

    def _reshape_shape(self, call: ast.Call) -> tuple[Dim, ...] | None:
        if len(call.args) == 1:
            return self._shape_from_expr(call.args[0])
        if len(call.args) > 1:
            return tuple(self._dim_from_expr(a) for a in call.args)
        return None

    def _dim_from_expr(self, expr: ast.expr) -> Dim:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
            if expr.value >= 0:
                return Dim(value=expr.value)
            return UNKNOWN_DIM  # -1 reshape wildcard
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
            return UNKNOWN_DIM
        name = dotted_name(expr)
        if name:
            return Dim(name=name)
        return UNKNOWN_DIM


# ---------------------------------------------------------------------------
# The four registered rules
# ---------------------------------------------------------------------------


class _ArrayRule(ProjectRule):
    """Base: run the shared analysis, yield this rule's events."""

    def check(
        self, project: Project, modules: Sequence[SourceModule]
    ) -> Iterator[Finding]:
        analysis = analyze_arrays(project)
        for event in analysis.events:
            if event.rule == self.name:
                yield self.finding_at(event.path, event.node, event.message)


@register_project_rule
class SilentUpcastInHot(_ArrayRule):
    """A float64 hot path acquiring complex128 (or float32 acquiring
    float64) silently doubles memory traffic and poisons the real-FFT fast
    path — exactly the migration hazard of complex-orbital / GPU modes."""

    name = "silent-upcast-in-hot"
    description = (
        "dtype widens silently inside a hot kernel (astype, complex "
        "literal, or mixed-operand broadcast)"
    )


@register_project_rule
class UndeclaredDowncastInHot(_ArrayRule):
    """The mirror hazard of :class:`SilentUpcastInHot`: a float64 value
    narrowed to float32 inside a hot kernel loses ~8 significant digits.
    Mixed-precision stages are *sanctioned* by declaring
    ``precision_policy=`` on the kernel's ``@array_contract`` (making the
    downcast a reviewed policy with an error-bounded fallback — see
    :mod:`repro.precision`); any other downcast fails lint."""

    name = "undeclared-downcast-in-hot"
    description = (
        "float64 value cast to float32 inside a hot kernel whose contract "
        "declares no precision_policy"
    )


@register_project_rule
class HiddenCopyIntoKernel(_ArrayRule):
    """Non-contiguous views reaching FFT/GEMM entries or a SharedSlab
    publish force silent materializations inside the kernel — the data-
    movement tax NDFT-style analyses show dominates plane-wave DFT."""

    name = "hidden-copy-into-kernel"
    description = (
        "non-contiguous view passed to an FFT/GEMM entry, a SharedSlab "
        "publish, or a contract-contiguous parameter"
    )


@register_project_rule
class ShapeMismatch(_ArrayRule):
    """Symbolic-dim conflicts across call boundaries, unconfirmable
    ``@array_contract`` declarations, and hot-path broadcasts that
    materialize a temporary larger than both operands."""

    name = "shape-mismatch"
    description = (
        "symbolic shape conflict across a call boundary, an unconfirmable "
        "array contract, or a temporary-materializing broadcast"
    )
