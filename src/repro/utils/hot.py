"""Markers for allocation-disciplined hot kernels and their array contracts.

``@hot_kernel`` is a zero-overhead annotation: it tags the function so the
``no-alloc-in-hot`` lint pass (:mod:`repro.lint.rules`) holds it to the
allocation-free contract of ``docs/performance.md`` — no fresh numpy
buffers or operator temporaries per call/iteration beyond the documented
(suppressed-with-reason) ones.  Seed-era kernels that predate the decorator
are enrolled via :data:`repro.lint.hotpaths.HOT_PATH_MANIFEST` instead.

``@array_contract`` declares the shape/dtype/layout preconditions of a hot
kernel's array parameters (and optionally its return value).  With
``REPRO_ARRAY_CONTRACTS=1`` in the environment at import time the
decorator wraps the function with cheap entry asserts (dtype membership,
C-contiguity, rank and named-dim consistency); the test suite sets it for
the whole session.  The gate is decided once at decoration time, so the
default mode returns the function object unchanged: zero overhead,
bit-identical behaviour.  Either way the declaration is validated when the
function is decorated, including that every name it constrains is a
parameter of the function — a misspelled name would otherwise switch its
check off silently.

Contract vocabulary:

* ``shapes={"x": ("n", "k")}`` — symbolic dims unify *within one call*:
  every occurrence of ``"n"`` across the declared parameters must agree.
  Integer entries pin a dim exactly; a leading ``"..."`` matches any
  number of extra leading axes.
* ``dtypes={"x": "float64"}`` or ``("float64", "complex128")`` — allowed
  dtype names on the lattice (bool, int64, float32, float64, complex128);
  inputs canonicalize through the same buckets (e.g. int32 counts as
  int64, complex64 as complex128).
* ``contiguous=("x",)`` — the named parameters must be C-contiguous.
* ``returns={"contiguous": True, "dtype": "float64", "shape": (...)}`` —
  validated on exit.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Mapping, Sequence, TypeVar, overload

__all__ = [
    "ArrayContractError",
    "ContractSpec",
    "array_contract",
    "array_contracts_enabled",
    "get_array_contract",
    "hot_kernel",
    "is_hot_kernel",
    "validate_contract_value",
]

F = TypeVar("F", bound=Callable)

#: Environment flag enabling runtime contract validation (read at import /
#: decoration time, not per call — flipping it mid-process has no effect).
CONTRACTS_ENV = "REPRO_ARRAY_CONTRACTS"

#: Numpy dtype names folded onto the lint dtype lattice.
_DTYPE_BUCKETS: dict[str, str] = {
    "bool": "bool",
    "bool_": "bool",
    "int8": "int64",
    "int16": "int64",
    "int32": "int64",
    "int64": "int64",
    "uint8": "int64",
    "uint16": "int64",
    "uint32": "int64",
    "uint64": "int64",
    "intp": "int64",
    "int": "int64",
    "float16": "float32",
    "float32": "float32",
    "single": "float32",
    "float64": "float64",
    "float": "float64",
    "double": "float64",
    "complex64": "complex128",
    "complex128": "complex128",
    "complex": "complex128",
    "cdouble": "complex128",
}

#: The dtype names a contract may declare.
DTYPE_LATTICE: tuple[str, ...] = (
    "bool",
    "int64",
    "float32",
    "float64",
    "complex128",
)


def canonical_dtype(name: object) -> str | None:
    """Fold a dtype (or its name) onto the lattice; ``None`` when foreign."""
    return _DTYPE_BUCKETS.get(str(name))


def array_contracts_enabled() -> bool:
    """Whether ``REPRO_ARRAY_CONTRACTS`` requests runtime validation."""
    return os.environ.get(CONTRACTS_ENV, "").strip().lower() not in (
        "",
        "0",
        "false",
        "off",
    )


class ArrayContractError(AssertionError):
    """A runtime array-contract violation (subclass of AssertionError so
    existing "asserts on entry" expectations hold)."""


class ContractSpec:
    """Parsed, immutable form of one ``@array_contract`` declaration."""

    __slots__ = ("shapes", "dtypes", "contiguous", "returns")

    def __init__(
        self,
        shapes: Mapping[str, Any],
        dtypes: Mapping[str, tuple[str, ...]],
        contiguous: tuple[str, ...],
        returns: Mapping[str, Any] | None,
    ) -> None:
        self.shapes = dict(shapes)
        self.dtypes = dict(dtypes)
        self.contiguous = contiguous
        self.returns = dict(returns) if returns else None

    @property
    def param_names(self) -> tuple[str, ...]:
        """Every parameter the contract constrains (sorted, stable)."""
        return tuple(
            sorted({*self.shapes, *self.dtypes, *self.contiguous})
        )

    def is_vacuous(self) -> bool:
        return not (self.shapes or self.dtypes or self.contiguous or self.returns)


def _normalize_dtypes(
    dtypes: Mapping[str, str | Sequence[str]] | None,
) -> dict[str, tuple[str, ...]]:
    out: dict[str, tuple[str, ...]] = {}
    for name, spec in (dtypes or {}).items():
        names = (spec,) if isinstance(spec, str) else tuple(spec)
        for dtype_name in names:
            if dtype_name not in DTYPE_LATTICE:
                raise ValueError(
                    f"array_contract dtype {dtype_name!r} for parameter "
                    f"{name!r} is not on the lattice {DTYPE_LATTICE}"
                )
        out[name] = names
    return out


def _check_shape_spec(name: str, spec: object) -> None:
    if not isinstance(spec, (tuple, list)):
        raise ValueError(
            f"array_contract shape for {name!r} must be a tuple, got {spec!r}"
        )
    for index, dim in enumerate(spec):
        if dim == "...":
            if index != 0:
                raise ValueError(
                    f"array_contract shape for {name!r}: '...' is only "
                    "allowed as the leading entry"
                )
        elif not isinstance(dim, (str, int)):
            raise ValueError(
                f"array_contract shape for {name!r}: dims must be symbolic "
                f"names or ints, got {dim!r}"
            )


def _describe_value(value: Any) -> str:
    """Compact actual-state description: ``float32 array of shape (4, 8)``."""
    flags = getattr(value, "flags", None)
    layout = ""
    if flags is not None:
        layout = ", C-contiguous" if flags["C_CONTIGUOUS"] else ", non-contiguous"
    return f"{value.dtype} array of shape {tuple(value.shape)}{layout}"


def _where(qualname: str, name: str) -> str:
    """Who violated: names both the kernel and the offending argument, so a
    failure surfaced from a nested kernel still reads unambiguously."""
    what = "return value" if name == "return" else f"argument {name!r}"
    return f"array contract of {qualname}() violated by {what}"


def validate_contract_value(
    spec: ContractSpec,
    qualname: str,
    name: str,
    value: Any,
    dims: dict[str, int],
) -> None:
    """Validate one parameter (or ``"return"``) against the contract.

    ``dims`` accumulates symbolic-dim bindings across the parameters of a
    single call so cross-parameter dims unify.  Non-array values are
    skipped (duck-typed payload parameters stay unconstrained).  Every
    violation message names the kernel, the offending argument and the
    expected-vs-actual dtype/shape/layout.
    """
    if not hasattr(value, "dtype") or not hasattr(value, "shape"):
        return
    if name == "return" and spec.returns is not None:
        allowed = spec.returns.get("dtype")
    else:
        allowed = spec.dtypes.get(name)
    if allowed is not None:
        bucket = canonical_dtype(value.dtype)
        if bucket not in allowed:
            expected = " or ".join(allowed)
            raise ArrayContractError(
                f"{_where(qualname, name)}: expected dtype {expected}, "
                f"got {_describe_value(value)} "
                f"(dtype {value.dtype} is lattice bucket {bucket})"
            )
    if name in spec.contiguous or (
        name == "return" and spec.returns is not None and spec.returns.get("contiguous")
    ):
        flags = getattr(value, "flags", None)
        if flags is not None and not flags["C_CONTIGUOUS"]:
            raise ArrayContractError(
                f"{_where(qualname, name)}: expected a C-contiguous layout, "
                f"got {_describe_value(value)} with strides "
                f"{getattr(value, 'strides', None)}"
            )
    shape_spec = spec.shapes.get(name)
    if name == "return" and spec.returns is not None:
        shape_spec = spec.returns.get("shape", shape_spec)
    if shape_spec is None:
        return
    declared = tuple(shape_spec)
    ellipsis = bool(declared) and declared[0] == "..."
    if ellipsis:
        declared = declared[1:]
        if len(value.shape) < len(declared):
            raise ArrayContractError(
                f"{_where(qualname, name)}: expected at least "
                f"{len(declared)} trailing dims "
                f"('...', {', '.join(map(repr, declared))}), "
                f"got {_describe_value(value)}"
            )
        actual = tuple(value.shape)[len(value.shape) - len(declared) :]
    else:
        if len(value.shape) != len(declared):
            raise ArrayContractError(
                f"{_where(qualname, name)}: expected shape "
                f"{tuple(declared)} (rank {len(declared)}), "
                f"got {_describe_value(value)}"
            )
        actual = tuple(value.shape)
    for dim, size in zip(declared, actual):
        if isinstance(dim, int):
            if size != dim:
                raise ArrayContractError(
                    f"{_where(qualname, name)}: expected dim {dim} where the "
                    f"contract declares {tuple(declared)}, "
                    f"got {_describe_value(value)}"
                )
            continue
        bound = dims.setdefault(dim, int(size))
        if bound != size:
            raise ArrayContractError(
                f"{_where(qualname, name)}: symbolic dim {dim!r} is "
                f"{bound} elsewhere in this call, but {_describe_value(value)} "
                f"puts {size} there (contract shape {tuple(declared)})"
            )


def _runtime_wrapper(fn: Callable, spec: ContractSpec) -> Callable:
    import functools

    code = fn.__code__
    positional = code.co_varnames[: code.co_argcount]
    qualname = fn.__qualname__
    watched = set(spec.param_names)
    check_return = spec.returns is not None

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        dims: dict[str, int] = {}
        for name, value in zip(positional, args):
            if name in watched:
                validate_contract_value(spec, qualname, name, value, dims)
        for name, value in kwargs.items():
            if name in watched:
                validate_contract_value(spec, qualname, name, value, dims)
        result = fn(*args, **kwargs)
        if check_return:
            validate_contract_value(spec, qualname, "return", result, dims)
        return result

    return wrapper


def array_contract(
    *,
    shapes: Mapping[str, Any] | None = None,
    dtypes: Mapping[str, str | Sequence[str]] | None = None,
    contiguous: Sequence[str] = (),
    returns: Mapping[str, Any] | None = None,
) -> Callable[[F], F]:
    """Declare the array contract of a hot kernel (see module docstring).

    Always attaches the parsed :class:`ContractSpec` as
    ``__repro_array_contract__``; wraps the function with entry asserts
    only when ``REPRO_ARRAY_CONTRACTS`` was set at decoration time.
    Raises ``ValueError`` when the contract names a parameter the
    decorated function does not have.
    """
    for name, spec in (shapes or {}).items():
        _check_shape_spec(name, spec)
    if returns is not None:
        unknown = set(returns) - {"contiguous", "dtype", "shape"}
        if unknown:
            raise ValueError(f"array_contract returns= keys {sorted(unknown)} unknown")
        if "shape" in returns:
            _check_shape_spec("return", returns["shape"])
        if "dtype" in returns:
            returns = {
                **returns,
                "dtype": _normalize_dtypes({"return": returns["dtype"]})["return"],
            }
    parsed = ContractSpec(
        shapes or {},
        _normalize_dtypes(dtypes),
        tuple(contiguous),
        returns,
    )

    def mark(fn: F) -> F:
        code = fn.__code__
        params = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
        unknown = sorted(set(parsed.param_names) - set(params))
        if unknown:
            raise ValueError(
                f"array_contract of {fn.__qualname__}() names unknown "
                f"parameter(s) {unknown}; it has {list(params)}"
            )
        out: Callable = fn
        if array_contracts_enabled() and not parsed.is_vacuous():
            out = _runtime_wrapper(fn, parsed)
        out.__repro_array_contract__ = parsed  # type: ignore[attr-defined]
        return out  # type: ignore[return-value]

    return mark


def get_array_contract(fn: Callable) -> ContractSpec | None:
    """The :class:`ContractSpec` attached to ``fn`` (``None`` when bare)."""
    return getattr(fn, "__repro_array_contract__", None)


@overload
def hot_kernel(fn: F) -> F: ...
@overload
def hot_kernel(fn: str | None = None, *, label: str | None = None) -> Callable[[F], F]: ...


def hot_kernel(fn: Callable | str | None = None, *, label: str | None = None):
    """Mark ``fn`` as a hot kernel.

    Usable bare (``@hot_kernel``), with a keyword label
    (``@hot_kernel(label="...")``) or a positional one
    (``@hot_kernel("...")``).
    """
    if isinstance(fn, str):
        fn, label = None, fn

    def mark(f: F) -> F:
        f.__repro_hot__ = True  # type: ignore[attr-defined]
        f.__repro_hot_label__ = label or f.__qualname__  # type: ignore[attr-defined]
        return f

    return mark if fn is None else mark(fn)


def is_hot_kernel(fn: Callable) -> bool:
    """Whether ``fn`` (or the function under a bound method) is marked."""
    return bool(getattr(fn, "__repro_hot__", False))
