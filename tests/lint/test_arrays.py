"""The array-contract analyzer: dim unification, dtype joins, four rules.

Rule snippets run through the same single-module-project harness as the
other interprocedural rule tests; the repo-clean class at the bottom
pins the PR's invariant that ``src/`` has zero unsuppressed findings
from any of the four array rules.
"""

import ast
import pathlib

import pytest

from repro.lint import lint_paths
from repro.lint.arrays import (
    ARRAY_RULE_NAMES,
    Dim,
    join_dtypes,
    unify_dims,
)
from repro.lint.callgraph import build_project
from repro.lint.engine import SourceModule, all_project_rules

pytestmark = pytest.mark.lint

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def project_findings(files, rule_name):
    modules = [
        SourceModule(path=path, text=text, tree=ast.parse(text))
        for path, text in files.items()
    ]
    graph = build_project(modules)
    rule = next(r for r in all_project_rules() if r.name == rule_name)
    return list(rule.check(graph, modules))


def one_module(text, rule_name):
    return project_findings({"src/app/mod.py": text}, rule_name)


HEADER = (
    "import numpy as np\n"
    "from repro.utils.hot import array_contract, hot_kernel\n"
)


class TestDimUnification:
    @pytest.mark.parametrize(
        "a, b, conflict",
        [
            (Dim(value=3), Dim(value=3), False),
            (Dim(value=3), Dim(value=4), True),
            (Dim(name="n"), Dim(value=5), False),
            (Dim(name="n"), Dim(name="m"), False),  # symbols may coincide
            (Dim(), Dim(value=7), False),
            (Dim(), Dim(), False),
        ],
    )
    def test_conflict_table(self, a, b, conflict):
        _, got = unify_dims(a, b)
        assert got is conflict
        # Unification is symmetric in its conflict verdict.
        _, rev = unify_dims(b, a)
        assert rev is conflict

    def test_merge_keeps_name_and_value(self):
        merged, conflict = unify_dims(Dim(name="n"), Dim(value=5))
        assert not conflict
        assert merged.name == "n"
        assert merged.value == 5

    def test_unknown_dim_absorbs_either_side(self):
        merged, conflict = unify_dims(Dim(), Dim(name="k", value=2))
        assert not conflict
        assert (merged.name, merged.value) == ("k", 2)


class TestDtypeJoin:
    LATTICE = ("bool", "int64", "float32", "float64", "complex128")

    @pytest.mark.parametrize(
        "a, b, expect",
        [
            ("bool", "int64", "int64"),
            ("int64", "float32", "float32"),
            ("float32", "float64", "float64"),
            ("float64", "complex128", "complex128"),
            ("bool", "complex128", "complex128"),
            ("float64", "float64", "float64"),
        ],
    )
    def test_join_table(self, a, b, expect):
        assert join_dtypes(a, b) == expect

    def test_join_is_commutative_and_idempotent(self):
        for a in self.LATTICE:
            assert join_dtypes(a, a) == a
            for b in self.LATTICE:
                assert join_dtypes(a, b) == join_dtypes(b, a)

    def test_unknown_is_absorbing(self):
        assert join_dtypes(None, "float64") is None
        assert join_dtypes("float64", None) is None


class TestSilentUpcastInHot:
    def test_astype_complex_in_contracted_kernel(self):
        findings = one_module(
            HEADER
            + "@array_contract(dtypes={'x': 'float64'})\n"
            "def apply(x):\n"
            "    return x.astype(np.complex128)\n",
            "silent-upcast-in-hot",
        )
        assert len(findings) == 1
        assert "complex128" in findings[0].message

    def test_complex_literal_broadcast(self):
        findings = one_module(
            HEADER
            + "@array_contract(dtypes={'x': 'float64'})\n"
            "def apply(x):\n"
            "    return 1j * x\n",
            "silent-upcast-in-hot",
        )
        assert len(findings) == 1

    def test_weak_float_scalar_does_not_widen_float32(self):
        # NEP-50: a python float is a weak scalar, 3.0 * float32 stays
        # float32 — must NOT flag.
        findings = one_module(
            HEADER
            + "@array_contract(dtypes={'x': 'float32'})\n"
            "def apply(x):\n"
            "    return 3.0 * x\n",
            "silent-upcast-in-hot",
        )
        assert findings == []

    def test_float64_array_operand_widens_float32(self):
        findings = one_module(
            HEADER
            + "@array_contract(dtypes={'x': 'float32'})\n"
            "def apply(x):\n"
            "    w = np.zeros(4)\n"
            "    return w * x\n",
            "silent-upcast-in-hot",
        )
        assert len(findings) == 1

    def test_cold_function_may_upcast_freely(self):
        findings = one_module(
            HEADER
            + "def reference(x):\n"
            "    y = np.zeros(3)\n"
            "    return y.astype(np.complex128)\n",
            "silent-upcast-in-hot",
        )
        assert findings == []

    def test_unknown_dtype_never_flags(self):
        findings = one_module(
            HEADER
            + "@hot_kernel\n"
            "def apply(x):\n"
            "    return 1j * x\n",  # x dtype unknown: stay silent
            "silent-upcast-in-hot",
        )
        assert findings == []


class TestHiddenCopyIntoKernel:
    def test_strided_slice_into_contract_contiguous_param(self):
        findings = one_module(
            HEADER
            + "@array_contract(shapes={'z': ('n', 'm')}, contiguous=('z',))\n"
            "def kern(z):\n"
            "    return z\n"
            "def caller():\n"
            "    z0 = np.zeros((4, 6))\n"
            "    return kern(z0[:, ::2])\n",
            "hidden-copy-into-kernel",
        )
        assert len(findings) == 1
        assert "C-contiguity" in findings[0].message
        # The witness chain names the caller and the contracted callee.
        assert "caller -> kern" in findings[0].message

    def test_contiguous_argument_is_clean(self):
        findings = one_module(
            HEADER
            + "@array_contract(shapes={'z': ('n', 'm')}, contiguous=('z',))\n"
            "def kern(z):\n"
            "    return z\n"
            "def caller():\n"
            "    z0 = np.zeros((4, 6))\n"
            "    return kern(z0)\n",
            "hidden-copy-into-kernel",
        )
        assert findings == []

    def test_transpose_into_fft_entry(self):
        findings = one_module(
            HEADER
            + "@hot_kernel\n"
            "def spectrum(a):\n"
            "    g = np.zeros((8, 8, 8))\n"
            "    return np.fft.fftn(g.T)\n",
            "hidden-copy-into-kernel",
        )
        assert len(findings) == 1

    def test_transpose_into_gemm_is_allowed(self):
        # BLAS consumes F-contiguous (transposed) operands natively via
        # lda/trans flags: no hidden copy, no finding.
        findings = one_module(
            HEADER
            + "@hot_kernel\n"
            "def gram(a):\n"
            "    b = np.zeros((8, 8))\n"
            "    return b.T @ b\n",
            "hidden-copy-into-kernel",
        )
        assert findings == []

    def test_strided_operand_into_gemm_flags(self):
        findings = one_module(
            HEADER
            + "@hot_kernel\n"
            "def gram(a):\n"
            "    b = np.zeros((8, 8))\n"
            "    return b[:, ::2] @ b[::2]\n",
            "hidden-copy-into-kernel",
        )
        assert len(findings) >= 1

    def test_ascontiguousarray_launders_the_layout(self):
        findings = one_module(
            HEADER
            + "@array_contract(shapes={'z': ('n', 'm')}, contiguous=('z',))\n"
            "def kern(z):\n"
            "    return z\n"
            "def caller():\n"
            "    z0 = np.zeros((4, 6))\n"
            "    return kern(np.ascontiguousarray(z0[:, ::2]))\n",
            "hidden-copy-into-kernel",
        )
        assert findings == []


class TestShapeMismatch:
    def test_matmul_inner_dim_conflict(self):
        findings = one_module(
            HEADER
            + "@hot_kernel\n"
            "def bad():\n"
            "    a = np.zeros((3, 4))\n"
            "    b = np.zeros((5, 6))\n"
            "    return a @ b\n",
            "shape-mismatch",
        )
        assert len(findings) == 1

    def test_matmul_matching_inner_dim_is_clean(self):
        findings = one_module(
            HEADER
            + "@hot_kernel\n"
            "def ok():\n"
            "    a = np.zeros((3, 4))\n"
            "    b = np.zeros((4, 6))\n"
            "    return a @ b\n",
            "shape-mismatch",
        )
        assert findings == []

    def test_rank_mismatch_against_contract(self):
        findings = one_module(
            HEADER
            + "@array_contract(shapes={'x': ('n', 'm')})\n"
            "def kern(x):\n"
            "    return x\n"
            "def caller():\n"
            "    return kern(np.zeros(3))\n",
            "shape-mismatch",
        )
        assert len(findings) == 1

    def test_symbolic_dim_conflict_across_parameters(self):
        findings = one_module(
            HEADER
            + "@array_contract(shapes={'a': ('n',), 'b': ('n',)})\n"
            "def kern(a, b):\n"
            "    return a\n"
            "def caller():\n"
            "    return kern(np.zeros(3), np.zeros(4))\n",
            "shape-mismatch",
        )
        assert len(findings) == 1

    def test_symbolic_dims_that_agree_are_clean(self):
        findings = one_module(
            HEADER
            + "@array_contract(shapes={'a': ('n',), 'b': ('n',)})\n"
            "def kern(a, b):\n"
            "    return a\n"
            "def caller():\n"
            "    return kern(np.zeros(3), np.zeros(3))\n",
            "shape-mismatch",
        )
        assert findings == []

    def test_malformed_contract_is_unconfirmable(self):
        findings = one_module(
            HEADER
            + "SHAPES = {'x': ('n',)}\n"
            "@array_contract(shapes=SHAPES)\n"  # not a literal
            "def kern(x):\n"
            "    return x\n",
            "shape-mismatch",
        )
        assert len(findings) == 1
        assert "unconfirmable" in findings[0].message

    def test_contract_naming_unknown_parameter(self):
        findings = one_module(
            HEADER
            + "@array_contract(shapes={'y': ('n',)})\n"
            "def kern(x):\n"
            "    return x\n",
            "shape-mismatch",
        )
        assert len(findings) == 1
        assert "unknown parameter" in findings[0].message


class TestUndeclaredDowncastInHot:
    """Mixed-precision governance: a float64 -> float32 downcast inside a
    hot function must be statically sanctioned by a ``precision_policy``
    on its contract — otherwise it is an unreviewed precision loss."""

    def test_astype_downcast_flagged(self):
        findings = one_module(
            HEADER
            + "@array_contract(dtypes={'x': 'float64'})\n"
            "def apply(x):\n"
            "    return x.astype(np.float32)\n",
            "undeclared-downcast-in-hot",
        )
        assert len(findings) == 1
        assert "float32" in findings[0].message

    def test_asarray_dtype_downcast_flagged(self):
        findings = one_module(
            HEADER
            + "@array_contract(dtypes={'x': 'float64'})\n"
            "def apply(x):\n"
            "    return np.asarray(x, dtype=np.float32)\n",
            "undeclared-downcast-in-hot",
        )
        assert len(findings) == 1

    def test_ascontiguousarray_dtype_downcast_flagged(self):
        findings = one_module(
            HEADER
            + "@array_contract(dtypes={'x': 'float64'})\n"
            "def apply(x):\n"
            "    return np.ascontiguousarray(x, dtype=np.float32)\n",
            "undeclared-downcast-in-hot",
        )
        assert len(findings) == 1

    def test_declared_policy_sanctions_the_downcast(self):
        findings = one_module(
            HEADER
            + "@array_contract(dtypes={'x': 'float64'},\n"
            "                precision_policy='fp32-compute')\n"
            "def apply(x):\n"
            "    return x.astype(np.float32)\n",
            "undeclared-downcast-in-hot",
        )
        assert findings == []

    def test_cold_function_may_downcast_freely(self):
        findings = one_module(
            HEADER
            + "def reference(x):\n"
            "    y = np.zeros(3)\n"
            "    return y.astype(np.float32)\n",
            "undeclared-downcast-in-hot",
        )
        assert findings == []

    def test_fp32_input_is_not_a_downcast(self):
        findings = one_module(
            HEADER
            + "@array_contract(dtypes={'x': 'float32'})\n"
            "def apply(x):\n"
            "    return np.asarray(x, dtype=np.float32)\n",
            "undeclared-downcast-in-hot",
        )
        assert findings == []

    def test_unknown_dtype_never_flags(self):
        findings = one_module(
            HEADER
            + "@hot_kernel\n"
            "def apply(x):\n"
            "    return x.astype(np.float32)\n",  # x dtype unknown
            "undeclared-downcast-in-hot",
        )
        assert findings == []

    def test_rule_is_registered(self):
        assert "undeclared-downcast-in-hot" in ARRAY_RULE_NAMES


class TestRealTreeIsClean:
    """The PR invariant: zero unsuppressed array findings on ``src/``."""

    def test_array_rules_clean_on_src(self):
        findings = [
            f
            for f in lint_paths([SRC], rules=list(ARRAY_RULE_NAMES))
            if f.rule in ARRAY_RULE_NAMES
        ]
        assert findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule}: {f.message}" for f in findings
        )

    def test_all_four_rules_register(self):
        names = {r.name for r in all_project_rules()}
        assert set(ARRAY_RULE_NAMES) <= names
