"""Adversarial inputs for the array analyzer's traversal and fact model.

Two families: constructs the interpreter must still see through
(``np.empty_like`` dtype propagation, ``out=`` keyword operands, views of
views), and constructs where precision-first means *deliberate silence* —
facts that die through comprehensions or merged branches must never
surface as findings, and none of it may crash the pass.
"""

import ast

import pytest

from repro.lint.arrays import ARRAY_RULE_NAMES
from repro.lint.callgraph import build_project
from repro.lint.engine import SourceModule, all_project_rules

pytestmark = pytest.mark.lint

HEADER = (
    "import numpy as np\n"
    "from repro.utils.hot import array_contract, hot_kernel\n"
)


def one_module(text, rule_name):
    module = SourceModule(
        path="src/app/mod.py", text=text, tree=ast.parse(text)
    )
    graph = build_project([module])
    rule = next(r for r in all_project_rules() if r.name == rule_name)
    return list(rule.check(graph, [module]))


def all_array_findings(text):
    return [
        f
        for name in ARRAY_RULE_NAMES
        for f in one_module(text, name)
    ]


class TestEmptyLike:
    def test_empty_like_inherits_dtype_for_upcast_detection(self):
        findings = one_module(
            HEADER
            + "@array_contract(dtypes={'x': 'float64'})\n"
            "def apply(x):\n"
            "    y = np.empty_like(x)\n"
            "    return y.astype(np.complex128)\n",
            "silent-upcast-in-hot",
        )
        assert len(findings) == 1

    def test_empty_like_with_dtype_override_resets_the_fact(self):
        # np.empty_like(x, dtype=...) starts a NEW dtype; a later astype
        # back to that same dtype is not a widening.
        findings = one_module(
            HEADER
            + "@array_contract(dtypes={'x': 'float64'})\n"
            "def apply(x):\n"
            "    y = np.empty_like(x, dtype=np.complex128)\n"
            "    return y.astype(np.complex128)\n",
            "silent-upcast-in-hot",
        )
        assert findings == []

    def test_zeros_like_inherits_shape_for_gemm_check(self):
        findings = one_module(
            HEADER
            + "@hot_kernel\n"
            "def bad():\n"
            "    a = np.zeros((3, 4))\n"
            "    b = np.zeros_like(a)\n"
            "    return a @ b\n",  # (3,4) @ (3,4): inner dims 4 != 3
            "shape-mismatch",
        )
        assert len(findings) == 1


class TestOutKwarg:
    def test_strided_out_buffer_in_matmul_flags(self):
        findings = one_module(
            HEADER
            + "@hot_kernel\n"
            "def gemm():\n"
            "    a = np.zeros((4, 4))\n"
            "    b = np.zeros((4, 4))\n"
            "    c = np.zeros((4, 8))\n"
            "    np.matmul(a, b, out=c[:, ::2])\n",
            "hidden-copy-into-kernel",
        )
        assert len(findings) == 1

    def test_contiguous_out_buffer_is_clean(self):
        findings = one_module(
            HEADER
            + "@hot_kernel\n"
            "def gemm():\n"
            "    a = np.zeros((4, 4))\n"
            "    b = np.zeros((4, 4))\n"
            "    c = np.zeros((4, 4))\n"
            "    np.matmul(a, b, out=c)\n",
            "hidden-copy-into-kernel",
        )
        assert findings == []


class TestViewsOfViews:
    def test_slice_of_slice_composes_to_strided(self):
        findings = one_module(
            HEADER
            + "@array_contract(shapes={'z': 'any'}, contiguous=('z',))\n"
            "def kern(z):\n"
            "    return z\n"
            "def caller():\n"
            "    a = np.zeros((8, 8))\n"
            "    v = a[::2]\n"  # strided view
            "    w = v[1:]\n"   # slicing a strided view stays strided
            "    return kern(w)\n",
            "hidden-copy-into-kernel",
        )
        assert len(findings) == 1

    def test_transpose_of_strided_view_into_fft(self):
        findings = one_module(
            HEADER
            + "@hot_kernel\n"
            "def spectrum():\n"
            "    g = np.zeros((8, 8, 8))\n"
            "    v = g[:, ::2]\n"
            "    return np.fft.fftn(v.T)\n",
            "hidden-copy-into-kernel",
        )
        assert len(findings) == 1

    def test_leading_axis_slice_of_contiguous_stays_clean(self):
        # a[lo:hi] of a C-contiguous block is itself C-contiguous.
        findings = one_module(
            HEADER
            + "@array_contract(shapes={'z': 'any'}, contiguous=('z',))\n"
            "def kern(z):\n"
            "    return z\n"
            "def caller():\n"
            "    a = np.zeros((8, 8))\n"
            "    return kern(a[2:6])\n",
            "hidden-copy-into-kernel",
        )
        assert findings == []

    def test_advanced_indexing_yields_a_fresh_copy(self):
        # Fancy indexing materializes a new contiguous array: clean.
        findings = one_module(
            HEADER
            + "@array_contract(shapes={'z': 'any'}, contiguous=('z',))\n"
            "def kern(z):\n"
            "    return z\n"
            "def caller(idx):\n"
            "    a = np.zeros((8, 8))\n"
            "    return kern(a[idx])\n",
            "hidden-copy-into-kernel",
        )
        assert findings == []


class TestPrecisionFirstSilence:
    """Facts that die must stay silent — no false positives, no crashes."""

    def test_comprehension_targets_bind_unknown(self):
        assert (
            all_array_findings(
                HEADER
                + "@array_contract(dtypes={'x': 'float64'})\n"
                "def apply(x):\n"
                "    return [1j * v for v in x]\n"
            )
            == []
        )

    def test_branch_merge_kills_conflicting_facts(self):
        # The two branches disagree about z's layout; the merged fact is
        # unknown and must not flag on either path's behalf.
        assert (
            all_array_findings(
                HEADER
                + "@array_contract(shapes={'z': 'any'}, contiguous=('z',))\n"
                "def kern(z):\n"
                "    return z\n"
                "def caller(flag):\n"
                "    a = np.zeros((8, 8))\n"
                "    if flag:\n"
                "        v = a[::2]\n"
                "    else:\n"
                "        v = a\n"
                "    return kern(v)\n"
            )
            == []
        )

    def test_augmented_assign_does_not_upcast(self):
        # x *= 1j would raise at runtime (cannot cast complex into the
        # float64 buffer) — the in-place form is not a *silent* upcast,
        # so the rule leaves it to the interpreter's runtime error.
        assert (
            all_array_findings(
                HEADER
                + "@array_contract(dtypes={'x': 'float64'})\n"
                "def apply(x):\n"
                "    x *= 2.0\n"
                "    return x\n"
            )
            == []
        )

    def test_facts_die_through_unresolved_calls(self):
        assert (
            all_array_findings(
                HEADER
                + "@array_contract(dtypes={'x': 'float64'})\n"
                "def apply(x, helper):\n"
                "    y = helper(x)\n"
                "    return 1j * y\n"  # y unknown: silent
            )
            == []
        )

    def test_ellipsis_subscript_gives_up_precise_axes(self):
        assert (
            all_array_findings(
                HEADER
                + "@array_contract(shapes={'z': 'any'}, contiguous=('z',))\n"
                "def kern(z):\n"
                "    return z\n"
                "def caller():\n"
                "    a = np.zeros((4, 4, 4))\n"
                "    return kern(a[..., 0])\n"
            )
            == []
        )
