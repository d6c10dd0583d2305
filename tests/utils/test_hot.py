"""Hot-kernel markers and runtime ``@array_contract`` enforcement.

The enforcement gate is decided at decoration time, so every enabled-mode
test sets ``REPRO_ARRAY_CONTRACTS`` *before* applying the decorator to a
fresh function, and every disabled-mode test clears it.  The package's own
kernels were decorated at import under the session-wide setting of
``tests/conftest.py``.
"""

import numpy as np
import pytest

from repro.parallel.pipeline import pipelined_vhxc_rows
from repro.pw import FourierGrid, RealSpaceGrid, UnitCell
from repro.utils.hot import (
    ArrayContractError,
    array_contract,
    array_contracts_enabled,
    canonical_dtype,
    get_array_contract,
    hot_kernel,
    is_hot_kernel,
)

pytestmark = pytest.mark.lint


@pytest.fixture()
def enabled(monkeypatch):
    monkeypatch.setenv("REPRO_ARRAY_CONTRACTS", "1")


class TestHotKernelMarker:
    def test_bare_and_labelled_forms(self):
        @hot_kernel
        def a():
            pass

        @hot_kernel(label="fft/apply")
        def b():
            pass

        assert is_hot_kernel(a) and is_hot_kernel(b)
        assert b.__repro_hot_label__ == "fft/apply"
        assert not is_hot_kernel(lambda: None)


class TestCanonicalDtype:
    @pytest.mark.parametrize(
        "name, bucket",
        [
            ("int32", "int64"),
            ("uint8", "int64"),
            ("float16", "float32"),
            ("float64", "float64"),
            ("complex64", "complex128"),
            ("bool_", "bool"),
        ],
    )
    def test_buckets(self, name, bucket):
        assert canonical_dtype(np.dtype(name)) == bucket

    def test_foreign_dtype_is_none(self):
        assert canonical_dtype("datetime64[ns]") is None


class TestDecorationTimeValidation:
    def test_bad_dtype_name_raises(self):
        with pytest.raises(ValueError, match="lattice"):
            array_contract(dtypes={"x": "float128"})

    def test_bad_returns_key_raises(self):
        with pytest.raises(ValueError, match="returns"):
            array_contract(returns={"layout": "C"})

    def test_interior_ellipsis_raises(self):
        with pytest.raises(ValueError, match="leading"):
            array_contract(shapes={"x": ("n", "...", "m")})

    def test_non_tuple_shape_raises(self):
        with pytest.raises(ValueError, match="tuple"):
            array_contract(shapes={"x": 5})

    def test_misspelled_parameter_raises(self):
        contract = array_contract(
            dtypes={"z_loacl": "float64"}, contiguous=("z_loacl",)
        )

        def kern(z_local):
            return z_local

        with pytest.raises(ValueError, match="unknown parameter.*z_loacl"):
            contract(kern)


class TestDisabledByDefault:
    def test_violations_pass_silently_and_fn_is_unwrapped(self, monkeypatch):
        monkeypatch.delenv("REPRO_ARRAY_CONTRACTS", raising=False)
        assert not array_contracts_enabled()

        def raw(x):
            return x

        decorated = array_contract(dtypes={"x": "float64"})(raw)
        assert decorated is raw  # zero overhead: same function object
        decorated(np.zeros(3, dtype=np.float32))  # no enforcement

    def test_spec_is_still_attached(self, monkeypatch):
        monkeypatch.delenv("REPRO_ARRAY_CONTRACTS", raising=False)

        @array_contract(dtypes={"x": ("float64", "complex128")})
        def f(x):
            return x

        spec = get_array_contract(f)
        assert spec is not None
        assert spec.dtypes["x"] == ("float64", "complex128")


class TestEnabledEnforcement:
    def test_wrong_dtype_raises(self, enabled):
        @array_contract(dtypes={"x": "float64"})
        def f(x):
            return x

        f(np.zeros(3))
        with pytest.raises(ArrayContractError, match="dtype"):
            f(np.zeros(3, dtype=np.float32))

    def test_dtype_buckets_fold_on_entry(self, enabled):
        @array_contract(dtypes={"x": "int64"})
        def f(x):
            return x

        f(np.zeros(3, dtype=np.int32))  # int32 folds onto the int64 bucket

    def test_non_contiguous_raises(self, enabled):
        @array_contract(contiguous=("x",))
        def f(x):
            return x

        a = np.zeros((4, 4))
        f(a)
        with pytest.raises(ArrayContractError, match="C-contiguous"):
            f(a.T)

    def test_rank_mismatch_raises(self, enabled):
        @array_contract(shapes={"x": ("n", "m")})
        def f(x):
            return x

        with pytest.raises(ArrayContractError, match="rank"):
            f(np.zeros(3))

    def test_literal_dim_is_pinned(self, enabled):
        @array_contract(shapes={"x": (3, "m")})
        def f(x):
            return x

        f(np.zeros((3, 7)))
        with pytest.raises(ArrayContractError, match="dim"):
            f(np.zeros((4, 7)))

    def test_symbolic_dims_unify_across_parameters(self, enabled):
        @array_contract(shapes={"a": ("n", "k"), "b": ("n",)})
        def f(a, b):
            return a

        f(np.zeros((5, 2)), np.zeros(5))
        with pytest.raises(ArrayContractError, match="symbolic dim"):
            f(np.zeros((5, 2)), np.zeros(6))

    def test_leading_ellipsis_matches_extra_axes(self, enabled):
        @array_contract(shapes={"x": ("...", "n")})
        def f(x):
            return x

        f(np.zeros(4))
        f(np.zeros((2, 3, 4)))
        with pytest.raises(ArrayContractError, match="trailing dims"):
            f(np.float64(1.0).reshape(()))  # rank 0 < 1 trailing dim

    def test_contiguous_alone_constrains_no_shape(self, enabled):
        @array_contract(contiguous=("x",))
        def f(x):
            return x

        f(np.zeros((2, 3, 4)))
        f(np.zeros(()))

    def test_non_array_arguments_are_skipped(self, enabled):
        @array_contract(shapes={"x": ("n",)}, dtypes={"x": "float64"})
        def f(x):
            return x

        f(None)
        f([1.0, 2.0])  # duck-typed payloads stay unconstrained

    def test_return_dtype_and_contiguity(self, enabled):
        @array_contract(returns={"dtype": "float64", "contiguous": True})
        def good():
            return np.zeros((2, 2))

        @array_contract(returns={"dtype": "float64"})
        def wrong_dtype():
            return np.zeros(2, dtype=np.complex128)

        @array_contract(returns={"contiguous": True})
        def transposed():
            return np.zeros((2, 3)).T

        good()
        with pytest.raises(ArrayContractError, match="dtype"):
            wrong_dtype()
        with pytest.raises(ArrayContractError, match="C-contiguous"):
            transposed()

    def test_return_shape_unifies_with_parameter_dims(self, enabled):
        @array_contract(
            shapes={"x": ("n",)}, returns={"shape": ("n",)}
        )
        def doubler(x):
            return np.concatenate([x, x])  # wrong: returns 2n

        with pytest.raises(ArrayContractError, match="symbolic dim"):
            doubler(np.zeros(3))

    def test_kwargs_are_validated_too(self, enabled):
        @array_contract(dtypes={"x": "float64"})
        def f(*, x=None):
            return x

        with pytest.raises(ArrayContractError, match="dtype"):
            f(x=np.zeros(3, dtype=np.float32))

    def test_vacuous_contract_never_wraps(self, enabled):
        def raw():
            return None

        decorated = array_contract()(raw)
        assert decorated is raw
        assert get_array_contract(decorated).is_vacuous()

    def test_wrapper_preserves_identity_metadata(self, enabled):
        @array_contract(dtypes={"x": "float64"})
        def my_kernel(x):
            """Docstring survives."""
            return x

        assert my_kernel.__name__ == "my_kernel"
        assert my_kernel.__doc__ == "Docstring survives."


class TestViolationMessages:
    """A violation must name the kernel, the offending argument and the
    expected-vs-actual dtype/shape/layout — a failure surfaced from a
    nested kernel three GEMMs deep has to read unambiguously."""

    def test_dtype_message_names_argument_and_both_dtypes(self, enabled):
        @array_contract(dtypes={"weights": "float64"})
        def classify(points, weights):
            return weights

        with pytest.raises(ArrayContractError) as err:
            classify(np.zeros(3), np.zeros((4, 8), dtype=np.float32))
        message = str(err.value)
        assert "classify()" in message
        assert "'weights'" in message
        assert "expected dtype float64" in message
        assert "float32 array of shape (4, 8)" in message

    def test_layout_message_reports_actual_strides(self, enabled):
        @array_contract(contiguous=("z",))
        def gemm(z):
            return z

        with pytest.raises(ArrayContractError) as err:
            gemm(np.zeros((4, 6)).T)
        message = str(err.value)
        assert "gemm()" in message and "'z'" in message
        assert "expected a C-contiguous layout" in message
        assert "non-contiguous" in message and "strides" in message

    def test_shape_message_shows_expected_and_actual(self, enabled):
        @array_contract(shapes={"x": ("n", 3)})
        def f(x):
            return x

        with pytest.raises(ArrayContractError) as err:
            f(np.zeros((5, 4)))
        message = str(err.value)
        assert "'x'" in message
        assert "float64 array of shape (5, 4)" in message

    def test_symbolic_dim_message_names_the_binding(self, enabled):
        @array_contract(shapes={"a": ("n",), "b": ("n",)})
        def f(a, b):
            return a

        with pytest.raises(ArrayContractError) as err:
            f(np.zeros(4), np.zeros(5))
        message = str(err.value)
        assert "'n'" in message and "4" in message

    def test_return_violation_says_return_value(self, enabled):
        @array_contract(returns={"dtype": "float64"})
        def f():
            return np.zeros(2, dtype=np.float32)

        with pytest.raises(ArrayContractError, match="return value"):
            f()


class TestEnforcedInThisSession:
    """Tier-1 runs with contracts on: the package's kernels are wrapped and
    reject a violating call.  ``TestDisabledByDefault`` is the other half —
    outside the test session the decorator returns the function itself."""

    def test_float32_into_a_transform_is_rejected(self):
        fourier = FourierGrid(RealSpaceGrid(UnitCell.cubic(5.0), (8, 8, 8)))
        fourier.forward(np.zeros(fourier.grid.n_points))
        with pytest.raises(ArrayContractError, match="forward"):
            fourier.forward(np.zeros(fourier.grid.n_points, dtype=np.float32))

    def test_pipelined_gemm_is_wrapped(self):
        assert hasattr(pipelined_vhxc_rows, "__wrapped__")


class TestEnvParsing:
    @pytest.mark.parametrize("value", ["1", "true", "on", "yes"])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_ARRAY_CONTRACTS", value)
        assert array_contracts_enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "  OFF  "])
    def test_falsy_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_ARRAY_CONTRACTS", value)
        assert not array_contracts_enabled()
