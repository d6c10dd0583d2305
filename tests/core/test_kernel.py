"""Tests for the f_Hxc kernel operator."""

import numpy as np
import pytest

from repro.core import HxcKernel
from repro.dft.hartree import hartree_potential
from repro.dft.xc import lda_kernel
from repro.pw import PlaneWaveBasis, UnitCell
from repro.utils.rng import default_rng


@pytest.fixture(scope="module")
def basis():
    return PlaneWaveBasis(UnitCell.cubic(9.0), ecut=6.0)


@pytest.fixture(scope="module")
def density(basis):
    rng = default_rng(0)
    n = rng.random(basis.n_r) + 0.1
    return n


def test_apply_is_hartree_plus_fxc(basis, density):
    rng = default_rng(1)
    field = rng.standard_normal(basis.n_r)
    kernel = HxcKernel(basis, density)
    expected = hartree_potential(field, basis) + lda_kernel(density) * field
    np.testing.assert_allclose(kernel.apply(field), expected, atol=1e-12)


def test_hartree_only_mode(basis, density):
    rng = default_rng(2)
    field = rng.standard_normal(basis.n_r)
    kernel = HxcKernel(basis, density, include_xc=False)
    np.testing.assert_allclose(
        kernel.apply(field), hartree_potential(field, basis), atol=1e-12
    )
    assert kernel.fxc_diagonal is None


def test_xc_only_mode(basis, density):
    rng = default_rng(3)
    field = rng.standard_normal(basis.n_r)
    kernel = HxcKernel(basis, density, include_hartree=False)
    np.testing.assert_allclose(kernel.apply(field), lda_kernel(density) * field)


def test_symmetric_operator(basis, density):
    """<a|f_Hxc|b> = <b|f_Hxc|a> for real fields."""
    rng = default_rng(4)
    a = rng.standard_normal(basis.n_r)
    b = rng.standard_normal(basis.n_r)
    kernel = HxcKernel(basis, density)
    lhs = (a * kernel.apply(b)).sum()
    rhs = (b * kernel.apply(a)).sum()
    assert lhs == pytest.approx(rhs)


def test_matrix_elements_symmetry(basis, density):
    rng = default_rng(5)
    fields = rng.standard_normal((4, basis.n_r))
    kernel = HxcKernel(basis, density)
    m = kernel.matrix_elements(fields, fields)
    np.testing.assert_allclose(m, m.T, atol=1e-12)


def test_hartree_part_is_positive_semidefinite(basis, density):
    """The Coulomb kernel alone must be PSD on zero-mean fields."""
    rng = default_rng(6)
    fields = rng.standard_normal((6, basis.n_r))
    kernel = HxcKernel(basis, density, include_xc=False)
    m = kernel.matrix_elements(fields, fields)
    evals = np.linalg.eigvalsh(0.5 * (m + m.T))
    assert evals.min() > -1e-10


def test_batched_apply(basis, density):
    rng = default_rng(7)
    fields = rng.standard_normal((3, basis.n_r))
    kernel = HxcKernel(basis, density)
    batched = kernel.apply(fields)
    for i in range(3):
        np.testing.assert_allclose(batched[i], kernel.apply(fields[i]), atol=1e-12)


def test_density_shape_validated(basis):
    with pytest.raises(ValueError, match="density"):
        HxcKernel(basis, np.zeros(10))


# -- the Parseval Gram --------------------------------------------------------

_GRAM_KERNELS = {
    "hxc": {},
    "hartree-only": {"include_xc": False},
    "xc-only": {"include_hartree": False},
    "truncated": {"coulomb_truncation": "auto"},
    "triplet": {"spin": "triplet"},
}


def _relative_max(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestGram:
    """``HxcKernel.gram`` against the apply-then-GEMM formula it replaces."""

    @pytest.fixture(
        scope="class",
        params=[((9.0, 8.0, 8.0), 1), ((8.0, 8.0, 9.0), 0)],
        ids=["odd-n3", "even-n3"],
    )
    def grid_basis(self, request):
        lengths, parity = request.param
        basis = PlaneWaveBasis(UnitCell(np.diag(lengths)), ecut=6.0)
        assert basis.grid.shape[2] % 2 == parity
        return basis

    @pytest.mark.parametrize("name", list(_GRAM_KERNELS))
    def test_matches_apply_then_gemm(self, grid_basis, name):
        rng = default_rng(8)
        density = rng.random(grid_basis.n_r) + 0.1
        rows = rng.standard_normal((6, grid_basis.n_r))
        kernel = HxcKernel(grid_basis, density, **_GRAM_KERNELS[name])
        gram = kernel.gram(rows)
        expected = rows @ kernel.apply(rows).T * grid_basis.grid.dv
        assert _relative_max(gram, expected) <= 1e-13
        np.testing.assert_array_equal(gram, gram.T)

    def test_mixed_sign_weights(self):
        from repro.utils.linalg import weighted_gram

        rng = default_rng(9)
        rows = rng.standard_normal((5, 300))
        weights = rng.standard_normal(300)
        assert (weights > 0).any() and (weights < 0).any()
        gram = weighted_gram(rows, weights)
        assert _relative_max(gram, (rows * weights) @ rows.T) <= 1e-13
        np.testing.assert_array_equal(gram, gram.T)

    @pytest.mark.parametrize("m", [0, 1, 7])
    def test_slab_gram_matches_the_dense_parseval_gram(self, grid_basis, m):
        """The k3-slab Gram against one ``rfftn`` of the whole fields,
        scaled by ``sqrt(w K dV / N_r)`` and SYRKed."""
        import scipy.fft

        from repro.pw.fft import SLAB_PLANES

        rng = default_rng(11)
        kernel = HxcKernel(grid_basis, rng.random(grid_basis.n_r) + 0.1, include_xc=False)
        plan = kernel.coulomb_plan
        grid = grid_basis.grid
        assert grid.shape[2] // 2 + 1 > SLAB_PLANES  # more than one slab
        rows = rng.standard_normal((m, grid.n_points))
        spec = scipy.fft.rfftn(rows.reshape((m, *grid.shape)), axes=(-3, -2, -1))
        k3 = np.arange(spec.shape[-1])
        weight = np.where((k3 == 0) | (2 * k3 == grid.shape[2]), 1.0, 2.0)
        spec *= np.sqrt(plan.kernel_half * weight * grid.dv / grid.n_points)
        flat = spec.reshape(m, plan.kernel_half.size).view(np.float64)
        expected = flat @ flat.T
        gram = plan.gram(rows)
        assert gram.shape == (m, m)
        np.testing.assert_array_equal(gram, gram.T)
        if m:
            assert _relative_max(gram, expected) <= 1e-13

    def test_projection_is_forward_transforms_only(self, basis, density, monkeypatch):
        """``Vtilde`` takes one forward ``(k1, k2)`` transform per
        interpolation vector and half-spectrum ``k3`` plane, and no inverse
        transform."""
        import scipy.fft

        from repro.core.isdf import ISDFDecomposition
        from repro.core.isdf_hamiltonian import project_kernel

        kernel = HxcKernel(basis, density)
        n_mu = 7
        rng = default_rng(10)
        isdf = ISDFDecomposition(
            indices=np.arange(n_mu),
            fit_rows=rng.standard_normal((n_mu, basis.n_r)),
            psi_v_mu=rng.standard_normal((2, n_mu)),
            psi_c_mu=rng.standard_normal((4, n_mu)),
            method="kmeans",
        )
        n1, n2, n3 = basis.grid.shape
        names = ("fft2", "ifft2", "rfftn", "irfftn", "fftn", "ifftn", "ifft", "irfft")
        counts = dict.fromkeys(names, 0)
        for name in counts:
            original = getattr(scipy.fft, name)

            def counted(x, *args, _name=name, _original=original, **kwargs):
                counts[_name] += np.size(x) // (n1 * n2)
                return _original(x, *args, **kwargs)

            monkeypatch.setattr(scipy.fft, name, counted)
        vtilde = project_kernel(isdf, kernel)
        assert counts == {**dict.fromkeys(names, 0), "fft2": n_mu * (n3 // 2 + 1)}
        assert vtilde.shape == (n_mu, n_mu)
