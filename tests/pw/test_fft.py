"""Tests for the Fourier-series FFT conventions, checked against ``np.fft``."""

import numpy as np
import pytest
import scipy.fft

from repro.pw import FourierGrid, GVectors, RealSpaceGrid, UnitCell
from repro.pw.fft import ConvolutionPlan, scratch


@pytest.fixture()
def fourier():
    grid = RealSpaceGrid(UnitCell.cubic(5.0), (8, 8, 8))
    return FourierGrid(grid)


def test_roundtrip(fourier, rng):
    f = rng.standard_normal(fourier.grid.n_points).astype(complex)
    np.testing.assert_allclose(fourier.backward(fourier.forward(f)), f, atol=1e-12)


def test_constant_field_maps_to_g0(fourier):
    f = np.full(fourier.grid.n_points, 3.7, dtype=complex)
    f_g = fourier.forward(f)
    assert f_g[0] == pytest.approx(3.7)
    np.testing.assert_allclose(f_g[1:], 0.0, atol=1e-12)


def test_single_plane_wave_coefficient(fourier):
    """f(r) = exp(i G1 . r) must give coefficient 1 at miller (1,0,0)."""
    grid = fourier.grid
    gv = GVectors(grid, ecut=1.0)
    phase = grid.fractional_points @ np.array([1, 0, 0])
    f = np.exp(2j * np.pi * phase)
    f_g = fourier.forward(f)
    idx = np.flatnonzero((gv.miller == [1, 0, 0]).all(axis=1))[0]
    assert f_g[idx] == pytest.approx(1.0)
    f_g[idx] = 0.0
    np.testing.assert_allclose(f_g, 0.0, atol=1e-12)


def test_batched_transform_matches_loop(fourier, rng):
    fields = rng.standard_normal((4, fourier.grid.n_points)).astype(complex)
    batched = fourier.forward(fields)
    for i in range(4):
        np.testing.assert_allclose(batched[i], fourier.forward(fields[i]))


def test_backward_real_matches_real_part(fourier, rng):
    f = rng.standard_normal(fourier.grid.n_points)
    f_g = fourier.forward(f.astype(complex))
    np.testing.assert_allclose(fourier.backward_real(f_g), f, atol=1e-12)


def test_parseval(fourier, rng):
    """sum_r |f|^2 / N = sum_G |f_G|^2 under the series convention."""
    f = rng.standard_normal(fourier.grid.n_points).astype(complex)
    f_g = fourier.forward(f)
    lhs = (np.abs(f) ** 2).sum() / fourier.grid.n_points
    rhs = (np.abs(f_g) ** 2).sum()
    assert lhs == pytest.approx(rhs)


def test_convolution_theorem(fourier, rng):
    """Multiplying coefficients equals periodic convolution of fields."""
    n = fourier.grid.n_points
    a = rng.standard_normal(n).astype(complex)
    b = rng.standard_normal(n).astype(complex)
    prod_g = fourier.forward(a) * fourier.forward(b)
    direct = fourier.backward(prod_g)
    # Periodic convolution via dense loop on a tiny grid is too slow; use
    # numpy's FFT with matching normalization as the independent reference.
    shape = fourier.grid.shape
    ref = np.fft.ifftn(
        np.fft.fftn(a.reshape(shape)) * np.fft.fftn(b.reshape(shape))
    ).ravel() / n
    np.testing.assert_allclose(direct, ref, atol=1e-10)


# -- np.fft oracle ------------------------------------------------------------


@pytest.fixture()
def odd_grid():
    # Mixed even/odd extents exercise the rfftn half-spectrum cut.
    return RealSpaceGrid(UnitCell.cubic(6.0), (9, 8, 7))


def _symmetric_kernel(grid):
    # A function of |G|^2 is inversion symmetric, which convolve_real's
    # half-spectrum path requires.
    return 1.0 / (1.0 + GVectors(grid, ecut=1.0).g2)


def _oracle_convolve(grid, fields, kernel):
    f = fields.reshape(fields.shape[:-1] + grid.shape)
    k = kernel.reshape(grid.shape)
    out = np.fft.ifftn(np.fft.fftn(f, axes=(-3, -2, -1)) * k, axes=(-3, -2, -1))
    return out.real.reshape(fields.shape)


def _close(got, expect):
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(expect).max())


class TestNumpyOracle:
    def test_forward(self, odd_grid, rng):
        n = odd_grid.n_points
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        expect = np.fft.fftn(f.reshape(odd_grid.shape)).ravel() / n
        _close(FourierGrid(odd_grid).forward(f), expect)

    def test_backward(self, odd_grid, rng):
        n = odd_grid.n_points
        f_g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        expect = np.fft.ifftn(f_g.reshape(odd_grid.shape)).ravel() * n
        _close(FourierGrid(odd_grid).backward(f_g), expect)

    def test_batched_forward(self, odd_grid, rng):
        n = odd_grid.n_points
        fields = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
        expect = np.fft.fftn(
            fields.reshape((5,) + odd_grid.shape), axes=(-3, -2, -1)
        ).reshape(5, n) / n
        _close(FourierGrid(odd_grid).forward(fields), expect)

    def test_roundtrip(self, odd_grid, rng):
        f = rng.standard_normal(odd_grid.n_points).astype(complex)
        fourier = FourierGrid(odd_grid)
        np.testing.assert_allclose(fourier.backward(fourier.forward(f)), f, atol=1e-12)

    def test_convolve_real_on_real_fields(self, odd_grid, rng):
        kernel = _symmetric_kernel(odd_grid)
        fields = rng.standard_normal((4, odd_grid.n_points))
        got = FourierGrid(odd_grid).convolve_real(fields, kernel)
        assert got.dtype == np.float64
        _close(got, _oracle_convolve(odd_grid, fields, kernel))

    def test_convolve_real_on_complex_fields(self, odd_grid, rng):
        kernel = _symmetric_kernel(odd_grid)
        fields = rng.standard_normal((3, odd_grid.n_points)).astype(complex)
        got = FourierGrid(odd_grid).convolve_real(fields, kernel)
        assert got.dtype == np.float64
        _close(got, _oracle_convolve(odd_grid, fields, kernel))

    def test_float64_plan_apply(self, odd_grid, rng):
        kernel = _symmetric_kernel(odd_grid)
        fields = rng.standard_normal((3, odd_grid.n_points))
        plan = ConvolutionPlan(FourierGrid(odd_grid), kernel)
        _close(plan.apply(fields), _oracle_convolve(odd_grid, fields, kernel))


class TestConvolveReal:
    def test_real_input_takes_the_half_spectrum_path(self, odd_grid, rng, monkeypatch):
        def no_full_spectrum(*args, **kwargs):
            raise AssertionError("real input must not take the fftn path")

        monkeypatch.setattr(scipy.fft, "fftn", no_full_spectrum)
        kernel = _symmetric_kernel(odd_grid)
        fields = rng.standard_normal((2, odd_grid.n_points))
        got = FourierGrid(odd_grid).convolve_real(fields, kernel)
        _close(got, _oracle_convolve(odd_grid, fields, kernel))

    def test_precomputed_half_kernel(self, odd_grid, rng):
        kernel = _symmetric_kernel(odd_grid)
        fields = rng.standard_normal(odd_grid.n_points)
        fourier = FourierGrid(odd_grid)
        half = fourier.half_kernel(kernel)
        np.testing.assert_array_equal(
            fourier.convolve_real(fields, kernel, kernel_half=half),
            fourier.convolve_real(fields, kernel),
        )


class TestScratchPool:
    def test_same_key_reuses_buffer(self):
        a = scratch((4, 5), np.complex128)
        assert scratch((4, 5), np.complex128) is a
        assert scratch((4, 5), np.float64) is not a

    def test_pool_is_bounded(self):
        first = scratch((1, 1), float)
        for n in range(2, 12):  # evict well past the slot budget
            scratch((n, 1), float)
        assert scratch((1, 1), float) is not first
