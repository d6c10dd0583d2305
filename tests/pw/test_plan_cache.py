"""Convolution plan construction and the process-wide plan cache."""

import numpy as np
import pytest

from repro.pw import FourierGrid, GVectors, RealSpaceGrid, UnitCell
from repro.pw.fft import ConvolutionPlan, PlanCache, default_plan_cache

pytestmark = pytest.mark.usefixtures("lock_recorder")


@pytest.fixture()
def fourier():
    grid = RealSpaceGrid(UnitCell.cubic(5.0), (8, 8, 8))
    return FourierGrid(grid)


def _kernel(fourier, scale=1.0):
    # A function of |G|^2 is inversion symmetric, which convolve_real's
    # half-spectrum path requires.
    g2 = GVectors(fourier.grid, ecut=1.0).g2
    return scale / (1.0 + g2)


class TestConvolutionPlan:
    def test_apply_matches_direct_convolution(self, fourier, rng):
        kernel = _kernel(fourier)
        plan = ConvolutionPlan(fourier, kernel)
        fields = rng.standard_normal((3, fourier.grid.n_points))
        np.testing.assert_array_equal(
            plan.apply(fields), fourier.convolve_real(fields, kernel)
        )


class TestPlanCache:
    def test_builds_once_then_hits(self, fourier):
        cache = PlanCache()
        builds = []

        def build():
            builds.append(1)
            return _kernel(fourier)

        first = cache.get("k", fourier, build)
        second = cache.get("k", fourier, build)
        assert first is second
        assert len(builds) == 1
        assert cache.stats() == {"plans": 1, "hits": 1, "misses": 1}

    def test_key_includes_tag_grid_and_lattice(self, fourier):
        cache = PlanCache()
        a = cache.get("a", fourier, lambda: _kernel(fourier))
        b = cache.get("b", fourier, lambda: _kernel(fourier, scale=2.0))
        assert a is not b

        other = FourierGrid(RealSpaceGrid(UnitCell.cubic(6.0), (8, 8, 8)))
        c = cache.get("a", other, lambda: _kernel(other))
        assert c is not a
        assert cache.stats()["plans"] == 3

    def test_lru_eviction(self, fourier):
        cache = PlanCache(max_plans=2)
        cache.get("a", fourier, lambda: _kernel(fourier))
        cache.get("b", fourier, lambda: _kernel(fourier))
        cache.get("a", fourier, lambda: _kernel(fourier))  # refresh a
        cache.get("c", fourier, lambda: _kernel(fourier))  # evicts b
        builds = []
        cache.get("a", fourier, lambda: builds.append(1) or _kernel(fourier))
        cache.get("b", fourier, lambda: builds.append(2) or _kernel(fourier))
        assert builds == [2]  # a survived, b was rebuilt

    def test_clear_resets(self, fourier):
        cache = PlanCache()
        cache.get("a", fourier, lambda: _kernel(fourier))
        cache.clear()
        assert cache.stats() == {"plans": 0, "hits": 0, "misses": 0}

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(max_plans=0)

    def test_default_cache_is_a_singleton(self):
        assert default_plan_cache() is default_plan_cache()
        assert isinstance(default_plan_cache(), PlanCache)


def test_hartree_potential_uses_the_default_cache(si2_ground_state):
    """The SCF Hartree solve must route through the plan cache (the batch
    engine's cross-frame FFT-plan reuse depends on it)."""
    from repro.dft.hartree import hartree_potential

    basis = si2_ground_state.basis
    before = default_plan_cache().stats()
    v1 = hartree_potential(si2_ground_state.density, basis)
    v2 = hartree_potential(si2_ground_state.density, basis)
    after = default_plan_cache().stats()
    np.testing.assert_array_equal(v1, v2)
    assert after["hits"] >= before["hits"] + 1
