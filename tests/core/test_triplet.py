"""Triplet (spin-flip) LR-TDDFT tests."""

import numpy as np
import pytest

from repro.api import TDDFTConfig
from repro.core import HxcKernel, LRTDDFTSolver
from repro.pw import PlaneWaveBasis, UnitCell
from repro.utils.rng import default_rng


class TestTripletKernelObject:
    def test_triplet_disables_hartree(self):
        basis = PlaneWaveBasis(UnitCell.cubic(8.0), ecut=5.0)
        rng = default_rng(0)
        density = rng.random(basis.n_r) + 0.1
        kernel = HxcKernel(basis, density, spin="triplet")
        assert not kernel.include_hartree
        assert kernel.fxc_diagonal is not None

    def test_triplet_apply_is_local(self):
        """Without Hartree the operator is diagonal in real space."""
        basis = PlaneWaveBasis(UnitCell.cubic(8.0), ecut=5.0)
        rng = default_rng(1)
        density = rng.random(basis.n_r) + 0.1
        kernel = HxcKernel(basis, density, spin="triplet")
        field = rng.standard_normal(basis.n_r)
        np.testing.assert_allclose(
            kernel.apply(field), kernel.fxc_diagonal * field
        )

    def test_invalid_spin_rejected(self):
        basis = PlaneWaveBasis(UnitCell.cubic(8.0), ecut=5.0)
        with pytest.raises(ValueError, match="spin"):
            HxcKernel(basis, np.ones(basis.n_r), spin="doublet")


class TestTripletExcitations:
    @pytest.fixture(scope="class")
    def solvers(self, water_ground_state):
        return (
            LRTDDFTSolver(water_ground_state, seed=1),
            LRTDDFTSolver(water_ground_state, spin="triplet", seed=1),
        )

    def test_triplets_below_singlets(self, solvers):
        """Hund-like ordering: every low triplet sits below its singlet."""
        singlet, triplet = solvers
        e_s = singlet.solve(TDDFTConfig(method="naive", n_excitations=3)).energies
        e_t = triplet.solve(TDDFTConfig(method="naive", n_excitations=3)).energies
        assert (e_t < e_s).all()

    def test_triplets_below_ks_transitions(self, solvers):
        """With an attractive-only kernel the excitations redshift from the
        bare KS transition energies."""
        _, triplet = solvers
        from repro.core.pair_products import pair_energies

        e_t = triplet.solve(TDDFTConfig(method="naive", n_excitations=3)).energies
        d = np.sort(pair_energies(triplet.eps_v, triplet.eps_c))
        assert (e_t <= d[:3] + 1e-10).all()

    def test_isdf_versions_work_for_triplet(self, solvers):
        _, triplet = solvers
        dense = triplet.solve(TDDFTConfig(method="naive", n_excitations=3))
        implicit = triplet.solve(
            TDDFTConfig(
                method="implicit-kmeans-isdf-lobpcg", n_excitations=3, tol=1e-10,
            )
        )
        rel = np.abs((implicit.energies - dense.energies[:3]) / dense.energies[:3])
        assert rel.max() < 0.02

    def test_full_casida_triplet(self, solvers):
        _, triplet = solvers
        tda = triplet.solve(TDDFTConfig(method="naive", n_excitations=3))
        full = triplet.solve(TDDFTConfig(method="naive", n_excitations=3, tda=False))
        assert full.energies[0] <= tda.energies[0] + 1e-12
