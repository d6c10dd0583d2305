"""End-to-end integration tests across every layer of the stack.

Each test exercises a full user workflow (the paths README advertises),
asserting cross-layer consistency rather than unit behaviour.
"""

import numpy as np
import pytest

from repro.api import TDDFTConfig
from repro import LRTDDFTSolver
from repro.analysis import (
    density_of_states,
    dominant_transitions,
    electron_hole_densities,
    excitation_dos,
    participation_ratio,
)
from repro.core import oscillator_strengths, transition_dipoles


class TestSCFToSpectrum:
    """SCF -> LR-TDDFT -> observables, on the real water molecule."""

    @pytest.fixture(scope="class")
    def pipeline(self, water_ground_state):
        solver = LRTDDFTSolver(water_ground_state, seed=0)
        result = solver.solve(
            TDDFTConfig(
                method="implicit-kmeans-isdf-lobpcg", n_excitations=6, tol=1e-9,
            )
        )
        return water_ground_state, solver, result

    def test_excitations_above_gap_minus_binding(self, pipeline):
        gs, solver, result = pipeline
        gap = gs.homo_lumo_gap()
        # Excitonic binding can pull below the KS gap, but not absurdly.
        assert result.energies[0] > 0.5 * gap

    def test_oscillator_strengths_finite(self, pipeline):
        gs, solver, result = pipeline
        dip = transition_dipoles(solver.psi_v, solver.psi_c, solver.basis)
        f = oscillator_strengths(result.energies, result.wavefunctions, dip)
        assert np.all(np.isfinite(f))
        assert (f > -1e-12).all()

    def test_exciton_analysis_consistent(self, pipeline):
        gs, solver, result = pipeline
        x = result.wavefunctions[:, 0]
        top = dominant_transitions(x, solver.n_v, solver.n_c, n_top=3)
        pr = participation_ratio(x)
        # Participation ratio consistent with the dominant weight.
        assert pr >= 1.0 / top[0].weight - 1e-9 or pr >= 1.0
        n_e, n_h = electron_hole_densities(x, solver.psi_v, solver.psi_c)
        dv = gs.basis.grid.dv
        assert n_e.sum() * dv == pytest.approx(1.0, rel=1e-6)
        assert n_h.sum() * dv == pytest.approx(1.0, rel=1e-6)

    def test_excitation_dos_integrates_to_count(self, pipeline):
        gs, solver, result = pipeline
        grid = np.linspace(0.0, float(result.energies.max()) * 1.5, 400)
        xdos = excitation_dos(result.energies, grid, broadening=0.005)
        assert np.trapezoid(xdos, grid) == pytest.approx(
            len(result.energies), rel=0.1
        )


class TestPersistencePipeline:
    """SCF -> save -> load -> identical downstream physics."""

    def test_saved_state_reproduces_everything(self, si2_ground_state, tmp_path):
        from repro.dft import load_ground_state, save_ground_state
        from repro.dft.bands import bands_at_k

        path = save_ground_state(si2_ground_state, tmp_path / "si2")
        loaded = load_ground_state(path)

        a = LRTDDFTSolver(si2_ground_state, seed=3).solve(
            TDDFTConfig(method="kmeans-isdf", n_excitations=3)
        )
        b = LRTDDFTSolver(loaded, seed=3).solve(
            TDDFTConfig(method="kmeans-isdf", n_excitations=3)
        )
        np.testing.assert_array_equal(a.energies, b.energies)

        e_a = bands_at_k(si2_ground_state, [0.25, 0.0, 0.25], 6)
        e_b = bands_at_k(loaded, [0.25, 0.0, 0.25], 6)
        np.testing.assert_allclose(e_a, e_b, atol=1e-9)


class TestTDAvsFullvsTriplet:
    """The physics ladder on one system: TDA >= full; triplet <= singlet."""

    def test_ordering_ladder(self, water_ground_state):
        singlet = LRTDDFTSolver(water_ground_state, seed=0)
        triplet = LRTDDFTSolver(water_ground_state, spin="triplet", seed=0)
        e_tda = singlet.solve(TDDFTConfig(method="naive", n_excitations=1)).energies[0]
        e_full = singlet.solve(
            TDDFTConfig(method="naive", n_excitations=1, tda=False)
        ).energies[0]
        e_trip = triplet.solve(TDDFTConfig(method="naive", n_excitations=1)).energies[0]
        assert e_full <= e_tda + 1e-12
        assert e_trip < e_tda

    def test_all_methods_agree_on_full_casida(self, si2_ground_state):
        solver = LRTDDFTSolver(si2_ground_state, seed=5)
        reference = solver.solve(
            TDDFTConfig(method="naive", n_excitations=3, tda=False)
        )
        for method in ("qrcp-isdf", "implicit-kmeans-isdf-lobpcg"):
            res = solver.solve(
                TDDFTConfig(method=method, n_excitations=3, tda=False, tol=1e-11)
            )
            rel = np.abs(
                (res.energies - reference.energies[:3]) / reference.energies[:3]
            )
            assert rel.max() < 0.02, method


class TestSerialEqualsDistributedEqualsModel:
    """The three layers of the reproduction agree on one problem."""

    def test_three_way_consistency(self, si8_synthetic):
        from repro.core import HxcKernel, build_vhxc
        from repro.parallel import (
            BlockDistribution1D,
            distributed_build_vhxc,
            spmd_run,
        )

        gs = si8_synthetic
        psi_v, _, psi_c, _ = gs.select_transition_space(6, 4)
        kernel = HxcKernel(gs.basis, gs.density)
        serial = build_vhxc(psi_v, psi_c, kernel)
        dist = BlockDistribution1D(gs.basis.n_r, 3)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            return distributed_build_vhxc(
                comm, psi_v[:, sl], psi_c[:, sl], kernel, dist
            )

        results, traffic = spmd_run(3, prog, return_traffic=True)
        np.testing.assert_allclose(results[0], serial, atol=1e-12)

        # The traced alltoall volume equals the model's closed form.
        n_cv = psi_v.shape[0] * psi_c.shape[0]
        pair_dist = BlockDistribution1D(n_cv, 3)
        expected = 2 * sum(
            dist.count(s) * pair_dist.count(d) * 8
            for s in range(3)
            for d in range(3)
            if s != d
        )
        assert traffic.bytes_by_op["alltoall"] == expected


class TestCrossSolverGroundState:
    """LOBPCG, Davidson and dense agree on the KS band problem itself."""

    def test_band_solvers_agree(self, si2_ground_state):
        from repro.dft import KohnShamHamiltonian
        from repro.eigen import davidson, lobpcg
        from repro.utils.rng import default_rng

        gs = si2_ground_state
        ham = KohnShamHamiltonian(gs.basis)
        ham.update_density(gs.density)
        rng = default_rng(0)
        x0 = gs.basis.random_coefficients(6, rng).T
        res_l = lobpcg(
            ham.apply_columns, x0, preconditioner=ham.preconditioner,
            tol=1e-9, max_iter=300,
        )
        res_d = davidson(
            ham.apply_columns, x0, ham.diagonal(), tol=1e-9, max_iter=300
        )
        # Davidson's crude kinetic-diagonal correction converges the last
        # (degenerate) band slowly, so compare each band to the accuracy
        # both solvers achieved: for a Hermitian operator a Ritz value lies
        # within its residual norm of an exact eigenvalue.
        bound = res_l.residual_norms + res_d.residual_norms
        diff = np.abs(res_l.eigenvalues - res_d.eigenvalues)
        assert np.all(diff <= bound), (diff, bound)
        np.testing.assert_allclose(
            res_l.eigenvalues, gs.energies[:6], atol=1e-6
        )
