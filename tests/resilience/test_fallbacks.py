"""Graceful degradation: ISDF selection and eigensolver fallbacks."""

import numpy as np
import pytest

from repro import api
from repro.atoms import silicon_primitive_cell
from repro.core import isdf as isdf_mod
from repro.core.isdf import isdf_decompose
from repro.synthetic import synthetic_ground_state


@pytest.fixture(scope="module")
def tiny_gs():
    return synthetic_ground_state(
        silicon_primitive_cell(), ecut=4.0, n_valence=4, n_conduction=4, seed=11
    )


class TestSelectionFallback:
    @pytest.fixture(scope="class")
    def transition_space(self):
        gs = synthetic_ground_state(
            silicon_primitive_cell(), ecut=4.0, n_valence=4, n_conduction=4,
            seed=3,
        )
        psi_v, _, psi_c, _ = gs.select_transition_space()
        return psi_v, psi_c, gs.basis.grid.cartesian_points

    def test_kmeans_exception_falls_back_to_qrcp(
        self, transition_space, monkeypatch
    ):
        psi_v, psi_c, grid_points = transition_space

        def broken_kmeans(*args, **kwargs):
            raise RuntimeError("simulated K-Means failure")

        monkeypatch.setattr(isdf_mod, "select_points_kmeans", broken_kmeans)
        result = isdf_decompose(
            psi_v, psi_c, n_mu=10, method="kmeans", grid_points=grid_points,
            rng=np.random.default_rng(0), fallback="qrcp",
        )
        assert result.method == "qrcp"
        assert result.indices.shape == (10,)

    def test_kmeans_exception_without_fallback_raises(
        self, transition_space, monkeypatch
    ):
        psi_v, psi_c, grid_points = transition_space
        monkeypatch.setattr(
            isdf_mod, "select_points_kmeans",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(RuntimeError, match="boom"):
            isdf_decompose(
                psi_v, psi_c, n_mu=10, method="kmeans",
                grid_points=grid_points, rng=np.random.default_rng(0),
            )

    def test_qrcp_result_matches_direct_qrcp(self, transition_space, monkeypatch):
        psi_v, psi_c, grid_points = transition_space
        direct = isdf_decompose(
            psi_v, psi_c, n_mu=10, method="qrcp",
            rng=np.random.default_rng(0),
        )
        monkeypatch.setattr(
            isdf_mod, "select_points_kmeans",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        fell_back = isdf_decompose(
            psi_v, psi_c, n_mu=10, method="kmeans", grid_points=grid_points,
            rng=np.random.default_rng(0), fallback="qrcp",
        )
        np.testing.assert_array_equal(fell_back.indices, direct.indices)
        np.testing.assert_array_equal(fell_back.theta, direct.theta)

    def test_bad_fallback_name_rejected(self, transition_space):
        psi_v, psi_c, grid_points = transition_space
        with pytest.raises(ValueError, match="fallback"):
            isdf_decompose(
                psi_v, psi_c, n_mu=10, method="kmeans",
                grid_points=grid_points, fallback="prayer",
            )


def _tddft(ground_state, config, resilience=None):
    """A tddft request on an existing ground state: the path that carries
    the dense-eigensolver fallback."""
    request = api.CalculationRequest(
        kind="tddft",
        structure=ground_state.basis.cell,
        tddft=config,
        resilience=resilience,
    )
    return api.execute_request(request, ground_state=ground_state).result


class TestDenseEigFallback:
    def test_unconverged_implicit_solve_falls_back_to_dense(self, tiny_gs):
        config = api.TDDFTConfig(
            method="implicit-kmeans-isdf-lobpcg",
            n_excitations=3, max_iter=1, tol=1e-14, seed=0,
        )
        result = _tddft(
            tiny_gs, config, resilience=api.ResilienceConfig()
        )
        assert result.converged
        assert result.method == "kmeans-isdf"

    def test_fallback_disabled_by_pair_budget(self, tiny_gs):
        config = api.TDDFTConfig(
            method="implicit-kmeans-isdf-lobpcg",
            n_excitations=3, max_iter=1, tol=1e-14, seed=0,
        )
        result = _tddft(
            tiny_gs, config,
            resilience=api.ResilienceConfig(dense_fallback_max_pairs=0),
        )
        assert not result.converged
        assert result.method == "implicit-kmeans-isdf-lobpcg"

    def test_no_resilience_means_no_fallback(self, tiny_gs):
        config = api.TDDFTConfig(
            method="implicit-kmeans-isdf-lobpcg",
            n_excitations=3, max_iter=1, tol=1e-14, seed=0,
        )
        result = _tddft(tiny_gs, config)
        assert not result.converged
        assert result.method == "implicit-kmeans-isdf-lobpcg"

    def test_fallback_energies_match_direct_dense(self, tiny_gs):
        config = api.TDDFTConfig(
            method="implicit-kmeans-isdf-lobpcg",
            n_excitations=3, max_iter=1, tol=1e-14, seed=0,
        )
        fallback = _tddft(
            tiny_gs, config, resilience=api.ResilienceConfig()
        )
        direct = _tddft(
            tiny_gs, config.replace(method="kmeans-isdf", max_iter=400)
        )
        np.testing.assert_allclose(
            fallback.energies[:3], direct.energies[:3], rtol=1e-8
        )
