"""Config objects: round-trip, immutability, validation, the solve signature."""

import dataclasses

import numpy as np
import pytest

from repro import api
from repro.atoms import silicon_primitive_cell
from repro.core import LRTDDFTSolver
from repro.synthetic import synthetic_ground_state


@pytest.fixture(scope="module")
def tiny_gs():
    return synthetic_ground_state(
        silicon_primitive_cell(), ecut=4.0, n_valence=4, n_conduction=4, seed=5
    )


@pytest.mark.parametrize(
    "cls", [api.SCFConfig, api.TDDFTConfig, api.ResilienceConfig, api.BatchConfig]
)
class TestRoundTrip:
    def test_default_round_trip(self, cls):
        cfg = cls()
        assert cls.from_dict(cfg.to_dict()) == cfg

    def test_modified_round_trip(self, cls):
        field = dataclasses.fields(cls)[0].name
        cfg = cls()
        d = cfg.to_dict()
        assert field in d
        assert cls.from_dict(d) == cfg

    def test_frozen(self, cls):
        cfg = cls()
        field = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, None)

    def test_unknown_key_rejected(self, cls):
        with pytest.raises(ValueError, match="unknown"):
            cls.from_dict({"definitely_not_a_field": 1})


class TestValidation:
    def test_scf_bad_mixer(self):
        with pytest.raises(ValueError, match="mixer"):
            api.SCFConfig(mixer="magic")

    def test_scf_bad_ecut(self):
        with pytest.raises(ValueError, match="ecut"):
            api.SCFConfig(ecut=-1.0)

    def test_tddft_bad_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            api.TDDFTConfig(method="quantum-leap")

    def test_tddft_bad_spin(self):
        with pytest.raises(ValueError, match="spin"):
            api.TDDFTConfig(spin="doublet")

    def test_resilience_bad_fallback(self):
        with pytest.raises(ValueError, match="selection_fallback"):
            api.ResilienceConfig(selection_fallback="prayer")

    def test_batch_nested_configs_rehydrate(self):
        cfg = api.BatchConfig(
            scf=api.SCFConfig(ecut=6.0, tol=1e-7),
            tddft=api.TDDFTConfig(n_excitations=3),
            n_ranks=2,
            spmd_backend="thread",
        )
        back = api.BatchConfig.from_dict(cfg.to_dict())
        assert back == cfg
        assert isinstance(back.scf, api.SCFConfig)
        assert isinstance(back.tddft, api.TDDFTConfig)
        assert back.scf.ecut == 6.0

    def test_batch_bad_extrapolation(self):
        with pytest.raises(ValueError, match="density_extrapolation"):
            api.BatchConfig(density_extrapolation="cubic")

    def test_batch_bad_drift_threshold(self):
        with pytest.raises(ValueError, match="isdf_drift_threshold"):
            api.BatchConfig(isdf_drift_threshold=2.0)

    def test_batch_bad_backend(self):
        with pytest.raises(ValueError, match="spmd_backend"):
            api.BatchConfig(spmd_backend="mpi")

    def test_batch_scf_must_be_config(self):
        with pytest.raises(ValueError, match="scf"):
            api.BatchConfig(scf={"ecut": 6.0})

    def test_scf_bad_precision(self):
        with pytest.raises(ValueError, match="precision"):
            api.SCFConfig(precision="half")

    def test_tddft_bad_precision(self):
        with pytest.raises(ValueError, match="precision"):
            api.TDDFTConfig(precision="fp32")

    def test_batch_bad_precision(self):
        with pytest.raises(ValueError, match="precision"):
            api.BatchConfig(precision="mixed64")

    def test_replace(self):
        cfg = api.TDDFTConfig()
        other = cfg.replace(method="naive", n_excitations=3)
        assert other.method == "naive"
        assert other.n_excitations == 3
        assert cfg.method == "implicit-kmeans-isdf-lobpcg"

    def test_retry_policy_from_resilience(self):
        policy = api.ResilienceConfig(max_retries=5, backoff=0.5).retry_policy()
        assert policy.max_retries == 5
        assert policy.backoff == 0.5

    def test_checkpointer_disabled_without_dir(self):
        assert api.ResilienceConfig().checkpointer("scf") is None

    def test_checkpointer_tagged(self, tmp_path):
        ck = api.ResilienceConfig(checkpoint_dir=str(tmp_path)).checkpointer("scf")
        assert ck.tag == "scf"


class TestPrecisionThreading:
    def test_default_tier_is_strict64(self):
        assert api.SCFConfig().precision == "strict64"
        assert api.TDDFTConfig().precision == "strict64"
        assert api.BatchConfig().precision is None

    def test_batch_precision_pushes_down_to_both_stages(self):
        cfg = api.BatchConfig(precision="mixed")
        assert cfg.scf.precision == "mixed"
        assert cfg.tddft.precision == "mixed"

    def test_batch_none_preserves_nested_tiers(self):
        cfg = api.BatchConfig(
            scf=api.SCFConfig(precision="fast32"),
            tddft=api.TDDFTConfig(precision="mixed"),
        )
        assert cfg.scf.precision == "fast32"
        assert cfg.tddft.precision == "mixed"

    def test_precision_survives_the_dict_round_trip(self):
        cfg = api.TDDFTConfig(precision="mixed")
        assert api.TDDFTConfig.from_dict(cfg.to_dict()).precision == "mixed"


class TestDeprecationShims:
    """The deprecated call styles are gone: ``LRTDDFTSolver.solve`` takes a
    ``TDDFTConfig`` and nothing else describes the solve."""

    def test_legacy_kwargs_are_rejected(self, tiny_gs):
        solver = LRTDDFTSolver(tiny_gs, seed=0)
        with pytest.raises(TypeError):
            solver.solve("naive", n_excitations=2)
        with pytest.raises(TypeError, match="TDDFTConfig"):
            solver.solve("naive")

    def test_config_plus_legacy_kwargs_is_an_error(self, tiny_gs):
        with pytest.raises(TypeError):
            LRTDDFTSolver(tiny_gs).solve(api.TDDFTConfig(), n_excitations=2)

    def test_request_and_solver_paths_agree(self, tiny_gs):
        config = api.TDDFTConfig(method="naive", n_excitations=3)
        request = api.CalculationRequest(
            kind="tddft", structure=tiny_gs.basis.cell, tddft=config
        )
        via_request = api.execute_request(request, ground_state=tiny_gs).result
        direct = LRTDDFTSolver(tiny_gs).solve(config)
        np.testing.assert_array_equal(via_request.energies, direct.energies)


class TestSolverFieldsFixedAtConstruction:
    """``spin`` / ``include_xc`` / ``n_valence`` / ``n_conduction`` /
    ``seed`` shape the solver when it is built; a config that disagrees
    must fail instead of being silently ignored."""

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("spin", "triplet"),
            ("include_xc", False),
            ("n_valence", 2),
            ("n_conduction", 2),
            ("seed", 7),
        ],
    )
    def test_disagreeing_field_is_named(self, tiny_gs, field, value):
        config = api.TDDFTConfig(method="naive", n_excitations=2, **{field: value})
        with pytest.raises(ValueError, match=f"config.{field}="):
            LRTDDFTSolver(tiny_gs).solve(config)

    def test_triplet_window_config_is_not_answered_with_the_singlet(self, tiny_gs):
        config = api.TDDFTConfig(
            method="naive", n_excitations=2, spin="triplet", n_conduction=2
        )
        with pytest.raises(ValueError, match="config.spin="):
            LRTDDFTSolver(tiny_gs).solve(config)
        matching = LRTDDFTSolver(tiny_gs, spin="triplet", n_conduction=2)
        triplet = matching.solve(config)
        singlet = LRTDDFTSolver(tiny_gs).solve(
            api.TDDFTConfig(method="naive", n_excitations=2)
        )
        assert not np.array_equal(triplet.energies, singlet.energies)

    def test_matching_or_default_fields_are_accepted(self, tiny_gs):
        solver = LRTDDFTSolver(tiny_gs, spin="triplet", n_conduction=2, seed=3)
        same = api.TDDFTConfig(
            method="naive", n_excitations=2, spin="triplet", n_conduction=2, seed=3
        )
        defaults = api.TDDFTConfig(method="naive", n_excitations=2)
        np.testing.assert_array_equal(
            solver.solve(same).energies, solver.solve(defaults).energies
        )
