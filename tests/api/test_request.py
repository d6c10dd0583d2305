"""CalculationRequest: canonical identity, cache-key stability, shims."""

import json
import warnings

import numpy as np
import pytest

from repro import api
from repro.api import (
    CalculationRequest,
    RTConfig,
    SCFConfig,
    TDDFTConfig,
    execute_request,
    reset_deprecation_warnings,
    structure_from_dict,
    structure_to_dict,
)
from repro.atoms import silicon_primitive_cell
from repro.pw.cell import UnitCell


@pytest.fixture()
def cell():
    # Irrational-ish coordinates: the floats must survive repr round-trips.
    return UnitCell(
        10.0 * np.eye(3),
        ("H", "H"),
        np.array([[1 / 3, 0.1, 0.1], [2 / 3, 0.1, 0.1 + 1e-15]]),
    )


@pytest.fixture()
def scf_request(cell):
    return CalculationRequest(
        kind="scf", structure=cell, scf=SCFConfig(ecut=4.0, tol=1e-6)
    )


class TestConstruction:
    def test_kind_validated(self, cell):
        with pytest.raises(ValueError, match="kind"):
            CalculationRequest(kind="md", structure=cell)

    @pytest.mark.parametrize(
        ("kind", "extra"),
        [
            ("scf", {"tddft": TDDFTConfig()}),
            ("scf", {"rt": RTConfig()}),
            ("tddft", {"rt": RTConfig()}),
            ("rt", {"tddft": TDDFTConfig()}),
        ],
    )
    def test_irrelevant_configs_rejected(self, cell, kind, extra):
        with pytest.raises(ValueError, match="does not consume"):
            CalculationRequest(kind=kind, structure=cell, **extra)

    def test_batch_rejects_single_cell(self, cell):
        with pytest.raises(ValueError, match="sequence"):
            CalculationRequest(kind="batch", structure=cell)

    def test_scf_rejects_cell_list(self, cell):
        with pytest.raises(ValueError, match="single UnitCell"):
            CalculationRequest(kind="scf", structure=[cell, cell])

    def test_batch_structure_normalized_to_tuple(self, cell):
        request = CalculationRequest(kind="batch", structure=[cell, cell])
        assert isinstance(request.structure, tuple)
        assert request.batch is not None


class TestCacheKeyStability:
    def test_json_round_trip_is_identity(self, scf_request):
        """serialize -> parse -> rebuild reproduces the exact key."""
        rebuilt = CalculationRequest.from_dict(
            json.loads(scf_request.canonical_json())
        )
        assert rebuilt.cache_key() == scf_request.cache_key()
        assert rebuilt.canonical_json() == scf_request.canonical_json()

    def test_invariant_under_dict_key_ordering(self, scf_request):
        payload = scf_request.to_dict()
        shuffled = {k: payload[k] for k in reversed(sorted(payload))}
        shuffled["scf"] = {
            k: payload["scf"][k] for k in reversed(sorted(payload["scf"]))
        }
        assert (
            CalculationRequest.from_dict(shuffled).cache_key()
            == scf_request.cache_key()
        )

    def test_default_vs_explicit_config_is_canonical(self, cell):
        implicit = CalculationRequest(kind="scf", structure=cell)
        explicit = CalculationRequest(kind="scf", structure=cell, scf=SCFConfig())
        assert implicit.cache_key() == explicit.cache_key()

    def test_default_vs_explicit_field_value(self, cell):
        bare = CalculationRequest(kind="scf", structure=cell, scf=SCFConfig())
        spelled = CalculationRequest(
            kind="scf", structure=cell, scf=SCFConfig(ecut=10.0, mixer="anderson")
        )
        assert bare.cache_key() == spelled.cache_key()

    def test_structure_floats_exact(self, cell):
        rebuilt = structure_from_dict(structure_to_dict(cell))
        np.testing.assert_array_equal(
            rebuilt.fractional_positions, cell.fractional_positions
        )
        np.testing.assert_array_equal(rebuilt.lattice, cell.lattice)

    def test_different_structures_never_alias(self, cell):
        moved = UnitCell(
            cell.lattice,
            cell.species,
            cell.fractional_positions + np.array([[0.0, 0.0, 1e-12], [0, 0, 0]]),
        )
        a = CalculationRequest(kind="scf", structure=cell)
        b = CalculationRequest(kind="scf", structure=moved)
        assert a.cache_key() != b.cache_key()

    def test_config_difference_changes_key(self, cell):
        a = CalculationRequest(kind="scf", structure=cell, scf=SCFConfig(tol=1e-6))
        b = CalculationRequest(kind="scf", structure=cell, scf=SCFConfig(tol=1e-7))
        assert a.cache_key() != b.cache_key()

    def test_kind_changes_key(self, cell):
        scf = CalculationRequest(kind="scf", structure=cell)
        td = CalculationRequest(kind="tddft", structure=cell)
        assert scf.cache_key() != td.cache_key()

    def test_precision_tier_is_part_of_the_key(self, cell):
        # strict64 and mixed results are (deliberately) not interchangeable
        # in the content-addressed cache: the tier must enter the key, and
        # the default tier must alias its explicit spelling.
        strict = CalculationRequest(
            kind="tddft", structure=cell, tddft=TDDFTConfig()
        )
        explicit = CalculationRequest(
            kind="tddft", structure=cell,
            tddft=TDDFTConfig(precision="strict64"),
        )
        mixed = CalculationRequest(
            kind="tddft", structure=cell,
            tddft=TDDFTConfig(precision="mixed"),
        )
        assert strict.cache_key() == explicit.cache_key()
        assert strict.cache_key() != mixed.cache_key()

    def test_resilience_is_part_of_the_key(self, cell):
        plain = CalculationRequest(kind="scf", structure=cell)
        degraded = CalculationRequest(
            kind="scf",
            structure=cell,
            resilience=api.ResilienceConfig(max_retries=5),
        )
        assert plain.cache_key() != degraded.cache_key()

    def test_golden_key_is_pinned(self):
        # A content-addressed store depends on this value never drifting:
        # any change to a config's to_dict() shows up here first.
        request = CalculationRequest(
            kind="tddft", structure=silicon_primitive_cell()
        )
        assert request.cache_key() == (
            "ab567d2b4b291be0fb18aa3df1cf0505da49388a95782192376af787632d360f"
        )

    def test_removed_resilience_key_is_rejected(self):
        with pytest.raises(ValueError, match="unknown ResilienceConfig keys"):
            api.ResilienceConfig.from_dict({"fft_fallback": True})

    def test_scf_subrequest_matches_plain_scf_request(self, cell):
        scf = SCFConfig(ecut=5.0)
        td = CalculationRequest(
            kind="tddft", structure=cell, scf=scf, tddft=TDDFTConfig()
        )
        rt = CalculationRequest(kind="rt", structure=cell, scf=scf)
        plain = CalculationRequest(kind="scf", structure=cell, scf=scf)
        assert td.scf_subrequest().cache_key() == plain.cache_key()
        assert rt.scf_subrequest().cache_key() == plain.cache_key()

    def test_from_dict_rejects_unknown_keys(self, scf_request):
        payload = scf_request.to_dict()
        payload["tenant"] = "a"
        with pytest.raises(ValueError, match="unknown"):
            CalculationRequest.from_dict(payload)


class TestExecution:
    def test_compute_runs_scf(self, scf_request):
        gs = scf_request.compute()
        assert gs.converged

    def test_execute_skips_scf_with_ground_state(self, cell, scf_request):
        gs = scf_request.compute()
        td = CalculationRequest(
            kind="tddft",
            structure=cell,
            scf=scf_request.scf,
            tddft=TDDFTConfig(n_excitations=2, n_valence=1, n_conduction=2, seed=0),
        )
        outcome = execute_request(td, ground_state=gs)
        assert outcome.scf_iterations == 0
        assert outcome.result.energies.shape == (2,)

    def test_progress_events_are_staged(self, scf_request):
        events = []
        execute_request(scf_request, progress=events.append)
        assert events, "no progress events published"
        assert {e["stage"] for e in events} == {"scf"}
        iterations = [e["iteration"] for e in events]
        assert iterations == sorted(iterations)
        assert events[-1]["converged"]


class TestLegacyShimsRouteThroughRequests:
    @pytest.fixture()
    def tiny_gs(self, cell):
        reset_deprecation_warnings()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return api.run_scf(cell, SCFConfig(ecut=4.0, tol=1e-6))

    def _deprecations(self, caught):
        return [w for w in caught if issubclass(w.category, DeprecationWarning)]

    def test_run_scf_warns_once_and_matches_request(self, cell):
        reset_deprecation_warnings()
        request = CalculationRequest(
            kind="scf", structure=cell, scf=SCFConfig(ecut=4.0, tol=1e-6)
        )
        direct = request.compute()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            legacy = api.run_scf(cell, SCFConfig(ecut=4.0, tol=1e-6))
            api.run_scf(cell, SCFConfig(ecut=4.0, tol=1e-6))
        dep = self._deprecations(caught)
        assert len(dep) == 1
        assert "CalculationRequest" in str(dep[0].message)
        assert legacy.total_energy == direct.total_energy
        np.testing.assert_array_equal(legacy.density, direct.density)

    def test_run_rt_warns_once(self, tiny_gs):
        reset_deprecation_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = api.run_rt(tiny_gs, n_steps=3, dt=0.1)
            api.run_rt(tiny_gs, n_steps=3, dt=0.1)
        dep = self._deprecations(caught)
        assert len(dep) == 1
        assert "RTConfig" in str(dep[0].message)
        assert len(result.times) > 0

    def test_run_batch_warns_once(self, cell):
        reset_deprecation_warnings()
        config = api.BatchConfig(
            scf=SCFConfig(ecut=4.0, tol=1e-6),
            tddft=TDDFTConfig(n_excitations=2, n_valence=1, n_conduction=2, seed=0),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = api.run_batch([cell, cell], config)
            api.run_batch([cell, cell], config)
        dep = self._deprecations(caught)
        assert len(dep) == 1
        assert "BatchConfig" in str(dep[0].message)
        assert result.records[1].reused_identical
