"""Result objects round-trip exactly through the npz+json payload format."""

import numpy as np
import pytest

from repro import api
from repro.atoms import silicon_primitive_cell
from repro.core import LRTDDFTSolver
from repro.dft.groundstate import GroundState
from repro.rt.tddft import RTResult
from repro.synthetic import synthetic_ground_state
from repro.utils.serialization import (
    SerializationError,
    load_payload,
    save_payload,
)


@pytest.fixture(scope="module")
def tiny_gs():
    return synthetic_ground_state(
        silicon_primitive_cell(), ecut=4.0, n_valence=4, n_conduction=4, seed=7
    )


class TestPayload:
    def test_nested_round_trip(self, tmp_path):
        payload = {
            "arr": np.arange(6.0).reshape(2, 3),
            "cplx": np.array([1 + 2j, 3 - 4j]),
            "nested": {"list": [1, "two", None, np.ones(2)], "flag": True},
            "scalar": 0.1 + 0.2,
        }
        path = tmp_path / "p.npz"
        save_payload(path, payload)
        out = load_payload(path)
        np.testing.assert_array_equal(out["arr"], payload["arr"])
        np.testing.assert_array_equal(out["cplx"], payload["cplx"])
        assert out["nested"]["flag"] is True
        assert out["nested"]["list"][1] == "two"
        assert out["nested"]["list"][2] is None
        np.testing.assert_array_equal(out["nested"]["list"][3], np.ones(2))
        assert out["scalar"] == payload["scalar"]  # bit-exact float round-trip

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(SerializationError, match="reserved"):
            save_payload(tmp_path / "p.npz", {"__meta__": 1})

    def test_non_string_key_rejected(self, tmp_path):
        with pytest.raises(SerializationError, match="keys must be str"):
            save_payload(tmp_path / "p.npz", {1: "x"})

    def test_not_a_payload_file(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, a=np.ones(3))
        with pytest.raises(SerializationError, match="not a repro payload"):
            load_payload(path)


class TestGroundStateRoundTrip:
    def test_bit_identical(self, tiny_gs, tmp_path):
        path = tmp_path / "gs.npz"
        tiny_gs.save(path)
        loaded = GroundState.load(path)
        np.testing.assert_array_equal(loaded.energies, tiny_gs.energies)
        np.testing.assert_array_equal(
            loaded.orbitals_real, tiny_gs.orbitals_real
        )
        np.testing.assert_array_equal(loaded.occupations, tiny_gs.occupations)
        np.testing.assert_array_equal(loaded.density, tiny_gs.density)
        assert loaded.total_energy == tiny_gs.total_energy
        assert loaded.converged == tiny_gs.converged
        assert loaded.basis.n_r == tiny_gs.basis.n_r
        assert loaded.basis.cell.species == tiny_gs.basis.cell.species

    def test_loaded_state_is_usable(self, tiny_gs, tmp_path):
        path = tmp_path / "gs.npz"
        tiny_gs.save(path)
        loaded = GroundState.load(path)
        psi_v, eps_v, psi_c, eps_c = loaded.select_transition_space()
        assert psi_v.shape[0] == tiny_gs.n_occupied

    def test_class_tag_enforced(self, tiny_gs, tmp_path):
        path = tmp_path / "gs.npz"
        tiny_gs.save(path)
        with pytest.raises(SerializationError, match="GroundState"):
            RTResult.load(path)


class TestLRTDDFTResultRoundTrip:
    def test_round_trip_with_isdf(self, tiny_gs, tmp_path):
        solver = LRTDDFTSolver(tiny_gs, seed=0)
        result = solver.solve(api.TDDFTConfig(method="kmeans-isdf"))
        path = tmp_path / "td.npz"
        result.save(path)
        loaded = api.LRTDDFTResult.load(path)
        np.testing.assert_array_equal(loaded.energies, result.energies)
        np.testing.assert_array_equal(
            loaded.wavefunctions, result.wavefunctions
        )
        assert loaded.method == result.method
        assert loaded.n_mu == result.n_mu
        assert loaded.converged == result.converged
        np.testing.assert_array_equal(loaded.isdf.theta, result.isdf.theta)
        np.testing.assert_array_equal(loaded.isdf.indices, result.isdf.indices)

    def test_previous_format_with_theta_rejected(
        self, tiny_gs, tmp_path, monkeypatch
    ):
        """Format 1 stored ISDF results with ``theta``; format 2 stores the
        fit rows, and a format-1 file fails with the typed error."""
        from repro.utils import serialization

        result = LRTDDFTSolver(tiny_gs, seed=0).solve(
            api.TDDFTConfig(method="kmeans-isdf")
        )
        data = result.to_dict()
        isdf = dict(data["isdf"])
        isdf["theta"] = result.isdf.theta
        del isdf["fit_rows"]
        path = tmp_path / "old.npz"
        monkeypatch.setattr(serialization, "PAYLOAD_FORMAT_VERSION", 1)
        save_payload(path, {"class": "LRTDDFTResult", "data": {**data, "isdf": isdf}})
        monkeypatch.undo()
        assert serialization.PAYLOAD_FORMAT_VERSION == 2
        with pytest.raises(SerializationError, match="payload format 1 is not supported"):
            api.LRTDDFTResult.load(path)

    def test_round_trip_naive_has_no_isdf(self, tiny_gs, tmp_path):
        solver = LRTDDFTSolver(tiny_gs, seed=0)
        result = solver.solve(api.TDDFTConfig(method="naive", n_excitations=3))
        path = tmp_path / "naive.npz"
        result.save(path)
        loaded = api.LRTDDFTResult.load(path)
        assert loaded.isdf is None
        np.testing.assert_array_equal(loaded.energies, result.energies)


class TestRTResultRoundTrip:
    def test_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        result = RTResult(
            times=np.linspace(0.0, 1.0, 6),
            dipoles=rng.standard_normal((6, 3)),
            norms=rng.random(6),
            kick_strength=1e-3,
            kick_direction=np.array([0.0, 0.0, 1.0]),
        )
        path = tmp_path / "rt.npz"
        result.save(path)
        loaded = RTResult.load(path)
        np.testing.assert_array_equal(loaded.times, result.times)
        np.testing.assert_array_equal(loaded.dipoles, result.dipoles)
        np.testing.assert_array_equal(loaded.norms, result.norms)
        assert loaded.kick_strength == result.kick_strength


class TestLoadResultDispatch:
    def test_dispatches_on_class_tag(self, tiny_gs, tmp_path):
        path = tmp_path / "gs.npz"
        tiny_gs.save(path)
        loaded = api.load_result(path)
        assert isinstance(loaded, GroundState)

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "odd.npz"
        save_payload(path, {"class": "Mystery", "data": {}})
        with pytest.raises(SerializationError, match="Mystery"):
            api.load_result(path)
