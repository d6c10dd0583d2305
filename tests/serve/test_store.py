"""Result store: compatibility rules, nearest lookup, persistence."""

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import CalculationRequest, SCFConfig, structure_to_dict
from repro.pw.cell import UnitCell
from repro.serve import ResultStore
from repro.serve.store import (
    nearest_key,
    resolved_n_bands,
    rms_displacement,
    warm_compatible,
)


def _h2(z_offset=0.0):
    return UnitCell(
        10.0 * np.eye(3),
        ("H", "H"),
        np.array([[0.5, 0.5, 0.43 + z_offset], [0.5, 0.5, 0.57 + z_offset]]),
    )


@pytest.fixture()
def structure():
    return structure_to_dict(_h2())


def _meta(structure, ecut=4.0, n_bands=5):
    return {"structure": structure, "ecut": ecut, "n_bands": n_bands}


class TestResolvedNBands:
    def test_explicit_wins(self):
        assert resolved_n_bands(SCFConfig(n_bands=7), ("H", "H")) == 7

    def test_default_matches_scf_rule(self):
        # H2: 2 valence electrons -> n_occ=1 -> 1 + max(4, 0) = 5.
        assert resolved_n_bands(SCFConfig(), ("H", "H")) == 5

    def test_none_and_explicit_default_resolve_identically(self):
        species = ("Si", "Si")
        implicit = resolved_n_bands(SCFConfig(), species)
        assert resolved_n_bands(SCFConfig(n_bands=implicit), species) == implicit


class TestRmsDisplacement:
    def test_zero_for_identical(self, structure):
        assert rms_displacement(structure, structure) == 0.0

    def test_cartesian_scale(self, structure):
        moved = structure_to_dict(_h2(z_offset=0.01))
        # Both atoms moved 0.01 fractional along z of a 10-bohr box.
        assert rms_displacement(structure, moved) == pytest.approx(0.1, rel=1e-9)

    def test_minimum_image_wrap(self):
        a = structure_to_dict(
            UnitCell(10.0 * np.eye(3), ("H",), np.array([[0.0, 0.5, 0.99]]))
        )
        b = structure_to_dict(
            UnitCell(10.0 * np.eye(3), ("H",), np.array([[0.0, 0.5, 0.01]]))
        )
        # Across the periodic boundary the move is 0.02 frac = 0.2 bohr,
        # not 0.98 frac.
        assert rms_displacement(a, b) == pytest.approx(0.2, rel=1e-9)

    def test_atom_count_mismatch_raises(self, structure):
        other = structure_to_dict(
            UnitCell(10.0 * np.eye(3), ("H",), np.array([[0.5, 0.5, 0.5]]))
        )
        with pytest.raises(ValueError, match="atom counts"):
            rms_displacement(structure, other)


class TestWarmCompatible:
    def test_same_everything_compatible(self, structure):
        assert warm_compatible(_meta(structure), structure, 4.0, 5)

    def test_positions_may_differ(self, structure):
        moved = structure_to_dict(_h2(z_offset=0.05))
        assert warm_compatible(_meta(structure), moved, 4.0, 5)

    def test_ecut_must_match(self, structure):
        assert not warm_compatible(_meta(structure), structure, 6.0, 5)

    def test_n_bands_must_match(self, structure):
        assert not warm_compatible(_meta(structure), structure, 4.0, 6)

    def test_lattice_must_match(self, structure):
        bigger = structure_to_dict(
            UnitCell(
                11.0 * np.eye(3),
                ("H", "H"),
                np.array([[0.5, 0.5, 0.43], [0.5, 0.5, 0.57]]),
            )
        )
        assert not warm_compatible(_meta(structure), bigger, 4.0, 5)

    def test_species_order_matters(self, structure):
        swapped = dict(structure)
        swapped["species"] = list(reversed(structure["species"]))
        swapped["species"][0] = "He"  # make the orders actually differ
        assert not warm_compatible(_meta(structure), swapped, 4.0, 5)

    def test_meta_without_structure_incompatible(self, structure):
        assert not warm_compatible({}, structure, 4.0, 5)


class TestNearestKey:
    def test_ranks_by_displacement(self, structure):
        near = structure_to_dict(_h2(z_offset=0.01))
        far = structure_to_dict(_h2(z_offset=0.2))
        entries = {"far": _meta(far), "near": _meta(near)}
        key, rms = nearest_key(entries, structure, 4.0, 5)
        assert key == "near"
        assert rms == pytest.approx(0.1, rel=1e-9)

    def test_skips_incompatible(self, structure):
        entries = {"wrong-ecut": _meta(structure, ecut=8.0)}
        assert nearest_key(entries, structure, 4.0, 5) is None

    def test_deterministic_tie_break(self, structure):
        entries = {"b": _meta(structure), "a": _meta(structure)}
        key, _ = nearest_key(entries, structure, 4.0, 5)
        assert key == "a"


class TestStoreMemory:
    def test_put_get_round_trip(self):
        store = ResultStore()
        store.put("k1", "payload", meta={"kind": "scf"})
        entry = store.get("k1")
        assert entry.result == "payload"
        assert entry.meta["kind"] == "scf"
        assert "k1" in store
        assert len(store) == 1
        assert store.get("missing") is None

    def test_non_serializable_results_stay_memory_only(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", object())  # no to_dict -> must not try to persist
        assert store.get("k1") is not None
        fresh = ResultStore(tmp_path)
        assert fresh.get("k1") is None


class _ArrayResult:
    """Minimal serializable result for exercising persistence plumbing."""

    def __init__(self, n):
        self.arr = np.arange(float(n))

    def to_dict(self):
        return {"arr": self.arr}


class TestStoreEviction:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultStore(max_entries=0)
        with pytest.raises(ValueError, match="max_bytes"):
            ResultStore(max_bytes=0)

    def test_max_entries_evicts_least_recently_used(self):
        store = ResultStore(max_entries=2)
        store.put("a", "ra")
        store.put("b", "rb")
        store.put("c", "rc")
        assert store.keys() == ("b", "c")
        assert store.evictions == 1
        assert store.get("a") is None

    def test_get_refreshes_recency(self):
        store = ResultStore(max_entries=2)
        store.put("a", "ra")
        store.put("b", "rb")
        store.get("a")  # "b" is now the least recently used
        store.put("c", "rc")
        assert store.keys() == ("a", "c")

    def test_put_refreshes_recency(self):
        store = ResultStore(max_entries=2)
        store.put("a", "ra")
        store.put("b", "rb")
        store.put("a", "ra2")  # refresh, not insert: no eviction
        assert store.keys() == ("a", "b")
        store.put("c", "rc")
        assert store.keys() == ("a", "c")

    def test_max_bytes_counts_array_buffers(self):
        # Each result holds an 80-byte float64 buffer.
        store = ResultStore(max_bytes=200)
        store.put("a", _ArrayResult(10))
        store.put("b", _ArrayResult(10))
        assert store.stats()["bytes"] == 160
        store.put("c", _ArrayResult(10))
        assert store.keys() == ("b", "c")

    def test_most_recent_entry_survives_even_oversized(self):
        store = ResultStore(max_bytes=8)
        store.put("big", _ArrayResult(100))
        assert store.keys() == ("big",)
        store.put("big2", _ArrayResult(100))
        assert store.keys() == ("big2",)

    def test_unbounded_store_never_evicts(self):
        store = ResultStore()
        for k in range(50):
            store.put(f"k{k}", object())
        assert len(store) == 50
        assert store.evictions == 0

    def test_eviction_removes_payload_and_index_entry(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=2)
        for key in ("a", "b", "c"):
            store.put(key, _ArrayResult(4))
        assert store.keys() == ("b", "c")
        assert not (tmp_path / "a.npz").exists()
        assert (tmp_path / "b.npz").exists()
        fresh = ResultStore(tmp_path)
        assert fresh.keys() == ("b", "c")

    def test_reopened_store_applies_bounds_in_sorted_order(self, tmp_path):
        store = ResultStore(tmp_path)
        for key in ("c", "a", "b"):
            store.put(key, _ArrayResult(4))
        fresh = ResultStore(tmp_path, max_entries=2)
        # Inherited entries rank by sorted key: "a" is evicted first.
        assert fresh.keys() == ("b", "c")
        assert not (tmp_path / "a.npz").exists()


_OPS = st.lists(
    st.tuples(st.sampled_from(["put", "get"]), st.sampled_from("abcdef"),
              st.integers(1, 40)),
    min_size=1,
    max_size=12,
)


# The recorder (an autouse fixture) spans every example of the property.
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    ops=_OPS,
    max_entries=st.none() | st.integers(1, 4),
    max_bytes=st.none() | st.integers(8, 4000),
    persistent=st.booleans(),
)
def test_eviction_keeps_both_bounds(ops, max_entries, max_bytes, persistent):
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(
            tmp if persistent else None, max_entries=max_entries, max_bytes=max_bytes
        )
        dropped = 0
        for op, key, n in ops:
            before = set(store.keys())
            if op == "put":
                store.put(key, _ArrayResult(n))
                assert key in store, "the entry just written was evicted"
            else:
                store.get(key)
            after = set(store.keys())
            assert after <= before | {key}
            dropped += len(before - after)
            stats = store.stats()
            assert stats["evictions"] == store.evictions == dropped
            if max_entries is not None:
                assert stats["entries"] <= max_entries
            if max_bytes is not None:
                # Only the most recent entry may exceed the byte bound alone.
                assert stats["bytes"] <= max_bytes or stats["entries"] == 1


class TestLockDiscipline:
    def test_reversed_lock_order_is_a_cycle(self, lock_recorder, monkeypatch, tmp_path):
        def flush_index_taking_lock(self, version, snapshot):  # _io_lock, _lock
            with self._io_lock:
                with self._lock:
                    self._written_version = max(self._written_version, version)

        def stats_taking_io_lock(self):  # _lock, then _io_lock
            with self._lock:
                with self._io_lock:
                    return {"entries": len(self._lru), "evictions": self.evictions}

        monkeypatch.setattr(ResultStore, "_flush_index", flush_index_taking_lock)
        monkeypatch.setattr(ResultStore, "stats", stats_taking_io_lock)
        store = ResultStore(tmp_path)
        store.put("a", _ArrayResult(4))
        with pytest.raises(AssertionError, match="lock-order cycle"):
            store.stats()
        assert len(lock_recorder.violations) == 1
        lock_recorder.violations.clear()


@pytest.mark.serve
class TestStorePersistence:
    @pytest.fixture(scope="class")
    def scf(self):
        request = CalculationRequest(
            kind="scf",
            structure=_h2(),
            scf=SCFConfig(ecut=4.0, n_bands=4, tol=1e-6, seed=0),
        )
        return request, request.compute()

    def test_ground_state_survives_reload(self, tmp_path, scf):
        request, gs = scf
        structure = structure_to_dict(request.structure)
        store = ResultStore(tmp_path)
        store.put(
            request.cache_key(),
            gs,
            ground_state=gs,
            meta={"structure": structure, "ecut": 4.0, "n_bands": 4},
        )
        fresh = ResultStore(tmp_path)
        entry = fresh.get(request.cache_key())
        assert entry is not None
        assert entry.result.total_energy == gs.total_energy
        np.testing.assert_array_equal(entry.result.density, gs.density)
        # SCF entries reunify result and ground state on load.
        assert entry.ground_state is entry.result

    def test_nearest_ground_state_from_disk(self, tmp_path, scf):
        request, gs = scf
        store = ResultStore(tmp_path)
        store.put(
            request.cache_key(),
            gs,
            ground_state=gs,
            meta={
                "structure": structure_to_dict(request.structure),
                "ecut": 4.0,
                "n_bands": 4,
            },
        )
        fresh = ResultStore(tmp_path)
        moved = structure_to_dict(_h2(z_offset=0.002))
        found = fresh.nearest_ground_state(
            moved, SCFConfig(ecut=4.0, n_bands=4, tol=1e-6, seed=0)
        )
        assert found is not None
        nearest, rms = found
        assert rms == pytest.approx(0.02, rel=1e-9)
        assert nearest.total_energy == gs.total_energy
        # Incompatible config finds nothing.
        assert (
            fresh.nearest_ground_state(moved, SCFConfig(ecut=8.0, n_bands=4))
            is None
        )
