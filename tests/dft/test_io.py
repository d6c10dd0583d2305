"""Tests for ground-state persistence."""

import numpy as np
import pytest

from repro.api import TDDFTConfig
from repro.dft.io import load_ground_state, save_ground_state


class TestRoundtrip:
    def test_exact_roundtrip(self, si2_ground_state, tmp_path):
        path = save_ground_state(si2_ground_state, tmp_path / "si2")
        loaded = load_ground_state(path)
        np.testing.assert_array_equal(loaded.energies, si2_ground_state.energies)
        np.testing.assert_array_equal(
            loaded.orbitals_real, si2_ground_state.orbitals_real
        )
        np.testing.assert_array_equal(loaded.density, si2_ground_state.density)
        assert loaded.total_energy == si2_ground_state.total_energy
        assert loaded.converged == si2_ground_state.converged

    def test_cell_reconstructed(self, si2_ground_state, tmp_path):
        path = save_ground_state(si2_ground_state, tmp_path / "si2")
        loaded = load_ground_state(path)
        np.testing.assert_allclose(
            loaded.basis.cell.lattice, si2_ground_state.basis.cell.lattice
        )
        assert loaded.basis.cell.species == si2_ground_state.basis.cell.species
        assert loaded.basis.ecut == si2_ground_state.basis.ecut

    def test_npz_suffix_appended(self, si2_ground_state, tmp_path):
        path = save_ground_state(si2_ground_state, tmp_path / "state")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_loaded_state_drives_lrtddft(self, si2_ground_state, tmp_path):
        """The reloaded state must produce identical excitation energies."""
        from repro.core import LRTDDFTSolver

        path = save_ground_state(si2_ground_state, tmp_path / "si2")
        loaded = load_ground_state(path)
        a = LRTDDFTSolver(si2_ground_state, seed=0).solve(
            TDDFTConfig(method="naive", n_excitations=3)
        )
        b = LRTDDFTSolver(loaded, seed=0).solve(
            TDDFTConfig(method="naive", n_excitations=3)
        )
        np.testing.assert_array_equal(a.energies, b.energies)

    def test_synthetic_state_roundtrip(self, si8_synthetic, tmp_path):
        path = save_ground_state(si8_synthetic, tmp_path / "synth")
        loaded = load_ground_state(path)
        np.testing.assert_array_equal(
            loaded.orbitals_real, si8_synthetic.orbitals_real
        )

    def test_bad_version_rejected(self, si2_ground_state, tmp_path):
        import json

        import numpy as np

        path = save_ground_state(si2_ground_state, tmp_path / "si2")
        with np.load(path) as data:
            contents = dict(data)
        meta = json.loads(bytes(contents["meta"]).decode())
        meta["format_version"] = 999
        contents["meta"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        np.savez_compressed(path, **contents)
        with pytest.raises(ValueError, match="version"):
            load_ground_state(path)
