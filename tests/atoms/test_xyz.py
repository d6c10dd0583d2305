"""Tests for XYZ structure I/O."""

import numpy as np
import pytest

from repro.api import SCFConfig
from repro.atoms import silicon_primitive_cell, water_molecule
from repro.atoms.xyz import read_xyz, write_xyz
from repro.constants import ANGSTROM_TO_BOHR


class TestRoundtrip:
    def test_periodic_roundtrip(self, tmp_path):
        cell = silicon_primitive_cell()
        path = write_xyz(cell, tmp_path / "si.xyz")
        loaded = read_xyz(path)
        np.testing.assert_allclose(loaded.lattice, cell.lattice, atol=1e-8)
        assert loaded.species == cell.species
        np.testing.assert_allclose(
            loaded.cartesian_positions, cell.cartesian_positions, atol=1e-8
        )

    def test_molecule_roundtrip(self, tmp_path):
        cell = water_molecule()
        loaded = read_xyz(write_xyz(cell, tmp_path / "h2o.xyz"))
        assert loaded.species == ("O", "H", "H")
        d_orig = np.linalg.norm(
            cell.cartesian_positions[1] - cell.cartesian_positions[0]
        )
        d_load = np.linalg.norm(
            loaded.cartesian_positions[1] - loaded.cartesian_positions[0]
        )
        assert d_load == pytest.approx(d_orig, abs=1e-8)

    def test_comment_written(self, tmp_path):
        path = write_xyz(water_molecule(), tmp_path / "c.xyz", comment="test run")
        assert "test run" in path.read_text()

    def test_multiline_comment_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_xyz(water_molecule(), tmp_path / "c.xyz", comment="a\nb")


class TestPlainXYZ:
    def test_plain_file_needs_box(self, tmp_path):
        path = tmp_path / "plain.xyz"
        path.write_text("1\nwater-ish\nO 0.0 0.0 0.0\n")
        with pytest.raises(ValueError, match="box"):
            read_xyz(path)
        cell = read_xyz(path, box=10.0)
        assert cell.volume == pytest.approx(1000.0)
        assert cell.species == ("O",)

    def test_atom_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("3\ncomment\nO 0 0 0\n")
        with pytest.raises(ValueError, match="atom lines"):
            read_xyz(path, box=10.0)

    def test_malformed_atom_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1\ncomment\nO 0 0\n")
        with pytest.raises(ValueError, match="malformed"):
            read_xyz(path, box=10.0)

    def test_angstrom_units(self, tmp_path):
        """A 1 Angstrom coordinate must land at 1.889... Bohr."""
        path = tmp_path / "u.xyz"
        path.write_text("1\ncomment\nH 1.0 0.0 0.0\n")
        cell = read_xyz(path, box=20.0)
        assert cell.cartesian_positions[0][0] == pytest.approx(
            1.0 * ANGSTROM_TO_BOHR
        )

    def test_loaded_cell_drives_scf(self, tmp_path):
        """End-to-end: write, read, run SCF on the loaded structure."""
        from repro.dft import run_scf

        path = write_xyz(silicon_primitive_cell(), tmp_path / "si.xyz")
        cell = read_xyz(path)
        gs = run_scf(cell, SCFConfig(ecut=6.0, n_bands=6, tol=1e-5, seed=0))
        assert gs.converged
