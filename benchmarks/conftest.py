"""Shared fixtures and reporting helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper; alongside the
pytest-benchmark timing statistics, each writes its paper-style comparison
table to ``benchmarks/results/<name>.txt`` and echoes it to stdout (visible
with ``pytest benchmarks/ --benchmark-only -s``).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.api import SCFConfig
from repro.atoms import bulk_silicon
from repro.dft import run_scf
from repro.synthetic import synthetic_ground_state

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def save_table():
    """Write a rendered table to benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{'=' * 72}\n{text}\n[saved to {path}]")

    return _save


@pytest.fixture(scope="session")
def si64_like_state():
    """Synthetic Si_64-scale orbitals for the Table 3 point-selection bench.

    Sizes are scaled from the paper's Si_64 at Ecut = 20 Ha (N_r = 74,088)
    by the documented factor in EXPERIMENTS.md; the selection algorithms
    see the same weight structure (localized bonds on a diamond lattice).
    """
    return synthetic_ground_state(
        bulk_silicon(64), ecut=6.0, n_valence=48, n_conduction=24, seed=64
    )


@pytest.fixture(scope="session")
def si8_state():
    """Mid-size synthetic state shared by several benches."""
    return synthetic_ground_state(
        bulk_silicon(8), ecut=6.0, n_valence=16, n_conduction=10, seed=8
    )


@pytest.fixture(scope="session")
def si2_real_state():
    """Real converged Si_2 ground state (for accuracy benches)."""
    from repro.atoms import silicon_primitive_cell

    return run_scf(
        silicon_primitive_cell(),
        SCFConfig(ecut=10.0, n_bands=10, tol=1e-8, seed=1),
    )


@pytest.fixture(scope="session")
def water_real_state():
    """Real converged H2O ground state (Table 5's molecular system)."""
    from repro.atoms import water_molecule
    from repro.constants import ANGSTROM_TO_BOHR

    return run_scf(
        water_molecule(box=8.0 * ANGSTROM_TO_BOHR),
        SCFConfig(ecut=12.0, n_bands=10, tol=1e-7, seed=2),
    )
