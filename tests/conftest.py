"""Shared fixtures: converged ground states are expensive, so they are
computed once per session and reused by the DFT, core and parallel tests.

The whole session runs with runtime array contracts on: every
``@array_contract`` kernel checks its arguments' dtype, layout and shape on
entry.  ``repro.utils.hot`` reads the gate when a function is decorated, so
it is set here, before the first ``repro`` import."""

from __future__ import annotations

import os

os.environ["REPRO_ARRAY_CONTRACTS"] = "1"

import numpy as np
import pytest

from repro.api import SCFConfig
from repro.atoms import bulk_silicon, silicon_primitive_cell, water_molecule
from repro.constants import ANGSTROM_TO_BOHR
from repro.dft import run_scf
from repro.synthetic import synthetic_ground_state

from lock_recorder import LockRecorder


@pytest.fixture(scope="session")
def si2_ground_state():
    """Si_2 primitive cell, Ecut = 10 Ha: the workhorse real ground state."""
    cell = silicon_primitive_cell()
    return run_scf(cell, SCFConfig(ecut=10.0, n_bands=10, tol=1e-8, seed=1))


@pytest.fixture(scope="session")
def water_ground_state():
    """H2O in an 8 Angstrom box at Ecut = 10 Ha (kept small for speed)."""
    cell = water_molecule(box=8.0 * ANGSTROM_TO_BOHR)
    return run_scf(cell, SCFConfig(ecut=10.0, n_bands=8, tol=1e-7, seed=2))


@pytest.fixture(scope="session")
def si8_synthetic():
    """Synthetic Si_8-like ground state: 16 valence + 8 conduction bands."""
    return synthetic_ground_state(
        bulk_silicon(8), ecut=5.0, n_valence=16, n_conduction=8, seed=11
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="class")
def sanitized_spmd():
    """Run every ``spmd_run`` of the requesting class (or test) under the
    SPMD sanitizer, so a rank-dependent collective fails as a
    ``SanitizerError`` instead of hanging or exchanging garbage.

    Class scope, so a class-scoped fixture that runs the distributed
    algorithm is sanitized too.  The timeout only has to outlast the slowest
    rank's work between two collectives on a loaded host."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_SANITIZE", "1")
        mp.setenv("REPRO_SANITIZE_TIMEOUT", "120")
        yield


@pytest.fixture()
def lock_recorder(monkeypatch):
    """Run the test with recording locks (:mod:`lock_recorder`): a
    lock-order cycle or a blocking call under a lock fails it."""
    recorder = LockRecorder()
    recorder.install(monkeypatch)
    yield recorder
    recorder.check()
