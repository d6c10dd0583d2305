"""Precision degradation ladder inside a real SCF.

``fast32`` runs the SCF Hartree solve through fp32 FFT scratch with a
first-apply fp64 cross-check.  When that check fails, the convolution plan
degrades to fp64 *for the failing apply onward* — so the whole SCF must be
bit-identical to strict64 from the fallback point, and the event must land
in the process-wide resilience log.
"""

import numpy as np
import pytest

from repro.api import SCFConfig
from repro.atoms import silicon_primitive_cell
from repro.dft import run_scf
from repro import precision
from repro.precision import resolve_precision
from repro.pw.fft import default_plan_cache
from repro.resilience import resilience_log


@pytest.fixture()
def clean_plan_cache():
    # The default plan cache keys by dtype but (deliberately) not by
    # tolerance; isolate these tests so a zero-tolerance plan never leaks
    # into — or out of — the shared cache.
    default_plan_cache().clear()
    yield
    default_plan_cache().clear()


@pytest.fixture(scope="module")
def strict_gs():
    return run_scf(
        silicon_primitive_cell(),
        SCFConfig(ecut=6.0, n_bands=8, tol=1e-7, seed=3),
    )


def _run(precision):
    return run_scf(
        silicon_primitive_cell(),
        SCFConfig(ecut=6.0, n_bands=8, tol=1e-7, seed=3, precision=precision),
    )


class TestMidScfFallback:
    def test_forced_fft_fallback_is_bit_identical_to_strict64(
        self, strict_gs, clean_plan_cache, monkeypatch
    ):
        log = resilience_log()
        before = len(log)
        # fft_tol=0.0 makes the very first fp32 Hartree apply fail its
        # fp64 cross-check: the plan degrades immediately, so every
        # Hartree potential the SCF ever sees is the fp64 one.  SCFConfig
        # carries only the tier name, so the tier itself is swapped.
        forced = resolve_precision("fast32").replace(fft_tol=0.0)
        monkeypatch.setitem(precision._MODE_CONFIGS, "fast32", forced)
        gs = _run("fast32")
        events = [
            e for e in log.events()[before:] if e.stage == "scf-hartree"
        ]
        assert [(e.stage, e.action) for e in events] == [
            ("scf-hartree", "fallback-fp64")
        ]
        np.testing.assert_array_equal(gs.density, strict_gs.density)
        np.testing.assert_array_equal(gs.energies, strict_gs.energies)
        assert gs.total_energy == strict_gs.total_energy

    def test_mixed_mode_leaves_the_scf_untouched(
        self, strict_gs, clean_plan_cache
    ):
        # mixed keeps scf_fft_fp32 off: SCF stays bit-identical with no
        # fallback machinery involved at all.
        log = resilience_log()
        before = len(log)
        gs = _run("mixed")
        np.testing.assert_array_equal(gs.density, strict_gs.density)
        assert gs.total_energy == strict_gs.total_energy
        assert not [
            e for e in log.events()[before:] if e.stage == "scf-hartree"
        ]

    def test_fast32_within_tolerance_runs_without_fallback(
        self, strict_gs, clean_plan_cache
    ):
        log = resilience_log()
        before = len(log)
        gs = _run("fast32")
        assert not [
            e for e in log.events()[before:] if e.stage == "scf-hartree"
        ]
        assert gs.converged
        # fp32 FFT scratch perturbs each Hartree apply by ~1e-7 relative;
        # the converged total energy stays well inside 1e-5 relative.
        rel = abs(gs.total_energy - strict_gs.total_energy) / abs(
            strict_gs.total_energy
        )
        assert rel <= 1e-5
