"""Paper Figure 9: ground/excited-state DOS of twisted bilayer graphene.

The paper's MATBG (1,180 atoms) shows (a) interlayer-distance-dependent
ground-state DOS — strongly coupled layers (D = 2.6 A) reshape the states
near the Fermi level, decoupled ones (D = 4.0 A) do not — and (b) a band
of low-lying excitations.

Stand-in (DESIGN.md): the 4-atom AB bilayer through the identical pipeline
(real SCF at two interlayer distances, DOS, LR-TDDFT excitation DOS).
The asserted shape: interlayer coupling visibly changes the DOS near E_F,
and the LR-TDDFT step produces a finite low-energy excitation band.
"""

import numpy as np
import pytest

from repro.analysis import density_of_states, excitation_dos
from repro.analysis.dos import fermi_level_estimate
from repro.api import SCFConfig, TDDFTConfig
from repro.atoms import graphene_bilayer
from repro.constants import ANGSTROM_TO_BOHR, HARTREE_TO_EV
from repro.core import LRTDDFTSolver
from repro.dft import run_scf


@pytest.fixture(scope="module")
def bilayer_states():
    states = {}
    for d_angstrom in (2.6, 4.0):
        cell = graphene_bilayer(interlayer_distance=d_angstrom * ANGSTROM_TO_BOHR)
        states[d_angstrom] = run_scf(
            cell,
            SCFConfig(
                ecut=10.0, n_bands=14, tol=1e-6, smearing_width=0.01, max_iter=80,
                seed=0,
            ),
        )
    return states


def test_fig9a_ground_state_dos(benchmark, bilayer_states, save_table):
    def run():
        out = {}
        for d, gs in bilayer_states.items():
            e_f = fermi_level_estimate(gs.energies, gs.occupations)
            grid = np.linspace(e_f - 0.4, e_f + 0.4, 400)
            out[d] = (grid - e_f, density_of_states(gs.energies, grid, broadening=0.02))
        return out

    dos = benchmark(run)

    lines = [
        "Figure 9a (stand-in) — bilayer DOS near E_F vs interlayer distance",
        "",
        f"{'E-E_F (eV)':>11s} {'D=2.6 A':>10s} {'D=4.0 A':>10s}",
    ]
    grid26, g26 = dos[2.6]
    _, g40 = dos[4.0]
    for i in range(0, 400, 40):
        lines.append(
            f"{grid26[i] * HARTREE_TO_EV:11.2f} {g26[i]:10.3f} {g40[i]:10.3f}"
        )
    delta = np.abs(g26 - g40).max()
    lines += ["", f"max |DOS(2.6) - DOS(4.0)| near E_F: {delta:.3f} states/Ha"]
    save_table("fig9a_dos", "\n".join(lines))

    # Interlayer coupling must visibly reshape the DOS near E_F.
    assert delta > 0.2 * max(g26.max(), g40.max())
    # Both DOS integrate to the same number of states in the window.
    assert np.trapezoid(g26, grid26) == pytest.approx(
        np.trapezoid(g40, grid26), rel=0.5
    )


def test_fig9b_excitation_dos(benchmark, bilayer_states, save_table):
    gs = bilayer_states[2.6]

    def run():
        solver = LRTDDFTSolver(gs, seed=0)
        n_exc = min(16, solver.n_pairs)
        res = solver.solve(
            TDDFTConfig(
                method="implicit-kmeans-isdf-lobpcg", n_excitations=n_exc, tol=1e-7,
            )
        )
        grid = np.linspace(0.0, float(res.energies.max()) * 1.2, 300)
        return res.energies, grid, excitation_dos(res.energies, grid, broadening=0.01)

    energies, grid, xdos = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        "Figure 9b (stand-in) — excitation DOS of the coupled bilayer",
        "",
        f"lowest excitation: {energies[0] * HARTREE_TO_EV:.3f} eV",
        f"excitations computed: {len(energies)}",
        "",
        f"{'E (eV)':>8s} {'DOS':>10s}",
    ]
    for i in range(0, 300, 30):
        lines.append(f"{grid[i] * HARTREE_TO_EV:8.2f} {xdos[i]:10.3f}")
    save_table("fig9b_excitation_dos", "\n".join(lines))

    assert (energies > 0).all()
    assert xdos.max() > 0.0
    # Total excitation count conserved under broadening.
    assert np.trapezoid(xdos, grid) == pytest.approx(len(energies), rel=0.15)
