"""Paper Table 5: excitation-energy accuracy of the optimized solvers.

The paper compares Quantum Espresso (trusted reference), its naive
LR-TDDFT and its ISDF-LOBPCG code on the three lowest excitations of H2O
and bulk silicon, finding relative errors of 0.1-0.9% — "fairly
negligible".

Substitution (DESIGN.md): QE's role is played by a dense Casida solve over
the *full* computed transition space; the "LR-TDDFT" column is the naive
solver on the production-truncated transition space and "ISDF-LOBPCG" is
the implicit solver on the same space with a reduced ISDF rank — the same
two approximation layers whose error Table 5 quantifies.
"""

import numpy as np
import pytest

from repro.analysis import accuracy_table
from repro.analysis.accuracy import format_accuracy_table
from repro.api import TDDFTConfig
from repro.core import LRTDDFTSolver
from repro.data import PAPER_TABLE5_H2O, PAPER_TABLE5_SI64


def _table5_run(ground_state, n_valence, n_conduction, n_mu_fraction, seed):
    reference = LRTDDFTSolver(ground_state, seed=seed).solve(
        TDDFTConfig(method="naive")
    )
    truncated = LRTDDFTSolver(
        ground_state, n_valence=n_valence, n_conduction=n_conduction, seed=seed
    )
    naive = truncated.solve(TDDFTConfig(method="naive"))
    n_mu = max(4, int(n_mu_fraction * truncated.n_pairs))
    implicit = truncated.solve(
        TDDFTConfig(
            method="implicit-kmeans-isdf-lobpcg",
            n_excitations=min(6, truncated.n_pairs), n_mu=n_mu, tol=1e-10,
        )
    )
    return reference, naive, implicit


def _render(rows, paper_rows, title):
    text = format_accuracy_table(rows, title)
    lines = [text, "", "paper's Table 5 values for comparison:"]
    for ref, nai, isdf, d1, d2 in paper_rows:
        lines.append(
            f"{ref:12.6f} {nai:12.6f} {isdf:12.6f} {d1:9.3f} {d2:9.3f}"
        )
    return "\n".join(lines)


def test_table5_water(benchmark, water_real_state, save_table):
    reference, naive, implicit = benchmark.pedantic(
        lambda: _table5_run(water_real_state, 4, 4, 0.8, seed=5),
        rounds=1, iterations=1,
    )
    rows = accuracy_table(reference.energies, naive.energies, implicit.energies)
    save_table(
        "table5_h2o",
        _render(rows, PAPER_TABLE5_H2O,
                "H2O — three lowest excitation energies (Hartree)"),
    )
    for row in rows:
        # Paper band: fractions of a percent up to ~1%.
        assert abs(row.delta_e1) < 3.0
        assert abs(row.delta_e2) < 3.0
        # ISDF adds almost nothing on top of the truncation error.
        assert abs(row.delta_e2 - row.delta_e1) < 1.5


def test_table5_silicon(benchmark, si2_real_state, save_table):
    reference, naive, implicit = benchmark.pedantic(
        lambda: _table5_run(si2_real_state, 4, 6, 0.9, seed=6),
        rounds=1, iterations=1,
    )
    rows = accuracy_table(reference.energies, naive.energies, implicit.energies)
    save_table(
        "table5_si",
        _render(rows, PAPER_TABLE5_SI64,
                "Bulk silicon — three lowest excitation energies (Hartree)"),
    )
    for row in rows:
        assert abs(row.delta_e1) < 3.0
        assert abs(row.delta_e2) < 3.0


def test_isdf_error_negligible_at_production_rank(benchmark, si2_real_state):
    """The Delta_E2 - Delta_E1 gap (pure ISDF+LOBPCG error) at the paper's
    operating point is tiny: < 0.1% here, 0.001-0.002% in Table 5."""
    solver = LRTDDFTSolver(si2_real_state, seed=7)

    def run():
        dense = solver.solve(TDDFTConfig(method="naive", n_excitations=3))
        implicit = solver.solve(
            TDDFTConfig(method="implicit-qrcp-isdf-lobpcg", n_excitations=3, tol=1e-10)
        )
        return dense, implicit

    dense, implicit = benchmark.pedantic(run, rounds=1, iterations=1)
    rel = np.abs((implicit.energies - dense.energies[:3]) / dense.energies[:3])
    assert rel.max() < 1e-3
