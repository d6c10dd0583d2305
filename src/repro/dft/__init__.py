"""Plane-wave Kohn-Sham DFT substrate (the paper's PWDFT ground-state step).

LR-TDDFT consumes ground-state orbital energies and real-space orbitals;
this subpackage produces them: LDA exchange-correlation, G-space Poisson
solve, a matrix-free KS Hamiltonian, Anderson-mixed SCF and a
:class:`GroundState` container.
"""

from repro.dft.xc import (
    lda_energy_density,
    lda_kernel,
    lda_potential,
    xc_energy,
)
from repro.dft.hartree import hartree_energy, hartree_potential
from repro.dft.density import atomic_guess_density, density_from_orbitals
from repro.dft.hamiltonian import KohnShamHamiltonian, local_pseudopotential_real
from repro.dft.mixing import AndersonMixer, LinearMixer
from repro.dft.ewald import ewald_energy
from repro.dft.groundstate import GroundState
from repro.dft.io import load_ground_state, save_ground_state
from repro.dft.scf import SCFResultInfo, SCFWarmStart, run_scf
from repro.dft.scf_spin import SpinGroundState, run_scf_spin
from repro.dft.bands import BandStructure, band_structure, bands_at_k

__all__ = [
    "lda_energy_density",
    "lda_potential",
    "lda_kernel",
    "xc_energy",
    "hartree_potential",
    "hartree_energy",
    "density_from_orbitals",
    "atomic_guess_density",
    "KohnShamHamiltonian",
    "local_pseudopotential_real",
    "LinearMixer",
    "AndersonMixer",
    "ewald_energy",
    "GroundState",
    "save_ground_state",
    "load_ground_state",
    "SCFResultInfo",
    "SCFWarmStart",
    "run_scf",
    "SpinGroundState",
    "run_scf_spin",
    "BandStructure",
    "band_structure",
    "bands_at_k",
]
