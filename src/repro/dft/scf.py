"""Self-consistent field driver for the plane-wave KS-DFT substrate.

The loop is the standard PWDFT structure: density guess -> effective
potential -> LOBPCG band solve (warm-started) -> occupations -> new density
-> Anderson mixing -> repeat; a final tight band solve polishes the orbitals
before they are rotated to the real gauge LR-TDDFT requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.config import SCFConfig
from repro.atoms.elements import valence_electron_count
from repro.dft.density import atomic_guess_density, density_from_orbitals
from repro.dft.ewald import ewald_energy
from repro.dft.groundstate import GroundState, realify_orbitals
from repro.dft.hamiltonian import KohnShamHamiltonian
from repro.dft.hartree import hartree_energy
from repro.dft.mixing import AndersonMixer, LinearMixer
from repro.dft.xc import lda_potential, xc_energy
from repro.eigen.lobpcg import lobpcg
from repro.pw.basis import PlaneWaveBasis
from repro.pw.cell import UnitCell
from repro.utils.rng import default_rng
from repro.utils.timers import TimerRegistry
from repro.utils.validation import require


@dataclass(frozen=True)
class SCFWarmStart:
    """Initial state carried over from a nearby converged calculation.

    The cross-calculation warm start used by :mod:`repro.batch`: seeding
    the loop with the previous frame's (possibly extrapolated) density and
    converged orbitals skips the atomic-guess/random-coefficient cold start
    and lets Anderson mixing begin inside the convergence basin.

    Attributes
    ----------
    density:
        ``(N_r,)`` starting density (should integrate to the electron
        count; a linear extrapolation of the two previous frames is the
        usual choice for smooth trajectories).
    orbitals_real:
        Optional ``(n_bands, N_r)`` real-gauge orbitals used as the LOBPCG
        starting block (``GroundState.orbitals_real`` of the previous
        frame).  ``None`` falls back to random coefficients.
    residual_hint:
        Estimated initial density residual (per electron).  Sets the first
        iteration's adaptive eigensolver tolerance; without it the first
        band solve runs at the loosest tolerance (1e-3), which floors the
        first measured residual and wastes the quality of a good guess.
    mixer_state:
        Optional ``state_dict`` of the previous run's mixer; carrying the
        Anderson history across frames preserves the built-up quasi-Newton
        curvature information.
    """

    density: np.ndarray
    orbitals_real: np.ndarray | None = None
    residual_hint: float | None = None
    mixer_state: dict | None = None


@dataclass
class SCFResultInfo:
    """Convergence diagnostics of one SCF run."""

    iterations: int
    converged: bool
    residuals: list[float] = field(default_factory=list)
    total_energies: list[float] = field(default_factory=list)


def _occupations(
    energies: np.ndarray, n_electrons: float, width: float
) -> np.ndarray:
    """Occupation numbers: integer fill, or Fermi-Dirac when ``width > 0``."""
    nb = energies.shape[0]
    if width <= 0.0:
        require(
            abs(n_electrons / 2.0 - round(n_electrons / 2.0)) < 1e-9,
            f"odd electron count {n_electrons} needs smearing_width > 0",
        )
        n_occ = int(round(n_electrons / 2.0))
        require(n_occ <= nb, f"{n_occ} occupied bands but only {nb} computed")
        occ = np.zeros(nb)
        occ[:n_occ] = 2.0
        return occ

    def total(mu: float) -> float:
        x = np.clip((energies - mu) / width, -200.0, 200.0)
        return float((2.0 / (1.0 + np.exp(x))).sum())

    lo, hi = energies.min() - 10.0 * width - 1.0, energies.max() + 10.0 * width + 1.0
    require(total(hi) >= n_electrons - 1e-9, "not enough bands to hold all electrons")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total(mid) < n_electrons:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    x = np.clip((energies - mu) / width, -200.0, 200.0)
    occ = 2.0 / (1.0 + np.exp(x))
    return occ * (n_electrons / occ.sum())


def _total_energy(
    ham: KohnShamHamiltonian,
    energies: np.ndarray,
    occupations: np.ndarray,
    density: np.ndarray,
    e_ii: float,
) -> float:
    """Harris-Foulkes-style total energy with double-counting corrections."""
    basis = ham.basis
    dv = basis.grid.dv
    e_band = float((occupations * energies).sum())
    e_h = hartree_energy(density, basis)
    e_xc = xc_energy(density, dv)
    e_vxc = float((density * lda_potential(density)).sum() * dv)
    return e_band - e_h - e_vxc + e_xc + e_ii


def run_scf(
    cell: UnitCell,
    config: SCFConfig | None = None,
    *,
    timers: TimerRegistry | None = None,
    checkpoint=None,
    warm_start: SCFWarmStart | None = None,
    progress=None,
) -> GroundState:
    """Run a Gamma-point SCF and return the converged :class:`GroundState`.

    ``config`` is a frozen :class:`repro.api.SCFConfig` (default-constructed
    when omitted): ``run_scf(cell, SCFConfig(ecut=8.0, n_bands=12))``.

    ``warm_start`` seeds the loop from a nearby converged calculation (see
    :class:`SCFWarmStart`); a checkpoint restart, when present, takes
    precedence since it resumes *this* run's own state.

    ``progress`` is an optional per-iteration callback receiving
    ``{"iteration": i, "residual": r, "e_total": e, "converged": bool}``
    after each completed SCF iteration — the job server's event stream
    (:mod:`repro.serve.events`) hangs off this hook.  It observes only;
    exceptions propagate (a broken subscriber should fail loudly, not
    corrupt a silent result).

    Checkpoint/restart: pass a
    :class:`~repro.resilience.checkpoint.LoopCheckpointer` (for example
    ``ResilienceConfig.checkpointer("scf")``) and the loop snapshots
    its full iteration-boundary state — mixed density, orbital
    coefficients, residual, mixer history, diagnostics — after each
    iteration.  A restarted run replays the remaining iterations
    bit-identically to an uninterrupted one.
    """
    config = config if config is not None else SCFConfig()
    timers = timers or TimerRegistry()

    n_electrons = valence_electron_count(cell.species)
    n_occ = int(np.ceil(n_electrons / 2.0))
    n_bands = config.n_bands if config.n_bands is not None else n_occ + max(4, n_occ // 2)
    require(n_bands >= n_occ, f"n_bands={n_bands} < occupied bands {n_occ}")

    basis = PlaneWaveBasis(cell, config.ecut)
    require(
        n_bands <= basis.n_pw,
        f"n_bands={n_bands} exceeds basis size N_pw={basis.n_pw}; raise ecut",
    )
    ham = KohnShamHamiltonian(basis)
    rng = default_rng(config.seed)

    mixer = (
        AndersonMixer(config.mixing_beta, config.mixing_history)
        if config.mixer == "anderson"
        else LinearMixer(config.mixing_beta)
    )
    info = SCFResultInfo(iterations=0, converged=False)
    history: list[dict] = []

    energies = np.zeros(n_bands)
    occupations = np.zeros(n_bands)
    residual = np.inf
    start_iteration = 0

    if warm_start is not None:
        require(
            warm_start.density.shape == (basis.n_r,),
            f"warm-start density must have shape ({basis.n_r},), "
            f"got {warm_start.density.shape}",
        )
        with timers.scope("scf/guess"):
            density = np.array(warm_start.density, dtype=float)
        if warm_start.orbitals_real is not None:
            require(
                warm_start.orbitals_real.shape == (n_bands, basis.n_r),
                f"warm-start orbitals must be ({n_bands}, {basis.n_r}), "
                f"got {warm_start.orbitals_real.shape}",
            )
            coeffs = basis.to_recip(warm_start.orbitals_real.astype(complex))
        else:
            coeffs = basis.random_coefficients(n_bands, rng)
        if warm_start.residual_hint is not None:
            residual = float(warm_start.residual_hint)
        if warm_start.mixer_state is not None:
            mixer.load_state_dict(warm_start.mixer_state)
    else:
        coeffs = basis.random_coefficients(n_bands, rng)
        with timers.scope("scf/guess"):
            density = atomic_guess_density(basis)
    e_ii = ewald_energy(cell)

    resumed = checkpoint.resume() if checkpoint is not None else None
    if resumed is not None:
        start_iteration, state = resumed
        density = np.array(state["density"])
        coeffs = np.array(state["coeffs"])
        residual = float(state["residual"])
        mixer.load_state_dict(state["mixer"])
        residuals = [float(v) for v in state["residuals"]]
        energies_hist = [float(v) for v in state["total_energies"]]
        info.residuals = list(residuals)
        info.total_energies = list(energies_hist)
        history = [
            {"iteration": i + 1, "residual": r, "e_total": e}
            for i, (r, e) in enumerate(zip(residuals, energies_hist))
        ]

    for iteration in range(start_iteration + 1, config.max_iter + 1):
        ham.update_density(density)
        eig_tol = float(np.clip(0.03 * residual, config.eig_tol_final, 1e-3))
        with timers.scope("scf/bands"):
            result = lobpcg(
                ham.apply_columns,
                coeffs.T,
                preconditioner=ham.preconditioner,
                tol=eig_tol,
                max_iter=100,
            )
        coeffs = result.eigenvectors.T
        energies = result.eigenvalues
        occupations = _occupations(energies, n_electrons, config.smearing_width)

        psi_real = basis.to_real(coeffs)
        density_out = density_from_orbitals(psi_real, occupations, basis.grid.dv)
        delta = density_out - density
        residual = float(
            np.sqrt((delta * delta).sum() * basis.grid.dv) / max(n_electrons, 1.0)
        )
        e_total = _total_energy(ham, energies, occupations, density_out, e_ii)
        info.residuals.append(residual)
        info.total_energies.append(e_total)
        history.append(
            {"iteration": iteration, "residual": residual, "e_total": e_total}
        )
        if config.verbose:  # pragma: no cover - console path
            print(f"SCF {iteration:3d}: residual={residual:.3e}, E={e_total:.8f} Ha")
        if progress is not None:
            progress(
                {
                    "iteration": iteration,
                    "residual": residual,
                    "e_total": e_total,
                    "converged": residual < config.tol,
                }
            )

        if residual < config.tol:
            info.converged = True
            info.iterations = iteration
            density = density_out
            break
        with timers.scope("scf/mix"):
            density = mixer.mix(density, density_out)
        if checkpoint is not None:
            checkpoint.save(
                iteration,
                {
                    "density": density,
                    "coeffs": coeffs,
                    "residual": np.float64(residual),
                    "mixer": mixer.state_dict(),
                    "residuals": np.asarray(info.residuals),
                    "total_energies": np.asarray(info.total_energies),
                },
            )
    else:
        info.iterations = config.max_iter

    # Final polish with the converged potential, then rotate to real gauge.
    ham.update_density(density)
    with timers.scope("scf/polish"):
        result = lobpcg(
            ham.apply_columns,
            coeffs.T,
            preconditioner=ham.preconditioner,
            tol=config.eig_tol_final,
            max_iter=200,
        )
    coeffs = result.eigenvectors.T
    energies = result.eigenvalues
    occupations = _occupations(energies, n_electrons, config.smearing_width)
    orbitals_real, energies = realify_orbitals(coeffs, energies, basis, ham.apply)
    density = density_from_orbitals(orbitals_real, occupations, basis.grid.dv)
    e_total = _total_energy(ham, energies, occupations, density, e_ii)

    return GroundState(
        basis=basis,
        energies=energies,
        orbitals_real=orbitals_real,
        occupations=occupations,
        density=density,
        total_energy=e_total,
        converged=info.converged,
        history=history,
    )
