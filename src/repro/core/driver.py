"""The LR-TDDFT solver: all five versions of the paper's Table 4.

=====  =============================  =====================  ==================
 #     method string                  Hamiltonian            diagonalization
=====  =============================  =====================  ==================
 (1)   ``naive``                      explicit, exact        dense (SYEVD)
 (2)   ``qrcp-isdf``                  explicit, compressed   dense (SYEVD)
 (3)   ``kmeans-isdf``                explicit, compressed   dense (SYEVD)
 (4)   ``kmeans-isdf-lobpcg``         explicit, compressed   LOBPCG, lowest k
 (5)   ``implicit-kmeans-isdf-lobpcg`` never formed          LOBPCG, lowest k
=====  =============================  =====================  ==================

(plus the ``qrcp`` twins of (4)/(5) for ablations.)  Per-phase wall-clock is
collected in a :class:`~repro.utils.timers.TimerRegistry` so the benchmark
harness can print the paper's Figure 8-style breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.config import TDDFTConfig
from repro.core.casida import build_casida_hamiltonian, solve_casida_dense
from repro.core.full_casida import (
    ImplicitFullCasidaOperator,
    build_full_casida_matrix,
    solve_full_casida_dense,
)
from repro.core.implicit import ImplicitCasidaOperator
from repro.core.isdf import ISDFDecomposition, default_rank, isdf_decompose
from repro.core.isdf_hamiltonian import build_isdf_hamiltonian
from repro.core.kernel import HxcKernel
from repro.core.pair_products import pair_energies
from repro.dft.groundstate import GroundState
from repro.eigen.davidson import davidson
from repro.eigen.lobpcg import lobpcg
from repro.utils.rng import default_rng
from repro.utils.serialization import SerializableResult
from repro.utils.threads import blas_threads
from repro.utils.timers import TimerRegistry
from repro.utils.validation import require

#: Method strings accepted by :meth:`LRTDDFTSolver.solve`, in Table 4 order.
METHODS: tuple[str, ...] = (
    "naive",
    "qrcp-isdf",
    "kmeans-isdf",
    "kmeans-isdf-lobpcg",
    "implicit-kmeans-isdf-lobpcg",
    "qrcp-isdf-lobpcg",
    "implicit-qrcp-isdf-lobpcg",
    "kmeans-isdf-davidson",
    "implicit-kmeans-isdf-davidson",
)


@dataclass(frozen=True)
class TDDFTWarmStart:
    """Cross-calculation reuse state for :meth:`LRTDDFTSolver.solve`.

    Carried between nearby structures by :mod:`repro.batch`; every field
    is optional and ``None`` falls back to the cold path.

    Attributes
    ----------
    isdf_indices:
        Interpolation points reused verbatim (selection is skipped and only
        the least-squares fit re-runs).  Takes precedence over
        ``kmeans_centroids``.
    kmeans_centroids:
        Warm-start centroids for the K-Means selection — iteration counts
        collapse to the few steps needed to track the perturbation.
    x0:
        ``(N_cv, k)`` eigensolver starting block (the previous frame's
        converged excitation vectors).  Used only when the shape matches
        the requested solve; otherwise ignored.
    """

    isdf_indices: np.ndarray | None = None
    kmeans_centroids: np.ndarray | None = None
    x0: np.ndarray | None = None


@dataclass
class LRTDDFTResult(SerializableResult):
    """Excitation energies and wavefunction coefficients.

    Attributes
    ----------
    energies:
        ``(k,)`` lowest excitation energies (Hartree), ascending.
    wavefunctions:
        ``(N_cv, k)`` excitation coefficient vectors in pair ordering.
    method:
        Which Table 4 version produced the result.
    n_mu:
        ISDF rank used (None for the naive version).
    timings:
        Per-phase wall-clock seconds.
    isdf:
        The ISDF decomposition (None for naive) for post-hoc diagnostics.
    eigensolver_iterations:
        LOBPCG iterations (0 for dense solves).
    converged:
        Eigensolver convergence flag (dense solves are always True) — the
        facade's dense-fallback policy keys off this.
    """

    energies: np.ndarray
    wavefunctions: np.ndarray
    method: str
    n_mu: int | None
    timings: dict[str, float] = field(default_factory=dict)
    isdf: ISDFDecomposition | None = None
    eigensolver_iterations: int = 0
    converged: bool = True

    @property
    def n_excitations(self) -> int:
        return self.energies.shape[0]

    def to_dict(self) -> dict:
        return {
            "energies": self.energies,
            "wavefunctions": self.wavefunctions,
            "method": self.method,
            "n_mu": None if self.n_mu is None else int(self.n_mu),
            "timings": {k: float(v) for k, v in self.timings.items()},
            "isdf": None if self.isdf is None else self.isdf.to_dict(),
            "eigensolver_iterations": int(self.eigensolver_iterations),
            "converged": bool(self.converged),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LRTDDFTResult":
        isdf = data.get("isdf")
        return cls(
            energies=np.array(data["energies"]),
            wavefunctions=np.array(data["wavefunctions"]),
            method=str(data["method"]),
            n_mu=None if data.get("n_mu") is None else int(data["n_mu"]),
            timings=dict(data.get("timings") or {}),
            isdf=None if isdf is None else ISDFDecomposition.from_dict(isdf),
            eigensolver_iterations=int(data.get("eigensolver_iterations", 0)),
            converged=bool(data.get("converged", True)),
        )


class LRTDDFTSolver:
    """LR-TDDFT (Casida/TDA) on top of a converged :class:`GroundState`.

    Parameters
    ----------
    ground_state:
        Converged KS ground state with conduction bands.
    n_valence / n_conduction:
        Size of the transition space (defaults: everything available).
    include_xc:
        Toggle the ALDA kernel (False = RPA/Hartree-only; ablation).
    spin:
        ``"singlet"`` (default) or ``"triplet"`` — triplet response drops
        the Hartree term and uses the spin-flip kernel
        (:func:`repro.dft.xc_spin.lda_kernel_triplet`).
    seed:
        Seed of the ISDF point selection and the eigensolver start block.

    ``n_valence``, ``n_conduction``, ``include_xc``, ``spin`` and ``seed``
    are also :class:`repro.api.TDDFTConfig` fields; :meth:`solve` rejects a
    config that sets one of them to something other than the default or
    this solver's value.
    """

    def __init__(
        self,
        ground_state: GroundState,
        *,
        n_valence: int | None = None,
        n_conduction: int | None = None,
        include_xc: bool = True,
        spin: str = "singlet",
        seed: int | None = None,
    ) -> None:
        self.ground_state = ground_state
        (self.psi_v, self.eps_v, self.psi_c, self.eps_c) = (
            ground_state.select_transition_space(n_valence, n_conduction)
        )
        self.basis = ground_state.basis
        self.spin = spin
        self.kernel = HxcKernel(
            self.basis, ground_state.density, include_xc=include_xc, spin=spin
        )
        self._seed = seed
        #: The TDDFTConfig fields fixed at construction (checked by solve).
        self._construction = {
            "spin": spin,
            "include_xc": include_xc,
            "n_valence": n_valence,
            "n_conduction": n_conduction,
            "seed": seed,
        }
        self._warm: TDDFTWarmStart | None = None
        self._selection_fallback: str | None = None
        self._isdf_checkpoint = None
        self._lobpcg_checkpoint = None

    # -- sizes --------------------------------------------------------------

    @property
    def n_v(self) -> int:
        return self.psi_v.shape[0]

    @property
    def n_c(self) -> int:
        return self.psi_c.shape[0]

    @property
    def n_pairs(self) -> int:
        return self.n_v * self.n_c

    def default_n_mu(self, rank_factor: float = 10.0) -> int:
        return default_rank(self.n_v, self.n_c, self.basis.n_r, rank_factor)

    # -- solving --------------------------------------------------------------

    def solve(
        self,
        config: TDDFTConfig | None = None,
        *,
        resilience=None,
        warm: TDDFTWarmStart | None = None,
        progress=None,
        isdf_kwargs: dict | None = None,
    ) -> LRTDDFTResult:
        """Solve for the lowest excitations with the chosen Table 4 version.

        Parameters
        ----------
        config:
            A :class:`repro.api.TDDFTConfig` (default-constructed when
            omitted).  Its ``method`` picks the Table 4 version;
            ``n_excitations`` is how many lowest pairs to return (iterative
            versions default to ``min(10, N_cv)``, dense versions return
            the full spectrum); ``n_mu`` / ``rank_factor`` set the ISDF
            rank (default: :meth:`default_n_mu`); ``tol`` / ``max_iter``
            control the iterative eigensolver; ``tda=False`` solves the
            *full* Casida problem of Eq. 1 via the Hermitian reduction (see
            :mod:`repro.core.full_casida`) instead of the Tamm-Dancoff
            Eq. 2.  The transition-space fields (``spin``, ``include_xc``,
            ``n_valence``, ``n_conduction``, ``seed``) belong to the
            solver's construction: a value that is neither the default nor
            the constructor's raises ``ValueError`` naming the field.
        resilience:
            Optional :class:`repro.api.ResilienceConfig`.  Enables the
            K-Means -> QRCP selection fallback and, when ``checkpoint_dir``
            is set, stage checkpoints for the ISDF pipeline (tag ``isdf``)
            and iteration snapshots for the LOBPCG solve (tag ``lobpcg``)
            with ``restart`` resuming both.
        warm:
            Optional :class:`TDDFTWarmStart` carrying interpolation points,
            K-Means centroids and an eigensolver starting block from a
            nearby converged solve; ``None`` (default) is the cold path,
            bit-identical to previous releases.
        progress:
            Optional per-iteration observer for the iterative eigensolve
            (LOBPCG versions): called with ``{"iteration": i,
            "eigenvalues": (...), "max_residual": r}`` after every
            Rayleigh-Ritz step — the partial-spectrum stream of the job
            server.  Dense and Davidson paths emit no events.
        isdf_kwargs:
            Extra keywords for :func:`repro.core.isdf.isdf_decompose`
            (selection ablations).
        """
        if config is None:
            config = TDDFTConfig()
        if not isinstance(config, TDDFTConfig):
            raise TypeError(
                "LRTDDFTSolver.solve takes a repro.api.TDDFTConfig, got "
                f"{type(config).__name__}; e.g. solve(TDDFTConfig(method=...))"
            )
        defaults = TDDFTConfig()
        for name, built in self._construction.items():
            value = getattr(config, name)
            require(
                value == getattr(defaults, name) or value == built,
                f"config.{name}={value!r} differs from this solver's "
                f"{name}={built!r}, which is fixed at construction; build "
                f"LRTDDFTSolver(..., {name}={value!r}) instead",
            )
        method, k, tda = config.method, config.n_excitations, config.tda
        timers = TimerRegistry()
        isdf_kwargs = dict(isdf_kwargs or {})
        self._warm = warm
        self._progress = progress
        self._configure_resilience(resilience)
        # Fresh generator per solve: every method sees identical ISDF points
        # and starting blocks, so cross-version comparisons are exact.
        self._rng = default_rng(self._seed)

        if method == "naive":
            result = self._solve_naive(k, timers, tda)
        else:
            selection = "qrcp" if method.startswith(("qrcp", "implicit-qrcp")) else "kmeans"
            eigensolver = "davidson" if method.endswith("davidson") else "lobpcg"
            if "implicit" in method:
                result = self._solve_implicit(
                    selection, k, config.n_mu, config.rank_factor, config.tol,
                    config.max_iter, timers, isdf_kwargs, tda, eigensolver,
                )
            else:
                use_iterative = method.endswith(("lobpcg", "davidson"))
                result = self._solve_isdf_explicit(
                    selection, use_iterative, k, config.n_mu, config.rank_factor,
                    config.tol, config.max_iter, timers, isdf_kwargs, tda,
                    eigensolver,
                )
        result.method = method
        result.timings = timers.as_dict()
        return result

    def _eigensolver_callback(self):
        """LOBPCG ``callback`` adapter for the solve's ``progress`` hook."""
        progress = getattr(self, "_progress", None)
        if progress is None:
            return None

        def callback(iteration, theta, residual_norms):
            progress(
                {
                    "iteration": int(iteration),
                    "eigenvalues": tuple(float(t) for t in theta),
                    "max_residual": float(residual_norms.max()),
                }
            )

        return callback

    def _configure_resilience(self, resilience) -> None:
        """Translate a ResilienceConfig into the solver-side hooks."""
        self._selection_fallback = None
        self._isdf_checkpoint = None
        self._lobpcg_checkpoint = None
        if resilience is None:
            return
        self._selection_fallback = resilience.selection_fallback
        if resilience.checkpoint_dir:
            from repro.resilience.checkpoint import (
                CheckpointManager,
                LoopCheckpointer,
            )

            self._isdf_checkpoint = LoopCheckpointer(
                CheckpointManager(resilience.checkpoint_dir, tag="isdf"),
                restart=resilience.restart,
                keep_last=resilience.keep_last,
            )
            self._lobpcg_checkpoint = LoopCheckpointer(
                CheckpointManager(resilience.checkpoint_dir, tag="lobpcg"),
                every=resilience.checkpoint_every,
                restart=resilience.restart,
                keep_last=resilience.keep_last,
            )

    # -- version implementations ------------------------------------------------

    def _solve_naive(
        self, n_excitations: int | None, timers: TimerRegistry, tda: bool
    ) -> LRTDDFTResult:
        with timers.scope("hamiltonian"):
            if tda:
                h = build_casida_hamiltonian(
                    self.psi_v, self.eps_v, self.psi_c, self.eps_c,
                    self.kernel, timers=timers,
                )
            else:
                h = build_full_casida_matrix(
                    self.psi_v, self.eps_v, self.psi_c, self.eps_c,
                    self.kernel, timers=timers,
                )
        with timers.scope("diagonalize"):
            if tda:
                evals, evecs = solve_casida_dense(h, n_excitations)
            else:
                evals, evecs = solve_full_casida_dense(h, n_excitations)
        return LRTDDFTResult(evals, evecs, "naive", None)

    def _decompose(
        self,
        selection: str,
        n_mu: int | None,
        rank_factor: float,
        timers: TimerRegistry,
        isdf_kwargs: dict,
    ) -> ISDFDecomposition:
        grid_points = (
            self.basis.grid.cartesian_points if selection == "kmeans" else None
        )
        warm = self._warm
        if warm is not None:
            if warm.isdf_indices is not None:
                isdf_kwargs = dict(isdf_kwargs, indices=warm.isdf_indices)
            elif warm.kmeans_centroids is not None and selection == "kmeans":
                isdf_kwargs = dict(
                    isdf_kwargs, initial_centroids=warm.kmeans_centroids
                )
        return isdf_decompose(
            self.psi_v,
            self.psi_c,
            n_mu,
            method=selection,
            grid_points=grid_points,
            rank_factor=rank_factor,
            rng=self._rng,
            timers=timers,
            fallback=self._selection_fallback,
            checkpoint=self._isdf_checkpoint,
            **isdf_kwargs,
        )

    def _solve_isdf_explicit(
        self,
        selection: str,
        use_iterative: bool,
        n_excitations: int | None,
        n_mu: int | None,
        rank_factor: float,
        tol: float,
        max_iter: int,
        timers: TimerRegistry,
        isdf_kwargs: dict,
        tda: bool,
        eigensolver: str = "lobpcg",
    ) -> LRTDDFTResult:
        isdf = self._decompose(selection, n_mu, rank_factor, timers, isdf_kwargs)
        with timers.scope("hamiltonian"):
            if tda:
                h = build_isdf_hamiltonian(
                    isdf, self.eps_v, self.eps_c, self.kernel, timers=timers
                )
            else:
                h = ImplicitFullCasidaOperator(
                    isdf, self.eps_v, self.eps_c, self.kernel, timers=timers
                ).materialize()
        iterations = 0
        if use_iterative:
            k = self._resolve_k(n_excitations)
            x0 = self._initial_block(k)
            diag = pair_energies(self.eps_v, self.eps_c)
            diag = diag if tda else diag**2
            floor = 1e-2 if tda else 1e-4

            def precond(r: np.ndarray, theta: np.ndarray) -> np.ndarray:
                # Positive-definite variant of the paper's Eq. 17 (see
                # ImplicitCasidaOperator.preconditioner).
                denom = np.maximum(np.abs(diag[:, None] - theta[None, :]), floor)
                return r / denom

            # One BLAS thread, as in _solve_implicit: each `h @ x` streams the
            # dense matrix once for k columns, which a second thread does not
            # speed up, and the ~3k x 3k pencils are too small to split (see
            # repro.utils.threads and docs/performance.md).
            with timers.scope("diagonalize"), blas_threads(1):
                if eigensolver == "davidson":
                    res = davidson(
                        lambda x: h @ x, x0, np.diag(h).copy(), tol=tol,
                        max_iter=max_iter,
                    )
                else:
                    res = lobpcg(
                        lambda x: h @ x, x0, preconditioner=precond, tol=tol,
                        max_iter=max_iter, checkpoint=self._lobpcg_checkpoint,
                        callback=self._eigensolver_callback(),
                    )
            evals, evecs = res.eigenvalues, res.eigenvectors
            iterations = res.iterations
            converged = res.converged
            if not tda:
                evals = np.sqrt(np.maximum(evals, 0.0))
        else:
            converged = True
            with timers.scope("diagonalize"):
                if tda:
                    evals, evecs = solve_casida_dense(h, n_excitations)
                else:
                    evals, evecs = solve_full_casida_dense(h, n_excitations)
        return LRTDDFTResult(
            evals, evecs, "", isdf.n_mu, isdf=isdf,
            eigensolver_iterations=iterations, converged=converged,
        )

    def _solve_implicit(
        self,
        selection: str,
        n_excitations: int | None,
        n_mu: int | None,
        rank_factor: float,
        tol: float,
        max_iter: int,
        timers: TimerRegistry,
        isdf_kwargs: dict,
        tda: bool,
        eigensolver: str = "lobpcg",
    ) -> LRTDDFTResult:
        isdf = self._decompose(selection, n_mu, rank_factor, timers, isdf_kwargs)
        with timers.scope("hamiltonian"):
            if tda:
                op = ImplicitCasidaOperator(
                    isdf, self.eps_v, self.eps_c, self.kernel, timers=timers
                )
            else:
                op = ImplicitFullCasidaOperator(
                    isdf, self.eps_v, self.eps_c, self.kernel, timers=timers
                )
        k = self._resolve_k(n_excitations)
        x0 = self._initial_block(k)
        with timers.scope("diagonalize"), blas_threads(1):
            if eigensolver == "davidson":
                res = davidson(
                    op.apply, x0, op.diagonal(), tol=tol, max_iter=max_iter
                )
            else:
                res = lobpcg(
                    op.apply, x0, preconditioner=op.preconditioner, tol=tol,
                    max_iter=max_iter, checkpoint=self._lobpcg_checkpoint,
                    callback=self._eigensolver_callback(),
                )
        evals = res.eigenvalues
        if not tda:
            evals = np.sqrt(np.maximum(evals, 0.0))
        return LRTDDFTResult(
            evals, res.eigenvectors, "", isdf.n_mu, isdf=isdf,
            eigensolver_iterations=res.iterations, converged=res.converged,
        )

    # -- helpers -----------------------------------------------------------

    def _resolve_k(self, n_excitations: int | None) -> int:
        k = min(10, self.n_pairs) if n_excitations is None else n_excitations
        require(0 < k <= self.n_pairs, f"n_excitations must be in [1, {self.n_pairs}]")
        return k

    def _initial_block(self, k: int) -> np.ndarray:
        """Unit vectors on the ``k`` lowest independent-particle transitions.

        The physically-motivated warm start: the lowest Casida excitations
        are dominated by the lowest KS transitions, so LOBPCG starts inside
        the right subspace.  A small random admixture avoids exact-zero
        couplings in symmetric systems.
        """
        warm = self._warm
        if warm is not None and warm.x0 is not None and warm.x0.shape == (
            self.n_pairs, k
        ):
            return np.array(warm.x0, dtype=float)
        diag = pair_energies(self.eps_v, self.eps_c)
        lowest = np.argsort(diag)[:k]
        x0 = np.zeros((self.n_pairs, k))
        x0[lowest, np.arange(k)] = 1.0
        x0 += 1e-3 * self._rng.standard_normal(x0.shape)
        return x0


def _solver_for(ground_state: GroundState, config: TDDFTConfig) -> LRTDDFTSolver:
    """The solver a request's ``TDDFTConfig`` describes on ``ground_state``."""
    return LRTDDFTSolver(
        ground_state,
        n_valence=config.n_valence,
        n_conduction=config.n_conduction,
        include_xc=config.include_xc,
        spin=config.spin,
        seed=config.seed,
    )
