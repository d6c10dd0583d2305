"""Typed, frozen configuration objects for the :mod:`repro.api` facade.

Each config is an immutable dataclass with exact round-trip semantics:
``Config.from_dict(cfg.to_dict()) == cfg``.  Unknown keys are rejected on
construction from a dict, so config files fail loudly instead of silently
dropping a typo.  ``replace`` derives a modified copy (the functional
update pattern for frozen dataclasses).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.utils.validation import require

__all__ = ["BatchConfig", "RTConfig", "ResilienceConfig", "SCFConfig", "TDDFTConfig"]


@dataclass(frozen=True)
class _ConfigBase:
    """Shared dict round-trip / functional-update machinery."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "_ConfigBase":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - fields)
        require(
            not unknown,
            f"unknown {cls.__name__} keys {unknown}; valid keys: {sorted(fields)}",
        )
        return cls(**data)

    def replace(self, **changes) -> "_ConfigBase":
        """A copy with the given fields changed (frozen-safe update)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class SCFConfig(_ConfigBase):
    """Ground-state SCF parameters: the one config :func:`repro.dft.run_scf`
    takes (directly, or through a ``CalculationRequest``).

    ``precision`` is the mixed-precision execution tier (``"strict64"`` /
    ``"mixed"`` / ``"fast32"``, see :mod:`repro.precision`).  It is a plain
    string so it serializes through the exact dict round-trip and therefore
    participates in the request cache key: a ``mixed`` and a ``strict64``
    calculation are different cache entries.
    """

    ecut: float = 10.0
    n_bands: int | None = None  #: total bands; default = n_occ + max(4, n_occ//2)
    tol: float = 1e-6  #: density residual convergence (per electron)
    max_iter: int = 60
    mixer: str = "anderson"  #: "anderson" or "linear"
    mixing_beta: float = 0.5
    mixing_history: int = 5
    smearing_width: float = 0.0  #: Fermi-Dirac width in Ha; 0 = integer fill
    eig_tol_final: float = 1e-8
    seed: int | None = None
    verbose: bool = False
    #: SCF convergence-critical algebra stays fp64 in every tier; only
    #: ``fast32`` routes the Hartree solve through fp32 FFT scratch.
    precision: str = "strict64"

    def __post_init__(self) -> None:
        from repro.precision import PRECISION_MODES

        require(self.ecut > 0, f"ecut must be positive, got {self.ecut}")
        require(self.max_iter >= 1, f"max_iter must be >= 1, got {self.max_iter}")
        require(
            self.mixer in ("anderson", "linear"),
            f"mixer must be 'anderson' or 'linear', got {self.mixer!r}",
        )
        require(
            self.precision in PRECISION_MODES,
            f"precision must be one of {PRECISION_MODES}, "
            f"got {self.precision!r}",
        )


@dataclass(frozen=True)
class TDDFTConfig(_ConfigBase):
    """LR-TDDFT solve parameters (transition space + eigensolver).

    ``precision`` selects the mixed-precision execution tier for the
    tolerance-bounded ISDF/K-Means/operator stages (see
    :mod:`repro.precision`); like every other field it enters the request
    cache key through the dict round-trip.
    """

    method: str = "implicit-kmeans-isdf-lobpcg"
    n_excitations: int | None = None
    n_mu: int | None = None
    rank_factor: float = 10.0
    tol: float = 1e-8
    max_iter: int = 400
    tda: bool = True
    spin: str = "singlet"
    include_xc: bool = True
    n_valence: int | None = None
    n_conduction: int | None = None
    seed: int | None = None
    precision: str = "strict64"

    def __post_init__(self) -> None:
        from repro.core.driver import METHODS
        from repro.precision import PRECISION_MODES

        require(
            self.method in METHODS,
            f"unknown method {self.method!r}; choose from {METHODS}",
        )
        require(
            self.spin in ("singlet", "triplet"),
            f"spin must be 'singlet' or 'triplet', got {self.spin!r}",
        )
        require(self.max_iter >= 1, f"max_iter must be >= 1, got {self.max_iter}")
        require(
            self.precision in PRECISION_MODES,
            f"precision must be one of {PRECISION_MODES}, "
            f"got {self.precision!r}",
        )


@dataclass(frozen=True)
class RTConfig(_ConfigBase):
    """Real-time TDDFT propagation parameters of a ``kind="rt"`` request.

    Attributes
    ----------
    dt / n_steps:
        Propagation time step (atomic units) and number of steps.
    kick_strength / kick_direction:
        Initial delta-kick perturbation; a zero strength skips the kick.
    krylov_dim:
        Krylov subspace dimension of the exponential propagator.
    etrs:
        Enforced time-reversal-symmetry propagator (vs plain exponential
        midpoint).
    record_every:
        Record dipole/norm observables every N-th step.
    self_consistent:
        Update the Hamiltonian from the propagated density each step.
    """

    dt: float = 0.2
    n_steps: int = 600
    kick_strength: float = 1e-3
    kick_direction: tuple[float, float, float] = (0.0, 0.0, 1.0)
    krylov_dim: int = 10
    etrs: bool = True
    record_every: int = 1
    self_consistent: bool = True

    def __post_init__(self) -> None:
        require(self.dt > 0, f"dt must be positive, got {self.dt}")
        require(self.n_steps >= 1, f"n_steps must be >= 1, got {self.n_steps}")
        require(
            self.krylov_dim >= 2,
            f"krylov_dim must be >= 2, got {self.krylov_dim}",
        )
        require(
            self.record_every >= 1,
            f"record_every must be >= 1, got {self.record_every}",
        )
        direction = tuple(float(c) for c in self.kick_direction)
        require(
            len(direction) == 3,
            f"kick_direction must have 3 components, got {len(direction)}",
        )
        object.__setattr__(self, "kick_direction", direction)

    @classmethod
    def from_dict(cls, data: dict) -> "RTConfig":
        """Round-trip-exact construction; the direction may be a list."""
        payload = dict(data)
        if isinstance(payload.get("kick_direction"), list):
            payload["kick_direction"] = tuple(payload["kick_direction"])
        return super().from_dict(payload)


@dataclass(frozen=True)
class BatchConfig(_ConfigBase):
    """Cross-calculation batch parameters of a ``kind="batch"`` request
    (see :func:`repro.batch.run_batch`).

    Attributes
    ----------
    scf / tddft:
        Per-frame pipeline configs, shared by every frame.
    warm_start:
        Master switch for all cross-frame reuse.  Off, every frame runs
        exactly as a standalone calculation (bit-identical to a
        ``kind="tddft"`` request per frame).
    density_extrapolation:
        Starting-density policy under warm start: ``"quadratic"``
        (default; three-frame extrapolation), ``"linear"``, or ``"none"``
        (carry the previous density unmodified).
    isdf_drift_threshold:
        Reuse the previous frame's ISDF interpolation points while the
        candidate-assignment drift stays at or below this fraction;
        past it, points are reselected (K-Means still warm-started from
        the previous centroids).  0 reselects on any nonzero drift.
    residual_hint_floor:
        Lower bound on the warm SCF residual hint (guards the adaptive
        eigensolver tolerance when consecutive frames nearly coincide).
    reuse_identical_frames:
        Replay results bit-identically for frames whose fingerprint
        (structure + configs) matches an earlier frame.
    n_ranks / spmd_backend:
        Shard frames over SPMD ranks (``"thread"``/``"process"``;
        ``None`` consults ``REPRO_SPMD_BACKEND``).  Each rank runs a
        contiguous chunk with its own warm chain.
    store_results:
        Keep full per-frame result objects on the
        :class:`~repro.batch.results.BatchResult`; off, only the
        per-frame records survive (memory-lean mode).
    precision:
        Convenience override: when set (``"strict64"`` / ``"mixed"`` /
        ``"fast32"``), it is pushed into both nested configs at
        construction, so one knob switches the whole per-frame pipeline;
        ``None`` (default) leaves the nested configs' own tiers untouched.
    """

    scf: SCFConfig = field(default_factory=SCFConfig)
    tddft: TDDFTConfig = field(default_factory=TDDFTConfig)
    warm_start: bool = True
    density_extrapolation: str = "quadratic"
    isdf_drift_threshold: float = 0.1
    residual_hint_floor: float = 3e-5
    reuse_identical_frames: bool = True
    n_ranks: int = 1
    spmd_backend: str | None = None
    store_results: bool = True
    precision: str | None = None

    def __post_init__(self) -> None:
        require(
            isinstance(self.scf, SCFConfig),
            f"scf must be an SCFConfig, got {type(self.scf).__name__}",
        )
        require(
            isinstance(self.tddft, TDDFTConfig),
            f"tddft must be a TDDFTConfig, got {type(self.tddft).__name__}",
        )
        if self.precision is not None:
            from repro.precision import PRECISION_MODES

            require(
                self.precision in PRECISION_MODES,
                f"precision must be None or one of {PRECISION_MODES}, "
                f"got {self.precision!r}",
            )
            # Push the tier into the nested configs (idempotent, so the
            # dict round-trip reconstructs the identical object).
            object.__setattr__(
                self, "scf", self.scf.replace(precision=self.precision)
            )
            object.__setattr__(
                self, "tddft", self.tddft.replace(precision=self.precision)
            )
        require(
            self.density_extrapolation in ("none", "linear", "quadratic"),
            f"density_extrapolation must be none/linear/quadratic, "
            f"got {self.density_extrapolation!r}",
        )
        require(
            0.0 <= self.isdf_drift_threshold <= 1.0,
            f"isdf_drift_threshold must be in [0, 1], "
            f"got {self.isdf_drift_threshold}",
        )
        require(
            self.residual_hint_floor > 0,
            f"residual_hint_floor must be positive, "
            f"got {self.residual_hint_floor}",
        )
        require(self.n_ranks >= 1, f"n_ranks must be >= 1, got {self.n_ranks}")
        require(
            self.spmd_backend in (None, "thread", "process"),
            f"spmd_backend must be None, 'thread' or 'process', "
            f"got {self.spmd_backend!r}",
        )

    @classmethod
    def from_dict(cls, data: dict) -> "BatchConfig":
        """Round-trip-exact construction; nested configs may be dicts."""
        payload = dict(data)
        if isinstance(payload.get("scf"), dict):
            payload["scf"] = SCFConfig.from_dict(payload["scf"])
        if isinstance(payload.get("tddft"), dict):
            payload["tddft"] = TDDFTConfig.from_dict(payload["tddft"])
        return super().from_dict(payload)


@dataclass(frozen=True)
class ResilienceConfig(_ConfigBase):
    """Checkpoint/restart and graceful-degradation policies.

    Attributes
    ----------
    checkpoint_dir:
        Directory for loop snapshots (``None`` disables checkpointing).
    checkpoint_every:
        Snapshot every N-th loop iteration.
    restart:
        Resume each checkpointed loop from its newest snapshot.
    keep_last:
        Retain only the newest N snapshots per loop (0 = keep all).
    max_retries / backoff / backoff_factor:
        Retry-with-exponential-backoff parameters for transient faults
        (see :class:`repro.resilience.RetryPolicy`).
    selection_fallback:
        ``"qrcp"`` re-selects ISDF points with randomized QRCP when the
        K-Means clustering fails or does not converge; ``None`` fails fast.
    dense_fallback_max_pairs:
        When an iterative eigensolve does not converge and the pair space
        is at most this large, re-solve with the dense eigensolver
        (0 disables the fallback).
    """

    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    restart: bool = False
    keep_last: int = 0
    max_retries: int = 3
    backoff: float = 0.01
    backoff_factor: float = 2.0
    selection_fallback: str | None = "qrcp"
    dense_fallback_max_pairs: int = 512

    def __post_init__(self) -> None:
        require(
            self.checkpoint_every >= 1,
            f"checkpoint_every must be >= 1, got {self.checkpoint_every}",
        )
        require(self.keep_last >= 0, f"keep_last must be >= 0, got {self.keep_last}")
        require(
            self.max_retries >= 0,
            f"max_retries must be >= 0, got {self.max_retries}",
        )
        require(
            self.selection_fallback in (None, "qrcp"),
            f"selection_fallback must be None or 'qrcp', "
            f"got {self.selection_fallback!r}",
        )

    def retry_policy(self):
        """The :class:`repro.resilience.RetryPolicy` these knobs describe."""
        from repro.resilience.policies import RetryPolicy

        return RetryPolicy(
            max_retries=self.max_retries,
            backoff=self.backoff,
            backoff_factor=self.backoff_factor,
        )

    def checkpointer(self, tag: str):
        """A :class:`~repro.resilience.checkpoint.LoopCheckpointer` for one
        loop (``None`` when checkpointing is disabled)."""
        if self.checkpoint_dir is None:
            return None
        from repro.resilience.checkpoint import CheckpointManager, LoopCheckpointer

        return LoopCheckpointer(
            CheckpointManager(self.checkpoint_dir, tag=tag),
            every=self.checkpoint_every,
            restart=self.restart,
            keep_last=self.keep_last,
        )
