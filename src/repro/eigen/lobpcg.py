"""Locally Optimal Block Preconditioned Conjugate Gradient (LOBPCG).

This is the paper's Algorithm 2: iterate the three-block trial subspace
``S_i = [X, W, P]`` where ``W`` is the preconditioned residual and ``P`` the
aggregated search direction, project ``H`` onto ``S_i`` (Rayleigh-Ritz) and
update.  The operator is only ever used through block applications
``H @ S``, so the same code drives

* the Kohn-Sham band solve (operator = plane-wave Hamiltonian),
* the explicit Casida matrix (operator = dense GEMM), and
* the *implicit* ISDF-factored LR-TDDFT Hamiltonian of Section 4.3.

Robustness follows Duersch, Shao, Yang & Gu (SISC 2018, the paper's ref
[11]): W and P are orthonormalized against the current X-block before the
Rayleigh-Ritz solve, and the projected pencil is solved with a rank-revealing
whitening that tolerates the near-dependence that appears at convergence.

The same loop runs over row-distributed vectors: given a ``reducer`` (an
allreduce over ranks), every cross-row quantity -- the Gram products, the
projections, the Cholesky-QR Gram and the column norms -- is a local product
summed through it, and the small projected problems are solved redundantly
on every rank (Koval, Foerster & Coulaud, arXiv:1005.5340).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.eigen.results import EigenResult
from repro.utils.hot import array_contract
from repro.utils.linalg import (
    ReduceFn,
    no_reduce,
    orthonormalize,
    orthonormalize_against,
    stable_generalized_eigh,
    symmetrize,
)

# repro-lint: disable=no-alloc-in-hot -- Rayleigh-Ritz subspace assembly
# reallocates each iteration by design: block widths shrink with soft
# locking, so [X, W, P] and the projected pencil cannot use fixed-shape
# workspaces.  Per-iteration cost is dominated by the O(N k) operator
# applications, not these O(k^2) temporaries.

ApplyFn = Callable[[np.ndarray], np.ndarray]
PrecondFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _column_norms(block: np.ndarray, reduce: ReduceFn) -> np.ndarray:
    """``np.linalg.norm(block, axis=0)``, its squared sums reduced over rows."""
    return np.sqrt(reduce(np.add.reduce((block.conj() * block).real, axis=0)))


@array_contract(
    shapes={"x0": ("n", "k")},
    dtypes={"x0": ("float64", "complex128")},
)
def lobpcg(
    apply_h: ApplyFn,
    x0: np.ndarray,
    *,
    preconditioner: PrecondFn | None = None,
    tol: float = 1e-8,
    max_iter: int = 200,
    verbose: bool = False,
    checkpoint=None,
    callback=None,
    reducer=None,
) -> EigenResult:
    """Find the lowest-``k`` eigenpairs of a Hermitian operator.

    Parameters
    ----------
    apply_h:
        Block operator ``X (n, m) -> H X``; must be Hermitian.
    x0:
        ``(n, k)`` initial block; its column count sets how many pairs are
        computed.
    preconditioner:
        Optional ``(R, theta) -> W`` map applied to the residual block; the
        paper's Eq. 17 preconditioner for LR-TDDFT divides by
        ``(eps_c - eps_v) - theta``.
    tol:
        Convergence on ``||H x - theta x||_2 <= tol * max(1, |theta|)``
        per pair.
    max_iter:
        Maximum outer iterations.
    checkpoint:
        Optional :class:`~repro.resilience.checkpoint.LoopCheckpointer`.
        The full iteration-boundary state (``X``, ``H X``, ``P``, ``H P``,
        best-residual watermark, residual history) is snapshotted after
        each iteration, and a run started with a restart-enabled
        checkpointer resumes from the newest snapshot every rank holds —
        continuing *bit-identically* to the uninterrupted run, since every
        quantity the remaining iterations consume round-trips exactly.
        With a ``reducer`` each rank snapshots its own rows, so every rank
        needs its own tag (e.g. ``lobpcg-r{rank}``).
    callback:
        Optional per-iteration observer ``callback(iteration, theta,
        residual_norms)`` invoked after each Rayleigh-Ritz step with the
        current eigenvalue estimates — this is how the job server streams
        partial spectra while a solve is still running.  Purely
        observational: it must not mutate its arguments.
    reducer:
        Optional cross-row reducer for row-distributed vectors, e.g.
        :class:`~repro.parallel.parallel_kmeans.CommReducer`: ``.sum`` is
        an allreduce, ``.min`` a min-allreduce.  ``apply_h`` (which owns
        whatever communication its operator needs), ``x0``, the
        preconditioner (which must be row-local) and the returned
        eigenvectors then hold this rank's rows, and every rank gets the
        same eigenvalues.  Without it all rows are local.

    Notes
    -----
    Soft locking: once a Ritz pair converges its residual column is removed
    from the W/P expansion blocks (saving operator applications) but the
    vector stays in the subspace so later rotations keep it accurate.
    """
    reduce = no_reduce if reducer is None else reducer.sum
    x = np.array(x0, dtype=complex if np.iscomplexobj(x0) else float, copy=True)
    k = x.shape[1]
    if k == 0:
        raise ValueError("x0 must contain at least one column")
    n = int(reduce(np.array([x.shape[0]]))[0])
    if k > n:
        raise ValueError(f"requested {k} pairs from an order-{n} operator")

    x = orthonormalize(x, reduce=reduce)
    p: np.ndarray | None = None
    hp: np.ndarray | None = None
    history: list[float] = []
    best_residual = np.inf
    start_iteration = 0

    resumed = checkpoint.resume() if checkpoint is not None else None
    if reducer is not None and checkpoint is not None and checkpoint.restart:
        # A crash can leave one rank's snapshots a step behind its peers'
        # (the abort reached it after its last collective, before its save).
        # Resuming each rank from its own latest() would deadlock the
        # collectives, so all ranks roll back to the newest common step.
        local_step = resumed[0] if resumed is not None else -1
        common_step = int(reducer.min(np.array([local_step]))[0])
        if common_step < 0:
            resumed = None  # some rank has no snapshot: everyone starts fresh
        elif resumed is None or resumed[0] != common_step:
            resumed = (common_step, checkpoint.manager.load(common_step))
    if resumed is not None:
        start_iteration, state = resumed
        x = np.array(state["x"])
        hx = np.array(state["hx"])
        p = np.array(state["p"]) if state.get("p") is not None else None
        hp = np.array(state["hp"]) if state.get("hp") is not None else None
        best_residual = float(state["best_residual"])
        history = [float(v) for v in state["history"]]
    else:
        hx = apply_h(x)

    theta = np.zeros(k)
    residual_norms = np.full(k, np.inf)
    iteration = start_iteration
    for iteration in range(start_iteration + 1, max_iter + 1):
        # Rayleigh-Ritz on the current X block keeps theta and X consistent
        # (X is B-orthonormal from the whitened subspace solve, so this is a
        # plain symmetric eigenproblem).
        h_xx = symmetrize(reduce(x.conj().T @ hx))
        theta, rot = np.linalg.eigh(h_xx)
        x = x @ rot
        hx = hx @ rot

        residual = hx - x * theta
        residual_norms = _column_norms(residual, reduce)
        max_residual = float(residual_norms.max())
        history.append(max_residual)
        if callback is not None:
            callback(iteration, theta, residual_norms)
        active = residual_norms > tol * np.maximum(1.0, np.abs(theta))
        if verbose:  # pragma: no cover - diagnostic path
            print(
                f"lobpcg iter {iteration:3d}: max|r| = {max_residual:.3e}, "
                f"active = {int(active.sum())}/{k}"
            )
        if not active.any():
            return EigenResult(
                theta, x, iteration, residual_norms, True, tuple(history)
            )

        # Divergence guard: if the residual has grown far past its best
        # value, the P recurrence has accumulated rounding noise — restart
        # the conjugate direction and recompute H X exactly.
        if max_residual > 1e3 * best_residual and p is not None:
            p = None
            hp = None
            hx = apply_h(x)
            continue
        best_residual = min(best_residual, max_residual)

        w = residual[:, active]
        if preconditioner is not None:
            w = preconditioner(w, theta[active])
        w = orthonormalize_against(w, x, reduce=reduce)

        blocks = [x, w]
        h_blocks = [hx, apply_h(w)]
        if p is not None and p.shape[1] > 0:
            # Column-normalize P (pure scaling: the H P recurrence stays an
            # exact linear combination, no cancellation); near-zero columns
            # carry no new direction and are dropped.
            col_norms = _column_norms(p, reduce)
            keep = col_norms > 1e-12
            if keep.any():
                scale = 1.0 / col_norms[keep]
                blocks.append(p[:, keep] * scale)
                h_blocks.append(hp[:, keep] * scale)

        subspace = np.hstack(blocks)
        h_subspace = np.hstack(h_blocks)

        h_proj = symmetrize(reduce(subspace.conj().T @ h_subspace))
        s_proj = symmetrize(reduce(subspace.conj().T @ subspace))
        evals, coeffs = stable_generalized_eigh(h_proj, s_proj)
        coeffs = coeffs[:, :k]

        # Split the coefficient rows into the X part and the (W, P) part:
        # the latter defines the next aggregated direction P (paper Eq. 18).
        c_x = coeffs[:k, :]
        c_rest = coeffs[k:, :]
        rest = subspace[:, k:]
        h_rest = h_subspace[:, k:]

        p = rest @ c_rest
        hp = h_rest @ c_rest
        x = blocks[0] @ c_x + p
        hx = h_blocks[0] @ c_x + hp

        if checkpoint is not None:
            checkpoint.save(
                iteration,
                {
                    "x": x,
                    "hx": hx,
                    "p": p,
                    "hp": hp,
                    "best_residual": np.float64(best_residual),
                    "history": np.asarray(history),
                },
            )

    # Final Rayleigh-Ritz for a consistent return state.
    h_xx = symmetrize(reduce(x.conj().T @ hx))
    theta, rot = np.linalg.eigh(h_xx)
    x = x @ rot
    hx = hx @ rot
    residual_norms = _column_norms(hx - x * theta, reduce)
    converged = bool(
        (residual_norms <= tol * np.maximum(1.0, np.abs(theta))).all()
    )
    return EigenResult(theta, x, iteration, residual_norms, converged, tuple(history))
