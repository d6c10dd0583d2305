"""The ISDF decomposition driver (Section 4.1, Figure 1).

Bundles point selection (QRCP or K-Means) with the least-squares fit into a
single result object:

    psi_v(r) psi_c(r)  ~=  sum_mu zeta_mu(r) * psi_v(r_mu) psi_c(r_mu)

i.e. ``Z ~= Theta C`` with ``Theta`` the interpolation vectors (auxiliary
basis functions) and ``C`` the separable coefficient tensor.  The result
keeps the fit rows ``M = (Z C^T)^T`` rather than Theta: every LR-TDDFT path
reaches Theta only through ``Vtilde`` (:func:`repro.core.fitting.solve_vtilde`),
and Theta is solved only when a diagnostic asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.fitting import coefficient_matrix, fit_interpolation_vectors, solve_theta
from repro.core.kmeans import select_points_kmeans
from repro.core.pair_products import pair_products
from repro.core.qrcp import select_points_qrcp
from repro.utils.hot import array_contract
from repro.utils.rng import default_rng
from repro.utils.timers import TimerRegistry
from repro.utils.validation import require

#: How K-Means point selection fails in practice: degenerate clusters or
#: weights (ValueError), numerical breakdown (ArithmeticError, LinAlgError)
#: or a backend fault surfacing as RuntimeError.  Injected faults, aborts
#: and programming errors must propagate rather than silently triggering
#: the QRCP fallback.
_SELECTION_FAILURES = (
    RuntimeError,
    ValueError,
    ArithmeticError,
    np.linalg.LinAlgError,
)


def default_rank(n_v: int, n_c: int, n_r: int, rank_factor: float = 10.0) -> int:
    """Paper-style default rank ``N_mu ~= rank_factor * sqrt(N_v N_c)``.

    (Table 4 note: ``N_mu ~= 10 x N_e`` with ``N_v ~= N_c ~= N_e``.)
    Clipped to ``min(N_r, N_v * N_c)``.  At ``N_mu = N_v * N_c`` the
    decomposition is exact only when ``C C^T`` is nonsingular: points that
    leave ``C`` rank-deficient fit the missing pair directions with the
    ridge alone.
    """
    n_mu = int(np.ceil(rank_factor * np.sqrt(n_v * n_c)))
    return max(1, min(n_mu, n_r, n_v * n_c))


@dataclass(frozen=True)
class ISDFDecomposition:
    """Result of an ISDF compression of the pair products.

    Attributes
    ----------
    indices:
        ``(N_mu,)`` interpolation-point indices into the grid.
    fit_rows:
        ``(N_mu, N_r)`` fit rows ``M = (Z C^T)^T``: the interpolation
        vectors before the ``(C C^T)^{-1}`` solve.
    psi_v_mu / psi_c_mu:
        Orbital values at the interpolation points — the separable factors
        of ``C`` (kept factored so the implicit method never builds
        ``N_mu x N_cv`` unless asked).
    method:
        Point-selection method used ("kmeans" / "qrcp").
    selection_info:
        Method-specific result object (KMeansResult / QRCPResult).
    """

    indices: np.ndarray
    fit_rows: np.ndarray
    psi_v_mu: np.ndarray
    psi_c_mu: np.ndarray
    method: str
    selection_info: object | None = None

    @property
    def n_mu(self) -> int:
        return int(self.indices.size)

    @property
    def n_pairs(self) -> int:
        return self.psi_v_mu.shape[0] * self.psi_c_mu.shape[0]

    @cached_property
    def theta(self) -> np.ndarray:
        """``(N_r, N_mu)`` interpolation vectors, F-ordered; solved from
        :attr:`fit_rows` on first access (``O(N_r N_mu^2)``)."""
        return solve_theta(self.psi_v_mu, self.psi_c_mu, self.fit_rows.copy())

    def coefficients(self) -> np.ndarray:
        """Materialize ``C`` of shape ``(N_mu, N_cv)``."""
        c = self.psi_v_mu.T[:, :, None] * self.psi_c_mu.T[:, None, :]
        return c.reshape(self.n_mu, -1)

    @array_contract(
        shapes={"x": ("n_pairs", "n_rhs")},
        dtypes={"x": ("float64", "complex128")},
        contiguous=("x",),
    )
    def apply_c(self, x: np.ndarray) -> np.ndarray:
        """``C @ X`` for ``X`` of shape ``(N_cv, k)`` without forming C.

        Reshapes ``X`` to ``(N_v, N_c, k)`` and contracts the orbital
        factors: ``(C X)[mu, k] = sum_vc psi_v(mu) psi_c(mu) X[vc, k]``.
        """
        n_v = self.psi_v_mu.shape[0]
        n_c = self.psi_c_mu.shape[0]
        x3 = x.reshape(n_v, n_c, -1)
        # First contract conduction, then valence: O((N_v + 1) N_c N_mu k).
        t = np.einsum("cm,vck->vmk", self.psi_c_mu, x3, optimize=True)
        return np.einsum("vm,vmk->mk", self.psi_v_mu, t, optimize=True)

    @array_contract(
        shapes={"y": ("n_mu", "n_rhs")},
        dtypes={"y": ("float64", "complex128")},
        contiguous=("y",),
    )
    def apply_ct(self, y: np.ndarray) -> np.ndarray:
        """``C^T @ Y`` for ``Y`` of shape ``(N_mu, k)`` without forming C."""
        t = np.einsum("vm,mk->vmk", self.psi_v_mu, y, optimize=True)
        out = np.einsum("cm,vmk->vck", self.psi_c_mu, t, optimize=True)
        return out.reshape(self.n_pairs, -1)

    def reconstruct(self) -> np.ndarray:
        """Materialize the rank-``N_mu`` approximation ``Theta C``.

        ``O(N_r N_cv)`` memory — diagnostics/small systems only.
        """
        return self.theta @ self.coefficients()

    def to_dict(self) -> dict:
        """Serializable payload (``selection_info`` is intentionally dropped:
        it is a diagnostics object, not part of the decomposition)."""
        return {
            "indices": self.indices,
            "fit_rows": self.fit_rows,
            "psi_v_mu": self.psi_v_mu,
            "psi_c_mu": self.psi_c_mu,
            "method": self.method,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ISDFDecomposition":
        return cls(
            indices=np.array(data["indices"]),
            fit_rows=np.array(data["fit_rows"]),
            psi_v_mu=np.array(data["psi_v_mu"]),
            psi_c_mu=np.array(data["psi_c_mu"]),
            method=str(data["method"]),
            selection_info=None,
        )

    def relative_error(self, psi_v: np.ndarray, psi_c: np.ndarray) -> float:
        """Frobenius error ``||Z - Theta C|| / ||Z||`` (forms Z; small only)."""
        z = pair_products(psi_v, psi_c)
        diff = z - self.reconstruct()
        denom = float(np.linalg.norm(z))
        return float(np.linalg.norm(diff)) / max(denom, 1e-300)

    def relative_error_cheap(self, psi_v: np.ndarray, psi_c: np.ndarray) -> float:
        """Exact Frobenius error *without* materializing ``Z``.

        For the least-squares fit ``Theta = Z C^T (C C^T)^{-1}`` the
        residual norm has a closed form:

            ||Z - Theta C||_F^2 = ||Z||_F^2 - tr[(C C^T)^{-1} (Z C^T)^T (Z C^T)],

        and both ingredients are separable: ``||Z||_F^2`` is the sum of the
        pair weights (Eq. 14), and ``Z C^T`` is the Hadamard Gram product
        already used by the fit.  Cost ``O(N_r N_mu (N_v + N_c) + N_r
        N_mu^2)`` — usable at production scale, unlike
        :meth:`relative_error`.

        Note: exact only for the *unregularized* fit; the default ridge
        perturbs Theta by ``O(ridge x cond^2)``, so tiny discrepancies vs
        :meth:`relative_error` appear for ill-conditioned point sets.
        """
        from repro.core.pair_products import pair_weights

        z_norm_sq = float(pair_weights(psi_v, psi_c).sum())
        v_pts = psi_v[:, self.indices]
        c_pts = psi_c[:, self.indices]
        zct = (psi_v.T @ v_pts) * (psi_c.T @ c_pts)  # (N_r, N_mu)
        cct = (v_pts.T @ v_pts) * (c_pts.T @ c_pts)  # (N_mu, N_mu)
        gram = zct.T @ zct
        # tr[(C C^T)^{-1} gram] via a solve (pseudo-inverse on deficiency).
        try:
            solved = np.linalg.solve(cct, gram)
        except np.linalg.LinAlgError:
            solved = np.linalg.lstsq(cct, gram, rcond=None)[0]
        projected = float(np.trace(solved))
        residual_sq = max(z_norm_sq - projected, 0.0)
        return float(np.sqrt(residual_sq / max(z_norm_sq, 1e-300)))


def isdf_decompose(
    psi_v: np.ndarray,
    psi_c: np.ndarray,
    n_mu: int | None = None,
    *,
    method: str = "kmeans",
    grid_points: np.ndarray | None = None,
    rank_factor: float = 10.0,
    rng: np.random.Generator | None = None,
    timers: TimerRegistry | None = None,
    fallback: str | None = None,
    checkpoint=None,
    indices: np.ndarray | None = None,
    **selection_kwargs,
) -> ISDFDecomposition:
    """Run point selection + least-squares fit.

    Parameters
    ----------
    method:
        ``"kmeans"`` (Section 4.2, default) or ``"qrcp"`` (Section 4.1.1).
    grid_points:
        ``(N_r, 3)`` Cartesian grid coordinates; required for K-Means.
    n_mu:
        Rank; defaults to :func:`default_rank` with ``rank_factor``.
    indices:
        Explicit interpolation-point indices — skips point selection
        entirely and only runs the least-squares fit against the new
        orbitals.  This is the cross-calculation reuse path: for a small
        structural perturbation the selected points barely move, so a batch
        engine carries them forward until a drift check says otherwise.
        A checkpoint resume (below) takes precedence.
    fallback:
        ``"qrcp"`` re-selects points with randomized QRCP when the K-Means
        clustering fails to converge (or raises) — the graceful-degradation
        policy of :class:`repro.api.ResilienceConfig`.  ``None`` (default)
        keeps the historical fail-fast behavior.
    checkpoint:
        Optional :class:`~repro.resilience.checkpoint.LoopCheckpointer`;
        the pipeline snapshots each completed stage (0 = point selection,
        1 = fit rows) so a restarted decomposition reuses the selected
        points (and, when present, the fit rows) instead of recomputing.  ``selection_info`` is ``None`` on a
        resumed result.
    selection_kwargs:
        Forwarded to the point selector (e.g. ``prune_threshold``,
        ``sketch``, ``oversample``).
    """
    timers = timers or TimerRegistry()
    rng = rng or default_rng()
    n_v, n_r = psi_v.shape
    n_c = psi_c.shape[0]
    if n_mu is None:
        n_mu = default_rank(n_v, n_c, n_r, rank_factor)
    require(0 < n_mu <= min(n_r, n_v * n_c), f"invalid n_mu={n_mu}")
    require(
        fallback in (None, "qrcp"),
        f"unknown selection fallback {fallback!r}; only 'qrcp' is supported",
    )

    reused = indices
    if reused is not None:
        reused = np.asarray(reused, dtype=np.int64)
        require(reused.ndim == 1 and reused.size > 0, "indices must be 1-D, non-empty")
        require(
            int(reused.min()) >= 0 and int(reused.max()) < n_r,
            f"indices out of range for N_r={n_r}",
        )

    indices = rows = info = None
    method_used = method
    resumed = checkpoint.resume() if checkpoint is not None else None
    if resumed is not None:
        _, state = resumed
        indices = np.array(state["indices"])
        method_used = str(state["method"])
        if state.get("fit_rows") is not None:
            rows = np.array(state["fit_rows"])

    if indices is None and reused is not None:
        indices = np.sort(np.unique(reused))

    if indices is None:
        if method == "kmeans":
            require(grid_points is not None, "kmeans selection needs grid_points")
            with timers.scope("isdf/select_kmeans"):
                try:
                    info = select_points_kmeans(
                        psi_v, psi_c, n_mu, grid_points=grid_points, rng=rng,
                        **selection_kwargs,
                    )
                    selection_ok = info.converged
                    indices = info.indices
                except _SELECTION_FAILURES:
                    if fallback is None:
                        raise
                    selection_ok = False
            if not selection_ok and fallback == "qrcp":
                with timers.scope("isdf/select_qrcp_fallback"):
                    info = select_points_qrcp(psi_v, psi_c, n_mu, rng=rng)
                indices = np.sort(info.indices)
                method_used = "qrcp"
        elif method == "qrcp":
            with timers.scope("isdf/select_qrcp"):
                info = select_points_qrcp(
                    psi_v, psi_c, n_mu, rng=rng, **selection_kwargs
                )
            indices = np.sort(info.indices)
        else:
            raise ValueError(f"unknown ISDF method {method!r}")
        if checkpoint is not None:
            checkpoint.save(
                0,
                {"indices": indices, "method": method_used, "fit_rows": None},
                force=True,
            )

    if rows is None:
        with timers.scope("isdf/fit"):
            rows = fit_interpolation_vectors(psi_v, psi_c, indices)
        if checkpoint is not None:
            checkpoint.save(
                1,
                {"indices": indices, "method": method_used, "fit_rows": rows},
                force=True,
            )

    return ISDFDecomposition(
        indices=indices,
        fit_rows=rows,
        psi_v_mu=psi_v[:, indices].copy(),
        psi_c_mu=psi_c[:, indices].copy(),
        method=method_used,
        selection_info=info,
    )
