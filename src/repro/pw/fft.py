"""FFT transforms with Fourier-series normalization.

Conventions (the only place they are defined):

* ``forward(f_r) -> f_G`` returns Fourier-series coefficients
  ``f_G = (1/N_r) sum_r f(r) exp(-i G . r)`` so that
  ``f(r) = sum_G f_G exp(i G . r)`` exactly on the grid.
* ``backward`` is the exact inverse.

With these conventions the Poisson solve is simply
``V_H(G) = 4 pi / |G|^2 * n(G)`` and the convolution theorem holds without
stray volume factors.  Batched transforms operate on the *leading* axes so a
block of orbitals ``(n_bands, n1, n2, n3)`` is transformed in one call —
this is the numpy analogue of the batched FFTW plans used by PWDFT.

The transforms are ``scipy.fft``'s pocketfft with
:func:`repro.utils.threads.fft_workers` threads per batch call, read at call
time: the process's thread budget, or an SPMD rank's share of it.
:meth:`FourierGrid.convolve_real` routes real fields through
``rfftn``/``irfftn`` — half the transform work for the real Γ-point fields
dominating the Coulomb apply of the paper's Algorithm 1.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.fft

from repro.pw.grid import RealSpaceGrid
from repro.utils.hot import array_contract
from repro.utils.threads import fft_workers

_AXES = (-3, -2, -1)
_SCRATCH_SLOTS = 8
# Per-thread LRU of reusable staging arrays keyed by (shape, dtype);
# thread-local because the SPMD runtime drives ranks as threads.
_scratch_local = threading.local()


@array_contract(returns={"contiguous": True})
def scratch(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A reusable buffer of the requested shape/dtype (contents stale).

    Callers must finish with the buffer before requesting another of the
    same key — the pool hands out the *same* array again.  Intended for
    staging copies inside a single transform call.
    """
    pool: OrderedDict[tuple, np.ndarray] | None = getattr(
        _scratch_local, "pool", None
    )
    if pool is None:
        pool = _scratch_local.pool = OrderedDict()
    key = (tuple(shape), np.dtype(dtype).str)
    buf = pool.get(key)
    if buf is None:
        buf = np.empty(shape, dtype=dtype)  # repro-lint: disable=no-alloc-in-hot -- pool miss: allocates once per (shape, dtype), then reused
        pool[key] = buf
        while len(pool) > _SCRATCH_SLOTS:
            pool.popitem(last=False)
    else:
        pool.move_to_end(key)
    return buf


@dataclass(frozen=True)
class FourierGrid:
    """Forward/backward FFTs bound to one :class:`RealSpaceGrid`."""

    grid: RealSpaceGrid

    @array_contract(
        shapes={"f_real": ("...", "n_r")},
        dtypes={"f_real": ("float64", "complex128")},
        returns={"dtype": "complex128"},
    )
    def forward(self, f_real: np.ndarray) -> np.ndarray:
        """Real space -> Fourier-series coefficients on the full grid."""
        f = self.grid.reshape_to_grid(np.asarray(f_real))
        out = scipy.fft.fftn(f, axes=_AXES, workers=fft_workers())
        out /= self.grid.n_points
        return self.grid.flatten_from_grid(out)

    @array_contract(
        shapes={"f_recip": ("...", "n_r")},
        dtypes={"f_recip": ("float64", "complex128")},
        returns={"dtype": "complex128"},
    )
    def backward(self, f_recip: np.ndarray) -> np.ndarray:
        """Fourier-series coefficients -> real space on the full grid."""
        f = self.grid.reshape_to_grid(np.asarray(f_recip))
        out = scipy.fft.ifftn(f, axes=_AXES, workers=fft_workers())
        out *= self.grid.n_points
        return self.grid.flatten_from_grid(out)

    def backward_real(self, f_recip: np.ndarray) -> np.ndarray:
        """:meth:`backward` for coefficients with Hermitian symmetry.

        Returns the real part; use when the result is known to be a real
        field (densities, potentials) to halve downstream memory traffic.
        """
        return self.backward(f_recip).real

    # -- real-field convolution fast path ----------------------------------

    def half_kernel(self, kernel: np.ndarray) -> np.ndarray:
        """Slice a full-grid G-diagonal kernel onto the rfftn half-spectrum.

        Precompute once per kernel and pass to :meth:`convolve_real` as
        ``kernel_half`` to skip the per-call slice.
        """
        k = self.grid.reshape_to_grid(np.asarray(kernel, dtype=float))
        n3 = self.grid.shape[2]
        return np.ascontiguousarray(k[..., : n3 // 2 + 1])

    @array_contract(
        shapes={"fields": ("...", "n_r"), "kernel": ("n_r",)},
        dtypes={"fields": ("float64", "complex128"), "kernel": "float64"},
        returns={"dtype": "float64"},
    )
    def convolve_real(
        self,
        fields: np.ndarray,
        kernel: np.ndarray,
        *,
        kernel_half: np.ndarray | None = None,
    ) -> np.ndarray:
        """Apply a G-diagonal kernel to real fields: ``F^-1[K * F[f]]``.

        Equivalent to ``backward(forward(f) * kernel).real`` — exactly
        lines 4-5 of the paper's Algorithm 1 — but real fields go through
        the real-to-complex transforms, which halves the flop count and
        spectrum traffic.  ``kernel`` must be real and inversion symmetric
        (``K(-G) = K(G)``; both Coulomb kernels are), otherwise the
        half-spectrum product is not equivalent.
        """
        fields = np.asarray(fields)
        if np.isrealobj(fields):
            if kernel_half is None:
                kernel_half = self.half_kernel(kernel)
            return _rfft_convolve(self.grid, fields, kernel_half)
        # Complex input keeps the full-spectrum round trip.
        f_g = self.forward(fields.astype(complex))
        f_g *= kernel
        return self.backward(f_g).real


def _rfft_convolve(
    grid: RealSpaceGrid, fields: np.ndarray, kernel_half: np.ndarray
) -> np.ndarray:
    """``irfftn(rfftn(f) * kernel_half)`` over the grid axes, flattened."""
    workers = fft_workers()
    spec = scipy.fft.rfftn(grid.reshape_to_grid(fields), axes=_AXES, workers=workers)
    spec *= kernel_half
    out = scipy.fft.irfftn(spec, s=grid.shape, axes=_AXES, workers=workers)
    return grid.flatten_from_grid(out)


#: ``k3`` planes per slab of :meth:`ConvolutionPlan.scaled_slabs`.
SLAB_PLANES = 4


def _half_dft(n3: int) -> np.ndarray:
    """``(n3, 2 (n3 // 2 + 1))`` real matrix taking real z-lines to their
    ``rfft`` along z, as interleaved (real, imaginary) columns."""
    j = np.arange(n3)
    phase = (2.0 * np.pi / n3) * ((j[:, None] * j[None, : n3 // 2 + 1]) % n3)
    dft = np.empty((n3, 2 * (n3 // 2 + 1)))
    dft[:, 0::2] = np.cos(phase)
    dft[:, 1::2] = -np.sin(phase)
    return dft


def _scaled_slab(
    grid: RealSpaceGrid, lines: np.ndarray, dft: np.ndarray, root: np.ndarray
) -> np.ndarray:
    """The ``rfftn`` spectrum of real fields on the ``k3`` planes whose
    columns of :func:`_half_dft` are ``dft``, times ``root``: complex128
    ``(m, n1, n2, planes)`` viewed as float64 ``(m, 2 n1 n2 planes)``.

    ``lines`` are the fields' z-lines, ``(m n1 n2, n3)``.  One real GEMM of
    them against ``dft`` gives the z-transform on those planes, written
    straight into the slab; an in-place ``fft2`` over ``(k1, k2)`` finishes
    it.
    """
    n1, n2, _ = grid.shape
    m = lines.shape[0] // (n1 * n2)
    planes = dft.shape[1] // 2
    spec = np.empty((m, n1, n2, planes), dtype=complex)  # repro-lint: disable=no-alloc-in-hot -- the slab itself, one per pass
    np.matmul(lines, dft, out=spec.view(np.float64).reshape(lines.shape[0], 2 * planes))
    spec = scipy.fft.fft2(spec, axes=(1, 2), overwrite_x=True, workers=fft_workers())
    spec *= root
    return spec.view(np.float64).reshape(m, 2 * n1 * n2 * planes)


class ConvolutionPlan:
    """A prepared G-diagonal convolution: kernel plus its half-spectrum cut.

    Bundles everything :meth:`FourierGrid.convolve_real` can precompute for
    a fixed ``(grid, kernel)`` pair — the ``rfftn`` half-spectrum slice of
    the kernel — so repeat appliers (the SCF Hartree solve runs one per
    iteration, the f_Hxc Coulomb half one per operator application) pay the
    slice exactly once.  Plans are immutable after construction and safe to
    share across threads.
    """

    __slots__ = ("fourier", "kernel", "kernel_half")

    def __init__(self, fourier: FourierGrid, kernel: np.ndarray) -> None:
        self.fourier = fourier
        self.kernel = np.asarray(kernel, dtype=float)
        self.kernel_half = fourier.half_kernel(self.kernel)

    @array_contract(
        shapes={"fields": ("...", "n_r")},
        dtypes={"fields": ("float64", "complex128")},
        returns={"dtype": "float64"},
    )
    def apply(self, fields: np.ndarray) -> np.ndarray:
        """Convolve real ``(..., N_r)`` fields with the planned kernel."""
        return self.fourier.convolve_real(
            fields, self.kernel, kernel_half=self.kernel_half
        )

    @array_contract(
        shapes={"fields": ("m", "n_r")},
        dtypes={"fields": "float64"},
        returns={"shape": ("m", "m"), "dtype": "float64"},
    )
    def gram(self, fields: np.ndarray) -> np.ndarray:
        """``fields K fields^T dV`` for real ``(m, N_r)`` fields, by Parseval:
        ``S S^T`` for ``S`` of :meth:`scaled_slabs`, one SYRK per slab.  No
        inverse transform; exactly symmetric."""
        gram = np.zeros((fields.shape[0], fields.shape[0]))  # repro-lint: disable=no-alloc-in-hot -- the m x m result
        for slab in self.scaled_slabs(fields):
            gram += slab @ slab.T
            del slab  # before the next slab is built
        return gram

    def scaled_slabs(self, fields: np.ndarray):
        """The factor ``S`` of :meth:`gram` (``gram = S S^T``) for real
        ``(m, N_r)`` fields, one block of its columns at a time: their
        ``rfftn`` spectrum on :data:`SLAB_PLANES` ``k3`` planes, scaled by
        ``sqrt(w K dV / N_r)``, as ``(m, 2 n1 n2 planes)`` float64 rows.

        Yields ``ceil((n3 // 2 + 1) / SLAB_PLANES)`` slabs in ``k3`` order
        (the last may hold fewer planes).  Each is a fresh array: drop it
        before asking for the next, or two slabs sit beside the fields.
        ``m = 0`` is allowed.
        """
        if (self.kernel_half < 0).any():
            raise ValueError("the Parseval Gram needs a nonnegative kernel")
        grid = self.fourier.grid
        n1, n2, n3 = grid.shape
        # w = 1 on the self-conjugate planes k3 = 0 and k3 = n3 / 2 (even
        # n3); every other half-spectrum entry also stands for -G (w = 2).
        k3 = np.arange(n3 // 2 + 1)
        weight = np.where((k3 == 0) | (2 * k3 == n3), 1.0, 2.0)
        root = np.sqrt(self.kernel_half * weight * (grid.dv / grid.n_points))
        dft = _half_dft(n3)
        lines = fields.reshape(fields.shape[0] * n1 * n2, n3)
        for start in range(0, k3.size, SLAB_PLANES):
            planes = slice(start, start + SLAB_PLANES)
            yield _scaled_slab(grid, lines, dft[:, 2 * start : 2 * planes.stop], root[..., planes])


class PlanCache:
    """Process-wide LRU cache of :class:`ConvolutionPlan` objects.

    Keyed by ``(tag, grid shape, lattice bytes)`` so plans are reused
    across *calculations* — consecutive trajectory frames that share a
    lattice and cutoff hit the same plan even though each frame builds a
    fresh basis — while any change that alters the kernel values
    (different lattice, different grid, a kernel-variant tag such as a
    truncation radius) misses and rebuilds.

    Thread-safe: lookups and insertions hold a lock; the ``build`` callback
    runs outside it, so two threads may race to build the same plan, in
    which case the last insert wins (both plans are correct — the kernels
    are deterministic functions of the key).
    """

    def __init__(self, max_plans: int = 16) -> None:
        if max_plans < 1:
            raise ValueError(f"max_plans must be >= 1, got {max_plans}")
        self.max_plans = int(max_plans)
        self._lock = threading.Lock()
        self._plans: OrderedDict[tuple, ConvolutionPlan] = OrderedDict()
        self._hits = 0
        self._misses = 0

    def get(self, tag: str, fourier: FourierGrid, build) -> ConvolutionPlan:
        """Return the cached plan for ``tag`` on this grid, building on miss.

        ``build`` is a zero-argument callable returning the full-spectrum
        kernel array; it is only invoked when the cache misses.
        """
        grid = fourier.grid
        key = (tag, grid.shape, grid.cell.lattice.tobytes())
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self._hits += 1
                return plan
            self._misses += 1
        plan = ConvolutionPlan(fourier, build())
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
        return plan

    def stats(self) -> dict[str, int]:
        """Current occupancy and hit/miss counters."""
        with self._lock:
            return {
                "plans": len(self._plans),
                "hits": self._hits,
                "misses": self._misses,
            }

    def clear(self) -> None:
        """Drop every cached plan and reset the counters."""
        with self._lock:
            self._plans.clear()
            self._hits = 0
            self._misses = 0


_DEFAULT_PLAN_CACHE = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide plan cache used by the Hartree and f_Hxc appliers."""
    return _DEFAULT_PLAN_CACHE
