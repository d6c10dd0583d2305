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


#: ``k3`` planes per slab of :meth:`ConvolutionPlan.block_gram`.
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


def line_span(start: int, stop: int, n3: int) -> range:
    """The z-lines (index ``i1 n2 + i2``) that points ``[start, stop)`` of
    the C-ordered flattened grid touch, in order; empty for no points."""
    if stop <= start:
        return range(start // n3, start // n3)
    return range(start // n3, (stop - 1) // n3 + 1)


class _BlockLines:
    """The z-lines of real fields ``(m, n)`` held over points
    ``[start, start + n)`` of the flattened grid, z-transformed one slab of
    ``k3`` planes at a time.

    Whole lines are a view of the fields.  A line the block cuts (at most
    one at each end) is copied once into zero-padded scratch, so its
    transform is this block's part of the line's: the parts of one line
    held by different blocks add up to it.
    """

    def __init__(self, rows: np.ndarray, start: int, n3: int) -> None:
        if rows.strides[1] != rows.itemsize:
            rows = np.ascontiguousarray(rows)  # e.g. the transposed pair products
        m, n = rows.shape
        stop = start + n
        self.m = m
        self.span = line_span(start, stop, n3)
        first = -(-start // n3)  # the first whole line
        whole = max(stop // n3 - first, 0)
        offset = first * n3 - start
        self.head = int(n > 0 and start % n3 != 0)
        if whole * n3 == n and rows.flags.c_contiguous:
            self.whole = rows.reshape(m * whole, n3)  # one GEMM
        else:
            self.whole = rows[:, offset : offset + whole * n3].reshape(m, whole, n3)
        cut = []  # (row of the transform, z-range, point range)
        if self.head:
            z0 = start % n3
            k = min(n, n3 - z0)
            cut.append((0, slice(z0, z0 + k), slice(0, k)))
        if n and stop % n3 and (not self.head or stop // n3 != start // n3):
            k = stop % n3
            cut.append((len(self.span) - 1, slice(0, k), slice(n - k, n)))
        self.cut = []  # (row of the transform, zero-padded line)
        for row, z, points in cut:
            line = np.zeros((m, n3))
            line[:, z] = rows[:, points]
            self.cut.append((row, line))

    def transform(self, dft: np.ndarray) -> np.ndarray:
        """The lines' ``rfft`` along z on the ``k3`` planes whose columns of
        :func:`_half_dft` are ``dft``: complex128 ``(m, lines, planes)``."""
        planes = dft.shape[1] // 2
        out = np.empty((self.m, len(self.span), planes), dtype=complex)  # repro-lint: disable=no-alloc-in-hot -- the slab's z-transform, one per pass
        flat = out.view(np.float64)
        if self.whole.ndim == 2:
            np.matmul(self.whole, dft, out=flat.reshape(self.whole.shape[0], 2 * planes))
        else:
            lines = slice(self.head, self.head + self.whole.shape[1])
            np.matmul(self.whole, dft, out=flat[:, lines])
        for row, line in self.cut:
            np.matmul(line, dft, out=flat[:, row])
        return out


class SerialPlanes:
    """The exchange of :meth:`ConvolutionPlan.block_gram` on one rank.

    The rank holds every z-line and finishes every ``k3`` plane, so a
    slab's z-transform already is the slab: the exchange is the identity.
    :class:`repro.parallel.parallel_lrtddft.CommPlanes` runs it as an
    alltoall.
    """

    start = 0

    def planes(self, lo: int, hi: int) -> slice:
        return slice(lo, hi)

    def __call__(self, zt: np.ndarray, lo: int, hi: int) -> np.ndarray:
        return zt


_SERIAL = SerialPlanes()


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
        """``fields K fields^T dV`` for real ``(m, N_r)`` fields: the 1-rank
        case of :meth:`block_gram`.  No inverse transform; exactly
        symmetric."""
        return self.block_gram(fields, _SERIAL)

    @array_contract(
        shapes={"rows": ("m", "n")},
        dtypes={"rows": "float64"},
        returns={"shape": ("m", "m"), "dtype": "float64"},
    )
    def block_gram(self, rows: np.ndarray, exchange) -> np.ndarray:
        """This rank's part of ``fields K fields^T dV``, by Parseval, for
        real fields of which ``rows`` holds points ``[exchange.start,
        exchange.start + n)`` of the flattened grid.

        ``S S^T``, where ``S`` is the fields' ``rfftn`` spectrum scaled by
        ``sqrt(w K dV / N_r)``, one slab of :data:`SLAB_PLANES` ``k3``
        planes at a time (``ceil((n3 // 2 + 1) / SLAB_PLANES)`` slabs, the
        last may hold fewer):

        * a real GEMM of the rank's z-lines against the slab's columns of
          the half DFT (:class:`_BlockLines`);
        * ``exchange(zt, lo, hi)`` gives the rank the complex
          ``(m, n1 n2, planes)`` z-spectrum of its planes
          ``exchange.planes(lo, hi)`` of slab ``[lo, hi)``, every z-line
          summed over the blocks that hold parts of it;
        * an in-place ``fft2`` over ``(k1, k2)``, the scale and one SYRK.

        Summed over the ranks the parts are the Gram.  The slab is dropped
        before the next is built.  ``m = 0`` is allowed.
        """
        if (self.kernel_half < 0).any():
            raise ValueError("the Parseval Gram needs a nonnegative kernel")
        grid = self.fourier.grid
        n1, n2, n3 = grid.shape
        m = rows.shape[0]
        # w = 1 on the self-conjugate planes k3 = 0 and k3 = n3 / 2 (even
        # n3); every other half-spectrum entry also stands for -G (w = 2).
        k3 = np.arange(n3 // 2 + 1)
        weight = np.where((k3 == 0) | (2 * k3 == n3), 1.0, 2.0)
        root = np.sqrt(self.kernel_half * weight * (grid.dv / grid.n_points))
        dft = _half_dft(n3)
        lines = _BlockLines(rows, exchange.start, n3)
        gram = np.zeros((m, m))  # repro-lint: disable=no-alloc-in-hot -- the m x m result
        for lo in range(0, k3.size, SLAB_PLANES):
            hi = min(lo + SLAB_PLANES, k3.size)
            spec = exchange(lines.transform(dft[:, 2 * lo : 2 * hi]), lo, hi)
            spec = scipy.fft.fft2(
                spec.reshape(m, n1, n2, spec.shape[2]),
                axes=(1, 2), overwrite_x=True, workers=fft_workers(),
            )
            spec *= root[..., exchange.planes(lo, hi)]
            slab = spec.view(np.float64).reshape(m, 2 * n1 * n2 * spec.shape[3])
            gram += slab @ slab.T
            del spec, slab  # before the next slab is built
        return gram


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
