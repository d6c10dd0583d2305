"""Distributed Algorithm 1 and the ISDF pipeline must reproduce serial."""

import numpy as np
import pytest

from repro.api import TDDFTConfig
from repro.core import (
    HxcKernel,
    LRTDDFTSolver,
    build_vhxc,
    isdf_decompose,
    project_kernel,
)
from repro.parallel import (
    BlockDistribution1D,
    distributed_build_vhxc,
    distributed_isdf_vtilde,
    distributed_kernel_gram,
    distributed_lrtddft_solve,
    pipelined_vhxc_full,
    pipelined_vhxc_rows,
    spmd_run,
)
from repro.utils.rng import default_rng


@pytest.fixture(scope="module")
def problem(si8_synthetic):
    gs = si8_synthetic
    psi_v, eps_v, psi_c, eps_c = gs.select_transition_space(8, 6)
    kernel = HxcKernel(gs.basis, gs.density)
    return gs, psi_v, eps_v, psi_c, eps_c, kernel


@pytest.fixture(scope="module")
def serial_vhxc(problem):
    _, psi_v, _, psi_c, _, kernel = problem
    return build_vhxc(psi_v, psi_c, kernel)


class TestDistributedVhxc:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
    def test_matches_serial(self, problem, serial_vhxc, n_ranks):
        gs, psi_v, _, psi_c, _, kernel = problem
        dist = BlockDistribution1D(gs.basis.n_r, n_ranks)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            return distributed_build_vhxc(
                comm, psi_v[:, sl], psi_c[:, sl], kernel, dist
            )

        for vhxc in spmd_run(n_ranks, prog):
            np.testing.assert_allclose(vhxc, serial_vhxc, atol=1e-12)

    def test_uses_one_alltoall_per_slab(self, problem):
        """No field transpose: one alltoall per k3-slab sends each plane of
        the ranks' z-transforms to the rank that finishes it, moving the
        bytes of one transpose of the complex z-spectrum."""
        gs, psi_v, _, psi_c, _, kernel = problem
        dist = BlockDistribution1D(gs.basis.n_r, 2)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            distributed_build_vhxc(comm, psi_v[:, sl], psi_c[:, sl], kernel, dist)

        _, traffic = spmd_run(2, prog, return_traffic=True)
        assert traffic.calls_by_op["alltoall"] == _n_slabs(gs.basis) * 2
        n_cv = psi_v.shape[0] * psi_c.shape[0]
        assert traffic.bytes_by_op["alltoall"] == _spectral_transpose_bytes(gs.basis, n_cv, 2)
        assert traffic.calls_by_op["allreduce"] == 1  # one collective (line 8)


def _relative_error(got, ref):
    return float(np.abs(got - ref).max() / np.abs(ref).max())


def _n_slabs(basis):
    """k3-slabs of the half spectrum: one alltoall each."""
    from repro.pw.fft import SLAB_PLANES

    return -(-(basis.grid.shape[2] // 2 + 1) // SLAB_PLANES)


def _spectral_transpose_bytes(basis, m, n_ranks):
    """Off-rank alltoall bytes of the Hartree half: every rank sends the
    complex z-transform of each z-line it holds points of (a line the grid
    split cuts counts on both sides) on the planes each other rank
    finishes, which over all slabs are that rank's block of the
    ``n3 // 2 + 1`` planes."""
    n3 = basis.grid.shape[2]
    grid = BlockDistribution1D(basis.n_r, n_ranks)
    planes = BlockDistribution1D(n3 // 2 + 1, n_ranks)

    def lines(rank):
        block = grid.local_slice(rank)
        return -(-block.stop // n3) - block.start // n3 if block.stop > block.start else 0

    return 16 * m * sum(
        lines(s) * planes.count(d)
        for s in range(n_ranks)
        for d in range(n_ranks)
        if s != d
    )


def _cube_problem():
    """A 10^3 grid (6 half-spectrum planes, 100 z-lines) with a random
    density and fields: 3 and 8 ranks cut z-lines, 8 ranks leave two
    ranks without a plane."""
    from repro.pw import PlaneWaveBasis, UnitCell

    basis = PlaneWaveBasis(UnitCell.cubic(9.0), ecut=5.0)
    assert basis.grid.shape == (10, 10, 10)
    rng = default_rng(12)
    kernel = HxcKernel(basis, rng.random(basis.n_r) + 0.1)
    return basis, kernel, rng.standard_normal((7, basis.n_r))


class TestDistributedKernelGram:
    """``distributed_kernel_gram`` against the serial ``HxcKernel.gram``."""

    @pytest.fixture(scope="class")
    def rows(self, problem):
        gs = problem[0]
        return default_rng(7).standard_normal((40, gs.basis.n_r))

    @staticmethod
    def _gram(kernel, rows, n_ranks, **kwargs):
        dist = BlockDistribution1D(rows.shape[1], n_ranks)

        def prog(comm):
            return distributed_kernel_gram(
                comm, rows[:, dist.local_slice(comm.rank)], kernel, dist
            )

        return spmd_run(n_ranks, prog, **kwargs)

    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, 3, 7, 40])
    def test_matches_serial_gram(self, problem, rows, n_ranks, m):
        """Every rank enters one alltoall per k3-slab, whatever ``m``
        (the sanitizer checks that the collectives line up)."""
        gs, kernel = problem[0], problem[-1]
        serial = kernel.gram(rows[:m])
        results, traffic = self._gram(kernel, rows[:m], n_ranks, return_traffic=True)
        assert traffic.calls_by_op["alltoall"] == _n_slabs(gs.basis) * n_ranks
        assert traffic.bytes_by_op["alltoall"] == _spectral_transpose_bytes(gs.basis, m, n_ranks)
        for gram in results:
            assert gram.shape == (m, m)
            assert _relative_error(gram, serial) <= 1e-13
            assert np.array_equal(gram, gram.T)
            np.testing.assert_array_equal(gram, results[0])

    @pytest.mark.parametrize(
        "options, exchanges",
        [
            ({"include_xc": False}, 2),
            ({"include_hartree": False}, 0),
            ({"spin": "triplet"}, 0),
        ],
    )
    def test_kernel_variants(self, problem, rows, options, exchanges):
        """``exchanges`` is nonzero with a Hartree half: then the z-spectra
        move in one alltoall per k3-slab, and no fields move."""
        gs = problem[0]
        kernel = HxcKernel(gs.basis, gs.density, **options)
        serial = kernel.gram(rows[:7])
        results, traffic = self._gram(kernel, rows[:7], 3, return_traffic=True)
        for gram in results:
            assert _relative_error(gram, serial) <= 1e-13
            assert np.array_equal(gram, gram.T)
        calls = _n_slabs(gs.basis) if exchanges else 0
        assert traffic.calls_by_op.get("alltoall", 0) == calls * 3
        moved = _spectral_transpose_bytes(gs.basis, 7, 3) if exchanges else 0
        assert traffic.bytes_by_op.get("alltoall", 0) == moved
        assert traffic.calls_by_op["allreduce"] == 1

    def test_slab_widths_not_divisible_by_the_ranks(self):
        """On a 10^3 grid the two slabs hold 4 and 2 planes, so three ranks
        cannot split each one evenly: the per-slab shares still add up to
        one block split of the 6 planes (same bytes as one transpose), the
        split cuts z-lines, and the Gram is the serial one."""
        basis, kernel, rows = _cube_problem()
        results, traffic = self._gram(kernel, rows, 3, return_traffic=True)
        for gram in results:
            assert _relative_error(gram, kernel.gram(rows)) <= 1e-13
        assert traffic.calls_by_op["alltoall"] == _n_slabs(basis) * 3
        assert traffic.bytes_by_op["alltoall"] == _spectral_transpose_bytes(basis, 7, 3)

    @pytest.mark.parametrize(
        "backend", ["thread", pytest.param("process", marks=pytest.mark.process_backend)]
    )
    def test_ranks_without_planes(self, backend):
        """A 10^3 grid (6 planes) on 8 ranks: ranks 6 and 7 finish no
        plane, ranks 4-7 none of the first slab, and every rank's block
        (125 points) cuts a z-line; all still enter every exchange, and the
        Gram is the serial one and the same on both backends."""
        basis, kernel, rows = _cube_problem()
        serial = kernel.gram(rows)
        results, traffic = self._gram(kernel, rows, 8, backend=backend, return_traffic=True)
        assert traffic.calls_by_op["alltoall"] == _n_slabs(basis) * 8
        assert traffic.bytes_by_op["alltoall"] == _spectral_transpose_bytes(basis, 7, 8)
        for gram in results:
            assert _relative_error(gram, serial) <= 1e-13
            np.testing.assert_array_equal(gram, results[0])
        thread = self._gram(kernel, rows, 8, backend="thread")
        np.testing.assert_array_equal(results[0], thread[0])

    @pytest.mark.parametrize(
        "options", [{}, {"include_xc": False}, {"include_hartree": False}]
    )
    @pytest.mark.parametrize("m", [0, 1, 7])
    def test_one_rank_is_the_serial_gram(self, problem, rows, options, m):
        """One rank runs the serial Gram's transform, bit for bit."""
        gs = problem[0]
        kernel = HxcKernel(gs.basis, gs.density, **options)
        (gram,) = self._gram(kernel, rows[:m], 1)
        assert np.array_equal(gram, kernel.gram(rows[:m]))

    @pytest.mark.process_backend
    @pytest.mark.parametrize("n_ranks", [2, 3, 4])
    @pytest.mark.parametrize("grid", ["si8", "cube"])
    def test_backends_are_bit_identical(self, problem, rows, grid, n_ranks):
        """Thread and process ranks give the same Gram bit for bit, also
        where the grid split cuts z-lines (the 10^3 grid on 3 ranks), and
        it is the serial one to 1e-13."""
        if grid == "si8":
            kernel, fields = problem[-1], rows[:7]
        else:
            _, kernel, fields = _cube_problem()
        serial = kernel.gram(fields)
        thread = self._gram(kernel, fields, n_ranks, backend="thread")
        process = self._gram(kernel, fields, n_ranks, backend="process")
        for a, b in zip(thread, process):
            np.testing.assert_array_equal(a, b)
        assert np.abs(thread[0] - serial).max() <= 1e-13 * np.abs(serial).max()

    def test_forward_transforms_only(self, problem, rows, monkeypatch):
        """No inverse FFT anywhere on the distributed path, and summed over
        the ranks exactly one forward ``(k1, k2)`` transform per field and
        half-spectrum ``k3`` plane."""
        import scipy.fft

        gs, kernel = problem[0], problem[-1]
        n1, n2, n3 = gs.basis.grid.shape
        planes = []
        fft2 = scipy.fft.fft2

        def counted_fft2(x, *args, **kwargs):
            planes.append(x.size // (n1 * n2))
            return fft2(x, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("inverse or whole-field FFT on the distributed path")

        monkeypatch.setattr(scipy.fft, "fft2", counted_fft2)
        for name in ("ifft", "ifft2", "ifftn", "irfft", "irfft2", "irfftn", "rfftn", "fftn"):
            monkeypatch.setattr(scipy.fft, name, forbidden)
        # Thread ranks: the counter lives in this process.
        self._gram(kernel, rows[:7], 3, backend="thread")
        assert sum(planes) == 7 * (n3 // 2 + 1)


class TestDistributedSolve:
    def test_matches_serial_excitations(self, problem):
        gs, psi_v, eps_v, psi_c, eps_c, kernel = problem
        solver = LRTDDFTSolver(gs, n_valence=8, n_conduction=6, seed=1)
        serial = solver.solve(TDDFTConfig(method="naive", n_excitations=5))
        dist = BlockDistribution1D(gs.basis.n_r, 3)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            evals, _ = distributed_lrtddft_solve(
                comm, psi_v[:, sl], psi_c[:, sl], eps_v, eps_c, kernel, dist, 5
            )
            return evals

        for evals in spmd_run(3, prog):
            np.testing.assert_allclose(evals, serial.energies, atol=1e-9)


class TestDistributedISDF:
    @pytest.fixture(scope="class")
    def isdf(self, problem):
        gs, psi_v, _, psi_c, _, _ = problem
        return isdf_decompose(
            psi_v, psi_c, 40, method="kmeans",
            grid_points=gs.basis.grid.cartesian_points, rng=default_rng(5),
        )

    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_vtilde_matches_serial(self, problem, isdf, n_ranks):
        gs, *_ , kernel = problem
        serial = project_kernel(isdf, kernel)
        dist = BlockDistribution1D(gs.basis.n_r, n_ranks)

        def prog(comm):
            rows_local = isdf.fit_rows[:, dist.local_slice(comm.rank)]
            return distributed_isdf_vtilde(
                comm, rows_local, isdf.psi_v_mu, isdf.psi_c_mu, kernel, dist
            )

        for vtilde in spmd_run(n_ranks, prog):
            np.testing.assert_allclose(vtilde, serial, atol=1e-12)

    def test_isdf_moves_less_data_than_naive(self, problem, isdf):
        """The headline claim: the optimized pipeline's alltoall volume is
        N_mu / N_cv of the naive one."""
        gs, psi_v, _, psi_c, _, kernel = problem
        dist = BlockDistribution1D(gs.basis.n_r, 2)

        def naive_prog(comm):
            sl = dist.local_slice(comm.rank)
            distributed_build_vhxc(comm, psi_v[:, sl], psi_c[:, sl], kernel, dist)

        def isdf_prog(comm):
            rows_local = isdf.fit_rows[:, dist.local_slice(comm.rank)]
            distributed_isdf_vtilde(
                comm, rows_local, isdf.psi_v_mu, isdf.psi_c_mu, kernel, dist
            )

        _, naive_traffic = spmd_run(2, naive_prog, return_traffic=True)
        _, isdf_traffic = spmd_run(2, isdf_prog, return_traffic=True)
        ratio = (
            isdf_traffic.bytes_by_op["alltoall"]
            / naive_traffic.bytes_by_op["alltoall"]
        )
        n_pairs = psi_v.shape[0] * psi_c.shape[0]
        assert ratio == pytest.approx(isdf.n_mu / n_pairs, rel=1e-6)


class TestPipelinedReduce:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_matches_monolithic_vhxc(self, problem, serial_vhxc, n_ranks):
        gs, psi_v, _, psi_c, _, kernel = problem
        dist = BlockDistribution1D(gs.basis.n_r, n_ranks)
        # Z and K slabs come from the serial full matrices so the pipelined
        # GEMM+Reduce is isolated from the kernel application.
        from repro.core import pair_products

        z = pair_products(psi_v, psi_c)
        # Stage the transposed kernel product contiguously: the pipeline's
        # array contract requires C-contiguous float64 slabs.
        k = np.ascontiguousarray(kernel.apply(z.T).T)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            return pipelined_vhxc_full(
                comm, z[sl], k[sl], kernel.basis.grid.dv
            )

        for vhxc in spmd_run(n_ranks, prog):
            np.testing.assert_allclose(vhxc, serial_vhxc, atol=1e-12)

    def test_rows_are_owned_disjointly(self, problem):
        gs, psi_v, _, psi_c, _, kernel = problem
        from repro.core import pair_products

        z = pair_products(psi_v, psi_c)
        # Stage the transposed kernel product contiguously: the pipeline's
        # array contract requires C-contiguous float64 slabs.
        k = np.ascontiguousarray(kernel.apply(z.T).T)
        dist = BlockDistribution1D(gs.basis.n_r, 3)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            rows, out_dist = pipelined_vhxc_rows(
                comm, z[sl], k[sl], kernel.basis.grid.dv
            )
            return rows.shape[0], out_dist.count(comm.rank)

        results = spmd_run(3, prog)
        n_pairs = psi_v.shape[0] * psi_c.shape[0]
        assert sum(r[0] for r in results) == n_pairs
        for got, expect in results:
            assert got == expect

    def test_gemm_operands_are_contiguous_float64(self, problem, monkeypatch):
        """Regression: the per-block GEMM must consume C-contiguous float64
        operands (the staged transpose), never an lda-strided column view."""
        gs, psi_v, _, psi_c, _, kernel = problem
        from repro.core import pair_products

        z = pair_products(psi_v, psi_c)
        k = np.ascontiguousarray(kernel.apply(z.T).T)
        dist = BlockDistribution1D(gs.basis.n_r, 2)

        seen = []
        real_matmul = np.matmul

        def spying_matmul(a, b, *args, **kwargs):
            seen.append(
                (
                    a.flags["C_CONTIGUOUS"],
                    b.flags["C_CONTIGUOUS"],
                    a.dtype,
                    b.dtype,
                )
            )
            return real_matmul(a, b, *args, **kwargs)

        import repro.parallel.pipeline as pipeline_mod

        monkeypatch.setattr(pipeline_mod.np, "matmul", spying_matmul)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            pipelined_vhxc_rows(comm, z[sl], k[sl], kernel.basis.grid.dv)

        spmd_run(2, prog)
        assert seen, "the pipeline GEMM never ran"
        for a_contig, b_contig, a_dtype, b_dtype in seen:
            assert a_contig and b_contig
            assert a_dtype == np.float64 and b_dtype == np.float64

    def test_uses_reduce_not_allreduce(self, problem):
        gs, psi_v, _, psi_c, _, kernel = problem
        from repro.core import pair_products

        z = pair_products(psi_v, psi_c)
        # Stage the transposed kernel product contiguously: the pipeline's
        # array contract requires C-contiguous float64 slabs.
        k = np.ascontiguousarray(kernel.apply(z.T).T)
        dist = BlockDistribution1D(gs.basis.n_r, 2)

        def prog(comm):
            sl = dist.local_slice(comm.rank)
            pipelined_vhxc_rows(comm, z[sl], k[sl], kernel.basis.grid.dv)

        _, traffic = spmd_run(2, prog, return_traffic=True)
        assert traffic.calls_by_op.get("reduce", 0) > 0
        assert "allreduce" not in traffic.bytes_by_op
