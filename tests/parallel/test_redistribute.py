"""Tests for layout redistribution (alltoall transposes, pdgemr2d analogue)."""

import tracemalloc

import numpy as np
import pytest

from repro.parallel import (
    BlockCyclic2D,
    BlockDistribution1D,
    allgather_rows,
    gather_matrix,
    row_block_to_block_cyclic,
    spmd_run,
    transpose_to_column_block,
    transpose_to_row_block,
)


@pytest.fixture()
def matrix(rng):
    return rng.standard_normal((30, 14))


def _row_slab(matrix, dist, rank):
    return matrix[dist.local_slice(rank)]


class TestTranspose:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
    def test_row_to_column_block(self, matrix, n_ranks):
        rows, cols = matrix.shape
        row_dist = BlockDistribution1D(rows, n_ranks)
        col_dist = BlockDistribution1D(cols, n_ranks)

        def prog(comm):
            slab = _row_slab(matrix, row_dist, comm.rank)
            return transpose_to_column_block(comm, slab, row_dist, col_dist)

        results = spmd_run(n_ranks, prog)
        for rank, block in enumerate(results):
            expect = matrix[:, col_dist.local_slice(rank)]
            np.testing.assert_array_equal(block, expect)

    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_roundtrip(self, matrix, n_ranks):
        rows, cols = matrix.shape
        row_dist = BlockDistribution1D(rows, n_ranks)
        col_dist = BlockDistribution1D(cols, n_ranks)

        def prog(comm):
            slab = _row_slab(matrix, row_dist, comm.rank)
            col_block = transpose_to_column_block(comm, slab, row_dist, col_dist)
            back = transpose_to_row_block(comm, col_block, row_dist, col_dist)
            return np.array_equal(back, slab)

        assert all(spmd_run(n_ranks, prog))

    def test_shape_validation(self, matrix):
        row_dist = BlockDistribution1D(30, 2)
        col_dist = BlockDistribution1D(14, 2)

        def prog(comm):
            bad = np.zeros((5, 14))
            transpose_to_column_block(comm, bad, row_dist, col_dist)

        with pytest.raises(ValueError, match="slab shape"):
            spmd_run(2, prog)

    def test_traffic_volume_matches_off_diagonal_data(self, matrix):
        """Alltoall must move exactly the off-diagonal tiles of the slab."""
        row_dist = BlockDistribution1D(30, 3)
        col_dist = BlockDistribution1D(14, 3)

        def prog(comm):
            slab = _row_slab(matrix, row_dist, comm.rank)
            transpose_to_column_block(comm, slab, row_dist, col_dist)

        _, traffic = spmd_run(3, prog, return_traffic=True)
        expected = sum(
            row_dist.count(src) * col_dist.count(dst) * 8
            for src in range(3)
            for dst in range(3)
            if src != dst
        )
        assert traffic.bytes_by_op["alltoall"] == expected


class TestGathers:
    def test_allgather_rows(self, matrix):
        dist = BlockDistribution1D(30, 4)

        def prog(comm):
            return allgather_rows(comm, _row_slab(matrix, dist, comm.rank), dist)

        for result in spmd_run(4, prog):
            np.testing.assert_array_equal(result, matrix)

    def test_gather_matrix_root_only(self, matrix):
        dist = BlockDistribution1D(30, 3)

        def prog(comm):
            return gather_matrix(comm, _row_slab(matrix, dist, comm.rank), dist)

        results = spmd_run(3, prog)
        np.testing.assert_array_equal(results[0], matrix)
        assert results[1] is None and results[2] is None


class TestBlockCyclicRedistribution:
    @pytest.mark.parametrize("n_ranks,p_rows,p_cols", [(2, 2, 1), (4, 2, 2), (6, 2, 3)])
    def test_matches_direct_extraction(self, rng, n_ranks, p_rows, p_cols):
        matrix = rng.standard_normal((16, 12))
        row_dist = BlockDistribution1D(16, n_ranks)
        desc = BlockCyclic2D(16, 12, mb=3, nb=2, p_rows=p_rows, p_cols=p_cols)

        def prog(comm):
            slab = matrix[row_dist.local_slice(comm.rank)]
            return row_block_to_block_cyclic(comm, slab, row_dist, desc)

        tiles = spmd_run(n_ranks, prog)
        for rank, tile in enumerate(tiles):
            np.testing.assert_array_equal(tile, desc.extract_local(matrix, rank))

    def test_assemble_recovers_global(self, rng):
        matrix = rng.standard_normal((10, 10))
        row_dist = BlockDistribution1D(10, 4)
        desc = BlockCyclic2D(10, 10, mb=2, nb=2, p_rows=2, p_cols=2)

        def prog(comm):
            slab = matrix[row_dist.local_slice(comm.rank)]
            return row_block_to_block_cyclic(comm, slab, row_dist, desc)

        tiles = spmd_run(4, prog)
        np.testing.assert_array_equal(desc.assemble_global(tiles), matrix)


BACKENDS = ["thread", pytest.param("process", marks=pytest.mark.process_backend)]

#: (n_rows, n_cols, layout, dtype): ragged and empty tiles (fewer rows or
#: columns than ranks), strided and Fortran-ordered slabs, real and complex.
MOVEMENT_CASES = [
    (31, 13, "contiguous", np.float64),
    (2, 11, "strided", np.float64),
    (9, 3, "fortran", np.complex128),
    (17, 1, "strided", np.complex128),
]


def _movement_matrix(n_rows, n_cols, layout, dtype):
    rng = np.random.default_rng(n_rows * 100 + n_cols)
    base = rng.standard_normal((2 * n_rows, 3 * n_cols))
    if dtype == np.complex128:
        base = base + 1j * rng.standard_normal(base.shape)
    if layout == "strided":
        return base[::2, ::3]  # every slab cut from it is a strided view
    if layout == "fortran":
        return np.asfortranarray(base[:n_rows, :n_cols])
    return np.ascontiguousarray(base[:n_rows, :n_cols])


def _concatenate_to_column_block(comm, local_rows, row_dist, col_dist):
    """The former formulation: contiguous chunks, then one concatenate."""
    chunks = [
        np.ascontiguousarray(local_rows[:, col_dist.local_slice(d)])
        for d in range(comm.size)
    ]
    return np.concatenate(comm.alltoall(chunks), axis=0)


def _concatenate_to_row_block(comm, local_cols, row_dist, col_dist):
    chunks = [
        np.ascontiguousarray(local_cols[row_dist.local_slice(d)])
        for d in range(comm.size)
    ]
    return np.concatenate(comm.alltoall(chunks), axis=1)


def _allocation_case(direction):
    """Strided per-rank slabs of a 400 x 300 matrix over 2 ranks."""
    matrix = _movement_matrix(400, 300, "strided", np.float64)
    row_dist = BlockDistribution1D(400, 2)
    col_dist = BlockDistribution1D(300, 2)
    if direction == "column":
        slabs = [matrix[row_dist.local_slice(r)] for r in range(2)]
        return slabs, transpose_to_column_block, row_dist, col_dist
    slabs = [matrix[:, col_dist.local_slice(r)] for r in range(2)]
    return slabs, transpose_to_row_block, row_dist, col_dist


class TestDataMovement:
    """Each tile moves once: received straight into the transpose's result."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
    def test_transposes_equal_the_concatenate_formulation(self, backend, n_ranks):
        matrices = [_movement_matrix(*case) for case in MOVEMENT_CASES]

        def prog(comm):
            out = []
            for matrix in matrices:
                row_dist = BlockDistribution1D(matrix.shape[0], comm.size)
                col_dist = BlockDistribution1D(matrix.shape[1], comm.size)
                slab = matrix[row_dist.local_slice(comm.rank)]
                col_block = transpose_to_column_block(comm, slab, row_dist, col_dist)
                old_col = _concatenate_to_column_block(comm, slab, row_dist, col_dist)
                cols = matrix[:, col_dist.local_slice(comm.rank)]
                row_block = transpose_to_row_block(comm, cols, row_dist, col_dist)
                old_row = _concatenate_to_row_block(comm, cols, row_dist, col_dist)
                out.append((col_block, old_col, row_block, old_row))
            return out

        for rank, per_case in enumerate(spmd_run(n_ranks, prog, backend=backend)):
            for matrix, (col_block, old_col, row_block, old_row) in zip(
                matrices, per_case
            ):
                row_dist = BlockDistribution1D(matrix.shape[0], n_ranks)
                col_dist = BlockDistribution1D(matrix.shape[1], n_ranks)
                assert col_block.dtype == row_block.dtype == matrix.dtype
                assert np.array_equal(col_block, old_col)
                assert np.array_equal(row_block, old_row)
                assert np.array_equal(
                    col_block, matrix[:, col_dist.local_slice(rank)]
                )
                assert np.array_equal(row_block, matrix[row_dist.local_slice(rank)])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_block_cyclic_from_strided_complex_slabs(self, backend):
        matrix = _movement_matrix(11, 9, "strided", np.complex128)
        row_dist = BlockDistribution1D(11, 4)
        desc = BlockCyclic2D(11, 9, mb=2, nb=2, p_rows=2, p_cols=2)

        def prog(comm):
            slab = matrix[row_dist.local_slice(comm.rank)]
            return row_block_to_block_cyclic(comm, slab, row_dist, desc)

        for rank, tile in enumerate(spmd_run(4, prog, backend=backend)):
            assert np.array_equal(tile, desc.extract_local(matrix, rank))

    @pytest.mark.process_backend
    def test_process_backend_publishes_only_off_rank_tiles(self):
        matrix = _movement_matrix(31, 13, "strided", np.float64)
        row_dist = BlockDistribution1D(31, 3)
        col_dist = BlockDistribution1D(13, 3)

        def prog(comm):
            slab = matrix[row_dist.local_slice(comm.rank)]
            transpose_to_column_block(comm, slab, row_dist, col_dist)

        _, traffic = spmd_run(3, prog, backend="process", return_traffic=True)
        off_rank = sum(
            row_dist.count(src) * col_dist.count(dst) * 8
            for src in range(3)
            for dst in range(3)
            if src != dst
        )
        assert traffic.shm_bytes_by_op["alltoall"] == off_rank
        assert traffic.bytes_by_op["alltoall"] == off_rank

    @pytest.mark.parametrize("direction", ["column", "row"])
    def test_peak_extra_allocation_is_the_result(self, direction):
        """A staging copy of the chunks would add about the result's bytes
        again (the thread backend receives by reference, so this is the
        copy it can have)."""
        slabs, transpose, row_dist, col_dist = _allocation_case(direction)

        def prog(comm):
            return transpose(comm, slabs[comm.rank], row_dist, col_dist)

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            # Unsanitized: the sanitizer fingerprints strided buffers by
            # copying them, which is its own cost, not the exchange's.
            results = spmd_run(2, prog, backend="thread", sanitize=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result_bytes = sum(r.nbytes for r in results)
        assert peak - base <= 1.1 * result_bytes

    @pytest.mark.process_backend
    @pytest.mark.parametrize("direction", ["column", "row"])
    def test_process_rank_allocates_only_the_result(self, direction):
        """On forked ranks a staging copy, detached received tiles or a
        concatenate would each add about the result's bytes; the outbox
        is shared memory, which ``tracemalloc`` does not count."""
        slabs, transpose, row_dist, col_dist = _allocation_case(direction)

        def prog(comm):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = transpose(comm, slabs[comm.rank], row_dist, col_dist)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - base, out.nbytes

        for extra, result_bytes in spmd_run(
            2, prog, backend="process", sanitize=False
        ):
            assert extra <= 1.1 * result_bytes

