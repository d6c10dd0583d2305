"""fp32 wire on the pipelined GEMM+Reduce: bytes, error bound, fallback.

The wire dtype is decoupled from the accumulate dtype: blocks travel as
fp32, reduction buffers stay fp64.  Both SPMD backends share the same
accumulate-combine, so thread and process runs must stay bit-identical to
*each other* in every precision tier; the process-backend class carries
the ``process_backend`` marker (real forked ranks and /dev/shm slabs).
"""

import numpy as np
import pytest

from repro.parallel import spmd_run
from repro.parallel.pipeline import pipelined_vhxc_full
from repro.precision import resolve_precision
from repro.resilience import resilience_log

MODES = ("strict64", "mixed", "fast32")


def _prog(precision, n_pairs=24, n_mu=8):
    def body(comm):
        rng = np.random.default_rng(17 + comm.rank)
        z_local = rng.standard_normal((n_mu, n_pairs))
        k_local = rng.standard_normal((n_mu, n_pairs))
        return pipelined_vhxc_full(comm, z_local, k_local, 0.2,
                                   precision=precision)
    return body


class TestThreadWire:
    def test_fp32_wire_within_tolerance(self):
        base = spmd_run(3, _prog("strict64"))
        mixed = spmd_run(3, _prog("mixed"))
        scale = max(float(np.abs(r).max()) for r in base)
        err = max(
            float(np.abs(a - b).max()) for a, b in zip(mixed, base)
        ) / scale
        assert err <= resolve_precision("mixed").wire_tol
        # Accumulation stays fp64 regardless of the wire dtype.
        assert all(r.dtype == np.float64 for r in mixed)

    def test_forced_fallback_recovers_strict64_and_logs(self):
        log = resilience_log()
        before = len(log)
        forced = resolve_precision("mixed").replace(wire_tol=0.0)
        out = spmd_run(3, _prog(forced))
        base = spmd_run(3, _prog("strict64"))
        for a, b in zip(out, base):
            np.testing.assert_array_equal(a, b)
        events = log.events()[before:]
        assert [(e.stage, e.action) for e in events] == [
            ("wire-reduce", "fallback-fp64")
        ]

    def test_ireduce_wire_dtype_keeps_fp64_result(self):
        def body(comm):
            value = np.full(8, 1.0 / 3.0) * (comm.rank + 1)
            handle = comm.ireduce(value, root=0, wire_dtype=np.float32)
            return handle.wait()

        results = spmd_run(3, body)
        total = results[0]
        assert total.dtype == np.float64
        exact = np.full(8, 1.0 / 3.0) * 6.0
        np.testing.assert_allclose(total, exact, rtol=1e-6)


@pytest.mark.process_backend
class TestProcessWire:
    def test_reduce_wire_bytes_halve(self):
        out64, t64 = spmd_run(
            2, _prog("strict64"), backend="process", return_traffic=True
        )
        out32, t32 = spmd_run(
            2, _prog("mixed"), backend="process", return_traffic=True
        )
        b64 = t64.shm_bytes_by_op["reduce"]
        b32 = t32.shm_bytes_by_op["reduce"]
        assert b64 > 0
        assert 2 * b32 <= b64
        scale = max(float(np.abs(r).max()) for r in out64)
        err = max(float(np.abs(a - b).max()) for a, b in zip(out32, out64)) / scale
        assert err <= resolve_precision("mixed").wire_tol

    @pytest.mark.parametrize("mode", MODES)
    def test_backends_bit_identical_in_every_tier(self, mode):
        threads = spmd_run(2, _prog(mode), backend="thread")
        procs = spmd_run(2, _prog(mode), backend="process")
        for a, b in zip(threads, procs):
            np.testing.assert_array_equal(a, b)
