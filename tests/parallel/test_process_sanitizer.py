"""The SPMD sanitizer under ``backend="process"``.

Runs the shared scenarios of ``test_sanitizer.py`` on forked ranks (the
sanitizer board is a shared-memory slab there), plus the cases only this
backend has: writes through zero-copy outbox views, republishing, own-input
mutation, and ``/dev/shm`` hygiene.  Runs real forked processes, hence the
``process_backend`` marker.
"""


import numpy as np
import pytest

import test_sanitizer as shared
from repro.parallel import SanitizerError
from repro.parallel.sanitizer import board_size

pytestmark = pytest.mark.process_backend


class _Process:
    backend = "process"


class TestCleanPrograms(_Process, shared.ScenarioCleanPrograms):
    def test_no_shm_residue_after_sanitized_run(self, shm_residue):
        self.run(2, lambda comm: comm.allreduce(comm.rank))
        assert shm_residue() == []

    def test_board_size_covers_slots_and_verdict(self):
        assert board_size(4) > 4 * 3 * 4096


class TestMismatchedCollectives(_Process, shared.ScenarioMismatchedCollectives):
    pass


class TestDeadlockDiagnosis(_Process, shared.ScenarioDeadlockDiagnosis):
    pass


class TestFailurePropagation(
    _Process, shared.ScenarioFaultInjection, shared.ScenarioEnvOptIn
):
    pass


class TestSharedSlabWriteDetection(_Process, shared._Backend):
    def test_write_through_shared_view_is_flagged(self):
        # The outbox slab is the shared surface of this backend: peers
        # combine reductions from zero-copy views into it.  A write
        # through any mapping of that region inside the exchange window
        # is exactly the torn-buffer race the thread backend has with
        # by-reference arrays.
        def prog(comm):
            comm.allreduce(np.arange(4.0))
            if comm.rank == 0:
                view = comm._outbox.view((4,), "<f8", 0)
                view[0] = 99.0  # unsynchronized write into the shared slab
            comm.barrier()
            return None

        with pytest.raises(SanitizerError, match="unsynchronized shared-buffer write"):
            self.run(2, prog)

    def test_republishing_is_not_a_false_positive(self):
        # Each collective overwrites the outbox legitimately; the check
        # runs before the next publish, so back-to-back collectives with
        # different payloads must pass.
        def prog(comm):
            a = comm.allreduce(np.full(4, float(comm.rank)))
            b = comm.allreduce(np.full(8, float(comm.rank + 1)))
            comm.barrier()
            return float(a.sum() + b.sum())

        assert self.run(2, prog) == [28.0, 28.0]

    def test_mutating_own_input_buffer_is_legal_here(self):
        # Unlike the thread backend, payload bytes are *copied* into the
        # slab at publish time — mutating the caller's own array afterward
        # races with nobody and must not be flagged.
        def prog(comm):
            buf = np.arange(4.0)
            total = comm.allreduce(buf)
            buf[0] = 99.0
            comm.barrier()
            return float(np.asarray(total).sum())

        assert self.run(2, prog) == [12.0, 12.0]

