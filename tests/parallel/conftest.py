"""The distributed-algorithm tests run under the runtime SPMD sanitizer.

The sanitizer is the one check that every rank enters the same
collectives with conforming buffers.  Running the real algorithms under it
(K-Means, ISDF, LOBPCG, LR-TDDFT, RT, the redistributions and the
pipelined reduce) is what covers their rank-dependent control flow: a
skipped, extra, divergent or ragged collective fails the test with a
``SanitizerError``.
"""

import pytest

from repro.parallel import process_backend, shm

#: Modules whose tests all drive a distributed algorithm.
SANITIZED_MODULES = frozenset(
    {
        "test_parallel_isdf",
        "test_parallel_kmeans",
        "test_parallel_lobpcg",
        "test_parallel_lrtddft",
        "test_parallel_rt",
        "test_redistribute",
    }
)
#: The algorithm classes of the thread-vs-process bit-identity suite.
SANITIZED_CLASSES = frozenset(
    {
        ("test_process_backend", "TestAlgorithmBitIdentity"),
        ("test_process_backend", "TestPipelineBitIdentity"),
        ("test_process_backend", "TestRedistributeBitIdentity"),
    }
)


@pytest.fixture(autouse=True, scope="class")
def _sanitize_distributed_algorithms(request):
    module = request.module.__name__.rpartition(".")[2]
    cls = request.cls.__name__ if request.cls is not None else None
    if module in SANITIZED_MODULES or (module, cls) in SANITIZED_CLASSES:
        request.getfixturevalue("sanitized_spmd")


@pytest.fixture()
def shm_residue(monkeypatch):
    """A callable listing the ``/dev/shm`` segments that the process-backend
    runs of this test left behind.

    Every run id the test starts is recorded, so only those runs count: a
    concurrent test session or a stale segment of a killed one cannot fail
    the check, and a leak of a run under test still does.  The callable
    also fails if the test started no process run at all, so the check
    cannot pass by looking at nothing.
    """
    run_ids = []
    new_run_id = process_backend._new_run_id

    def recording_run_id():
        run_ids.append(new_run_id())
        return run_ids[-1]

    monkeypatch.setattr(process_backend, "_new_run_id", recording_run_id)

    def residue():
        assert run_ids, "the test started no process-backend run"
        return [name for run_id in run_ids for name in shm.list_run_segments(run_id)]

    return residue
