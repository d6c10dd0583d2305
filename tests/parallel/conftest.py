"""The distributed-algorithm tests run under the runtime SPMD sanitizer.

The sanitizer is the one check that every rank enters the same
collectives with conforming buffers.  Running the real algorithms under it
(K-Means, ISDF, LOBPCG, LR-TDDFT, RT, the redistributions and the
pipelined reduce) is what covers their rank-dependent control flow: a
skipped, extra, divergent or ragged collective fails the test with a
``SanitizerError``.
"""

import pytest

#: Modules whose tests all drive a distributed algorithm.
SANITIZED_MODULES = frozenset(
    {
        "test_parallel_isdf",
        "test_parallel_kmeans",
        "test_parallel_lobpcg",
        "test_parallel_lrtddft",
        "test_parallel_rt",
        "test_precision_wire",
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
