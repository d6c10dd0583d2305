"""JobQueue: tenant fairness, priority ordering, admission control."""

import pytest

from repro.serve import AdmissionError, JobQueue, ResultStore


class TestPriority:
    def test_lower_priority_value_pops_first(self):
        q = JobQueue()
        q.push("low", tenant="a", priority=10)
        q.push("high", tenant="a", priority=0)
        q.push("mid", tenant="a", priority=5)
        assert [q.pop() for _ in range(3)] == ["high", "mid", "low"]

    def test_fifo_within_equal_priority(self):
        q = JobQueue()
        for i in range(4):
            q.push(i, tenant="a", priority=1)
        assert [q.pop() for _ in range(4)] == [0, 1, 2, 3]


class TestFairness:
    def test_round_robin_across_tenants(self):
        q = JobQueue()
        # Tenant "a" floods the queue before "b" submits anything.
        for i in range(3):
            q.push(("a", i), tenant="a")
        for i in range(2):
            q.push(("b", i), tenant="b")
        order = [q.pop() for _ in range(5)]
        # Service must alternate, not drain "a" first.
        assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2)]

    def test_new_tenant_is_not_starved(self):
        q = JobQueue()
        for i in range(10):
            q.push(("a", i), tenant="a")
        q.push(("late", 0), tenant="late")
        first_two = [q.pop(), q.pop()]
        assert ("late", 0) in first_two


class TestAdmission:
    def test_queue_full(self):
        q = JobQueue(max_depth=2)
        q.push(1, tenant="a")
        q.push(2, tenant="b")
        with pytest.raises(AdmissionError) as exc:
            q.push(3, tenant="c")
        assert exc.value.reason == "queue_full"

    def test_tenant_quota(self):
        q = JobQueue(max_depth=10, max_per_tenant=1)
        q.push(1, tenant="a")
        with pytest.raises(AdmissionError) as exc:
            q.push(2, tenant="a")
        assert exc.value.reason == "tenant_quota"
        # A different tenant is unaffected by "a"'s quota.
        q.push(3, tenant="b")

    def test_quota_frees_up_after_pop(self):
        q = JobQueue(max_per_tenant=1)
        q.push(1, tenant="a")
        q.pop()
        q.push(2, tenant="a")
        assert q.depth_of("a") == 1

    def test_closed(self):
        q = JobQueue()
        q.close()
        with pytest.raises(AdmissionError) as exc:
            q.push(1, tenant="a")
        assert exc.value.reason == "closed"


class TestRemove:
    def test_remove_matching_item(self):
        q = JobQueue()
        q.push("keep", tenant="a")
        q.push("drop", tenant="a")
        assert q.remove(lambda item: item == "drop")
        assert not q.remove(lambda item: item == "drop")
        assert q.pop() == "keep"
        assert len(q) == 0

    def test_pop_timeout_returns_none(self):
        q = JobQueue()
        assert q.pop(timeout=0.01) is None


class TestLockDiscipline:
    """Under the lock recorder (``conftest.py``): ``pop`` waits on the
    queue's own Condition, which is fine alone but not under another lock."""

    def test_wait_under_an_unrelated_lock_is_caught(self, lock_recorder):
        q = JobQueue()
        assert q.pop(timeout=0.01) is None
        store = ResultStore()
        with store._lock:
            assert q.pop(timeout=0) is None  # the non-blocking drain
            with pytest.raises(AssertionError, match="Condition.wait .* repro.serve.store"):
                q.pop(timeout=0.01)
        assert len(lock_recorder.violations) == 1
        lock_recorder.violations.clear()
