"""The resilience tests run under the lock recorder: fault injectors, the
degradation-event log and the thread budget they exercise must keep one
lock order and never block while holding a lock."""

import pytest


@pytest.fixture(autouse=True)
def _record_locks(lock_recorder):
    yield
