"""Every job-server test runs under the lock recorder: the server, queue,
store and event-channel locks must keep one acquisition order and never
block while held."""

import pytest


@pytest.fixture(autouse=True)
def _record_locks(lock_recorder):
    yield
