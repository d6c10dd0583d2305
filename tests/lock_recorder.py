"""A runtime check of lock discipline for the threaded layers.

:class:`LockRecorder` swaps ``threading.Lock``, ``RLock`` and ``Condition``
for recording wrappers, but only for locks constructed from a ``repro.*``
frame: the standard library's own locks (inside ``Event``, ``Queue``,
``Thread``) stay real and untracked.  The module-level locks built at
import time, before any test runs, are wrapped in place (:data:`MODULE_LOCKS`).

While a test runs the recorder checks two things:

* **lock order** — every blocking acquisition adds a held-before edge from
  each lock the thread already holds to the one it takes.  Nodes are lock
  *sites* (the ``module:line`` that constructed the lock), so two
  instances of one class share a node and the order one test shows on
  store A counts against the order another path shows on store B.  The
  edges of all threads form one graph; an edge that closes a cycle is a
  violation, since two threads taking the cycle's locks in opposite
  orders can deadlock.  So is re-acquiring a held non-reentrant lock
  (it would hang).
* **blocking under a lock** — ``Thread.join``, ``Event.wait``,
  ``Condition.wait`` and ``Queue.get`` while the thread holds a tracked
  lock, other than a Condition's own lock, are violations unless the call
  cannot block (timeout ``0``, or ``Queue.get(block=False)``).  Waits the
  ``threading`` module makes for itself (``Thread.start`` waiting for the
  new thread to come up) are not calls of the code under test.

A violation raises :class:`LockDisciplineError` at the offending call,
before it can block or deadlock.  It is also kept: the ``lock_recorder``
fixture in ``tests/conftest.py`` installs a recorder for one test and fails
the test at teardown on any violation, so one raised in a worker thread
and swallowed there still counts.
"""

from __future__ import annotations

import queue
import sys
import threading

import repro.pw.fft
import repro.serve
import repro.utils.threads

__all__ = ["LockDisciplineError", "LockRecorder", "MODULE_LOCKS"]

_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock
_REAL_CONDITION = threading.Condition

#: ``(owner, attribute, site)`` of the locks constructed at import time.
MODULE_LOCKS = (
    (repro.serve, "_default_lock", "repro.serve._default_lock"),
    (repro.utils.threads, "_lock", "repro.utils.threads._lock"),
    (
        repro.pw.fft._DEFAULT_PLAN_CACHE,
        "_lock",
        "repro.pw.fft._DEFAULT_PLAN_CACHE._lock",
    ),
)


def _is_repro(frame) -> bool:
    name = frame.f_globals.get("__name__", "")
    return name == "repro" or name.startswith("repro.")


def _where(frame) -> str:
    """``module:line`` of the innermost ``repro`` frame at or above ``frame``."""
    while frame is not None and not _is_repro(frame):
        frame = frame.f_back
    if frame is None:
        return "<outside repro>"
    return f"{frame.f_globals['__name__']}:{frame.f_lineno}"


class LockDisciplineError(AssertionError):
    """A lock-order cycle or a blocking call under a lock."""


class RecordingLock:
    """A ``threading.Lock`` that reports acquisitions to a recorder."""

    reentrant = False

    def __init__(self, recorder: "LockRecorder", real, site: str) -> None:
        self._recorder = recorder
        self._real = real
        self.site = site

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if blocking:
            self._recorder._before_acquire(self)
        got = self._real.acquire(blocking, timeout)
        if got:
            self._recorder._held().append(self)
        return got

    def release(self) -> None:
        self._real.release()
        self._recorder._released(self)

    __enter__ = acquire

    def __exit__(self, *exc_info) -> None:
        self.release()


class RecordingRLock(RecordingLock):
    """A ``threading.RLock`` wrapper; also serves ``Condition.wait``."""

    reentrant = True

    def _is_owned(self) -> bool:
        return self._real._is_owned()

    def _release_save(self):
        state = self._real._release_save()
        held = self._recorder._held()
        held[:] = [lock for lock in held if lock is not self]
        return state

    def _acquire_restore(self, state) -> None:
        self._real._acquire_restore(state)
        self._recorder._held().extend([self] * state[0])


class _RecordingCondition(_REAL_CONDITION):
    def __init__(self, recorder: "LockRecorder", lock) -> None:
        super().__init__(lock)
        self._recorder = recorder

    def wait(self, timeout=None):
        self._recorder._blocking("Condition.wait", timeout, own=self._lock)
        return super().wait(timeout)


class LockRecorder:
    """Held-before graph and blocking-call log of one test."""

    def __init__(self) -> None:
        self._local = threading.local()
        #: site -> {later site: where the edge was first taken}
        self.edges: dict[str, dict[str, str]] = {}
        self.violations: list[str] = []

    # -- installation ------------------------------------------------------

    def install(self, monkeypatch) -> None:
        """Swap the lock factories and blocking calls for this recorder's."""
        monkeypatch.setattr(threading, "Lock", self._factory(_REAL_LOCK, RecordingLock))
        monkeypatch.setattr(
            threading, "RLock", self._factory(_REAL_RLOCK, RecordingRLock)
        )
        monkeypatch.setattr(threading, "Condition", self._condition)
        for owner, name, arg in (
            (threading.Thread, "join", lambda self, timeout=None: timeout),
            (threading.Event, "wait", lambda self, timeout=None: timeout),
            (
                queue.Queue,
                "get",
                lambda self, block=True, timeout=None: timeout if block else 0,
            ),
        ):
            what = f"{owner.__name__}.{name}"
            monkeypatch.setattr(
                owner, name, self._checked(what, getattr(owner, name), arg)
            )
        for owner, name, site in MODULE_LOCKS:
            real = getattr(owner, name)
            cls = RecordingRLock if hasattr(real, "_is_owned") else RecordingLock
            monkeypatch.setattr(owner, name, cls(self, real, site))

    def _factory(self, make_real, cls):
        def make():
            real = make_real()
            caller = sys._getframe(1)
            if not _is_repro(caller):
                return real
            return cls(self, real, _where(caller))

        return make

    def _condition(self, lock=None):
        caller = sys._getframe(1)
        if not _is_repro(caller):
            return _REAL_CONDITION(lock)
        if lock is None:
            lock = RecordingRLock(self, _REAL_RLOCK(), _where(caller))
        return _RecordingCondition(self, lock)

    def _checked(self, what: str, real, timeout_of):
        recorder = self

        def checked(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") != "threading":
                recorder._blocking(what, timeout_of(*args, **kwargs))
            return real(*args, **kwargs)

        return checked

    # -- bookkeeping -------------------------------------------------------

    def _held(self) -> list:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = []
        return held

    def _released(self, lock) -> None:
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i] is lock:
                del held[i]
                return

    def _before_acquire(self, lock) -> None:
        held = self._held()
        if not lock.reentrant and any(h is lock for h in held):
            self._fail(
                f"{_where(sys._getframe())} re-acquires non-reentrant "
                f"{lock.site}, which this thread already holds"
            )
        for earlier in {h.site for h in held} - {lock.site}:
            self._add_edge(earlier, lock.site)

    def _add_edge(self, first: str, then: str) -> None:
        after = self.edges.setdefault(first, {})
        if then in after:
            return
        # Insert before searching: two threads adding opposite edges at
        # once then each see the other's, so neither cycle goes unseen.
        after[then] = _where(sys._getframe())
        path = self._path(then, first)
        if path is not None:
            steps = [first, *path]
            chain = "".join(
                f" -> {b} (at {self.edges[a][b]})" for a, b in zip(steps, steps[1:])
            )
            self._fail(f"lock-order cycle: {first}{chain}")

    def _path(self, start: str, goal: str) -> list[str] | None:
        """Sites of one held-before path ``start -> ... -> goal``, if any."""
        stack = [[start]]
        seen = {start}
        while stack:
            path = stack.pop()
            if path[-1] == goal:
                return path
            for nxt in tuple(self.edges.get(path[-1], ())):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(path + [nxt])
        return None

    def _blocking(self, what: str, timeout, own=None) -> None:
        if timeout == 0:
            return
        held = sorted({lock.site for lock in self._held() if lock is not own})
        if held:
            self._fail(
                f"{what} at {_where(sys._getframe())} may block while "
                f"holding {', '.join(held)}"
            )

    # -- verdict -----------------------------------------------------------

    def _fail(self, message: str) -> None:
        self.violations.append(message)
        raise LockDisciplineError(message)

    def check(self) -> None:
        """Raise ``AssertionError`` listing every violation seen."""
        assert not self.violations, "lock discipline violated:\n" + "\n".join(
            self.violations
        )
