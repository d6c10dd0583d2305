"""The interprocedural rule families, on synthetic projects.

``impure-cache-key`` must flag an injected ``time.time()`` in a synthetic
serialization closure while the *real* ``CalculationRequest`` graph in
``src/`` stays clean; the lock rules must find order cycles,
self-deadlocks and blocking-under-lock — and honour the two deliberate
exemptions (condition-wait, literal-zero timeout).
"""

import ast

import pytest

from repro.lint import lint_paths
from repro.lint.callgraph import build_project
from repro.lint.engine import SourceModule, all_project_rules

pytestmark = pytest.mark.lint


def project_findings(files, rule_name):
    modules = [
        SourceModule(path=path, text=text, tree=ast.parse(text))
        for path, text in files.items()
    ]
    graph = build_project(modules)
    rule = next(r for r in all_project_rules() if r.name == rule_name)
    return list(rule.check(graph, modules))


def one_module(text, rule_name):
    return project_findings({"src/app/mod.py": text}, rule_name)


SYNTH_IMPURE = (
    "import time\n"
    "import hashlib, json\n"
    "def stamp():\n"
    "    return time.time()\n"
    "class CalculationRequest:\n"
    "    def to_dict(self):\n"
    "        return {'stamp': stamp()}\n"
    "    def canonical_json(self):\n"
    "        return json.dumps(self.to_dict(), sort_keys=True)\n"
    "    def cache_key(self):\n"
    "        return hashlib.sha256(self.canonical_json().encode()).hexdigest()\n"
)


class TestImpureCacheKey:
    def test_injected_wallclock_read_is_flagged_through_the_chain(self):
        findings = one_module(SYNTH_IMPURE, "impure-cache-key")
        assert len(findings) == 1
        f = findings[0]
        assert "wall-clock read time.time()" in f.message
        assert "reachable from the cache key" in f.message
        assert "stamp" in f.message
        assert f.line == 4  # the time.time() call itself, not the root

    def test_pure_serialization_graph_is_clean(self):
        pure = SYNTH_IMPURE.replace("import time\n", "").replace(
            "    return time.time()\n", "    return 0.0\n"
        )
        assert one_module(pure, "impure-cache-key") == []

    def test_set_iteration_in_closure_is_flagged(self):
        findings = one_module(
            "class CalculationRequest:\n"
            "    def to_dict(self):\n"
            "        return {'species': list_species(self)}\n"
            "def list_species(req):\n"
            "    return [s for s in set(req.species)]\n",
            "impure-cache-key",
        )
        assert len(findings) == 1
        assert "hash order" in findings[0].message

    def test_impurity_outside_the_closure_is_not_flagged(self):
        findings = one_module(
            "import time\n"
            "class CalculationRequest:\n"
            "    def to_dict(self):\n"
            "        return {}\n"
            "def unrelated():\n"
            "    return time.time()\n",
            "impure-cache-key",
        )
        assert findings == []

    def test_real_request_serialization_graph_is_clean(self):
        # The acceptance bar for the rule: the actual canonical_json /
        # cache_key closure in src/ must pass with zero findings.
        assert lint_paths(["src"], rules=["impure-cache-key"]) == []


LOCK_PREFIX = (
    "import threading\n"
    "class Store:\n"
    "    def __init__(self):\n"
    "        self._a = threading.Lock()\n"
    "        self._b = threading.Lock()\n"
)


class TestLockOrderCycle:
    def test_conflicting_orders_in_one_class(self):
        findings = one_module(
            LOCK_PREFIX
            + "    def one(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
            "    def two(self):\n"
            "        with self._b:\n"
            "            with self._a:\n"
            "                pass\n",
            "lock-order-cycle",
        )
        assert len(findings) == 1
        assert "cyclic order" in findings[0].message
        assert "Store._a" in findings[0].message
        assert "Store._b" in findings[0].message

    def test_consistent_order_is_clean(self):
        findings = one_module(
            LOCK_PREFIX
            + "    def one(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
            "    def two(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n",
            "lock-order-cycle",
        )
        assert findings == []

    def test_transitive_cycle_through_a_call(self):
        findings = one_module(
            LOCK_PREFIX
            + "    def one(self):\n"
            "        with self._a:\n"
            "            self.grab_b()\n"
            "    def grab_b(self):\n"
            "        with self._b:\n"
            "            pass\n"
            "    def two(self):\n"
            "        with self._b:\n"
            "            with self._a:\n"
            "                pass\n",
            "lock-order-cycle",
        )
        assert len(findings) == 1
        assert "cyclic order" in findings[0].message

    def test_nonreentrant_reacquire_self_deadlocks(self):
        findings = one_module(
            LOCK_PREFIX
            + "    def one(self):\n"
            "        with self._a:\n"
            "            with self._a:\n"
            "                pass\n",
            "lock-order-cycle",
        )
        assert len(findings) == 1
        assert "self-deadlocks" in findings[0].message

    def test_rlock_reacquire_is_fine(self):
        findings = one_module(
            "import threading\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._a = threading.RLock()\n"
            "    def one(self):\n"
            "        with self._a:\n"
            "            with self._a:\n"
            "                pass\n",
            "lock-order-cycle",
        )
        assert findings == []

    def test_transitive_reacquire_through_a_call(self):
        findings = one_module(
            LOCK_PREFIX
            + "    def one(self):\n"
            "        with self._a:\n"
            "            self.helper()\n"
            "    def helper(self):\n"
            "        with self._a:\n"
            "            pass\n",
            "lock-order-cycle",
        )
        assert len(findings) == 1
        assert "self-deadlocks" in findings[0].message


class TestBlockingUnderLock:
    def test_sleep_under_lock(self):
        findings = one_module(
            "import threading, time\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def slow(self):\n"
            "        with self._lock:\n"
            "            time.sleep(0.1)\n",
            "blocking-under-lock",
        )
        assert len(findings) == 1
        assert "time.sleep()" in findings[0].message
        assert "Store._lock" in findings[0].message

    def test_disk_io_reached_through_a_call(self):
        findings = one_module(
            "import threading\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def put(self):\n"
            "        with self._lock:\n"
            "            self._flush()\n"
            "    def _flush(self):\n"
            "        with open('x', 'w') as fh:\n"
            "            fh.write('1')\n",
            "blocking-under-lock",
        )
        assert len(findings) == 1
        assert "disk I/O" in findings[0].message
        assert "via Store.put -> Store._flush" in findings[0].message

    def test_collective_under_lock(self):
        findings = one_module(
            "import threading\n"
            "_lock = threading.Lock()\n"
            "def exchange(comm):\n"
            "    with _lock:\n"
            "        comm.allreduce(1)\n",
            "blocking-under-lock",
        )
        assert len(findings) == 1
        assert "collective allreduce()" in findings[0].message

    def test_condition_wait_on_its_own_lock_is_exempt(self):
        findings = one_module(
            "import threading\n"
            "class Q:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._cond = threading.Condition(self._lock)\n"
            "    def pop(self):\n"
            "        with self._lock:\n"
            "            self._cond.wait()\n",
            "blocking-under-lock",
        )
        assert findings == []

    def test_condition_wait_under_an_unrelated_lock_is_flagged(self):
        findings = one_module(
            "import threading\n"
            "class Q:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._other = threading.Lock()\n"
            "        self._cond = threading.Condition(self._lock)\n"
            "    def pop(self):\n"
            "        with self._other:\n"
            "            with self._lock:\n"
            "                self._cond.wait()\n",
            "blocking-under-lock",
        )
        assert len(findings) == 1
        assert "Q._other" in findings[0].message

    def test_literal_zero_timeout_drain_is_exempt(self):
        findings = one_module(
            "import threading\n"
            "class Q:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.queue = None\n"
            "    def pop(self, timeout):\n"
            "        return self.queue.get(timeout=timeout)\n"
            "    def drain(self):\n"
            "        with self._lock:\n"
            "            return self.pop(timeout=0)\n",
            "blocking-under-lock",
        )
        assert findings == []

    def test_caller_supplied_timeout_is_not_exempt(self):
        findings = one_module(
            "import threading\n"
            "class Q:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.queue = None\n"
            "    def pop(self, timeout):\n"
            "        return self.queue.get(timeout=timeout)\n"
            "    def drain(self, timeout):\n"
            "        with self._lock:\n"
            "            return self.pop(timeout=timeout)\n",
            "blocking-under-lock",
        )
        assert len(findings) == 1
        assert "timeout" in findings[0].message


class TestRealTreeStaysClean:
    def test_all_project_rules_clean_on_src(self):
        names = [r.name for r in all_project_rules()]
        assert sorted(names) == [
            "blocking-under-lock",
            "impure-cache-key",
            "lock-order-cycle",
        ]
        assert lint_paths(["src"], rules=names) == []
