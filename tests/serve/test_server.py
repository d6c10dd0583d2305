"""CalculationServer end-to-end: cache hits, dedup, warm starts, lifecycle.

Everything here runs real (tiny) calculations through worker threads, so
the whole module carries the ``serve`` marker.
"""

import numpy as np
import pytest

from repro.api import CalculationRequest, SCFConfig, TDDFTConfig
from repro.pw.cell import UnitCell
from repro.serve import (
    CalculationServer,
    JobFailed,
    ResultStore,
    ServeClient,
)

pytestmark = pytest.mark.serve

_SCF = SCFConfig(ecut=4.0, n_bands=4, tol=1e-6, seed=0)


def _h2(z_offset=0.0):
    return UnitCell(
        10.0 * np.eye(3),
        ("H", "H"),
        np.array([[0.5, 0.5, 0.43 + z_offset], [0.5, 0.5, 0.57 + z_offset]]),
    )


def _scf_request(z_offset=0.0, scf=_SCF):
    return CalculationRequest(kind="scf", structure=_h2(z_offset), scf=scf)


class TestReuseTiers:
    def test_exact_hit_is_bit_identical_and_free(self):
        request = _scf_request()
        with CalculationServer() as server:
            cold = request.submit(server)
            gs_cold = cold.result(timeout=300)
            assert not cold.cache_hit
            assert cold.record()["scf_iterations"] > 0

            hit = request.submit(server)
            gs_hit = hit.result(timeout=300)
            assert hit.cache_hit
            assert hit.status == "done"
            assert hit.record()["scf_iterations"] == 0
            # Bit-identical: the very same stored object is served.
            assert gs_hit.total_energy == gs_cold.total_energy
            np.testing.assert_array_equal(gs_hit.density, gs_cold.density)
            assert server.stats()["cache_hits"] == 1

    def test_inflight_dedup_attaches_to_running_job(self):
        request = _scf_request()
        with CalculationServer() as server:
            first = request.submit(server)
            second = request.submit(server)  # identical, still in flight
            assert second.id == first.id
            assert second.result(timeout=300) is first.result(timeout=300)
            stats = server.stats()
            # Deduplicated... unless the first finished before the second
            # submission (then it is a cache hit). Either way: one execution.
            assert stats["deduplicated"] + stats["cache_hits"] == 1
            assert stats["completed"] == 1

    def test_perturbed_structure_warm_starts(self):
        with CalculationServer() as server:
            cold = _scf_request().submit(server)
            cold.result(timeout=300)
            warm = _scf_request(z_offset=1e-3).submit(server)
            warm.result(timeout=300)
            assert not warm.cache_hit
            assert warm.warm
            record = warm.record()
            assert record["warm_rms"] == pytest.approx(1e-2, rel=1e-6)
            assert 0 < record["scf_iterations"] <= cold.record()["scf_iterations"]
            assert server.stats()["warm_starts"] == 1

    def test_warm_start_can_be_disabled(self):
        with CalculationServer(warm_start=False) as server:
            _scf_request().submit(server).result(timeout=300)
            second = _scf_request(z_offset=1e-3).submit(server)
            second.result(timeout=300)
            assert not second.warm

    def test_tddft_reuses_cached_ground_state(self):
        tddft = CalculationRequest(
            kind="tddft",
            structure=_h2(),
            scf=_SCF,
            tddft=TDDFTConfig(
                method="naive", n_excitations=2, n_valence=1, n_conduction=2, seed=0
            ),
        )
        with CalculationServer() as server:
            _scf_request().submit(server).result(timeout=300)
            job = tddft.submit(server)
            result = job.result(timeout=300)
            # The embedded SCF stage hit the cache: zero SCF iterations ran.
            assert job.record()["scf_iterations"] == 0
            assert result.energies.shape == (2,)
            types = [e.type for e in job.history()]
            assert "cache_hit" in types  # the scf-subrequest hit event


class TestLifecycle:
    def test_events_tell_the_job_story(self):
        with CalculationServer() as server:
            job = _scf_request().submit(server)
            job.result(timeout=300)
            types = [e.type for e in job.history()]
            assert types[0] == "queued"
            assert "running" in types
            assert "progress" in types
            assert types[-1] == "done"
            progress = [e for e in job.history() if e.type == "progress"]
            assert all(e.payload["stage"] == "scf" for e in progress)

    def test_failed_job_raises_with_cause(self):
        # More bands than plane waves: fails inside the worker, not at
        # submission — the error must surface through result().
        bad = _scf_request(scf=SCFConfig(ecut=1.0, n_bands=500, tol=1e-6))
        with CalculationServer() as server:
            job = bad.submit(server)
            with pytest.raises(JobFailed):
                job.result(timeout=300)
            assert job.status == "failed"
            assert job.record()["error"]
            assert server.stats()["failed"] == 1

    def test_shutdown_cancels_queued_jobs(self):
        server = CalculationServer()
        handles = [
            _scf_request(z_offset=0.01 * i).submit(server) for i in range(4)
        ]
        server.shutdown()
        statuses = {h.status for h in handles}
        assert statuses <= {"done", "cancelled"}
        assert "cancelled" in statuses or all(h.status == "done" for h in handles)
        with pytest.raises(RuntimeError, match="shut down"):
            _scf_request().submit(server)

    def test_unknown_job_id(self):
        with CalculationServer() as server:
            with pytest.raises(KeyError, match="job-999999"):
                server.handle("job-999999")


class TestLockDiscipline:
    """Every test here runs under the lock recorder (``conftest.py``)."""

    def test_server_nesting_is_recorded(self, lock_recorder):
        with CalculationServer() as server:
            _scf_request().submit(server).result(timeout=300)
        nested = {
            (first.split(":")[0], then.split(":")[0])
            for first, after in lock_recorder.edges.items()
            for then in after
        }
        assert nested == {
            ("repro.serve.server", "repro.serve.queue"),
            ("repro.serve.server", "repro.serve.events"),
        }

    def test_join_under_the_server_lock_is_caught(self, lock_recorder, monkeypatch):
        def shutdown_joining_under_lock(self, wait=True):
            with self._lock:
                self._shutdown = True
                self._queue.close()
                for worker in self._workers:
                    worker.join()

        monkeypatch.setattr(CalculationServer, "shutdown", shutdown_joining_under_lock)
        server = CalculationServer()
        with pytest.raises(AssertionError, match="Thread.join .* repro.serve.server"):
            server.shutdown()
        assert len(lock_recorder.violations) == 1
        lock_recorder.violations.clear()


class TestPersistentStore:
    def test_second_server_serves_from_disk(self, tmp_path):
        request = _scf_request()
        with CalculationServer(ResultStore(tmp_path)) as server:
            gs = request.submit(server).result(timeout=300)
        # A fresh server over the same directory: pure cache hit, no work.
        with CalculationServer(ResultStore(tmp_path)) as server:
            job = request.submit(server)
            replay = job.result(timeout=300)
            assert job.cache_hit
            assert replay.total_energy == gs.total_energy
            np.testing.assert_array_equal(replay.density, gs.density)
            # And the disk entry warm-starts new geometries too.
            warm = _scf_request(z_offset=1e-3).submit(server)
            warm.result(timeout=300)
            assert warm.warm


class TestClient:
    def test_wire_round_trip_preserves_cache_identity(self):
        request = _scf_request()
        with CalculationServer() as server:
            client = ServeClient(server)
            job_id = client.submit(request.to_dict(), tenant="a")
            client.result(job_id, timeout=300)
            # Same request as an object: the wire copy hashed identically.
            second_id = client.submit(request)
            client.result(second_id, timeout=300)
            assert client.status(second_id)["cache_hit"]
            assert client.status(second_id)["scf_iterations"] == 0

    def test_status_and_events_are_json_able(self):
        import json

        with CalculationServer() as server:
            client = ServeClient(server)
            job_id = client.submit(_scf_request())
            client.result(job_id, timeout=300)
            json.dumps(client.status(job_id))
            events = client.events(job_id)
            json.dumps(events)
            assert events[0]["type"] == "queued"
            assert events[-1]["type"] == "done"
