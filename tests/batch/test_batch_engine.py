"""End-to-end batch engine tests: equivalence, bit-identity, sharding.

Every test here runs real SCF + LR-TDDFT pipelines (small silicon frames
at a reduced cutoff), so the file carries the ``batch`` marker — deselect
with ``-m "not batch"`` for the fast loop.  The cold and warm trajectory
runs are module-scoped fixtures shared by the equivalence tests.  The
frame-sharding runs (``n_ranks=2``) go through the SPMD sanitizer via the
``sanitized_spmd`` fixture.
"""

import numpy as np
import pytest

from repro.api import BatchConfig, CalculationRequest, SCFConfig, TDDFTConfig
from repro.batch import engine as batch_engine
from repro.atoms import silicon_primitive_cell
from repro.batch import perturbed_trajectory, run_batch

pytestmark = pytest.mark.batch

N_FRAMES = 4
SCF_TOL = 1e-6
#: Documented warm-vs-cold equivalence bound (see docs/batching.md): both
#: passes stop at the same convergence threshold, so their answers may
#: legitimately differ by up to ~10x the SCF tolerance.
ENERGY_BOUND = 10.0 * SCF_TOL


def _config(**overrides):
    base = dict(
        scf=SCFConfig(ecut=6.0, n_bands=8, tol=SCF_TOL, seed=0),
        tddft=TDDFTConfig(n_excitations=3, seed=0),
    )
    base.update(overrides)
    return BatchConfig(**base)


@pytest.fixture(scope="module")
def trajectory():
    return perturbed_trajectory(
        silicon_primitive_cell(), N_FRAMES, amplitude=0.012, period=16.0, seed=7
    )


@pytest.fixture(scope="module")
def cold(trajectory):
    return run_batch(trajectory, _config(warm_start=False))


@pytest.fixture(scope="module")
def warm(trajectory):
    return run_batch(trajectory, _config())


class TestWarmColdEquivalence:
    def test_energies_within_documented_tolerance(self, cold, warm):
        delta = np.abs(warm.total_energies - cold.total_energies)
        assert delta.max() < ENERGY_BOUND, delta

    def test_excitations_within_documented_tolerance(self, cold, warm):
        delta = np.abs(warm.excitation_energies - cold.excitation_energies)
        assert delta.max() < ENERGY_BOUND, delta

    def test_frame0_bit_identical(self, cold, warm):
        """The warm chain has nothing to reuse on frame 0 — any deviation
        there means warm-start state is leaking where it must not."""
        assert warm.records[0].total_energy == cold.records[0].total_energy
        assert (
            warm.records[0].excitation_energies
            == cold.records[0].excitation_energies
        )
        assert not warm.records[0].warm

    def test_warm_frames_flagged_and_cheaper(self, cold, warm):
        assert all(r.warm for r in warm.records[1:])
        assert not any(r.warm for r in cold.records)
        cold_iters = sum(r.scf_iterations for r in cold.records[1:])
        warm_iters = sum(r.scf_iterations for r in warm.records[1:])
        assert warm_iters < cold_iters

    def test_interpolation_points_reused_under_drift(self, warm):
        reused = [r for r in warm.records if not r.isdf_reselected]
        assert reused, "drift check never allowed interpolation-point reuse"
        assert all(r.kmeans_iterations == 0 for r in reused)
        # Frame 0 always selects from scratch.
        assert warm.records[0].isdf_reselected

    def test_all_converged(self, cold, warm):
        for batch in (cold, warm):
            assert all(r.scf_converged for r in batch.records)
            assert all(r.tddft_converged for r in batch.records)


class TestDeterminismAndReplay:
    def test_cold_rerun_bit_identical(self, trajectory, cold):
        again = run_batch(trajectory[:2], _config(warm_start=False))
        for a, b in zip(again.records, cold.records[:2]):
            assert a.total_energy == b.total_energy
            assert a.excitation_energies == b.excitation_energies
            assert a.scf_iterations == b.scf_iterations

    def test_identical_frames_replayed(self, trajectory):
        cells = [trajectory[0], trajectory[1], trajectory[0]]
        seen = []
        result = run_batch(
            cells, _config(), on_result=lambda f: seen.append(f.record.index)
        )
        assert seen == [0, 1, 2]
        replay = result.records[2]
        assert replay.reused_identical
        assert replay.total_energy == result.records[0].total_energy
        assert replay.excitation_energies == result.records[0].excitation_energies
        assert replay.scf_iterations == 0
        assert replay.kmeans_iterations == 0
        assert replay.seconds == 0.0
        # The replay is a bookkeeping copy, not a new calculation.
        assert result.results[2].ground_state is result.results[0].ground_state

    def test_store_results_false_strips_objects(self, trajectory):
        result = run_batch(
            trajectory[:1], _config(store_results=False, warm_start=False)
        )
        assert result.results[0].ground_state is None
        assert result.results[0].tddft is None
        assert result.records[0].total_energy != 0.0


@pytest.mark.usefixtures("sanitized_spmd")
class TestSharding:
    @pytest.fixture(scope="class")
    def sharded_thread(self, trajectory):
        return run_batch(
            trajectory, _config(n_ranks=2, spmd_backend="thread")
        )

    def test_contiguous_chunks_with_cold_heads(self, sharded_thread):
        ranks = [r.rank for r in sharded_thread.records]
        assert ranks == [0, 0, 1, 1]
        # Each rank's first frame starts a fresh warm chain.
        assert not sharded_thread.records[0].warm
        assert sharded_thread.records[1].warm
        assert not sharded_thread.records[2].warm
        assert sharded_thread.records[3].warm

    def test_sharded_matches_serial_within_tolerance(self, sharded_thread, cold):
        delta = np.abs(sharded_thread.total_energies - cold.total_energies)
        assert delta.max() < ENERGY_BOUND

    @pytest.mark.process_backend
    def test_thread_and_process_backends_identical(self, trajectory, sharded_thread):
        """Results cross the rank boundary serialized on *both* backends, so
        the two backends must return byte-for-byte the same records."""
        sharded_process = run_batch(
            trajectory, _config(n_ranks=2, spmd_backend="process")
        )
        np.testing.assert_array_equal(
            sharded_process.total_energies, sharded_thread.total_energies
        )
        np.testing.assert_array_equal(
            sharded_process.excitation_energies,
            sharded_thread.excitation_energies,
        )
        def strip_times(record):
            payload = record.to_dict()
            del payload["seconds_scf"], payload["seconds_tddft"]
            return payload

        assert [strip_times(r) for r in sharded_process.records] == [
            strip_times(r) for r in sharded_thread.records
        ]


class TestSeededBatch:
    """A cached ground state can seed the warm chain's cold head."""

    @pytest.fixture(scope="class")
    def seed(self, trajectory):
        request = CalculationRequest(
            kind="scf",
            structure=trajectory[0],
            scf=SCFConfig(ecut=6.0, n_bands=8, tol=SCF_TOL, seed=0),
        )
        return request.compute()

    def test_seed_warms_frame0(self, trajectory, warm, seed):
        seeded = batch_engine.run_batch(
            trajectory, _config(), seed_ground_state=seed
        )
        # The unseeded run's frame 0 is a cold head; the seeded run's is not.
        assert not warm.records[0].warm
        assert seeded.records[0].warm
        assert (
            seeded.records[0].scf_iterations < warm.records[0].scf_iterations
        )
        delta = np.abs(seeded.total_energies - warm.total_energies)
        assert delta.max() < ENERGY_BOUND

    def test_seed_respects_warm_start_switch(self, trajectory, seed):
        seeded_cold = batch_engine.run_batch(
            trajectory[:2], _config(warm_start=False), seed_ground_state=seed
        )
        assert not any(r.warm for r in seeded_cold.records)

    @pytest.mark.usefixtures("sanitized_spmd")
    def test_seed_crosses_the_spmd_boundary(self, trajectory, seed):
        sharded = batch_engine.run_batch(
            trajectory,
            _config(n_ranks=2, spmd_backend="thread"),
            seed_ground_state=seed,
        )
        # Rank 0's head frame is seeded; rank 1's still starts cold.
        assert sharded.records[0].warm
        assert not sharded.records[2].warm
