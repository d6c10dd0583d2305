"""Kill-and-restart must replay every loop bit-identically.

The acceptance criterion of the resilience subsystem: a solver killed at
iteration k (crash injected *after* the step-k snapshot is durable) and
restarted from disk produces exactly the same floats as an uninterrupted
run — not merely close, ``np.array_equal``-equal.
"""

import numpy as np
import pytest

from repro.api import CalculationRequest, ResilienceConfig, SCFConfig
from repro.atoms import silicon_primitive_cell
from repro.dft.scf import run_scf
from repro.eigen.lobpcg import lobpcg
from repro.core.isdf import isdf_decompose
from repro.parallel import BlockDistribution1D, spmd_run
from repro.parallel.parallel_lobpcg import distributed_lobpcg
from repro.resilience import (
    CheckpointManager,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    LoopCheckpointer,
)
from repro.rt.tddft import RealTimeTDDFT
from repro.synthetic import synthetic_ground_state


def _test_matrix(n, k, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    h = a @ a.T + np.diag(np.arange(n, dtype=float))
    x0 = rng.standard_normal((n, k))
    return h, x0


def _killing_checkpointer(tmp_path, tag, step):
    injector = FaultInjector([FaultSpec(kind="kill_loop", tag=tag, step=step)])
    return LoopCheckpointer(CheckpointManager(tmp_path, tag=tag), injector=injector)


class TestLOBPCGRestart:
    def test_kill_at_iteration_k_restart_is_bit_identical(self, tmp_path):
        h, x0 = _test_matrix(60, 4)
        apply_h = lambda x: h @ x  # noqa: E731
        reference = lobpcg(apply_h, x0, tol=1e-10, max_iter=200)
        assert reference.converged

        with pytest.raises(InjectedFault):
            lobpcg(
                apply_h, x0, tol=1e-10, max_iter=200,
                checkpoint=_killing_checkpointer(tmp_path, "lobpcg", step=5),
            )

        restarted = lobpcg(
            apply_h, x0, tol=1e-10, max_iter=200,
            checkpoint=LoopCheckpointer(
                CheckpointManager(tmp_path, tag="lobpcg"), restart=True
            ),
        )
        assert restarted.converged
        assert restarted.iterations == reference.iterations
        np.testing.assert_array_equal(
            restarted.eigenvalues, reference.eigenvalues
        )
        np.testing.assert_array_equal(
            restarted.eigenvectors, reference.eigenvectors
        )

    def test_checkpointing_itself_does_not_perturb(self, tmp_path):
        h, x0 = _test_matrix(40, 3, seed=1)
        apply_h = lambda x: h @ x  # noqa: E731
        plain = lobpcg(apply_h, x0, tol=1e-9, max_iter=150)
        ck = LoopCheckpointer(CheckpointManager(tmp_path, tag="lobpcg"))
        checked = lobpcg(apply_h, x0, tol=1e-9, max_iter=150, checkpoint=ck)
        np.testing.assert_array_equal(checked.eigenvalues, plain.eigenvalues)
        np.testing.assert_array_equal(checked.eigenvectors, plain.eigenvectors)


class TestDistributedLOBPCGRestart:
    def test_per_rank_restart_is_bit_identical(self, tmp_path):
        n, k, n_ranks = 48, 3, 2
        h, x0 = _test_matrix(n, k, seed=2)
        dist = BlockDistribution1D(n, n_ranks)

        def apply_local_for(comm):
            rows = h[dist.local_slice(comm.rank)]

            def apply_local(x_local):
                x_full = np.concatenate(comm.allgather(x_local), axis=0)
                return rows @ x_full

            return apply_local

        def reference_prog(comm):
            res = distributed_lobpcg(
                comm, apply_local_for(comm),
                x0[dist.local_slice(comm.rank)], tol=1e-9, max_iter=200,
            )
            return res.eigenvalues, res.eigenvectors

        reference = spmd_run(n_ranks, reference_prog)

        def killed_prog(comm):
            tag = f"dlobpcg-r{comm.rank}"
            injector = (
                FaultInjector([FaultSpec(kind="kill_loop", tag=tag, step=4)])
                if comm.rank == 0
                else None
            )
            ck = LoopCheckpointer(
                CheckpointManager(tmp_path, tag=tag), injector=injector
            )
            return distributed_lobpcg(
                comm, apply_local_for(comm),
                x0[dist.local_slice(comm.rank)], tol=1e-9, max_iter=200,
                checkpoint=ck,
            )

        with pytest.raises(Exception):
            spmd_run(n_ranks, killed_prog)

        def restart_prog(comm):
            ck = LoopCheckpointer(
                CheckpointManager(tmp_path, tag=f"dlobpcg-r{comm.rank}"),
                restart=True,
            )
            res = distributed_lobpcg(
                comm, apply_local_for(comm),
                x0[dist.local_slice(comm.rank)], tol=1e-9, max_iter=200,
                checkpoint=ck,
            )
            return res.eigenvalues, res.eigenvectors

        restarted = spmd_run(n_ranks, restart_prog)
        for rank in range(n_ranks):
            np.testing.assert_array_equal(restarted[rank][0], reference[rank][0])
            np.testing.assert_array_equal(restarted[rank][1], reference[rank][1])

    def test_torn_checkpoints_roll_back_to_common_step(self, tmp_path):
        # A crash can leave the per-rank snapshot sets torn: the abort that
        # unwinds the surviving ranks may arrive after a rank's last
        # collective but before its save, so its newest step is one behind
        # its peers'.  Restart must agree on the common step and roll the
        # ahead rank back — resuming from per-rank latest() diverges the
        # collective sequences and deadlocks the run.
        n, k, n_ranks = 48, 3, 2
        h, x0 = _test_matrix(n, k, seed=2)
        dist = BlockDistribution1D(n, n_ranks)

        def apply_local_for(comm):
            rows = h[dist.local_slice(comm.rank)]

            def apply_local(x_local):
                x_full = np.concatenate(comm.allgather(x_local), axis=0)
                return rows @ x_full

            return apply_local

        def prog(comm, restart):
            ck = LoopCheckpointer(
                CheckpointManager(tmp_path, tag=f"torn-r{comm.rank}"),
                restart=restart,
            )
            res = distributed_lobpcg(
                comm, apply_local_for(comm),
                x0[dist.local_slice(comm.rank)], tol=1e-9, max_iter=200,
                checkpoint=ck,
            )
            return res.eigenvalues, res.eigenvectors

        reference = spmd_run(n_ranks, prog, False)

        # Tear rank 1's snapshot set: drop its newest step.
        manager = CheckpointManager(tmp_path, tag="torn-r1")
        steps = manager.steps()
        assert len(steps) >= 2
        manager.path(steps[-1]).unlink()

        restarted = spmd_run(n_ranks, prog, True)
        for rank in range(n_ranks):
            np.testing.assert_array_equal(restarted[rank][0], reference[rank][0])
            np.testing.assert_array_equal(restarted[rank][1], reference[rank][1])

        # Fully missing on one rank: everyone must agree to start fresh.
        manager.clear()
        fresh = spmd_run(n_ranks, prog, True)
        for rank in range(n_ranks):
            np.testing.assert_array_equal(fresh[rank][0], reference[rank][0])
            np.testing.assert_array_equal(fresh[rank][1], reference[rank][1])


class TestSCFRestart:
    def test_kill_then_restart_is_bit_identical(self, tmp_path):
        cell = silicon_primitive_cell()
        opts = SCFConfig(ecut=5.0, n_bands=6, tol=1e-6, seed=0)
        reference = run_scf(cell, opts)

        with pytest.raises(InjectedFault):
            run_scf(
                cell, SCFConfig(ecut=5.0, n_bands=6, tol=1e-6, seed=0),
                checkpoint=_killing_checkpointer(tmp_path, "scf", step=2),
            )

        restarted = run_scf(
            cell, SCFConfig(ecut=5.0, n_bands=6, tol=1e-6, seed=0),
            checkpoint=LoopCheckpointer(
                CheckpointManager(tmp_path, tag="scf"), restart=True
            ),
        )
        assert restarted.converged == reference.converged
        assert restarted.total_energy == reference.total_energy
        np.testing.assert_array_equal(restarted.energies, reference.energies)
        np.testing.assert_array_equal(restarted.density, reference.density)
        np.testing.assert_array_equal(
            restarted.orbitals_real, reference.orbitals_real
        )
        assert [h["residual"] for h in restarted.history] == [
            h["residual"] for h in reference.history
        ]

    def test_resilience_config_checkpointing_writes_snapshots(self, tmp_path):
        CalculationRequest(
            kind="scf",
            structure=silicon_primitive_cell(),
            scf=SCFConfig(ecut=5.0, n_bands=6, tol=1e-6, seed=0),
            resilience=ResilienceConfig(checkpoint_dir=str(tmp_path)),
        ).compute()
        assert CheckpointManager(tmp_path, tag="scf").steps()


class TestISDFRestart:
    @pytest.fixture(scope="class")
    def transition_space(self):
        gs = synthetic_ground_state(
            silicon_primitive_cell(), ecut=4.0, n_valence=4, n_conduction=4,
            seed=9,
        )
        psi_v, _, psi_c, _ = gs.select_transition_space()
        return psi_v, psi_c, gs.basis.grid.cartesian_points

    def test_stage_restart_reuses_selection(self, tmp_path, transition_space):
        psi_v, psi_c, grid_points = transition_space
        rng_kwargs = dict(n_mu=12, method="kmeans", grid_points=grid_points)
        reference = isdf_decompose(
            psi_v, psi_c, rng=np.random.default_rng(0), **rng_kwargs
        )

        with pytest.raises(InjectedFault):
            isdf_decompose(
                psi_v, psi_c, rng=np.random.default_rng(0),
                checkpoint=_killing_checkpointer(tmp_path, "isdf", step=0),
                **rng_kwargs,
            )

        restarted = isdf_decompose(
            psi_v, psi_c, rng=np.random.default_rng(1234),  # rng must not matter
            checkpoint=LoopCheckpointer(
                CheckpointManager(tmp_path, tag="isdf"), restart=True
            ),
            **rng_kwargs,
        )
        np.testing.assert_array_equal(restarted.indices, reference.indices)
        np.testing.assert_array_equal(restarted.theta, reference.theta)
        assert restarted.method == reference.method

    def test_completed_pipeline_restart_skips_fit(self, tmp_path, transition_space):
        psi_v, psi_c, grid_points = transition_space
        kwargs = dict(n_mu=12, method="kmeans", grid_points=grid_points)
        first = isdf_decompose(
            psi_v, psi_c, rng=np.random.default_rng(0),
            checkpoint=LoopCheckpointer(CheckpointManager(tmp_path, tag="isdf")),
            **kwargs,
        )
        resumed = isdf_decompose(
            psi_v, psi_c, rng=np.random.default_rng(99),
            checkpoint=LoopCheckpointer(
                CheckpointManager(tmp_path, tag="isdf"), restart=True
            ),
            **kwargs,
        )
        np.testing.assert_array_equal(resumed.theta, first.theta)
        np.testing.assert_array_equal(resumed.indices, first.indices)


class TestRTRestart:
    def test_kill_then_restart_continues_time_series(self, tmp_path):
        gs = synthetic_ground_state(
            silicon_primitive_cell(), ecut=4.0, n_valence=4, n_conduction=2,
            seed=13,
        )

        def fresh():
            rt = RealTimeTDDFT(gs, self_consistent=True)
            rt.kick(1e-3)
            return rt

        reference = fresh().propagate(0.1, 6, krylov_dim=6)

        with pytest.raises(InjectedFault):
            fresh().propagate(
                0.1, 6, krylov_dim=6,
                checkpoint=_killing_checkpointer(tmp_path, "rt", step=3),
            )

        restarted = fresh().propagate(
            0.1, 6, krylov_dim=6,
            checkpoint=LoopCheckpointer(
                CheckpointManager(tmp_path, tag="rt"), restart=True
            ),
        )
        np.testing.assert_array_equal(restarted.times, reference.times)
        np.testing.assert_array_equal(restarted.dipoles, reference.dipoles)
        np.testing.assert_array_equal(restarted.norms, reference.norms)
