"""DST chaos-resume: kill a trajectory mid-run, resume from checkpoint.

Two workflows under test: ``run_dst(kill_at=K)`` kills every *perturbed*
trajectory after its step-``K`` fingerprint check and resumes it from a
:mod:`repro.ckpt` checkpoint while still holding it to the uninterrupted
reference schedule; ``run_resume_sweep`` takes a checkpoint *file* a dead
job left behind and resumes it under many perturbation seeds.
"""

import os

import pytest

from repro.md.simulation import Simulation, SimulationConfig, StepRecord
from repro.md.systems import silica_melt_system
from repro.simmpi.machine import Machine
from repro.verify.dst import DstFailure, run_dst, run_resume_sweep


class TestKillResume:
    def test_kill_and_resume_matches_uninterrupted_reference(self):
        report = run_dst(
            ["fmm"],
            ["B+move"],
            seed_list=[3],
            steps=3,
            nprocs=2,
            n_particles=12,
            kill_at=2,
        )
        assert report.ok, [f.detail for f in report.failures]
        assert report.trajectories == 2

    def test_kill_at_zero_and_at_last_step(self):
        for kill_at in (0, 2):
            report = run_dst(
                ["direct"],
                ["B"],
                seed_list=[5],
                steps=2,
                nprocs=2,
                n_particles=12,
                kill_at=kill_at,
            )
            assert report.ok, [f.detail for f in report.failures]

    def test_kill_with_ckpt_dir_round_trips_through_file(self, tmp_path):
        report = run_dst(
            ["ewald"],
            ["B"],
            seed_list=[4],
            steps=2,
            nprocs=2,
            n_particles=12,
            kill_at=1,
            ckpt_dir=str(tmp_path),
        )
        assert report.ok, [f.detail for f in report.failures]
        assert os.listdir(tmp_path) == ["ewald-B-homogeneous-seed4-kill1.ckpt.ndjson"]

    def test_kill_at_out_of_range_raises(self):
        with pytest.raises(ValueError, match="kill_at"):
            run_dst(
                ["direct"], ["A"], seed_list=[1], steps=2, nprocs=2,
                n_particles=12, kill_at=5,
            )

    def test_failure_repro_command_carries_kill_at(self):
        failure = DstFailure("fmm", "B+move", 17, "boom", kill_at=2)
        cmd = failure.repro_command(nprocs=4, steps=5, particles=24)
        assert "--kill-at 2" in cmd
        assert "--seed-list 17" in cmd


@pytest.fixture
def checkpoint_file(tmp_path):
    sim = Simulation(
        Machine(2),
        silica_melt_system(12, seed=0),
        SimulationConfig(
            solver="fmm", method="B", track_energy=True,
            checkpoint_every=2, checkpoint_dir=str(tmp_path),
        ),
    )
    try:
        sim.run(2)
    finally:
        sim.fcs.destroy()
    return str(tmp_path / "step-000002.ckpt.ndjson")


class TestResumeSweep:
    def test_resume_sweep_passes(self, checkpoint_file):
        report = run_resume_sweep(
            checkpoint_file, steps=2, seed_list=[0, 4]
        )
        assert report.ok, [f.detail for f in report.failures]
        assert report.trajectories == 3  # reference + 2 seeds
        assert report.solvers == ("fmm",)

    def test_failure_repro_command_carries_resume_from(self, checkpoint_file):
        failure = DstFailure(
            "fmm", "B", 4, "boom", resume_from=checkpoint_file
        )
        cmd = failure.repro_command(nprocs=2, steps=2, particles=12)
        assert f"--resume-from {checkpoint_file}" in cmd
        assert "--seed-list 4" in cmd

    def test_cli_resume_from(self, checkpoint_file, capsys):
        from repro.verify.__main__ import main

        rc = main(
            ["dst", "--resume-from", checkpoint_file, "--steps", "2",
             "--seed-list", "3"]
        )
        assert rc == 0
        assert "[ok]" in capsys.readouterr().out

    def test_cli_kill_at(self, capsys):
        from repro.verify.__main__ import main

        rc = main(
            ["dst", "--solvers", "direct", "--methods", "B", "--steps", "2",
             "--particles", "12", "--nprocs", "2", "--seed-list", "3",
             "--kill-at", "1"]
        )
        assert rc == 0
        assert "[ok]" in capsys.readouterr().out


#: the CI "Chaos kill/resume cell": one staged B+move cell on both workloads,
#: killed after step 2 and resumed through a file
CHAOS_KILL_CELL = dict(
    seed_list=[3], steps=3, nprocs=2, n_particles=12, kill_at=2, algos=["bruck"],
    distributions=("homogeneous", "clustered"),
)


class TestFailurePaths:
    def test_every_cell_keeps_its_own_kill_file(self, tmp_path):
        """Kill files are named after the whole cell and the seed: the
        clustered cell no longer overwrites the homogeneous one's."""
        report = run_dst(["fmm"], ["B+move"], ckpt_dir=str(tmp_path), **CHAOS_KILL_CELL)
        assert report.ok, [f.detail for f in report.failures]
        assert sorted(os.listdir(tmp_path)) == [
            "fmm-B_move-clustered-bruck-seed3-kill2.ckpt.ndjson",
            "fmm-B_move-homogeneous-bruck-seed3-kill2.ckpt.ndjson",
        ]

    def test_failing_resumed_reference_is_a_reported_failure(self, tmp_path, capsys):
        """Resumed at the default five steps, the clustered kill file's
        unperturbed reference drifts past the energy tolerance: a ``[FAIL]``
        line naming the invariant and a repro command, exit 1 (was: a raw
        ``InvariantViolation`` traceback)."""
        from repro.verify.__main__ import main

        cell = dict(CHAOS_KILL_CELL, distributions=("clustered",))
        assert run_dst(["fmm"], ["B+move"], ckpt_dir=str(tmp_path), **cell).ok
        (name,) = os.listdir(tmp_path)
        path = str(tmp_path / name)
        capsys.readouterr()
        assert main(["dst", "--resume-from", path]) == 1
        lines = capsys.readouterr().out.splitlines()
        (fail,) = [line for line in lines if "[FAIL]" in line]
        assert fail.startswith("  [FAIL] reference [fmm/B+move]: reference schedule:")
        assert any("energy-drift" in line for line in lines)
        (repro,) = [line for line in lines if "reproduce:" in line]
        assert repro.endswith(f"dst --resume-from {path} --steps 5")

    def test_failed_resumed_reference_counts_one_run_of_its_workload(self, tmp_path, capsys):
        """The summary of a resume whose reference failed counts the one run
        played and names the checkpoint's workload (was: ``11 trajectories``
        over no seed, ``distributions=['random']`` — the particle placement —
        and a progress line saying ``10 seeds FAILED``)."""
        from repro.verify.__main__ import main

        cell = dict(CHAOS_KILL_CELL, distributions=("clustered",))
        assert run_dst(["fmm"], ["B+move"], ckpt_dir=str(tmp_path), **cell).ok
        (name,) = os.listdir(tmp_path)
        capsys.readouterr()
        assert main(["dst", "--resume-from", str(tmp_path / name)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "dst: resume fmm/B+move reference FAILED"
        assert lines[2] == (
            "[FAILED (1)] dst: 1 trajectories, solvers=['fmm'] methods=['B+move'] "
            "distributions=['clustered'] seeds=10 steps=5 nprocs=2 particles=12"
        )

    def test_resumed_homogeneous_checkpoint_names_its_workload(self, checkpoint_file):
        report = run_resume_sweep(checkpoint_file, steps=1, seed_list=[1])
        assert report.ok and report.distributions == ("homogeneous",)

    def test_failing_fresh_reference_is_a_reported_failure(self, monkeypatch, capsys):
        """A fresh sweep whose reference breaks an invariant reports it once,
        plays no seed against it and exits 1."""
        from repro.verify.__main__ import main

        honest = Simulation.step

        def corrupting_step(sim) -> StepRecord:
            record = honest(sim)
            r = next(i for i, q in enumerate(sim.particles.q) if q.shape[0])
            sim.particles.q[r][:] += 1.0
            return record

        monkeypatch.setattr(Simulation, "step", corrupting_step)
        argv = ["dst", "--solvers", "direct", "--methods", "B", "--steps", "1",
                "--particles", "12", "--nprocs", "2", "--seed-list", "1", "2"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        (fail,) = [line for line in lines if "[FAIL]" in line]
        assert fail.startswith("  [FAIL] reference [direct/B]: reference schedule:")
        assert any("charge-conservation" in line for line in lines)
        (repro,) = [line for line in lines if "reproduce:" in line]
        assert "--seed-list" not in repro and "--solvers direct --methods 'B'" in repro
        # one run played, not the reference and two seeds
        assert "dst: direct/B/homogeneous reference FAILED" in lines
        assert any(line.startswith("[FAILED (1)] dst: 1 trajectories,") for line in lines)
