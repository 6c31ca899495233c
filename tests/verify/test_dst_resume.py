"""DST chaos-resume: kill a trajectory mid-run, resume from checkpoint.

Two workflows under test: ``run_dst(kill_at=K)`` kills every *perturbed*
trajectory after its step-``K`` fingerprint check and resumes it from a
:mod:`repro.ckpt` checkpoint while still holding it to the uninterrupted
reference schedule; ``run_resume_sweep`` takes a checkpoint *file* a dead
job left behind and resumes it under many perturbation seeds.
"""

import os

import pytest

from repro.md.simulation import Simulation, SimulationConfig
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
        assert os.listdir(tmp_path) == ["ewald-B-kill1.ckpt.ndjson"]

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
