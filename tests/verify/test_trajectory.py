"""The checked-trajectory kit: what one resume must re-create, repro
commands that replay the sweep they came from, and the one loop failing
when the run it plays is wrong."""

import shlex

import pytest

import repro.verify.invariants as invariants
import repro.verify.trajectory as trajectory
from repro.ckpt.equivalence import run_restart_equivalence
from repro.md.simulation import Simulation
from repro.obs import read_ndjson
from repro.verify.__main__ import _dst_parser, main_dst
from repro.verify.dst import run_dst
from repro.verify.invariants import InvariantViolation
from repro.verify.trajectory import CellSpec, build_run, play


def kill_cell(**kwargs):
    cell = dict(
        seed_list=[3], steps=3, nprocs=4, n_particles=24, kill_at=2
    )
    cell.update(kwargs)
    report = run_dst(["fmm"], ["B+move"], **cell)
    assert report.ok, [f.detail for f in report.failures]
    return report


class TestKillResumeRecreates:
    def test_staged_collective_spec(self):
        kill_cell(algos=["bruck"])

    def test_balance_monitor_across_the_kill(self):
        kill_cell(distributions=("clustered",))

    def test_recorder_and_file_round_trip(self, tmp_path):
        obs_dir, ckpt_dir = tmp_path / "obs", tmp_path / "ckpt"
        kill_cell(obs_export_dir=str(obs_dir), ckpt_dir=str(ckpt_dir))
        assert [p.name for p in ckpt_dir.iterdir()] == [
            "fmm-B_move-kill2.ckpt.ndjson"
        ]
        headers = {}
        for seed in (0, 3):
            path = obs_dir / f"fmm-B_move-homogeneous-seed{seed}.ndjson"
            with open(path) as fh:
                headers[seed], spans, _ = read_ndjson(fh)
            marks = {s.phase for s in spans if s.kind == "mark"}
            assert ("ckpt.restore" in marks) == (seed == 3)
        assert headers[0]["complete"] is True
        assert headers[3]["complete"] is False


class TestReproCommand:
    def test_repro_command_replays_the_sweep(self, tmp_path, monkeypatch, capsys):
        """A failing seed's printed command carries every sweep argument
        that shapes its trajectory."""
        honest = invariants.state_fingerprint

        def tampered(sim):
            fingerprint = honest(sim)
            perturbation = sim.machine.perturbation
            if perturbation is not None and perturbation.seed == 2:
                fingerprint["positions"] = "0" * 64
            return fingerprint

        monkeypatch.setattr(invariants, "state_fingerprint", tampered)
        ckpt_dir = str(tmp_path / "kill")
        argv = [
            "--solvers", "direct", "--methods", "B+move", "--steps", "2",
            "--particles", "12", "--nprocs", "2", "--seed-list", "1", "2",
            "--system-seed", "3", "--backend", "inprocess", "--kill-at", "1",
            "--ckpt-dir", ckpt_dir,
        ]
        assert main_dst(argv) == 1
        (line,) = [
            line for line in capsys.readouterr().out.splitlines()
            if "reproduce:" in line
        ]
        words = shlex.split(line.split("reproduce:", 1)[1])
        assert words[:4] == ["python", "-m", "repro.verify", "dst"]
        replay = vars(_dst_parser().parse_args(words[4:]))
        expected = vars(_dst_parser().parse_args(argv))
        expected["seed_list"] = [2]
        expected["distributions"] = ["homogeneous"]
        assert replay == expected


class TestKit:
    def test_null_seed_is_the_null_perturbation(self):
        spec = CellSpec("direct", "A", 2, 12)
        run = build_run(spec, chaos_seed=0)
        assert run.machine.perturbation.is_null
        assert build_run(spec).machine.perturbation is None
        reference = play(build_run(spec), 1)
        assert len(reference.steps) == 2
        assert play(run, 1, reference=reference).steps == []

    def test_figure_cell_plays_as_checked_run(self):
        """A figure spec (profile, skipped compute, brownian drift) passes the
        invariant registry and is schedule-independent under chaos."""
        spec = CellSpec(
            "fmm", "B", 8, 512, seed=1, profile="JUROPA", physics=False,
            drift=((2, 0.005, 1),),
        )
        reference = play(build_run(spec), 2)
        assert play(build_run(spec, chaos_seed=3), 2, reference=reference).steps == []

    def test_kill_at_out_of_range_raises(self):
        run = build_run(CellSpec("direct", "A", 2, 12))
        with pytest.raises(ValueError, match="kill_at"):
            play(run, 1, kill_at=2)

    def test_resume_keeps_the_perturbation_and_recorder(self, tmp_path):
        run = build_run(CellSpec("direct", "B", 2, 12), chaos_seed=4, spans=True)
        run.sim.initialize()
        donor = run.sim
        run.resume(str(tmp_path))
        try:
            assert run.sim is not donor and run.machine is not donor.machine
            assert run.machine.perturbation.seed == 4
            assert run.recorder is run.machine.obs is not None
            assert run.auditor is run.machine.auditor is not None
            assert run.checker.sim is run.sim
            assert [p.name for p in tmp_path.iterdir()] == ["direct-B-kill0.ckpt.ndjson"]
        finally:
            run.sim.fcs.destroy()


class TestTheLoopCanFail:
    def test_play_catches_a_step_that_corrupts_a_charge(self, monkeypatch):
        honest = Simulation.step

        def corrupting_step(sim):
            record = honest(sim)
            r = next(i for i, q in enumerate(sim.particles.q) if q.shape[0])
            sim.particles.q[r][:] += 1.0  # through the view
            return record

        monkeypatch.setattr(Simulation, "step", corrupting_step)
        with pytest.raises(InvariantViolation, match="charge-conservation"):
            play(build_run(CellSpec("direct", "B", 2, 12)), 1)

    def test_restart_kit_reports_a_corrupted_restore(self, monkeypatch):
        """A restore that damages one restored column fails the cell, and
        the detail names the diverged component and the step."""
        honest = trajectory.restore_simulation

        def corrupting_restore(ckpt, **kwargs):
            sim = honest(ckpt, **kwargs)
            r = next(i for i, v in enumerate(sim.vel) if v.shape[0])
            sim.vel[r][0] += 1.0
            return sim

        monkeypatch.setattr(trajectory, "restore_simulation", corrupting_restore)
        cell = run_restart_equivalence("direct", "B")
        assert not cell.ok
        assert "velocities" in cell.detail and "at step 3" in cell.detail
