"""The checked-trajectory kit: what one resume must re-create, repro
commands that replay the sweep they came from, and the one loop failing
when the run it plays is wrong."""

import shlex

import numpy as np
import pytest

import repro.verify.invariants as invariants
import repro.verify.trajectory as trajectory
from instruments import read_ndjson
from repro.bench.harness import make_system
from repro.ckpt.cli import main as ckpt_main
from repro.md.simulation import Simulation
from repro.verify.__main__ import _dst_parser, main, main_dst
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
            "fmm-B_move-homogeneous-seed3-kill2.ckpt.ndjson"
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

    def test_restart_kit_reports_a_corrupted_restore(self, monkeypatch, capsys):
        """A restore that damages one restored column fails the cell, and
        the detail names the diverged component and the step."""
        honest = trajectory.restore_simulation

        def corrupting_restore(ckpt, **kwargs):
            sim = honest(ckpt, **kwargs)
            r = next(i for i, v in enumerate(sim.vel) if v.shape[0])
            sim.vel[r][0] += 1.0
            return sim

        monkeypatch.setattr(trajectory, "restore_simulation", corrupting_restore)
        assert ckpt_main(["verify", "--solvers", "direct", "--methods", "B"]) == 1
        out = capsys.readouterr().out
        detail = out.split("ckpt: direct/B FAILED — ", 1)[1]
        assert "velocities" in detail and "at step 3" in detail
        assert out.splitlines()[-1] == "restart-equivalence: 0/1 cells ok"

    def test_null_seed_kill_cell_holds_the_phase_breakdown(self, monkeypatch):
        """A restore that moves one restored step record's phase time by one
        ulp leaves state and ledger alone, but the null-seed kill cell still
        fails, naming that step and phase."""
        honest = trajectory.restore_simulation

        def nudging_restore(ckpt, **kwargs):
            sim = honest(ckpt, **kwargs)
            stats = sim.records[1].phases["near"]
            stats.time = float(np.nextafter(stats.time, np.inf))
            return sim

        monkeypatch.setattr(trajectory, "restore_simulation", nudging_restore)
        report = run_dst(
            ["direct"], ["B"], seed_list=[0], kill_at=2, steps=4, nprocs=2, n_particles=16
        )
        (failure,) = report.failures
        assert failure.detail == (
            "per-step phase breakdown diverged from the reference schedule "
            "at step 1 (phases near)"
        )
        # a perturbed machine charges other times anyway: only seed 0 checks
        assert run_dst(
            ["direct"], ["B"], seed_list=[1], kill_at=2, steps=4, nprocs=2, n_particles=16
        ).ok


class TestStepCounts:
    def test_play_and_run_refuse_a_negative_step_count(self):
        run = build_run(CellSpec("direct", "A", 2, 8))
        with pytest.raises(ValueError, match="non-negative"):
            play(run, -1)
        assert run.sim.records == []
        sim = build_run(CellSpec("direct", "A", 2, 8), audit=False).sim
        try:
            with pytest.raises(ValueError, match="non-negative"):
                sim.run(-1)
            assert sim.records == []
        finally:
            sim.fcs.destroy()

    def test_run_dst_refuses_kill_at_before_the_reference_plays(self):
        said = []
        for kill_at in (5, -1):
            with pytest.raises(ValueError, match="kill_at"):
                run_dst(
                    ["direct"], ["A"], seed_list=[1], steps=1, nprocs=2, n_particles=8,
                    kill_at=kill_at, progress=said.append,
                )
        assert said == []

    DST = ["dst", "--solvers", "direct", "--methods", "A", "--particles", "8",
           "--nprocs", "2", "--seed-list", "1"]

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (DST + ["--steps", "-1"], "--steps"),
            (DST + ["--steps", "1", "--kill-at", "5"], "--kill-at"),
            (DST + ["--steps", "1", "--kill-at", "-1"], "--kill-at"),
            (["--solvers", "direct", "--shapes", "2", "--steps", "-1"], "--steps"),
        ],
        ids=["dst-steps", "dst-kill-at-past-steps", "dst-kill-at-negative", "differential-steps"],
    )
    def test_verify_cli_refuses_at_parse_time(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert f"argument {flag}:" in err
        assert "reference schedule" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["save", "--steps", "-2", "--out", "x.ckpt.ndjson"],
            ["restore", "--path", "x.ckpt.ndjson", "--steps", "-1"],
            ["verify", "--steps", "-1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_ckpt_cli_refuses_a_negative_step_count(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            ckpt_main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "argument --steps:" in err and out == ""

    COUNTS = [(["--nprocs", "0"], "--nprocs"), (["--particles", "0"], "--particles"),
              (["--particles", "7"], "--particles")]

    @pytest.mark.parametrize("args,flag", COUNTS, ids=["nprocs-0", "particles-0", "particles-odd"])
    @pytest.mark.parametrize("cli", ["dst", "ckpt-verify"])
    def test_bad_counts_are_refused_at_parse_time(self, cli, args, flag, capsys):
        """Was: the first ``reference schedule`` line, then a raw
        ``ValueError`` traceback from the machine or the system builder."""
        with pytest.raises(SystemExit) as exc:
            if cli == "dst":
                main(["dst", "--solvers", "direct", "--methods", "A", "--steps", "1",
                      "--seed-list", "1", *args])
            else:
                ckpt_main(["verify", "--solvers", "direct", "--methods", "A", *args])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert f"argument {flag}:" in err
        assert "reference schedule" not in out

    @pytest.mark.parametrize(
        "args",
        [["--kill-at", "1"], ["--ckpt-dir", "d"], ["--algos", "bruck"], ["--backend", "process"],
         ["--distributions", "clustered"], ["--system-seed", "3"], ["--solvers", "fmm"],
         ["--methods", "B"], ["--nprocs", "2"], ["--particles", "8"], ["--obs-export-dir", "d"]],
        ids=lambda args: args[0],
    )
    def test_resume_from_refuses_the_flags_a_checkpoint_fixes(self, args, capsys):
        """Was: the resumed sweep ran with the flag silently dropped (the
        checkpoint is never read here: the refusal comes first)."""
        with pytest.raises(SystemExit) as exc:
            main(["dst", "--resume-from", "missing.ckpt.ndjson", "--steps", "1", *args])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "argument --resume-from:" in err and args[0] in err
        assert out == ""


class TestDriftSchedule:
    @pytest.mark.xfail(
        strict=True,
        reason="a drift width applies one step late: Simulation reads brownian_step only "
        "when it rotates the velocities at the end of a step, and run_cell sets it before",
    )
    def test_each_width_moves_the_steps_it_names(self):
        """Every step of a schedule entry moves the particles by that
        entry's width: the brownian displacement per step is fixed, so a
        step's largest move is its width."""
        spec = CellSpec("p2nfft", "B", 8, 512, seed=1, physics=False,
                        drift=((2, 0.5, 1.0), (2, 0.05, 1.0)))
        result = trajectory.run_cell(spec)
        subdomain = float(make_system(512, 1).box.min()) / 2
        moves = [r.max_move for r in result.records[1:]]
        np.testing.assert_allclose(moves, [0.5 * subdomain] * 2 + [0.05 * subdomain] * 2)
