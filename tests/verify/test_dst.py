"""DST runner: schedule-independence sweep, failure reporting."""

import dataclasses

import pytest

from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.simmpi.machine import Machine
from repro.verify.audit import enable_auditing
from repro.verify.dst import (
    DEFAULT_METHODS,
    DEFAULT_SOLVERS,
    DstFailure,
    ledger_fingerprint,
    run_dst,
)
from repro.verify.invariants import state_fingerprint
from repro.verify.trajectory import CellSpec, build_run, play


class TestSweep:
    def test_small_sweep_passes(self):
        report = run_dst(
            ["direct"],
            ["A", "B"],
            seeds=2,
            steps=2,
            nprocs=4,
            n_particles=16,
        )
        assert report.ok, report.failures
        # 2 cells x (1 reference + 2 seeds)
        assert report.trajectories == 6
        assert "ok" in report.summary()

    def test_explicit_seed_list_including_null(self):
        report = run_dst(
            ["direct"],
            ["B+move"],
            steps=2,
            nprocs=4,
            n_particles=16,
            seed_list=[0, 5],
        )
        assert report.ok, report.failures
        assert report.seeds == [0, 5]

    def test_progress_callback_is_used(self):
        lines = []
        run_dst(
            ["direct"],
            ["A"],
            seeds=1,
            steps=1,
            nprocs=4,
            n_particles=16,
            progress=lines.append,
        )
        assert any("direct/A" in line for line in lines)

    def test_zero_seed_sweep_is_refused(self):
        # was: an "[ok]" report that had checked no perturbed run
        with pytest.raises(ValueError, match="seeds >= 1, got 0"):
            run_dst(["direct"], ["A"], seeds=0, steps=1, nprocs=2, n_particles=8)

    def test_default_matrix_excludes_adaptive(self):
        assert "adaptive" not in DEFAULT_METHODS
        assert set(DEFAULT_SOLVERS) == {"direct", "ewald", "fmm", "p2nfft"}


class TestDivergenceDetection:
    """Negative paths: a tampered reference must be caught and reported."""

    def play(self, chaos_seed=None, reference=None):
        run = build_run(CellSpec("direct", "B", 4, 16), chaos_seed=chaos_seed)
        return play(run, 2, reference=reference)

    def test_tampered_state_fingerprint_fails(self):
        reference = self.play()
        bad = dataclasses.replace(reference, steps=[dict(c) for c in reference.steps])
        bad.steps[1]["positions"] = "0" * 64
        with pytest.raises(AssertionError, match="schedule-independence"):
            self.play(chaos_seed=3, reference=bad)

    def test_tampered_ledger_fails(self):
        reference = self.play()
        bad = dataclasses.replace(reference, ledger="deadbeef")
        with pytest.raises(AssertionError, match="ledger"):
            self.play(chaos_seed=3, reference=bad)

    def test_sweep_reports_failure_with_repro_command(self):
        """An injected time->physics coupling must surface as a DstFailure
        carrying a runnable one-line repro command."""
        failure = DstFailure(
            solver="fmm", method="B+move", seed=17, detail="diverged"
        )
        cmd = failure.repro_command(nprocs=4, steps=5, particles=24)
        assert cmd == (
            "python -m repro.verify dst --solvers fmm --methods 'B+move' "
            "--steps 5 --particles 24 --nprocs 4 "
            "--distributions homogeneous --seed-list 17"
        )

    def test_clustered_failure_repro_command_pins_distribution(self):
        """A failing seed on the balance perturbation axis reproduces with
        the clustered workload, not the homogeneous default."""
        failure = DstFailure(
            solver="fmm",
            method="B",
            seed=23,
            detail="diverged",
            distribution="clustered",
        )
        cmd = failure.repro_command(nprocs=4, steps=5, particles=24)
        assert cmd == (
            "python -m repro.verify dst --solvers fmm --methods 'B' "
            "--steps 5 --particles 24 --nprocs 4 "
            "--distributions clustered --seed-list 23"
        )


class TestFingerprints:
    def make_sim(self, method="B"):
        machine = Machine(4)
        sim = Simulation(
            machine,
            silica_melt_system(16, seed=0),
            SimulationConfig(solver="direct", method=method, seed=0),
        )
        auditor = enable_auditing(machine)
        sim.initialize()
        return sim, auditor

    def test_state_fingerprint_component_keys(self):
        sim, _ = self.make_sim()
        fp = state_fingerprint(sim)
        for key in ("layout", "ids", "positions", "velocities", "dynamics"):
            assert key in fp
        assert all(len(v) == 64 for v in fp.values())  # sha256 hex

    def test_state_fingerprint_tracks_state(self):
        sim, _ = self.make_sim()
        before = state_fingerprint(sim)
        assert state_fingerprint(sim) == before  # pure
        sim.step()
        after = state_fingerprint(sim)
        assert after["positions"] != before["positions"]

    def test_ledger_fingerprint_tracks_traffic(self):
        sim, auditor = self.make_sim()
        before = ledger_fingerprint(auditor)
        assert ledger_fingerprint(auditor) == before  # pure
        sim.step()
        assert ledger_fingerprint(auditor) != before


class TestCli:
    def test_dst_subcommand_smoke(self, capsys):
        from repro.verify.__main__ import main

        code = main(
            [
                "dst",
                "--solvers", "direct",
                "--methods", "A",
                "--seeds", "1",
                "--steps", "1",
                "--particles", "16",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[ok] dst:" in out

    def test_dst_subcommand_seed_list(self, capsys):
        from repro.verify.__main__ import main_dst

        code = main_dst(
            [
                "--solvers", "direct",
                "--methods", "B",
                "--seed-list", "4",
                "--steps", "1",
                "--particles", "16",
            ]
        )
        assert code == 0
        assert "seeds=1" in capsys.readouterr().out

    def test_dst_clustered_distribution_axis(self, capsys):
        """The balance perturbation axis: the two-cluster workload with
        dynamic balancing is schedule-independent — the rebalance fires at
        the same step and produces bitwise-identical state under every
        perturbation seed."""
        from repro.verify.__main__ import main_dst

        code = main_dst(
            [
                "--solvers", "fmm",
                "--methods", "B",
                "--seeds", "2",
                "--steps", "2",
                "--particles", "96",
                "--distributions", "clustered",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "distributions=['clustered']" in out

    @pytest.mark.parametrize(
        "flags, named",
        [(["--seed-list", "-1"], "--seed-list"), (["--seeds", "0"], "--seeds")],
    )
    def test_bad_seed_flags_exit_2_before_any_run(self, capsys, flags, named):
        """Was: ``--seed-list -1`` played the reference schedule, then died
        in the RNG with a numpy traceback; ``--seeds 0`` reported success."""
        from repro.verify.__main__ import main_dst

        cell = ["--solvers", "direct", "--methods", "A", "--steps", "1",
                "--particles", "8", "--nprocs", "2"]
        with pytest.raises(SystemExit) as exc:
            main_dst(cell + flags)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {named}" in captured.err
        assert "reference schedule" not in captured.out
