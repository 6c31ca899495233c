"""Figure parameters and the fallback share a figure cell reports."""

import dataclasses

import pytest

import repro.bench.figures as figures
from repro.bench.__main__ import main
from repro.bench.harness import PRESETS
from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.simmpi.costmodel import JUQUEEN
from repro.simmpi.machine import Machine
from repro.verify.trajectory import CellSpec, build_run, fallback_fraction, run_cell


@pytest.fixture
def tiny(monkeypatch):
    """A preset small enough to run a whole figure in a test."""
    scale = dataclasses.replace(
        PRESETS["quick"], name="tiny", n=512, nprocs=8, steps_fig8=3,
        fig9_fmm_procs=(8,), fig9_p2nfft_procs=(16,), fig9_n=512,
    )
    monkeypatch.setitem(PRESETS, "tiny", scale)
    return "tiny"


class TestFig8Steps:
    def test_none_runs_the_preset_steps(self, tiny):
        results = figures.fig8(tiny, quiet=True)
        assert len(results["fmm"]["A"]["total"]) == PRESETS[tiny].steps_fig8

    def test_explicit_steps(self, tiny):
        results = figures.fig8(tiny, steps=2, quiet=True)
        assert len(results["p2nfft"]["B"]["redist"]) == 2

    @pytest.mark.parametrize("steps", [0, -5])
    def test_fewer_than_one_step_names_steps(self, tiny, steps):
        with pytest.raises(ValueError, match=r"^steps must be >= 1"):
            figures.fig8(tiny, steps=steps, quiet=True)

    def test_cli_rejects_steps_for_other_figures(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fig7", "--preset", "quick", "--steps", "3"])
        assert exit_info.value.code == 2
        assert "--steps applies to fig8 only" in capsys.readouterr().err


class TestFallbackFraction:
    def test_counts_b_steps_after_the_initial_run(self):
        """Arrays with no headroom: P2NFFT's layout fits the initial run but
        not one drift step after it."""
        system = silica_melt_system(100, seed=1)
        subdomain = float(system.box.min()) / 4
        config = SimulationConfig(
            solver="p2nfft", method="B", distribution="grid", seed=1,
            dynamics="brownian", brownian_step=0.02 * subdomain,
            capacity_factor=1.0, solver_kwargs={"compute": "skip"},
        )
        sim = Simulation(Machine(64, profile=JUQUEEN), system, config)
        sim.run(3)
        assert [r.changed for r in sim.records] == [True, False, False, False]
        assert fallback_fraction(sim.records) == 1.0
        assert fallback_fraction(sim.records[:1]) == 0.0

    def test_cell_result_carries_it(self):
        spec = CellSpec(
            "p2nfft", "B", 16, 256, seed=1, system="exponential-slab",
            physics=False, drift=((2, 0.02, 1),),
        )
        assert run_cell(spec).fallback == 1.0
        method_a = run_cell(dataclasses.replace(spec, method="A"))
        assert not any(r.changed for r in method_a.records)
        assert method_a.fallback == 0.0

    def test_fig9_reports_and_prints_it(self, tiny, monkeypatch, capsys):
        results = figures.fig9(tiny)
        assert results["fmm"]["fallback"] == {"A": [0.0], "B": [0.0], "B+move": [0.0]}
        assert "fell back" not in capsys.readouterr().out

        honest = figures.run_cells

        def half_fall_back(specs, backend=None):
            return [
                dataclasses.replace(result, fallback=0.5 if spec.method == "B" else 0.0)
                for spec, result in zip(specs, honest(specs, backend))
            ]

        monkeypatch.setattr(figures, "run_cells", half_fall_back)
        results = figures.fig9(tiny, solvers=("p2nfft",))
        assert results["p2nfft"]["fallback"]["B"] == [0.5]
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "share of B steps that fell back to A: B P=16 50%"


def test_drift_width_is_float_exact():
    """A ``(steps, width, divisor)`` entry is ``width * subdomain / divisor``
    bit for bit: fig8's ``quick`` step differs in the last bit from
    ``(width / divisor) * subdomain``."""
    spec = CellSpec(
        "fmm", "A", 64, 16384, seed=1, placement="grid", physics=False,
        drift=((60, 6.0, 60),),
    )
    sim = build_run(spec, audit=False).sim
    subdomain = float(sim.system.box.min()) / 4
    assert sim.config.brownian_step == 6.0 * subdomain / 60 != (6.0 / 60) * subdomain
    sim.fcs.destroy()


def test_drift_needs_brownian_dynamics():
    with pytest.raises(ValueError, match="physics=False"):
        CellSpec("fmm", "B", 2, 12, drift=((1, 0.01, 1),))
