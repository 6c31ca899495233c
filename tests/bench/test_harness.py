"""Benchmark harness pieces: breakdowns, presets, report formatting."""

import numpy as np
import pytest

from repro.bench.harness import PRESETS, make_system, step_breakdown
from repro.bench.report import format_series, format_table
from repro.md.simulation import Simulation, SimulationConfig
from repro.simmpi.machine import Machine


class TestPresets:
    def test_names(self):
        assert set(PRESETS) == {"quick", "default", "full"}

    def test_full_is_paper_scale(self):
        full = PRESETS["full"]
        assert full.n == 829_440
        assert full.nprocs == 256
        assert full.steps_fig8 == 1000
        assert 16384 in full.fig9_p2nfft_procs

    def test_scaling_order(self):
        assert PRESETS["quick"].n < PRESETS["default"].n <= PRESETS["full"].n


class TestStepBreakdown:
    def test_decomposition(self, small_system):
        m = Machine(4)
        cfg = SimulationConfig(
            solver="p2nfft",
            method="B",
            distribution="random",
            solver_kwargs={"compute": "skip"},
        )
        sim = Simulation(m, small_system, cfg)
        sim.run(1)
        b = step_breakdown(sim.records[1])
        assert b["sort"] > 0
        assert b["resort"] > 0
        assert b["restore"] == 0
        assert b["total"] >= b["sort"] + b["resort"]
        assert b["redist"] >= b["sort"] + b["resort"]


class TestFactories:
    def test_make_system_cached(self):
        a = make_system(400, 1)
        b = make_system(400, 1)
        assert a is b


class TestReport:
    def test_format_table(self):
        out = format_table(["a", "b"], [["x", 1.5], ["yyy", 2.0]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "---" in lines[1]
        assert "1.5000e+00" in lines[2]

    def test_format_series(self):
        out = format_series("step", [1, 2], {"s1": [0.1, 0.2], "s2": [1.0, 2.0]})
        assert "step" in out and "s1" in out and "s2" in out
        assert len(out.splitlines()) == 4
