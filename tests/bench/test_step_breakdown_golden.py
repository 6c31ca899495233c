"""Golden-trace snapshot of ``bench.harness.step_breakdown``.

The benchmark figures decompose step times by phase label; a renamed or
dropped trace phase silently vanishes from those figures.  This test pins
the exact phase-label sets of one small method-A and one method-B run and
the breakdown keys, so any relabeling fails loudly here instead.
"""

import numpy as np
import pytest

from repro.bench.harness import (
    RESORT_PHASES,
    RESTORE_PHASES,
    SOLVER_PHASES,
    SORT_PHASES,
    step_breakdown,
)
from repro.md.simulation import (
    REDISTRIBUTION_PHASES,
    Simulation,
    SimulationConfig,
    StepRecord,
)
from repro.md.systems import silica_melt_system
from repro.simmpi.machine import Machine
from repro.simmpi.tracing import PhaseStats

#: the exact keys every step_breakdown must expose (figure columns)
GOLDEN_BREAKDOWN_KEYS = {"sort", "restore", "resort", "total", "redist"}

#: phase labels of one small FMM step under each method (golden snapshot)
GOLDEN_PHASES = {
    "A": {"far", "halo", "integrate", "keygen", "near", "restore", "sort"},
    "B": {"far", "halo", "integrate", "keygen", "near", "resort", "resort_index", "sort"},
}


def run_small(method):
    machine = Machine(4)
    sim = Simulation(
        machine,
        silica_melt_system(32, seed=3),
        SimulationConfig(
            solver="fmm",
            method=method,
            seed=3,
            solver_kwargs={"order": 3, "depth": 3, "lattice_shells": 2},
        ),
    )
    sim.run(2)
    return sim.records[-1]


class TestStepBreakdownGolden:
    @pytest.mark.parametrize("method", ["A", "B"])
    def test_breakdown_keys_pinned(self, method):
        breakdown = step_breakdown(run_small(method))
        assert set(breakdown) == GOLDEN_BREAKDOWN_KEYS

    @pytest.mark.parametrize("method", ["A", "B"])
    def test_phase_labels_pinned(self, method):
        record = run_small(method)
        assert set(record.phases) == GOLDEN_PHASES[method], (
            "trace phase labels changed; update the harness phase constants "
            "(SORT/RESTORE/RESORT/SOLVER_PHASES), the figures and this "
            "snapshot together"
        )

    def test_breakdown_semantics(self):
        rec_a, rec_b = run_small("A"), run_small("B")
        bd_a, bd_b = step_breakdown(rec_a), step_breakdown(rec_b)
        # method A restores, never resorts; method B the other way around
        assert bd_a["restore"] > 0 and bd_a["resort"] == 0
        assert bd_b["resort"] > 0 and bd_b["restore"] == 0
        for rec, bd in ((rec_a, bd_a), (rec_b, bd_b)):
            # redist = sort + restore + resort + resort-index creation
            assert bd["redist"] == pytest.approx(
                bd["sort"]
                + bd["restore"]
                + bd["resort"]
                + rec.phase_time("resort_index")
            )
            assert 0 < bd["redist"] < bd["total"]

    def test_redist_counts_exactly_the_shared_redistribution_phases(self):
        """``step_breakdown`` keeps its own (pinned) float grouping, but the
        set of phases its ``redist`` counts is the one shared tuple of
        ``repro.md.simulation`` that the adaptive controller, the
        differential oracle and the examples use."""
        labels = set(SOLVER_PHASES) | set(REDISTRIBUTION_PHASES) | {"integrate"}
        counted = set()
        for label in labels:
            rec = StepRecord(
                step=1, phases={label: PhaseStats(time=1.0)}, total_time=1.0,
                max_move=0.0, changed=False, strategy="",
            )
            assert step_breakdown(rec)["redist"] in (0.0, 1.0)
            if step_breakdown(rec)["redist"]:
                counted.add(label)
            assert rec.redistribution_time() == step_breakdown(rec)["redist"]
        assert counted == set(REDISTRIBUTION_PHASES)

    def test_harness_constants_cover_breakdown(self):
        """The breakdown is computed from the harness phase constants; the
        golden label sets must stay consistent with them."""
        redist_labels = set(SORT_PHASES) | set(RESTORE_PHASES) | set(RESORT_PHASES)
        assert redist_labels == {"sort", "restore", "resort", "resort_plan"}
        for method, labels in GOLDEN_PHASES.items():
            # every redistribution label the run produced is accounted for
            produced = labels & redist_labels
            assert produced, f"method {method} produced no redistribution phase"
