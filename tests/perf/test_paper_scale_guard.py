"""A deterministic paper-scale guard: counts, not clocks.

One P2NFFT / method-B cell at P = 4096 — the first process count of
Fig. 9's right half no other tier-1 test reaches — with n = 32 768 and the
solver compute skipped: ``initialize`` and one steady step.  With the flat,
rank-major particle store a step builds the same handful of
``ColumnBlock`` s at any P (it built ``4P + 7``: 16 391 here), so the count
at 4096 must *equal* the count at 512; and the step's ``tracemalloc`` peak —
the delivered buffer with its ghost copies dominates it — must stay under a
stated bound.  Both numbers repeat exactly; no host clock is read.  Run by
tier-1 and by the ``perf-smoke`` CI job.
"""

import tracemalloc


from repro.bench.harness import make_system
from repro.core.particles import ColumnBlock
from repro.md.simulation import Simulation, SimulationConfig
from repro.simmpi.costmodel import JUQUEEN
from repro.simmpi.machine import Machine

N = 32768
#: 113.6 MB measured (the parent's rank-by-rank step: 115.7 MB)
PEAK_BOUND_MB = 150.0


def steady_step(nprocs, monkeypatch):
    """``(ColumnBlock constructions, tracemalloc peak in MB)`` of one steady
    step (0.02 subdomain widths of drift) after ``initialize``."""
    system = make_system(N, 1)
    config = SimulationConfig(
        solver="p2nfft", method="B", distribution="grid", seed=1, dynamics="brownian",
        brownian_step=0.02 * float(system.box.min()) / round(nprocs ** (1.0 / 3.0)),
        solver_kwargs={"compute": "skip"},
    )
    sim = Simulation(Machine(nprocs, profile=JUQUEEN), system, config)
    built = []
    init = ColumnBlock.__init__
    try:
        sim.initialize()
        monkeypatch.setattr(
            ColumnBlock, "__init__", lambda self, **cols: built.append(1) or init(self, **cols)
        )
        tracemalloc.start()
        record = sim.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.setattr(ColumnBlock, "__init__", init)
        sim.fcs.destroy()
    assert record.changed and record.strategy.startswith("grid+")
    return len(built), peak / 1e6


def test_a_step_at_4096_ranks_builds_what_a_step_at_512_builds(monkeypatch):
    small, _ = steady_step(512, monkeypatch)
    large, peak_mb = steady_step(4096, monkeypatch)
    assert large == small
    assert small <= 10  # fcs.run's nine (test_redistribution_work_counts) + the resorted store
    assert peak_mb < PEAK_BOUND_MB
