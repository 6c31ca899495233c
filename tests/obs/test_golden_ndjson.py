"""Golden NDJSON span snapshot of a 2-rank fig7-style step.

Two pins:

* the snapshot is **identical between the vectorized kernels and their
  scalar oracles** (``tests/kernel_oracles.py`` and
  ``tests/row_oracles.py``, swapped in by the ``oracle_kernels`` fixture) — the oracles must not move the modeled clock
  (or the span stream) by a single bit;
* the full snapshot digest is pinned, so any change to charge ordering,
  span schema, float accounting or the NDJSON encoding fails loudly here.
  Regenerate with ``GOLDEN = compute()`` below if the change is intended
  (and update the step-breakdown goldens together).
"""

import hashlib

from kernel_oracles import USED_BY
from row_oracles import used_by
from repro.md.simulation import Simulation, SimulationConfig
from instruments import read_ndjson
from repro.obs.export import to_ndjson
from repro.obs.spans import enable_observability
from repro.simmpi.costmodel import JUROPA
from repro.simmpi.machine import Machine
from repro.md.systems import silica_melt_system

#: sha256 over the newline-joined NDJSON lines of the 2-rank fig7 step —
#: the full-snapshot golden (charge order, span schema, float bit patterns,
#: encoding).  Regenerate via ``run_snapshot()`` when a change to the
#: cost model, solver schedule or span format is intended.
GOLDEN_DIGEST = "82c16c4f343994aada0e2a8b953496f20b290c397e6b233b8f6ec5a5ca051c27"


def run_snapshot():
    machine = Machine(2, profile=JUROPA)
    recorder = enable_observability(machine)
    system = silica_melt_system(64, seed=1)
    config = SimulationConfig(
        solver="fmm",
        method="B",
        distribution="random",
        seed=1,
        solver_kwargs={"order": 3, "depth": 3, "lattice_shells": 2},
    )
    sim = Simulation(machine, system, config)
    sim.run(1)
    return machine, recorder, to_ndjson(recorder, meta={"scenario": "fig7-2rank"})


class TestGoldenSnapshot:
    def test_vectorized_and_reference_identical(self, request):
        _, _, vec = run_snapshot()
        called = request.getfixturevalue("oracle_kernels")
        _, _, ref = run_snapshot()
        assert vec == ref
        assert called == USED_BY["fmm"] | used_by("fmm")

    def test_flat_and_per_rank_store_identical(self, request):
        """The rank-by-rank bodies the flat particle store replaced
        (``tests/store_oracles.py``) charge and record the same spans."""
        _, _, flat = run_snapshot()
        called = request.getfixturevalue("oracle_store")
        _, _, ranks = run_snapshot()
        assert ranks == flat
        assert hashlib.sha256("\n".join(ranks).encode()).hexdigest() == GOLDEN_DIGEST
        assert {"solver_run_ranks", "make_blocks_ranks", "velocity_update_ranks"} <= called

    def test_snapshot_parity_and_shape(self):
        machine, recorder, lines = run_snapshot()
        meta, spans, metrics = read_ndjson(lines)
        assert meta["complete"] is True
        assert meta["nprocs"] == 2
        # the snapshot restores bit-exactly
        assert spans == list(recorder.spans())
        # structural sections present: init, step, solver run
        sections = {s.phase for s in spans if s.kind == "section"}
        assert {"sim.initialize", "sim.step", "fcs.run"} <= sections
        assert metrics  # solver.runs, comm.* at minimum

    def test_digest_stable_across_runs(self):
        """The snapshot is run-to-run deterministic (golden digest)."""
        _, _, a = run_snapshot()
        _, _, b = run_snapshot()
        da = hashlib.sha256("\n".join(a).encode()).hexdigest()
        db = hashlib.sha256("\n".join(b).encode()).hexdigest()
        assert da == db

    def test_golden_digest_pinned(self):
        _, _, lines = run_snapshot()
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == GOLDEN_DIGEST, (
            "the 2-rank fig7 span snapshot changed; if intended, update "
            "GOLDEN_DIGEST (and review the step-breakdown goldens)"
        )
