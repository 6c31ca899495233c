"""Fork-unsafe module state: spawn workers must never inherit it.

The coordinator process accumulates module-level mutable state as it runs:
the solver registry (``repro.core.handle``), the backend singleton table
(``repro.backend.base``), the live-shm registry (``repro.backend.shm``),
and whatever caches a prior in-process simulation warmed.  Workers are
started with the ``spawn`` method so none of that is inherited by fork —
these tests pin the property from both sides:

* **worker side** — a probe task reports what a worker interpreter
  actually holds (fresh modules, empty registries, child process),
* **coordinator side** — a process-backend run executed *after* an
  in-process run in the same pytest session (caches hot, registries
  populated, singletons live) still lands on the untouched-session
  fingerprints.
"""

from __future__ import annotations

import os

import pytest

from backend.test_equivalence_matrix import assert_cells_identical, run_cell
from repro.backend.process import ProcessBackend

#: what a worker that has run no task holds of the package
IDLE_WORKER_MODULES = [
    "repro",
    "repro.backend",
    "repro.backend.base",
    "repro.backend.process",
    "repro.backend.shm",
]


@pytest.mark.timeout(120)
def test_workers_are_spawned_children_not_forks(process_backend):
    """Probe each worker: child process, distinct PID, no inherited state."""
    reports = process_backend.map_tasks(
        "repro.backend.process._probe_worker_state",
        [() for _ in range(process_backend.workers)],
    )
    pids = {r["pid"] for r in reports}
    assert os.getpid() not in pids
    for report in reports:
        assert report["is_child"] is True
        # the coordinator's registries must not have crossed over: the
        # worker has no resolved backend singletons and no live arenas
        # of its own at rest
        assert report["backend_singletons"] == 0
        assert report["live_shm_segments"] == []


@pytest.mark.timeout(120)
def test_idle_worker_imports_the_backend_alone():
    """A fresh engine's workers, before any task, hold the backend modules
    and nothing else of the package, and no scipy: the package init leaves
    the handle out and the pair kernels bind ``erfc`` where they run."""
    backend = ProcessBackend(workers=2, timeout=120.0)
    try:
        reports = backend.map_tasks(
            "repro.backend.process._probe_worker_state", [() for _ in range(backend.workers)]
        )
    finally:
        backend.close()
    for report in reports:
        assert report["repro_modules"] == IDLE_WORKER_MODULES
        assert report["scipy_loaded"] is False


@pytest.mark.timeout(120)
def test_worker_registries_are_spawn_fresh(process_backend):
    """The coordinator's lazily-populated solver registry must not cross
    into workers.  This session has run full simulations, so the
    coordinator registry holds every built-in solver; a spawn-fresh worker
    interpreter re-imports the modules but its registry dict starts empty
    (a fork would have carried the populated one over)."""
    from repro.core.handle import available_solvers

    assert "fmm" in available_solvers()  # coordinator registry is populated
    (report,) = process_backend.map_tasks(
        "repro.backend.process._probe_worker_state", [()]
    )
    loaded = set(report["repro_modules"])
    assert "repro.backend.process" in loaded  # the worker loop itself
    assert report["solver_registry"] == []
    # simulation/verification layers are not on the worker import chain
    # either; only a task importing them brings them in
    assert "repro.md.simulation" not in loaded
    assert "repro.verify.invariants" not in loaded


@pytest.mark.timeout(240)
def test_process_run_after_inprocess_run_is_unaffected(process_backend):
    """The ordering regression: dirty the coordinator first, then check
    that a process-backend trajectory still matches the reference.

    The in-process run populates the solver registry, warms numpy and
    solver caches and touches the machine/trace plumbing; under a fork
    start method all of that would be frozen into the workers.  Under
    spawn the subsequent process-backend run must be bitwise unaffected.
    """
    reference = run_cell("fmm", "B", None)  # dirties module state too
    again = run_cell("fmm", "B", None)
    assert_cells_identical(reference, again, "fmm/B inprocess repeatability")
    candidate = run_cell("fmm", "B", process_backend)
    assert_cells_identical(reference, candidate, "fmm/B process-after-inprocess")


@pytest.mark.timeout(240)
def test_interleaving_backends_does_not_leak_state(process_backend):
    """Alternate engines within one session: every run, either engine,
    lands on the same fingerprints (no cross-run contamination through
    module state in either direction)."""
    first_process = run_cell("direct", "B+move", process_backend)
    inproc = run_cell("direct", "B+move", None)
    second_process = run_cell("direct", "B+move", process_backend)
    assert_cells_identical(first_process, inproc, "direct/B+move inproc-between")
    assert_cells_identical(first_process, second_process, "direct/B+move repeat")
