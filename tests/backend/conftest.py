"""Fixtures for the cross-backend differential suite.

Two invariants every test in this directory runs under:

* **no leaked shared memory** — ``assert_no_shm_leaks`` (autouse) fails any
  test that leaves a ``SharedMemory`` segment created by this process
  unreleased, including tests that kill workers mid-exchange;
* **no hangs** — process-backend tests carry ``pytest.mark.timeout``
  markers (honored when pytest-timeout is installed) *and* the hang-prone
  ones run under :func:`run_with_watchdog`, which fails the test from a
  watchdog thread even without the plugin.
"""

from __future__ import annotations

import threading

import pytest

from repro.backend import shm
from repro.backend.process import ProcessBackend
from repro.simmpi import Machine
from repro.verify.audit import enable_auditing


@pytest.fixture(autouse=True)
def assert_no_shm_leaks():
    """Every test must release the shared-memory segments it creates."""
    before = set(shm.live_segments())
    yield
    leaked = sorted(set(shm.live_segments()) - before)
    assert not leaked, f"leaked shared-memory segments: {leaked}"


@pytest.fixture(scope="session")
def process_backend():
    """One shared 2-worker process engine for the whole session (spawning
    workers is the expensive part; the engine is stateless between calls)."""
    backend = ProcessBackend(workers=2, timeout=120.0)
    yield backend
    backend.close()


@pytest.fixture(params=["direct", "bruck", "pairwise", "process", "bruck+process"])
def make_machine(request):
    """Audited machines of one variant: closed-form or staged charging,
    in-process or process-backend delivery.  An exchange descriptor is
    delivered whole on every one of them."""

    def make(nprocs, neighbor_table=None):
        machine = Machine(nprocs)
        algo = request.param.partition("process")[0].rstrip("+")
        if request.param.endswith("process"):
            machine.attach_backend(request.getfixturevalue("process_backend"))
        if algo not in ("", "direct"):
            machine.set_collective_algos(algo)
        enable_auditing(machine, neighbor_table=neighbor_table)
        return machine

    return make


@pytest.fixture
def watchdog():
    """Hang-proofing helper: run a callable on a daemon thread and fail the
    test if it doesn't finish — a stuck exchange must become a test
    failure, never a stuck pytest.
    Returns the callable's value, re-raises its exception.
    """

    def run_with_watchdog(fn, timeout=90.0):
        result: dict = {}

        def target():
            try:
                result["value"] = fn()
            except BaseException as exc:  # surfaces in the calling thread
                result["error"] = exc

        t = threading.Thread(target=target, daemon=True)
        t.start()
        t.join(timeout)
        if t.is_alive():
            pytest.fail(f"operation did not finish within {timeout}s (hang)")
        if "error" in result:
            raise result["error"]
        return result.get("value")

    return run_with_watchdog
