"""Timeout/teardown hardening: a dead worker is a diagnostic, not a hang.

Crash tests use their own throwaway :class:`ProcessBackend` instances (a
crash poisons the pool by design — rank-payload state died with the
worker), run under the conftest watchdog so a regression fails fast, and
finish with the autouse leak fixture verifying that error paths released
every shared-memory segment.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.backend import BackendError, BackendWorkerError, shm
from repro.backend.process import ProcessBackend
from repro.simmpi import Machine
from repro.simmpi.collectives import Exchange, alltoallv


def _sends(nprocs=4):
    """A full ring exchange so every worker participates."""
    return [
        {(src + 1) % nprocs: np.full(8, float(src))} for src in range(nprocs)
    ]


@pytest.mark.timeout(120)
def test_worker_crash_surfaces_named_diagnostic(watchdog):
    backend = ProcessBackend(workers=2, timeout=60.0)
    try:
        backend.kill_worker(1, exitcode=3)
        with pytest.raises(BackendWorkerError) as exc:
            watchdog(lambda: backend.deliver(_sends(), 4), timeout=90.0)
        message = str(exc.value)
        # the diagnostic must name the dead worker, the virtual ranks it
        # owned, how it died, and that the exchange is unrecoverable
        assert "worker 1" in message
        assert "virtual ranks 1, 3" in message
        assert "exitcode=3" in message
        assert "the exchange cannot complete" in message
    finally:
        backend.close()


@pytest.mark.timeout(120)
def test_pool_is_poisoned_after_crash(watchdog):
    """After a worker death the backend refuses further work outright."""
    backend = ProcessBackend(workers=2, timeout=60.0)
    try:
        backend.kill_worker(0)
        with pytest.raises(BackendWorkerError):
            watchdog(lambda: backend.deliver(_sends(), 4), timeout=90.0)
        assert backend.closed
        with pytest.raises(BackendError):
            backend.deliver(_sends(), 4)
    finally:
        backend.close()


@pytest.mark.timeout(120)
def test_crash_mid_exchange_releases_arenas(watchdog):
    """Error paths must release send+recv arenas (finally-block contract);
    the autouse fixture re-checks after teardown."""
    backend = ProcessBackend(workers=2, timeout=60.0)
    try:
        backend.kill_worker(1)
        with pytest.raises(BackendWorkerError):
            watchdog(lambda: backend.deliver(_sends(), 4), timeout=90.0)
        assert shm.live_segments() == []
    finally:
        backend.close()


@pytest.mark.timeout(120)
@pytest.mark.parametrize("algos", [None, "bruck"])
def test_worker_killed_while_an_exchange_is_in_flight(watchdog, algos):
    """The worker dies with the job of a descriptor exchange already in its
    pipe (``kill_worker`` alone returns only once the corpse is cold, and the
    *send* fails): the coordinator is left collecting from a dead process.
    One ``BackendWorkerError`` naming the ranks that went with it, no segment
    left in ``/dev/shm``, the backend closed — staged rounds or not, since
    the bytes travel once, after the rounds.  (The per-message transport of
    the parent passed this too; it is here so the one transport keeps it.)"""
    backend = ProcessBackend(workers=2, timeout=60.0)
    send = backend._send

    def dying_send(worker, msg, op, nprocs=None):
        if worker == 1:
            backend._conns[1].send(("exit", 3))  # read, and obeyed, before the job
        send(worker, msg, op, nprocs)

    backend._send = dying_send
    machine = Machine(4)
    machine.attach_backend(backend)
    machine.set_collective_algos(algos)
    ring = Exchange(
        (np.arange(8.0),), np.arange(8), np.arange(4), (np.arange(4) + 1) % 4, np.arange(0, 9, 2)
    )
    try:
        with pytest.raises(BackendWorkerError) as exc:
            watchdog(lambda: alltoallv(machine, ring, "x"), timeout=90.0)
        message = str(exc.value)
        assert "worker 1" in message and "virtual ranks 1, 3" in message
        assert "exitcode=3" in message and "the exchange cannot complete" in message
        assert backend.closed
        assert shm.live_segments() == []
        assert glob.glob(f"/dev/shm/repro-shm-{os.getpid()}-*") == []
        # one diagnosis: from here on the backend only says that it is closed
        with pytest.raises(BackendError, match="closed") as again:
            alltoallv(machine, ring, "x")
        assert not isinstance(again.value, BackendWorkerError)
    finally:
        backend.close()


@pytest.mark.timeout(120)
def test_task_exception_names_worker_and_op(watchdog):
    """A task raising inside a worker is an error report, not a crash: the
    pool stays usable and the traceback crosses the pipe."""
    backend = ProcessBackend(workers=2, timeout=60.0)
    try:
        with pytest.raises(BackendWorkerError) as exc:
            watchdog(
                lambda: backend.map_tasks("math.sqrt", [(-1.0,)]), timeout=90.0
            )
        assert "failed during" in str(exc.value)
        assert "math domain error" in str(exc.value)
        assert not backend.closed
        # still alive and correct after the failed call
        assert backend.map_tasks("math.hypot", [(3.0, 4.0)]) == [5.0]
    finally:
        backend.close()


@pytest.mark.timeout(120)
def test_close_is_idempotent_and_final():
    backend = ProcessBackend(workers=2, timeout=60.0)
    assert backend.ping() == backend.ping()  # workers answer consistently
    backend.close()
    backend.close()  # idempotent
    assert backend.closed
    with pytest.raises(BackendError):
        backend.ping()


@pytest.mark.timeout(120)
def test_closed_backend_cannot_attach(process_backend):
    """machine.attach_backend refuses a dead engine up front."""
    from repro.simmpi.machine import Machine

    backend = ProcessBackend(workers=1, timeout=60.0)
    backend.close()
    with pytest.raises(RuntimeError):
        Machine(4).attach_backend(backend)
    # a live engine attaches fine (sanity check on the positive path)
    Machine(4).attach_backend(process_backend)
