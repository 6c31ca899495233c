"""Backend observability: the host-side transport counters.

Every engine keeps monotonic ``backend.*`` counters (exchanges, messages,
shm bytes, tickets, tasks, spawn/wait nanoseconds) in
:attr:`~repro.backend.ExecutionBackend.counters`.  They are *host*
observability — none of them feed modeled time — so the only contract is
that real traffic moves them.
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.mark.timeout(120)
def test_process_counters_track_real_traffic(process_backend):
    before = dict(process_backend.counters)
    payload = np.arange(32, dtype=np.float64)
    process_backend.deliver(
        [{1: payload}, {2: payload}, {3: payload}, {0: payload}], 4
    )
    after = process_backend.counters
    assert set(after) == {
        "backend.exchanges", "backend.messages", "backend.shm_bytes", "backend.tickets",
        "backend.tasks", "backend.spawn_ns", "backend.wait_ns",
    }
    assert after["backend.exchanges"] == before["backend.exchanges"] + 1
    assert after["backend.messages"] == before["backend.messages"] + 4
    assert after["backend.shm_bytes"] > before["backend.shm_bytes"]
    assert after["backend.spawn_ns"] > 0  # workers were actually spawned
