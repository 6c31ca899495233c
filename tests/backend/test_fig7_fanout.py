"""Fig. 7 fanned out over worker processes equals the serial run.

``fig7(preset, backend=...)`` runs its four independent (solver, method)
cells as ``map_tasks`` tasks; each is a whole simulation on its own machine,
so the worker-side results must be the serial ones to the last bit.
"""

from __future__ import annotations

import pytest

from repro.backend.process import ProcessBackend
from repro.bench.figures import fig7


@pytest.mark.timeout(240)
def test_fig7_over_process_backend_equals_serial():
    # an engine of its own: the cells import the solvers into the workers,
    # and the session engine's workers must stay spawn-fresh (test_fork_state)
    backend = ProcessBackend(workers=2, timeout=120.0)
    try:
        fanned = fig7("quick", quiet=True, backend=backend)
    finally:
        backend.close()
    assert fanned == fig7("quick", quiet=True)
