"""repro.backend — pluggable execution engines for the virtual machine.

The simulated machine of :mod:`repro.simmpi` is the physics oracle: modeled
clocks, LogGP charges and traces never depend on the engine.  This package
decides the *hosting* — where payload bytes travel and where per-rank work
runs on the host:

* ``"inprocess"`` (default): all ranks in the calling process, byte- and
  object-identical to builds that predate this package.
* ``"process"`` / ``"process:N"``: virtual ranks hosted by real
  ``multiprocessing`` workers; payload bytes traverse POSIX shared memory
  while modeled costs are still charged centrally, keeping fingerprints
  bitwise-identical.

Select an engine with ``SimulationConfig(backend="process")``,
``machine.attach_backend(resolve_backend("process:4"))``, or the
``--backend`` flag of ``repro.verify``.  See ``docs/backends.md``.
"""

from repro.backend.base import (
    BACKEND_NAMES,
    BackendError,
    BackendWorkerError,
    ExecutionBackend,
    backend_spec,
    resolve_backend,
)
from repro.backend.inprocess import InProcessBackend

__all__ = [
    "BACKEND_NAMES",
    "BackendError",
    "BackendWorkerError",
    "ExecutionBackend",
    "InProcessBackend",
    "backend_spec",
    "resolve_backend",
    "export_metrics",
]


def export_metrics(backend, registry) -> None:
    """Publish a backend's transport counters as ``backend.*`` gauges on an
    observability registry (:class:`repro.obs.MetricsRegistry`).

    Schema (all monotonic over the backend's lifetime):

    ==========================  =====================================================
    metric                      meaning
    ==========================  =====================================================
    ``backend.exchanges``       alltoallv deliveries routed through the engine
    ``backend.messages``        inter-rank point-to-point payloads shipped
    ``backend.shm_bytes``       payload bytes that traversed shared memory
    ``backend.tickets``         SPMD mailbox payloads posted
    ``backend.tasks``           per-rank / fan-out task invocations
    ``backend.spawn_ns``        host ns spent spawning worker processes
    ``backend.wait_ns``         host ns the coordinator spent awaiting workers
    ``backend.workers``         configured worker count (0 = in-process)
    ==========================  =====================================================
    """
    for key, value in backend.counters.items():
        registry.gauge(key).set(float(value))
    registry.gauge("backend.workers").set(float(backend.workers))
