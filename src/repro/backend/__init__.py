"""repro.backend — pluggable execution engines for the virtual machine.

The simulated machine of :mod:`repro.simmpi` is the physics oracle: modeled
clocks, LogGP charges and traces never depend on the engine.  This package
decides the *hosting* — where payload bytes travel and where per-rank work
runs on the host:

* ``None`` / ``"inprocess"`` (default): no engine attached; all ranks live
  in the calling process.
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

__all__ = [
    "BACKEND_NAMES",
    "BackendError",
    "BackendWorkerError",
    "ExecutionBackend",
    "backend_spec",
    "resolve_backend",
]
