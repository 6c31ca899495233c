"""Execution-backend abstraction: who hosts the virtual ranks.

Every subsystem of this reproduction drives the *simulated* machine — the
virtual clocks, the LogGP cost model and the trace are the physics of the
experiment and never depend on where Python code actually executes.  An
:class:`ExecutionBackend` decides the *hosting*: where payload bytes travel
when ranks communicate and where per-rank work runs on the host.

With no backend attached (the default, spelled ``None`` or
``"inprocess"``) every virtual rank lives in the calling process and
payload delivery is :func:`~repro.simmpi.collectives.deliver_inprocess`.
One engine ships:

* :class:`~repro.backend.process.ProcessBackend` — each virtual rank is
  owned by a real ``multiprocessing`` worker (rank ``r`` → worker
  ``r % workers``); alltoallv/p2p payload bytes physically traverse
  POSIX shared memory (an exchange descriptor once, as a whole) and the
  destination rank's worker performs the receive-side assembly, while
  modeled costs are still charged centrally
  so traces, ledgers and state fingerprints stay **bitwise identical** to
  the in-process run.

Test doubles subclass :class:`ExecutionBackend` directly and deliver through
``deliver_inprocess``.

Backends are deliberately *transport + task* layers, not schedulers: the
charging code in :mod:`repro.simmpi` never moves, which is what makes the
cross-backend differential matrix (``tests/backend``) a pure equality
assertion.
"""

from __future__ import annotations

import atexit
import threading
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "BACKEND_NAMES",
    "BackendError",
    "BackendWorkerError",
    "ExecutionBackend",
    "backend_spec",
    "resolve_backend",
]

#: the engine names accepted by ``SimulationConfig.backend`` and the CLIs
BACKEND_NAMES = ("inprocess", "process")


class BackendError(RuntimeError):
    """A backend-level failure (bad spec, use after close, ...)."""


class BackendWorkerError(BackendError):
    """A worker process died or reported a failure; names the dead ranks."""


class ExecutionBackend:
    """Interface every execution engine implements.

    The payload vocabulary is that of :mod:`repro.simmpi.collectives`: a
    payload is ``None``, an ``ndarray``, or a tuple/list of ndarrays.
    """

    #: engine name ("process")
    name: str = "abstract"
    #: number of worker processes (0 = the calling process hosts all ranks)
    workers: int = 0

    def __init__(self) -> None:
        #: monotonic host-side transport counters
        self.counters: Dict[str, int] = {
            "backend.exchanges": 0,
            "backend.messages": 0,
            "backend.shm_bytes": 0,
            # no caller; kept only because perfbench/trace.py::LAYERS traces the ticket trio
            "backend.tickets": 0,
            "backend.tasks": 0,
            "backend.spawn_ns": 0,
            "backend.wait_ns": 0,
        }

    # -- transport ----------------------------------------------------------------

    def deliver(self, sends, nprocs: int):
        """Move the data of one alltoallv, given in either form
        :func:`repro.simmpi.collectives.alltoallv` takes.

        An :class:`~repro.simmpi.collectives.Exchange` is moved as a whole
        and comes back as ``(columns, recv_offsets)`` in fresh buffers; a
        ``list[dict]`` comes back as ``recv`` with ``recv[j]`` a
        source-sorted list of ``(source_rank, payload)``.
        """
        raise NotImplementedError

    def route(self, transfers: Sequence[Tuple[int, int, object]], nprocs: int) -> List[object]:
        """Ship a batch of point-to-point payloads ``(src, dst, payload)``.

        Returns the payloads as observed at the destinations, in input
        order (self-transfers are returned as-is, like an MPI local
        delivery).
        """
        raise NotImplementedError

    # -- host-side execution ---------------------------------------------------------

    def rank_map(self, fn_path: str, per_rank_args: Sequence[tuple], shared=None) -> List[object]:
        """Run ``fn(shared, *per_rank_args[r])`` for every rank ``r``.

        ``fn_path`` is a dotted module path to a top-level callable (the
        spawn-safe way to name code across processes); rank ``r`` executes
        on its owning worker.  Results come back in rank order.
        """
        raise NotImplementedError

    def map_tasks(self, fn_path: str, items: Sequence[tuple]) -> List[object]:
        """Run ``fn(*items[i])`` for every item, distributed over workers;
        results in item order.  The generic fan-out used by the perf
        harness to run independent benchmark cells concurrently."""
        raise NotImplementedError

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Tear down workers and transport resources (idempotent)."""

    @property
    def closed(self) -> bool:
        return False

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


# ------------------------------------------------------------------ resolution


_singletons_lock = threading.Lock()
_singletons: Dict[str, ExecutionBackend] = {}


def backend_spec(backend) -> Optional[str]:
    """The plain-string spec of a backend knob value (for checkpoints).

    Strings pass through; an :class:`ExecutionBackend` instance maps to its
    engine name (worker count is a host property, not simulation state);
    ``None`` stays ``None``.
    """
    if backend is None or isinstance(backend, str):
        return backend
    if isinstance(backend, ExecutionBackend):
        return backend.name
    raise BackendError(
        f"backend must be None, a spec string or an ExecutionBackend, "
        f"got {type(backend).__name__}"
    )


def _parse_spec(spec: str) -> Tuple[str, Optional[int]]:
    name, _, arg = spec.partition(":")
    workers: Optional[int] = None
    if arg:
        try:
            workers = int(arg)
        except ValueError:
            raise BackendError(
                f"malformed backend spec {spec!r}: worker count must be an "
                f"integer (e.g. 'process:4')"
            ) from None
        if workers < 1:
            raise BackendError(
                f"malformed backend spec {spec!r}: worker count must be >= 1"
            )
    if name not in BACKEND_NAMES:
        raise BackendError(
            f"unknown backend {name!r}; pick from {BACKEND_NAMES} "
            f"(optionally 'process:N' for N workers)"
        )
    if name == "inprocess" and workers is not None:
        raise BackendError("the inprocess backend takes no worker count")
    return name, workers


def resolve_backend(spec) -> Optional[ExecutionBackend]:
    """Resolve a backend knob value to a live engine, or ``None``.

    ``spec`` may be an :class:`ExecutionBackend` (returned as-is), ``None``
    or ``"inprocess"`` (no engine: the calling process hosts every rank),
    ``"process"`` (a process-wide shared :class:`ProcessBackend` with the
    default worker count) or ``"process:N"``.  Shared engines are created
    lazily, reused across calls — spawning workers is expensive — and
    closed at interpreter exit.
    """
    if isinstance(spec, ExecutionBackend):
        if spec.closed:
            raise BackendError(f"backend {spec!r} is closed")
        return spec
    if spec is None:
        return None
    if not isinstance(spec, str):
        raise BackendError(
            f"backend must be None, a spec string or an ExecutionBackend, "
            f"got {type(spec).__name__}"
        )
    name, workers = _parse_spec(spec)
    if name == "inprocess":
        return None
    key = name if workers is None else f"{name}:{workers}"
    with _singletons_lock:
        engine = _singletons.get(key)
        if engine is not None and not engine.closed:
            return engine
        from repro.backend.process import ProcessBackend, default_worker_count

        engine = ProcessBackend(workers=workers or default_worker_count())
        _singletons[key] = engine
        return engine


@atexit.register
def _close_singletons() -> None:  # pragma: no cover - interpreter teardown
    with _singletons_lock:
        engines = list(_singletons.values())
        _singletons.clear()
    for engine in engines:
        try:
            engine.close()
        except Exception:
            pass
