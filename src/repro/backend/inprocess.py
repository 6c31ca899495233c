"""The in-process execution engine (default).

All virtual ranks live in the calling process.  Delivery is the historical
list shuffle of :mod:`repro.simmpi.collectives` — payload *objects* are
handed to their destinations without copying, exactly what every release
before the backend seam did, so an attached ``InProcessBackend`` is
byte-identical (and object-identical) to no backend at all.
"""

from __future__ import annotations

import importlib
from typing import Callable, List, Sequence, Tuple

from repro.backend.base import ExecutionBackend

__all__ = ["InProcessBackend", "import_task"]


def import_task(fn_path: str) -> Callable:
    """Resolve a dotted ``module.attr`` path to a callable (the spawn-safe
    cross-process way to name code; the in-process engine uses the same
    resolution so both engines reject unimportable tasks identically)."""
    module_name, _, attr = fn_path.rpartition(".")
    if not module_name:
        raise ValueError(f"task path {fn_path!r} must be 'module.callable'")
    fn = getattr(importlib.import_module(module_name), attr)
    if not callable(fn):
        raise TypeError(f"task path {fn_path!r} does not name a callable")
    return fn


class InProcessBackend(ExecutionBackend):
    """Every rank in the calling process; zero-copy delivery."""

    name = "inprocess"
    workers = 0

    def deliver(self, sends, nprocs: int):
        # imported here: workers import this package and never deliver
        from repro.simmpi.collectives import deliver_inprocess

        self.counters["backend.exchanges"] += 1
        return deliver_inprocess(sends, nprocs)

    def route(self, transfers: Sequence[Tuple[int, int, object]], nprocs: int) -> List[object]:
        self.counters["backend.messages"] += len(transfers)
        return [payload for _src, _dst, payload in transfers]

    def post_ticket(self, payload):
        self.counters["backend.tickets"] += 1
        return payload

    def claim_ticket(self, ticket):
        return ticket

    def discard_ticket(self, ticket) -> None:
        pass

    def rank_map(self, fn_path: str, per_rank_args: Sequence[tuple], shared=None) -> List[object]:
        fn = import_task(fn_path)
        self.counters["backend.tasks"] += len(per_rank_args)
        return [fn(shared, *args) for args in per_rank_args]

    def map_tasks(self, fn_path: str, items: Sequence[tuple]) -> List[object]:
        fn = import_task(fn_path)
        self.counters["backend.tasks"] += len(items)
        return [fn(*item) for item in items]
