"""The multiprocess execution engine: one worker pool hosting the virtual ranks.

Rank ``r`` is owned by worker ``r % workers``.  Control flows over
duplex pipes; bulk payload bytes flow through POSIX shared memory
(:mod:`repro.backend.shm`):

* :meth:`ProcessBackend.deliver` / :meth:`ProcessBackend.route` — the
  coordinator packs every inter-rank payload column into a *send arena*,
  each destination rank's worker copies its inbound blocks into the
  *receive arena*, and the coordinator decodes fresh arrays.  Every
  inter-rank byte of an alltoallv / p2p round therefore physically
  traverses shared memory and the destination worker.  An exchange
  descriptor (:class:`~repro.simmpi.collectives.Exchange`) makes that trip
  once, whole: its column buffers and its receive-row index go into one
  send arena, and every worker gathers the received rows of the ranks it
  owns into one receive arena.
* :meth:`ProcessBackend.post_ticket` / :meth:`~ProcessBackend.claim_ticket`
  — one arena per parked payload; nothing calls them.
* :meth:`ProcessBackend.rank_map` / :meth:`ProcessBackend.map_tasks` —
  per-rank compute and generic task fan-out on the workers (tasks are
  named by dotted import path, the spawn-safe way to reference code).

Workers are started with the **spawn** method, never fork: a forked child
would inherit whatever module-level state the coordinator has accumulated
(observability rings, cached plans, RNG state), and
the cross-backend equivalence contract requires workers to start from a
clean import (see ``tests/backend/test_process_isolation.py``).

Modeled time is *never* charged here.  The cost model runs centrally in
:mod:`repro.simmpi` before delivery, so a process-backend run's trace,
ledger and state fingerprints are bitwise those of the in-process run; this
layer only decides where host wall-clock is spent.

Failure semantics: a worker death is detected by the coordinator's poll
loop and surfaces as :class:`~repro.backend.base.BackendWorkerError`
naming the worker, its owned virtual ranks and the exit code — an exchange
never hangs on a corpse.  After a worker death the backend refuses further
work (``closed``), since rank state is gone.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import shm as _shm
from repro.backend.base import BackendError, BackendWorkerError, ExecutionBackend

__all__ = ["ProcessBackend", "default_worker_count", "import_task"]


def import_task(fn_path: str) -> Callable:
    """Resolve a dotted ``module.attr`` path to a callable (the spawn-safe
    cross-process way to name code)."""
    module_name, _, attr = fn_path.rpartition(".")
    if not module_name:
        raise ValueError(f"task path {fn_path!r} must be 'module.callable'")
    fn = getattr(importlib.import_module(module_name), attr)
    if not callable(fn):
        raise TypeError(f"task path {fn_path!r} does not name a callable")
    return fn


def default_worker_count() -> int:
    """Workers for a bare ``"process"`` spec: up to 4, capped at the host's
    cores (more workers than cores only adds scheduling overhead)."""
    return max(1, min(4, os.cpu_count() or 1))


# ------------------------------------------------------------------ worker side


def _probe_worker_state() -> dict:
    """Spawn-cleanliness probe (runs *inside a worker* via ``map_tasks``).

    Workers are started with the ``spawn`` method precisely so that no
    coordinator-side module state — solver registries, backend singletons,
    live shm registries, warmed caches — leaks into them by fork.  The
    fork-state regression suite asserts on this report: a worker
    interpreter holds only the modules the backend itself needs, and none
    of the coordinator's mutable registries carry entries.
    """
    import multiprocessing
    import sys

    from repro.backend import base as _base
    from repro.core import handle as _handle

    return {
        "pid": os.getpid(),
        "is_child": multiprocessing.parent_process() is not None,
        "repro_modules": sorted(
            name for name in sys.modules if name.startswith("repro")
        ),
        "backend_singletons": len(_base._singletons),
        "solver_registry": sorted(_handle._REGISTRY),
        "live_shm_segments": _shm.live_segments(),
    }


def _worker_main(worker_index: int, conn) -> None:
    """Worker loop: copy jobs, task calls, shutdown.  Runs in the child."""
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # coordinator is gone
            return
        kind = msg[0]
        if kind == "shutdown":
            try:
                conn.send(("bye",))
            except (BrokenPipeError, OSError):
                pass
            return
        try:
            if kind == "copy":
                _, in_name, out_name, jobs = msg
                copied = 0
                with _shm.ShmArena.attach(in_name) as src, _shm.ShmArena.attach(out_name) as dst:
                    for offset, nbytes in jobs:
                        dst.buf[offset : offset + nbytes] = src.buf[offset : offset + nbytes]
                        copied += nbytes
                conn.send(("ok", copied))
            elif kind == "gather":
                # the receive side of one exchange for the ranks this worker
                # owns: out[rows] = column[index[rows]] (no arena view outlives
                # its statement, so the arenas detach cleanly)
                _, in_name, out_name, index_meta, columns, recv_offsets, workers = msg
                ranks = np.arange(recv_offsets.shape[0] - 1)
                owned = np.flatnonzero(
                    np.repeat(ranks % workers == worker_index, np.diff(recv_offsets))
                )
                with _shm.ShmArena.attach(in_name) as src, _shm.ShmArena.attach(out_name) as dst:
                    picked = _shm.column_view(src.buf, index_meta)[owned]
                    for in_meta, out_meta in columns:
                        _shm.column_view(dst.buf, out_meta)[owned] = np.take(
                            _shm.column_view(src.buf, in_meta), picked, axis=0
                        )
                conn.send(("ok", owned.shape[0]))
            elif kind == "call":
                _, fn_path, with_shared, shared, items = msg
                fn = import_task(fn_path)
                results = []
                for slot, args in items:
                    out = fn(shared, *args) if with_shared else fn(*args)
                    results.append((slot, out))
                conn.send(("ok", results))
            elif kind == "ping":
                conn.send(("ok", worker_index, os.getpid()))
            elif kind == "exit":  # test hook: simulate a crash
                os._exit(int(msg[1]))
            else:
                conn.send(("err", f"unknown request {kind!r}", ""))
        except BaseException as exc:  # report, keep serving
            conn.send(
                ("err", f"{type(exc).__name__}: {exc}", traceback.format_exc())
            )


# ------------------------------------------------------------- coordinator side


class ProcessBackend(ExecutionBackend):
    """Real ``multiprocessing`` workers hosting the virtual ranks."""

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        timeout: float = 300.0,
    ) -> None:
        super().__init__()
        import multiprocessing

        self.workers = int(workers) if workers is not None else default_worker_count()
        if self.workers < 1:
            raise BackendError(f"need at least one worker, got {self.workers}")
        self.timeout = float(timeout)
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.RLock()
        self._tickets: Dict[str, Tuple[_shm.ShmArena, object]] = {}
        self._ticket_seq = 0
        self._closed = False
        self._procs = []
        self._conns = []
        t0 = time.perf_counter_ns()
        for w in range(self.workers):
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            proc = self._ctx.Process(
                target=_worker_main,
                args=(w, child_conn),
                name=f"repro-backend-{w}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        self.counters["backend.spawn_ns"] += time.perf_counter_ns() - t0

    # -- bookkeeping --------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def owned_ranks(self, worker: int, nprocs: int) -> List[int]:
        """The virtual ranks hosted by ``worker`` on an ``nprocs`` machine."""
        return list(range(worker, nprocs, self.workers))

    def worker_of(self, rank: int) -> int:
        return rank % self.workers

    def _check_open(self) -> None:
        if self._closed:
            raise BackendError(
                "process backend is closed (workers are gone); create a new one"
            )

    # -- request/response with death detection --------------------------------------

    def _send(self, worker: int, msg, op: str, nprocs: Optional[int] = None) -> None:
        """Send a request to ``worker``; a broken pipe means it is dead."""
        try:
            self._conns[worker].send(msg)
        except (BrokenPipeError, OSError):
            self._procs[worker].join(timeout=1.0)
            self._fail_worker(worker, op, nprocs, self._procs[worker].exitcode)

    def _collect(self, worker: int, op: str, nprocs: Optional[int] = None):
        """Await one response from ``worker``; diagnose death instead of hanging."""
        conn = self._conns[worker]
        proc = self._procs[worker]
        deadline = time.monotonic() + self.timeout
        t0 = time.perf_counter_ns()
        try:
            while True:
                if conn.poll(0.05):
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError):
                        reply = None
                    if reply is None:
                        # the pipe closes before the corpse is reaped
                        proc.join(timeout=1.0)
                        self._fail_worker(worker, op, nprocs, proc.exitcode)
                    break
                if not proc.is_alive():
                    # drain any reply written before death
                    if conn.poll(0):
                        try:
                            reply = conn.recv()
                            break
                        except (EOFError, OSError):
                            pass
                    self._fail_worker(worker, op, nprocs, proc.exitcode)
                if time.monotonic() > deadline:
                    self._fail_worker(worker, op, nprocs, "timeout")
        finally:
            self.counters["backend.wait_ns"] += time.perf_counter_ns() - t0
        if reply[0] == "ok":
            return reply[1:]
        if reply[0] == "err":
            raise BackendWorkerError(
                f"worker {worker} failed during {op}: {reply[1]}\n{reply[2]}"
            )
        raise BackendWorkerError(
            f"worker {worker} sent unexpected reply {reply[0]!r} during {op}"
        )

    def _fail_worker(self, worker: int, op: str, nprocs: Optional[int], cause) -> None:
        """Mark the pool dead and raise the diagnostic the tests pin down."""
        ranks = (
            ", ".join(str(r) for r in self.owned_ranks(worker, nprocs))
            if nprocs
            else f"r % {self.workers} == {worker}"
        )
        detail = (
            f"no response within {self.timeout:.0f}s"
            if cause == "timeout"
            else f"exitcode={cause}"
        )
        self.close()
        raise BackendWorkerError(
            f"worker {worker} (virtual ranks {ranks}) died during {op} "
            f"({detail}); the exchange cannot complete"
        )

    # -- shared-memory shipping ------------------------------------------------------

    def _ship(
        self,
        msgs: Sequence[Tuple[int, int, object]],
        nprocs: int,
        op: str,
    ) -> List[object]:
        """Move payloads ``(src, dst, payload)``; returns received payloads
        in input order.  Self-messages are local deliveries (the original
        object, like MPI's self-send); inter-rank payloads come back as
        fresh arrays decoded from the receive arena."""
        self._check_open()
        inter = [i for i, (s, d, _p) in enumerate(msgs) if s != d]
        results: List[object] = [p for _s, _d, p in msgs]
        if not inter:
            return results
        specs, total, flat = _shm.encode_payloads([msgs[i][2] for i in inter])
        with self._lock:
            send_arena = _shm.ShmArena(total)
            recv_arena = _shm.ShmArena(total)
            try:
                _shm.write_columns(send_arena.buf, specs, flat)
                # one contiguous copy job per message (columns are laid out
                # consecutively; receive offsets mirror send offsets)
                jobs: Dict[int, List[Tuple[int, int]]] = {}
                moved = 0
                for spec, i in zip(specs, inter):
                    dst = msgs[i][1]
                    if spec.columns:
                        first = spec.columns[0].offset
                        last = spec.columns[-1]
                        span = last.offset + last.nbytes - first
                        if span:
                            jobs.setdefault(self.worker_of(dst), []).append(
                                (first, span)
                            )
                            moved += span
                involved = sorted(jobs)
                for w in involved:
                    self._send(
                        w, ("copy", send_arena.name, recv_arena.name, jobs[w]),
                        op, nprocs,
                    )
                for w in involved:
                    self._collect(w, op, nprocs)
                buf = recv_arena.buf
                for spec, i in zip(specs, inter):
                    results[i] = _shm.decode_payload(buf, spec)
                del buf
            finally:
                send_arena.release()
                recv_arena.release()
        self.counters["backend.messages"] += len(inter)
        self.counters["backend.shm_bytes"] += moved
        return results

    # -- transport API ----------------------------------------------------------------

    def _ship_exchange(self, exchange, nprocs: int):
        """Move one exchange descriptor through shared memory, whole.

        The column buffers and the receive-row index go into one send
        arena; every worker that owns a receiving rank gathers the rows of
        its ranks into the one receive arena; ``(columns, recv_offsets)``
        come back as fresh arrays.
        """
        self._check_open()
        op = "alltoallv delivery"
        rows, recv_offsets = exchange.recv_rows(nprocs)
        sources = [rows, *exchange.columns]
        in_metas, in_total = _shm.place_columns([(c.dtype, c.shape) for c in sources])
        out_metas, out_total = _shm.place_columns(
            [(c.dtype, rows.shape + c.shape[1:]) for c in exchange.columns]
        )
        # the workers that own a rank with anything to receive
        involved = np.unique(np.flatnonzero(np.diff(recv_offsets)) % self.workers).tolist()
        with self._lock:
            send_arena = _shm.ShmArena(in_total)
            recv_arena = _shm.ShmArena(out_total)
            try:
                for meta, c in zip(in_metas, sources):
                    _shm.column_view(send_arena.buf, meta)[...] = c
                job = (
                    "gather", send_arena.name, recv_arena.name, in_metas[0],
                    list(zip(in_metas[1:], out_metas)), recv_offsets, self.workers,
                )
                for w in involved:
                    self._send(w, job, op, nprocs)
                for w in involved:
                    self._collect(w, op, nprocs)
                columns = tuple(
                    _shm.column_view(recv_arena.buf, meta).copy() for meta in out_metas
                )
            finally:
                send_arena.release()
                recv_arena.release()
        self.counters["backend.messages"] += int((exchange.msg_src != exchange.msg_dst).sum())
        self.counters["backend.shm_bytes"] += sum(c.nbytes for c in columns)
        return columns, recv_offsets

    def deliver(self, sends, nprocs: int):
        # imported here: workers import this module and never deliver
        from repro.simmpi.collectives import Exchange, deliver_inprocess

        if isinstance(sends, Exchange):
            delivered = self._ship_exchange(sends, nprocs)
        else:
            msgs = [
                (src, dst, payload)
                for src, targets in enumerate(sends)
                for dst, payload in targets.items()
            ]
            shipped = iter(self._ship(msgs, nprocs, "alltoallv delivery"))
            delivered = deliver_inprocess(
                [{dst: next(shipped) for dst in targets} for targets in sends], nprocs
            )
        self.counters["backend.exchanges"] += 1
        return delivered

    def route(self, transfers: Sequence[Tuple[int, int, object]], nprocs: int) -> List[object]:
        return self._ship(list(transfers), nprocs, "p2p round")

    # -- tickets: no caller; kept only because perfbench/trace.py::LAYERS traces them ----

    def post_ticket(self, payload):
        self._check_open()
        specs, total, flat = _shm.encode_payloads([payload], allow_pickle=True)
        arena = _shm.ShmArena(total)
        _shm.write_columns(arena.buf, specs, flat)
        with self._lock:
            self._ticket_seq += 1
            key = f"{arena.name}#{self._ticket_seq}"
            self._tickets[key] = (arena, specs[0])
        self.counters["backend.tickets"] += 1
        self.counters["backend.shm_bytes"] += specs[0].nbytes
        return key

    def claim_ticket(self, ticket):
        with self._lock:
            arena, spec = self._tickets.pop(ticket)
        try:
            return _shm.decode_payload(arena.buf, spec)
        finally:
            arena.release()

    def discard_ticket(self, ticket) -> None:
        with self._lock:
            entry = self._tickets.pop(ticket, None)
        if entry is not None:
            entry[0].release()

    # -- host-side execution -----------------------------------------------------------

    def _fan_out(
        self,
        fn_path: str,
        items: Sequence[tuple],
        *,
        with_shared: bool,
        shared,
        slot_to_worker,
        op: str,
    ) -> List[object]:
        self._check_open()
        import_task(fn_path)  # fail fast in the coordinator on bad paths
        per_worker: Dict[int, List[Tuple[int, tuple]]] = {}
        for slot, args in enumerate(items):
            per_worker.setdefault(slot_to_worker(slot), []).append((slot, tuple(args)))
        results: List[object] = [None] * len(items)
        with self._lock:
            involved = sorted(per_worker)
            for w in involved:
                self._send(
                    w, ("call", fn_path, with_shared, shared, per_worker[w]), op
                )
            for w in involved:
                (pairs,) = self._collect(w, op)
                for slot, value in pairs:
                    results[slot] = value
        self.counters["backend.tasks"] += len(items)
        return results

    def rank_map(self, fn_path: str, per_rank_args: Sequence[tuple], shared=None) -> List[object]:
        return self._fan_out(
            fn_path,
            per_rank_args,
            with_shared=True,
            shared=shared,
            slot_to_worker=self.worker_of,
            op=f"rank_map({fn_path})",
        )

    def map_tasks(self, fn_path: str, items: Sequence[tuple]) -> List[object]:
        return self._fan_out(
            fn_path,
            items,
            with_shared=False,
            shared=None,
            slot_to_worker=lambda slot: slot % self.workers,
            op=f"map_tasks({fn_path})",
        )

    # -- diagnostics / tests -----------------------------------------------------------

    def ping(self) -> List[int]:
        """Round-trip every worker; returns their PIDs (health check)."""
        self._check_open()
        with self._lock:
            for w in range(self.workers):
                self._send(w, ("ping",), "ping")
            return [self._collect(w, "ping")[1] for w in range(self.workers)]

    def kill_worker(self, worker: int, exitcode: int = 3) -> None:
        """Ask ``worker`` to die (test hook for the crash-diagnostic suite)."""
        self._check_open()
        with self._lock:
            self._conns[worker].send(("exit", exitcode))
        deadline = time.monotonic() + self.timeout
        while self._procs[worker].is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn, proc in zip(self._conns, self._procs):
            if proc.is_alive():
                try:
                    conn.send(("shutdown",))
                except (BrokenPipeError, OSError):
                    pass
        for conn, proc in zip(self._conns, self._procs):
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        with self._lock:
            tickets = list(self._tickets.values())
            self._tickets.clear()
        for arena, _spec in tickets:
            arena.release()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "live"
        return f"ProcessBackend(workers={self.workers}, {state})"
