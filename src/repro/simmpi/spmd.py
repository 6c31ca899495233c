"""SPMD programming layer: write per-rank programs against the simulated
machine.

The high-level primitives in :mod:`repro.simmpi.collectives` operate on all
ranks at once (the "global view" the solvers use).  This module provides the
complementary **per-rank view**: a program is an ordinary Python function
``program(ctx, *args)`` executed once per rank (each in its own thread)
against an :class:`SPMDContext` whose ``send``/``recv``/``barrier``/
``allreduce`` calls block and match like their MPI counterparts — while the
machine's virtual clocks and trace record the modeled cost of every
operation.

Example
-------
>>> def ring(ctx, value):
...     nxt, prv = (ctx.rank + 1) % ctx.nprocs, (ctx.rank - 1) % ctx.nprocs
...     total = value
...     for _ in range(ctx.nprocs - 1):
...         ctx.send(nxt, value)
...         value = ctx.recv(prv)
...         total += value
...     return total
>>> machine = Machine(4)
>>> run_spmd(machine, ring, [1.0, 2.0, 3.0, 4.0])
[10.0, 10.0, 10.0, 10.0]

Deadlocks (every rank blocked with no matching message in flight) are
detected and reported with a per-rank state dump instead of hanging.

Intended for prototyping and teaching redistribution algorithms at small
rank counts (threads are real OS threads); the production solvers use the
vectorised global-view primitives.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi.collectives import payload_nbytes
from repro.simmpi.machine import Machine

__all__ = ["SPMDContext", "SPMDDeadlock", "run_spmd"]


class SPMDDeadlock(RuntimeError):
    """All ranks are blocked and no message can unblock any of them."""


class _Runtime:
    """Shared state of one :func:`run_spmd` execution."""

    def __init__(self, machine: Machine, scheduler: Optional[Any] = None) -> None:
        self.machine = machine
        #: optional :class:`~repro.simmpi.chaos.MailboxScheduler` permuting
        #: delivery and wake order among the legal choices
        self.scheduler = scheduler
        self.lock = threading.Condition()
        #: mailboxes[dst] -> list of (src, tag, payload, arrival_time)
        self.mailboxes: List[List[Tuple[int, int, Any, float]]] = [
            [] for _ in range(machine.nprocs)
        ]
        #: which ranks are currently blocked, and on what: "collective" or
        #: a (src, tag) match pattern for receives
        self.blocked: Dict[int, Any] = {}
        self.finished = 0
        self.failed: Optional[BaseException] = None
        # collective rendezvous state
        self._coll_epoch = 0
        self._coll_count = 0
        self._coll_values: Dict[int, Any] = {}
        self._coll_result: Any = None

    # -- deadlock detection ------------------------------------------------------

    def _alive(self) -> int:
        return self.machine.nprocs - self.finished

    def check_deadlock(self) -> None:
        """Called with the lock held whenever a rank blocks.

        Deadlock iff every alive rank is blocked and no receive-blocked rank
        has a matching message pending (collective-blocked ranks can only be
        released by further arrivals, which all-blocked rules out).
        """
        if self.failed is not None:
            return
        alive = self._alive()
        if alive == 0 or not self.blocked or len(self.blocked) < alive:
            return
        for r, state in self.blocked.items():
            if isinstance(state, tuple) and state and state[0] == "collective":
                if self._coll_epoch != state[1]:
                    return  # already released, just not woken yet
                continue
            src, tag = state
            for s, t, _payload, _arrival in self.mailboxes[r]:
                if (src is None or s == src) and (tag is None or t == tag):
                    return  # this rank can proceed
        self.failed = SPMDDeadlock(f"all ranks blocked ({self._describe_blocked()})")
        self.lock.notify_all()

    def _describe_blocked(self) -> str:
        """Per-rank state dump for the deadlock report (lock held)."""
        parts = []
        for r, state in sorted(self.blocked.items()):
            if isinstance(state, tuple) and state and state[0] == "collective":
                parts.append(f"rank {r}: collective(epoch={state[1]})")
            else:
                src, tag = state
                pending = ", ".join(
                    f"(src={s}, tag={t})" for s, t, _p, _a in self.mailboxes[r]
                )
                parts.append(
                    f"rank {r}: recv(src={'*' if src is None else src}, "
                    f"tag={'*' if tag is None else tag}) mailbox=[{pending}]"
                )
        return ", ".join(parts)


class SPMDContext:
    """The per-rank communication handle passed to SPMD programs."""

    def __init__(self, runtime: _Runtime, rank: int) -> None:
        self._rt = runtime
        self.rank = rank
        self.nprocs = runtime.machine.nprocs

    # -- point to point ------------------------------------------------------------

    def send(self, dst: int, payload: Any, tag: int = 0, phase: str = "spmd") -> None:
        """Post a message to ``dst`` (non-blocking buffered send)."""
        rt = self._rt
        machine = rt.machine
        dst = machine.check_rank(dst)
        nbytes = payload_nbytes(payload) if isinstance(payload, (np.ndarray, tuple, list)) else 64
        if rt.scheduler is not None:
            rt.scheduler.maybe_yield()
        # with an execution backend the payload bytes travel as a transport
        # ticket (e.g. a shared-memory segment); the mailbox only holds the
        # claim.  Posted before taking the runtime lock — encoding is pure.
        if machine.backend is not None:
            payload = machine.backend.post_ticket(payload)
        with rt.lock:
            self._raise_if_failed()
            model = machine.model
            if dst == self.rank:
                machine.clocks[self.rank] += float(model.copy_time(nbytes))
                arrival = machine.clocks[self.rank]
            else:
                hops = int(machine.topology.hops(self.rank, dst))
                send_done = (
                    machine.clocks[self.rank]
                    + model.overhead
                    + float(model.copy_time(nbytes))
                )
                arrival = (
                    send_done
                    + float(model.msg_time(hops, nbytes))
                    * machine.comm_factor(self.rank, dst)
                    - model.overhead
                )
                token = machine.begin(self.rank)
                machine.clocks[self.rank] = send_done
                machine.commit(token, phase, "spmd.send", 1, nbytes, overlapped=True)
            rt.mailboxes[dst].append((self.rank, tag, payload, arrival))
            rt.lock.notify_all()

    def recv(self, src: Optional[int] = None, tag: Optional[int] = None,
             phase: str = "spmd") -> Any:
        """Blocking receive; ``src``/``tag`` of ``None`` match anything.

        When several sources have a matching message pending, MPI allows a
        wildcard receive to consume any of them; an attached scheduler shim
        picks among those legal candidates (messages from one source are
        still consumed in posting order — MPI non-overtaking).
        """
        rt = self._rt
        machine = rt.machine
        if rt.scheduler is not None:
            rt.scheduler.maybe_yield()
        with rt.lock:
            while True:
                self._raise_if_failed()
                box = rt.mailboxes[self.rank]
                # legal candidates: the *earliest-posted* matching message of
                # each source (non-overtaking within a source)
                candidates: List[int] = []
                seen_sources: set = set()
                for i, (s, t, _payload, _arrival) in enumerate(box):
                    if (src is None or s == src) and (tag is None or t == tag):
                        if s in seen_sources:
                            continue
                        seen_sources.add(s)
                        candidates.append(i)
                if candidates:
                    if rt.scheduler is not None:
                        pick = candidates[rt.scheduler.choose(len(candidates))]
                    else:
                        pick = candidates[0]
                    _s, _t, payload, arrival = box.pop(pick)
                    token = machine.begin(self.rank)
                    machine.clocks[self.rank] = max(
                        machine.clocks[self.rank] + machine.model.overhead, arrival
                    )
                    machine.commit(token, phase, "spmd.recv")
                    rt.lock.notify_all()
                    if machine.backend is not None:
                        payload = machine.backend.claim_ticket(payload)
                    return payload
                rt.blocked[self.rank] = (src, tag)
                rt.check_deadlock()
                rt.lock.wait(timeout=5.0)
                rt.blocked.pop(self.rank, None)

    def sendrecv(self, dst: int, payload: Any, src: Optional[int] = None,
                 tag: int = 0, phase: str = "spmd") -> Any:
        """Combined send + receive (deadlock-free pairwise exchange)."""
        self.send(dst, payload, tag, phase)
        return self.recv(src, tag, phase)

    # -- collectives ------------------------------------------------------------------

    def _collective(self, value: Any, combine: Callable[[Dict[int, Any]], Any],
                    nbytes: float, phase: str) -> Any:
        """Rendezvous of all ranks; ``combine`` runs once on the full map."""
        rt = self._rt
        machine = rt.machine
        if rt.scheduler is not None:
            rt.scheduler.maybe_yield()
        with rt.lock:
            self._raise_if_failed()
            epoch = rt._coll_epoch
            rt._coll_values[self.rank] = value
            rt._coll_count += 1
            if rt._coll_count == machine.nprocs:
                # last arrival: synchronize clocks, charge, combine, release
                t = float(machine.clocks.max())
                machine.clocks[:] = t
                cost = machine.model.tree_collective_time(
                    machine.nprocs, nbytes, machine.topology.diameter()
                ) * machine.comm_factor()
                machine.advance(
                    cost, phase, messages=2 * (machine.nprocs - 1),
                    op="spmd.collective",
                )
                rt._coll_result = combine(dict(rt._coll_values))
                rt._coll_values.clear()
                rt._coll_count = 0
                rt._coll_epoch += 1
                rt.lock.notify_all()
                return rt._coll_result
            while rt._coll_epoch == epoch:
                self._raise_if_failed()
                rt.blocked[self.rank] = ("collective", epoch)
                rt.check_deadlock()
                rt.lock.wait(timeout=5.0)
                rt.blocked.pop(self.rank, None)
            return rt._coll_result

    def barrier(self, phase: str = "spmd") -> None:
        """Wait for every rank to arrive."""
        self._collective(None, lambda values: None, 8.0, phase)

    def allreduce(self, value: float, op: str = "sum", phase: str = "spmd") -> float:
        """Reduce a scalar across all ranks; everyone gets the result.

        ``sum`` combines in rank order: float addition is non-associative
        and the arrival order of ranks at the rendezvous is
        schedule-dependent, so summing in dict-arrival order would make the
        result bitwise schedule-dependent (``min``/``max`` are
        order-insensitive).
        """
        ops = {
            "sum": lambda values: sum(values[r] for r in sorted(values)),
            "max": lambda values: max(values.values()),
            "min": lambda values: min(values.values()),
        }
        if op not in ops:
            raise ValueError(f"unsupported op {op!r}")
        return self._collective(float(value), ops[op], 8.0, phase)

    def allgather(self, value: Any, phase: str = "spmd") -> List[Any]:
        """Gather one value per rank; everyone gets the rank-ordered list."""
        return self._collective(
            value,
            lambda values: [values[r] for r in sorted(values)],
            64.0 * self.nprocs,
            phase,
        )

    def bcast(self, value: Any, root: int = 0, phase: str = "spmd") -> Any:
        """Broadcast ``value`` from ``root`` (other ranks pass anything)."""
        return self._collective(
            (self.rank, value),
            lambda values: values[root][1],
            64.0,
            phase,
        )

    # -- misc ---------------------------------------------------------------------------

    def _raise_if_failed(self) -> None:
        if self._rt.failed is not None:
            raise self._rt.failed


def run_spmd(
    machine: Machine,
    program: Callable[..., Any],
    *per_rank_args: Sequence,
    scheduler: Optional[Any] = None,
) -> List[Any]:
    """Execute ``program(ctx, *args)`` once per rank; return all results.

    Each entry of ``per_rank_args`` is a length-``nprocs`` sequence whose
    ``r``-th element is passed to rank ``r``.  Raises the first per-rank
    exception (including :class:`SPMDDeadlock`).

    ``scheduler`` is an optional
    :class:`~repro.simmpi.chaos.MailboxScheduler` permuting message delivery
    and thread wake order among legal choices; when omitted it is taken from
    the machine's active perturbation (if any).
    """
    P = machine.nprocs
    for seq in per_rank_args:
        if len(seq) != P:
            raise ValueError(f"per-rank argument has {len(seq)} entries for {P} ranks")
    if scheduler is None and machine.perturbation is not None:
        scheduler = machine.perturbation.scheduler()
    rt = _Runtime(machine, scheduler)
    results: List[Any] = [None] * P
    threads: List[threading.Thread] = []

    def worker(rank: int) -> None:
        ctx = SPMDContext(rt, rank)
        try:
            results[rank] = program(ctx, *(seq[rank] for seq in per_rank_args))
        except BaseException as exc:  # propagate to the caller
            with rt.lock:
                if rt.failed is None:
                    rt.failed = exc
                rt.lock.notify_all()
        finally:
            with rt.lock:
                rt.finished += 1
                rt.check_deadlock()
                rt.lock.notify_all()

    start_order = list(range(P))
    if scheduler is not None:
        start_order = scheduler.shuffled(start_order)
    for r in start_order:
        t = threading.Thread(target=worker, args=(r,), name=f"spmd-rank-{r}", daemon=True)
        threads.append(t)
        t.start()
    try:
        for t in threads:
            t.join()
    finally:
        if machine.backend is not None:
            # failed/deadlocked runs leave unclaimed tickets behind; release
            # their transport resources (shared-memory segments)
            for box in rt.mailboxes:
                for _src, _tag, ticket, _arrival in box:
                    machine.backend.discard_ticket(ticket)
                box.clear()
    if rt.failed is not None:
        raise rt.failed
    return results
