"""The simulated distributed-memory machine.

A :class:`Machine` hosts ``nprocs`` virtual ranks.  It owns

* per-rank **virtual clocks** (``numpy`` array of seconds),
* a :class:`~repro.simmpi.tracing.Trace` of per-phase costs,
* the :class:`~repro.simmpi.topology.Topology` and
  :class:`~repro.simmpi.costmodel.CostModel` used to price communication.

Algorithms never advance clocks directly; they call the communication
primitives in :mod:`repro.simmpi.collectives` / :mod:`repro.simmpi.p2p` (which
move real data *and* charge modeled time) and :meth:`Machine.compute` /
:meth:`Machine.copy` for local work.

Clock semantics
---------------
Clocks are per-rank and monotone.  A collective first synchronizes its
participants to the latest participant clock (collectives cannot complete
before the last rank arrives), then adds per-rank completion times.  A
point-to-point exchange advances only the involved ranks, letting load
imbalance (e.g. the "all particles on a single process" initial distribution
of Fig. 6) show up as one rank racing ahead of the others.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.perf import instrument
from repro.simmpi.costmodel import CostModel, SystemProfile
from repro.simmpi.topology import SwitchTopology, Topology
from repro.simmpi.tracing import Trace

__all__ = ["Machine"]


class Machine:
    """``nprocs`` virtual ranks with clocks, trace, topology and cost model."""

    def __init__(
        self,
        nprocs: int,
        *,
        topology: Optional[Topology] = None,
        cost_model: Optional[CostModel] = None,
        profile: Optional[SystemProfile] = None,
        perturbation: Optional["Perturbation"] = None,
    ) -> None:
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        if profile is not None:
            if topology is not None or cost_model is not None:
                raise ValueError("pass either profile or topology/cost_model, not both")
            topology = profile.topology(nprocs)
            cost_model = profile.cost_model
            self.profile_name = profile.name
        else:
            self.profile_name = "custom"
        self.nprocs = int(nprocs)
        self.topology = topology if topology is not None else SwitchTopology(nprocs)
        if self.topology.nprocs != self.nprocs:
            raise ValueError(
                f"topology built for {self.topology.nprocs} ranks, machine has {self.nprocs}"
            )
        self.model = cost_model if cost_model is not None else CostModel()
        #: the *pre-perturbation* cost model.  :meth:`perturb` swaps
        #: :attr:`model` for a degraded one; schedule-independent decisions
        #: (the ``auto`` collective-algorithm selector in
        #: :mod:`repro.simmpi.algos`) must read this one so they cannot
        #: depend on the chaos seed.
        self.nominal_model = self.model
        self.clocks = np.zeros(self.nprocs, dtype=np.float64)
        self.trace = Trace()
        #: the two listeners of the charge funnel (:meth:`commit`,
        #: :meth:`count`), read at every notification so either can be
        #: attached or detached mid-run; with both ``None`` a charge copies
        #: no clock vector and calls nothing beyond the trace.
        #: optional :class:`~repro.verify.audit.CommAuditor` (attach via
        #: ``repro.verify.enable_auditing``); the communication primitives
        #: additionally hand it their raw send tables before charging
        self.auditor = None
        #: optional :class:`~repro.obs.spans.ObsRecorder` receiving a span
        #: for every charge (attach via ``repro.obs.enable_observability``)
        self.obs = None
        #: optional :class:`~repro.simmpi.chaos.Perturbation` consulted when
        #: charging costs (never when moving data) — see :meth:`perturb`
        self.perturbation = None
        #: optional :class:`~repro.backend.ExecutionBackend` hosting the
        #: payload data plane (attach via :meth:`attach_backend`); ``None``
        #: keeps the historical in-process delivery byte-identical.  The
        #: backend only moves payload bytes — modeled charging never
        #: consults it, so traces and clocks are backend-independent.
        self.backend = None
        #: optional :class:`~repro.simmpi.algos.CollectiveAlgos` selecting
        #: per-collective algorithm engines (attach via
        #: :meth:`set_collective_algos`); ``None`` keeps every collective on
        #: the historical closed-form ``direct`` path byte-identically.
        self.collective_algos = None
        self._compute_factors: Optional[np.ndarray] = None
        self._comm_factors: Optional[np.ndarray] = None
        #: host-clock anchor of the previous charge point — the wall-phase
        #: attribution state of :func:`repro.perf.instrument.wall_phases`
        self._wall_anchor: Optional[int] = None
        if perturbation is not None:
            self.perturb(perturbation)

    # -- execution backend ----------------------------------------------------

    def attach_backend(self, backend) -> None:
        """Route this machine's payload data plane through an
        :class:`~repro.backend.ExecutionBackend`.

        Only delivery is rerouted; every charge is still computed centrally
        by this machine, which is what keeps traces, ledgers and state
        fingerprints bitwise-identical across backends.  Pass ``None`` to
        restore the historical in-process delivery.
        """
        if backend is not None and getattr(backend, "closed", False):
            raise RuntimeError(f"cannot attach closed backend {backend!r}")
        self.backend = backend

    # -- collective algorithm engines -----------------------------------------

    def set_collective_algos(self, algos) -> None:
        """Select per-collective algorithm engines for this machine.

        ``algos`` is a spec string (see
        :func:`repro.simmpi.algos.parse_algos`), a
        :class:`~repro.simmpi.algos.CollectiveAlgos` instance, or ``None``
        to restore the default ``direct`` path.  Only future collective
        calls are affected; specs resolving to all-``direct`` store
        ``None`` so the default path stays zero-overhead.
        """
        if algos is None:
            self.collective_algos = None
            return
        from repro.simmpi.algos import parse_algos

        self.collective_algos = parse_algos(algos)

    # -- chaos harness --------------------------------------------------------

    def perturb(self, perturbation: "Perturbation") -> None:
        """Apply a seeded :class:`~repro.simmpi.chaos.Perturbation`.

        Must happen before any cost has been charged: the perturbation skews
        the startup clocks and swaps in the degraded cost model, neither of
        which can be applied retroactively.  The null perturbation (all
        knobs zero) leaves the machine byte-identical to an unperturbed one.
        Applying the same perturbation object twice is a no-op.
        """
        if self.perturbation is perturbation:
            return
        if self.perturbation is not None:
            raise RuntimeError("machine already carries a perturbation")
        if float(self.clocks.max()) != 0.0 or self.trace.total_time() != 0.0:
            raise RuntimeError(
                "perturbation must be applied before any cost is charged"
            )
        self.perturbation = perturbation
        self.trace.note("perturbation", perturbation.describe())
        if perturbation.is_null:
            return
        self.model = perturbation.effective_model(self.model)
        self._compute_factors = perturbation.compute_factors(self.nprocs)
        self._comm_factors = perturbation.comm_factors(self.nprocs)
        initial_clocks = perturbation.initial_clocks(self.nprocs)
        if initial_clocks is not None:
            self.clocks[:] = initial_clocks

    def comm_factor(self, *ranks: int) -> float:
        """Communication slowdown of a message touching ``ranks``.

        The slowest involved endpoint dominates; with no arguments this is
        the machine-wide worst factor (used by synchronizing collectives).
        Exactly ``1.0`` on an unperturbed machine, so multiplying by it is
        the float identity.
        """
        if self._comm_factors is None:
            return 1.0
        if not ranks:
            return float(self._comm_factors.max())
        return float(max(self._comm_factors[r] for r in ranks))

    @property
    def comm_factors(self) -> Optional[np.ndarray]:
        """Per-rank communication slowdowns (``None`` when uniform)."""
        return self._comm_factors

    # -- clock access ---------------------------------------------------------

    def elapsed(self) -> float:
        """Virtual time elapsed so far: the latest rank clock."""
        return float(self.clocks.max())

    def synchronize(self, ranks: Optional[Sequence[int]] = None) -> float:
        """Align clocks of ``ranks`` (default: all) to their maximum.

        Returns the synchronized time.  Collectives call this first — no
        participant can finish a collective before the last one enters it.
        """
        if ranks is None:
            t = float(self.clocks.max())
            self.clocks[:] = t
        else:
            idx = np.asarray(ranks, dtype=np.int64)
            t = float(self.clocks[idx].max())
            self.clocks[idx] = t
        return t

    # -- charging: the funnel -------------------------------------------------

    def begin(self) -> tuple:
        """Open a charge: snapshot what :meth:`commit` attributes it against.

        Every site that moves clocks brackets the move with ``begin`` /
        ``commit``.  The snapshot is the critical-path clock and — only
        when an attached recorder wants per-rank spans — the clock vector.
        """
        obs = self.obs
        rank_before = self.clocks.copy() if obs is not None and obs.per_rank else None
        return self.clocks.max(), rank_before

    def commit(
        self,
        token: tuple,
        phase: Optional[str],
        op: str,
        messages: int = 0,
        nbytes: int = 0,
        *,
        mirror: bool = False,
    ) -> None:
        """Close a charge opened by :meth:`begin` — the only write path of
        the modeled accounting.

        Records the *critical-path* contribution (the increase of the
        maximum clock since ``begin``) with ``messages``/``nbytes`` into the
        trace, attributes host wall time, and notifies the attached
        listeners (:attr:`auditor`, :attr:`obs`).  ``op`` names the charging
        primitive ("compute", "alltoallv", ...) for the span stream; it
        never affects the trace.

        ``mirror`` (set by :meth:`collective` only) marks totals that come
        from the cost model rather than from a send table: an attached
        auditor has nothing to recompute them from and takes them into its
        ledger as stated.

        While :func:`repro.perf.instrument.wall_phases` is active, the host
        wall nanoseconds since this machine's previous charge point are
        additionally attributed to ``phase`` (the code producing a charge
        owns the host time leading up to it); the modeled fields are
        byte-identical with and without the attribution.
        """
        before, rank_before = token
        after = self.clocks.max()
        t = float(after - before)
        self.trace.record(phase, time=t, messages=messages, nbytes=nbytes)
        if instrument.wall_phases_enabled():
            now = instrument.wall_anchor()
            if self._wall_anchor is not None:
                self.trace.record_wall(phase, now - self._wall_anchor)
            self._wall_anchor = now
        elif self._wall_anchor is not None:
            self._wall_anchor = None
        if mirror and self.auditor is not None:
            self.auditor.on_mirrored_charge(phase, messages, nbytes)
        if self.obs is not None:
            self.obs.on_charge(
                phase, op, t, float(before), float(after),
                messages, nbytes, rank_before, self.clocks,
            )

    def count(self, name: str, value: int = 1, **labels) -> None:
        """Increment the event counter ``name`` — the only write path of
        event counters.

        The trace keeps the flat (unlabeled) counters, which are part of
        its checkpointed state; a labeled series (``solver.runs{solver}``,
        ``comm.algo.*{collective, algo}``) has no faithful flat form and
        lives with the listeners only.
        """
        if not labels:
            self.trace.bump(name, value)
        for listener in (self.auditor, self.obs):
            if listener is not None:
                listener.on_count(name, value, labels)

    def advance(
        self,
        per_rank_seconds: np.ndarray | float,
        phase: Optional[str] = None,
        *,
        messages: int = 0,
        nbytes: int = 0,
        op: Optional[str] = None,
    ) -> None:
        """Advance rank clocks by ``per_rank_seconds`` as one charge (see
        :meth:`commit` for ``op``)."""
        token = self.begin()
        self.clocks += per_rank_seconds
        self.commit(token, phase, op if op is not None else "advance", messages, nbytes)

    def collective(
        self,
        per_rank_seconds: np.ndarray | float,
        phase: Optional[str] = None,
        *,
        messages: int,
        nbytes: int = 0,
        op: Optional[str] = None,
    ) -> None:
        """:meth:`advance` for a collective whose ``messages``/``nbytes``
        are stated by the cost model instead of read off a send table (tree
        collectives) — the one place that asks :meth:`commit` to mirror."""
        token = self.begin()
        self.clocks += per_rank_seconds
        self.commit(
            token, phase, op if op is not None else "advance",
            messages, nbytes, mirror=True,
        )

    def compute(
        self,
        nominal_seconds: np.ndarray | float,
        phase: Optional[str] = None,
    ) -> None:
        """Charge a compute phase of per-rank nominal (JuRoPA-core) seconds.

        An active perturbation scales each rank's time by its jitter/
        straggler factor — the clocks diverge, the computed data does not.
        The *nominal* (pre-perturbation) per-rank seconds are additionally
        recorded into :meth:`Trace.record_rank_work
        <repro.simmpi.tracing.Trace.record_rank_work>` so the load-balancing
        subsystem can observe the work distribution without its decisions
        depending on the perturbation schedule.
        """
        nominal = np.broadcast_to(
            np.asarray(nominal_seconds, dtype=np.float64), (self.nprocs,)
        )
        self.trace.record_rank_work(phase, nominal)
        t = self.model.compute_time(nominal_seconds)
        if self._compute_factors is not None:
            t = t * self._compute_factors
        self.advance(t, phase, op="compute")

    def copy(self, per_rank_bytes: np.ndarray | float, phase: Optional[str] = None) -> None:
        """Charge local pack/unpack (memcpy) work."""
        t = self.model.copy_time(per_rank_bytes)
        if self._compute_factors is not None:
            t = t * self._compute_factors
        self.advance(t, phase, op="copy")

    def barrier(self, phase: Optional[str] = None) -> None:
        """Tree barrier across all ranks."""
        self.synchronize()
        t = self.model.tree_collective_time(self.nprocs, 8.0, self.topology.diameter())
        t *= self.comm_factor()
        self.collective(t, phase, messages=2 * max(0, self.nprocs - 1), op="barrier")

    # -- misc -----------------------------------------------------------------

    def check_rank(self, rank: int) -> int:
        r = int(rank)
        if not 0 <= r < self.nprocs:
            raise ValueError(f"rank {rank} out of range [0, {self.nprocs})")
        return r

    def __repr__(self) -> str:
        return (
            f"Machine(nprocs={self.nprocs}, topology={self.topology.name}, "
            f"profile={self.profile_name}, elapsed={self.elapsed():.3e}s)"
        )
