"""Solver interface and the one ``fcs_run`` skeleton.

A solver is created for a :class:`~repro.simmpi.machine.Machine`, configured
with the particle-system properties (``set_common``), optionally tuned, and
then executed repeatedly on a :class:`~repro.core.particles.ParticleSet`.
:meth:`Solver.run` is the only implementation of that execution for every
solver that redistributes particles: a subclass supplies the two hooks
:meth:`Solver._place` (sort the particles into the solver's layout) and
:meth:`Solver._compute` (potentials and fields in that layout); the hand-back
below is written here, once.

The redistribution contract (the heart of the paper) is expressed through
:class:`RunReport`:

* method **A** (``resort=False``): the solver must leave the particle set in
  its original order and distribution; ``report.changed`` is ``False``.
* method **B** (``resort=True``): the solver leaves the particle set in its
  own (changed) order and distribution **iff** every rank's new particle
  count fits the application's local array capacity; it then provides
  ``report.resort_indices`` (the packed target location of every original
  particle, rank-major over the original layout) so
  the application can redistribute additional particle data.  If capacity
  is exceeded on any rank, the solver falls back to restoring the original
  distribution (``report.changed`` is ``False``), exactly as Sect. III-B
  specifies.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.fine_grained import COMM_KINDS
from repro.core.particles import ColumnBlock, ParticleSet, RankMajor
from repro.core.resort import invert_indices
from repro.core.restore import restore_results
from repro.simmpi.machine import Machine

__all__ = ["COMM_KINDS", "RunReport", "Solver"]


@dataclasses.dataclass
class RunReport:
    """Outcome of one solver execution (one ``fcs_run``)."""

    #: True iff the particle order/distribution returned to the application
    #: is the solver-specific (changed) one
    changed: bool
    #: resort indices (packed target rank/position) of the original particles,
    #: rank-major over the original layout (``resort_indices[r]`` is original
    #: rank ``r``'s view); only available when ``changed`` is True
    resort_indices: Optional[RankMajor] = None
    #: per-original-rank particle counts before the run (resort input shape)
    old_counts: Optional[np.ndarray] = None
    #: per-rank particle counts after the run
    new_counts: Optional[np.ndarray] = None
    #: which sorting/communication strategy the solver picked (free-form,
    #: for display/diagnostics only — never parse this; use :attr:`comm`)
    strategy: str = ""
    #: structured communication strategy for any follow-up redistribution of
    #: application data: ``"alltoall"`` (general collective) or
    #: ``"neighborhood"`` (known bounded-distance peers, Sect. III-B).
    #: Every solver sets this explicitly; the resort engine dispatches on it
    #: instead of sniffing the :attr:`strategy` string.
    comm: str = "alltoall"

    def __post_init__(self) -> None:
        if self.comm not in COMM_KINDS:
            raise ValueError(
                f"RunReport.comm must be one of {COMM_KINDS}, got {self.comm!r}"
            )
        if self.resort_indices is not None:
            self.resort_indices = RankMajor.of(self.resort_indices)

    def state_dict(self) -> Dict[str, Any]:
        """The report as checkpoint-plain data (fields by name, deep-copied;
        the resort indices as one array per original rank)."""
        state = dataclasses.asdict(dataclasses.replace(self, resort_indices=None))
        if self.resort_indices is not None:
            state["resort_indices"] = [a.copy() for a in self.resort_indices]
        return state

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "RunReport":
        """Inverse of :meth:`state_dict`; never aliases ``state``."""
        return cls(**copy.deepcopy(state))


class Solver:
    """Abstract solver base: subclasses implement :meth:`tune` and the
    :meth:`_place` / :meth:`_compute` hooks of :meth:`run` (a solver that
    redistributes nothing, like the direct solver, overrides :meth:`run`)."""

    #: registry name ("fmm", "p2nfft", "direct")
    name: str = "abstract"

    #: True iff the solver can repartition particle ownership to equalize
    #: work (weighted partition sort).  Grid-owned solvers (P2NFFT) and
    #: replicated solvers (direct, Ewald) cannot: their decomposition is
    #: fixed by the mesh / by replication, so :meth:`request_rebalance` is
    #: accepted but has no effect.
    supports_rebalance: bool = False

    #: True iff the method exists under periodic boundaries only
    periodic_only: bool = False

    #: block column carrying each particle's packed origin (rank, position)
    origin_column: str = "origloc"

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.box: Optional[np.ndarray] = None
        self.offset: Optional[np.ndarray] = None
        self.periodic: bool = True
        self._tuned = False
        self._load_balance = "off"
        self._rebalance_pending = False

    # -- configuration ---------------------------------------------------------

    def set_common(
        self,
        *,
        box: Sequence[float],
        offset: Sequence[float] = (0.0, 0.0, 0.0),
        periodic: bool = True,
    ) -> None:
        """Set the particle-system properties (``fcs_set_common``).

        ``box`` holds the edge lengths of the axis-aligned system box (the
        general interface takes three base vectors; only orthorhombic boxes
        are supported here).  All arguments are keyword-only (API v2): a
        bare positional 3-vector after ``box`` cannot be told apart from a
        box base-vector matrix at the call site, and a positional boolean
        is meaningless to a reader — so the whole call is spelled out.
        """
        if self.periodic_only and not periodic:
            raise ValueError(
                f"the {self.name} solver supports periodic systems only"
            )
        self.box = np.asarray(box, dtype=np.float64)
        self.offset = np.asarray(offset, dtype=np.float64)
        if self.box.shape != (3,) or self.offset.shape != (3,):
            raise ValueError("box and offset must be 3-vectors")
        if not np.all(np.isfinite(self.box)) or not np.all(np.isfinite(self.offset)):
            raise ValueError(
                f"box and offset must be finite, got box={self.box}, "
                f"offset={self.offset}"
            )
        if np.any(self.box <= 0):
            raise ValueError(f"box edges must be positive, got {self.box}")
        self.periodic = bool(periodic)
        self._tuned = False

    def require_common(self) -> None:
        if self.box is None:
            raise RuntimeError("set_common must be called before tune/run")

    @staticmethod
    def require_finite(particles: ParticleSet) -> None:
        """Reject NaN/inf positions or charges before anything is charged
        (the grid placement would wrap a NaN coordinate to the lower face
        silently).  In a finite box a sum is finite iff its terms are, so
        one reduction per column decides; only a failure looks for its row."""
        pos, q = particles.block["pos"], particles.block["q"]
        if math.isfinite(pos.sum() + q.sum()):
            return
        bad = np.flatnonzero(~(np.isfinite(pos).all(axis=1) & np.isfinite(q)))
        if bad.size:
            rank = int(np.searchsorted(particles.offsets, bad[0], side="right")) - 1
            raise ValueError(f"rank {rank}: non-finite particle position or charge")

    def _set_compute_mode(self, compute: str) -> None:
        """``"skip"`` omits the force arithmetic (results are zeros) and
        charges the solver compute from analytic workload estimates — used
        by the long-running scaling benchmarks (DESIGN.md §5).  Every row a
        later phase reads still goes through the transport; the ghost and
        halo copies only the skipped arithmetic would read are charged in
        full, not copied."""
        if compute not in ("full", "skip"):
            raise ValueError(f"compute must be 'full' or 'skip', got {compute!r}")
        self.compute_mode = compute

    # -- load balancing ----------------------------------------------------------

    def set_load_balance(self, mode: str) -> None:
        """Select the load-balance mode (``"off" | "static" | "dynamic"``).

        ``"static"`` schedules exactly one weighted rebalance, consumed by
        the next :meth:`run`; ``"dynamic"`` leaves triggering to the caller
        (an :class:`~repro.core.balance.ImbalanceMonitor`) through
        :meth:`request_rebalance`.  Ignored (mode recorded, never acted on)
        by solvers with ``supports_rebalance = False``.
        """
        from repro.core.balance import LOAD_BALANCE_MODES

        if mode not in LOAD_BALANCE_MODES:
            raise ValueError(
                f"load_balance must be one of {LOAD_BALANCE_MODES}, got {mode!r}"
            )
        self._load_balance = mode
        self._rebalance_pending = mode == "static" and self.supports_rebalance

    def request_rebalance(self) -> None:
        """Schedule a weighted rebalance for the next :meth:`run` (dynamic
        mode); a no-op on solvers that cannot repartition ownership."""
        if self.supports_rebalance and self._load_balance != "off":
            self._rebalance_pending = True

    def state_dict(self) -> Dict[str, Any]:
        """The load-balance state as checkpoint-plain data.  Everything else
        a solver holds is rebuilt by :meth:`tune`, which depends only on the
        global particle count, box and accuracy."""
        return {
            "load_balance": self._load_balance,
            "rebalance_pending": self._rebalance_pending,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict` (absent keys load as the defaults)."""
        self._load_balance = str(state.get("load_balance", "off"))
        self._rebalance_pending = bool(state.get("rebalance_pending", False))

    # -- execution ---------------------------------------------------------------

    def tune(self, particles: ParticleSet, accuracy: float = 1e-3) -> None:
        """Determine solver-specific parameters from the current particle
        positions and charges (``fcs_tune``).  Results remain valid as long
        as the positions do not change too much."""
        raise NotImplementedError

    def run(
        self,
        particles: ParticleSet,
        *,
        resort: bool = False,
        max_move: Optional[float] = None,
    ) -> RunReport:
        """Compute potentials and fields for the current particles
        (``fcs_run``), writing them into ``particles.pot``/``particles.field``.

        ``resort=True`` requests method B; ``max_move`` passes the
        application's bound on the maximum particle movement since the last
        run (enables the limited-movement strategies of Sect. III-B).

        The Sect. III-B return contract lives here and nowhere else: the
        changed layout goes back, with resort indices made by inverting the
        carried origin column, iff method B was requested *and* every rank's
        new count fits the application's arrays; otherwise the results are
        restored to the original order and distribution (method A).
        """
        self.require_common()
        if not self._tuned:
            raise RuntimeError("fcs_tune must run before fcs_run")
        self.require_finite(particles)
        old_counts = particles.counts()
        placed, ghosts, comm, strategy = self._place(particles, max_move)
        new_counts = placed.counts
        pot, field = self._compute(placed, ghosts)

        origin = placed.column(self.origin_column)
        ran = dict(old_counts=old_counts, strategy=strategy, comm=comm)
        if resort and particles.fits(new_counts):
            particles.install(
                ColumnBlock(pos=placed.data["pos"], q=placed.data["q"], pot=pot, field=field),
                placed.offsets,
            )
            indices = invert_indices(
                self.machine, origin, old_counts, phase="resort_index", comm=comm
            )
            return RunReport(changed=True, resort_indices=indices, new_counts=new_counts, **ran)
        offsets = placed.offsets
        restore_results(
            self.machine, origin, RankMajor(pot, offsets), RankMajor(field, offsets),
            particles, old_counts, phase="restore",
        )
        return RunReport(changed=False, new_counts=old_counts, **ran)

    def _place(
        self, particles: ParticleSet, max_move: Optional[float]
    ) -> Tuple[RankMajor, RankMajor, str, str]:
        """Redistribute the particles into the solver's layout.

        Returns ``(placed, ghosts, comm, strategy)``: the owned particles,
        rank-major, with ``pos``, ``q`` and the :attr:`origin_column`; the
        near field's sources as the solver keeps them, rank-major (the FMM's
        halo copies, the grid solvers' owned + ghost particles — handed to
        :meth:`_compute` unread; in skip mode only what the transport
        delivered, no halo or ghost copy); the :data:`COMM_KINDS` entry describing the
        exchange that ran (the resort indices and any follow-up resort use
        the same); and the free-form strategy label of
        :attr:`RunReport.strategy`.
        """
        raise NotImplementedError

    def _compute(self, placed: RankMajor, ghosts: RankMajor) -> Tuple[np.ndarray, np.ndarray]:
        """Potentials and fields of the owned particles, rank-major over the
        rows of ``placed`` (the per-rank work the load balancer reads is
        what the hook charges: :meth:`Trace.record_rank_work
        <repro.simmpi.tracing.Trace.record_rank_work>`)."""
        raise NotImplementedError

    def destroy(self) -> None:
        """Release solver resources (``fcs_destroy``)."""
