"""The ScaFaCoS-like library interface (``fcs_*``).

Mirrors the usage protocol of Sect. II-A of the paper:

>>> fcs = fcs_init("fmm", machine)                     # choose solver
>>> fcs.set_common(box=(248.,)*3, periodic=True)       # system properties
>>> fcs.set_resort(True)                               # opt into method B
>>> fcs.tune(particles)                                # optional tuning step
>>> report = fcs.run(particles)                        # compute interactions
>>> if fcs.resort_availability():                      # did order change?
...     vel, acc, ids = fcs.resort((vel, acc, ids))    # adapt extra data
>>> fcs.destroy()

``run`` computes potentials and fields for the particle positions/charges in
a :class:`~repro.core.particles.ParticleSet`.  With resorting disabled
(method A) the original particle order and distribution is restored; with
resorting enabled (method B) the solver-specific order and distribution is
returned whenever the application's local particle arrays are large enough.

Additional application data the solver does not know about (velocities,
accelerations, ids, ...) is redistributed through the plan-based resort
engine: :meth:`FCS.resort_plan` compiles the run's resort indices once into
a reusable :class:`~repro.core.plan.ResortPlan` (cached across calls *and*
across time steps while the distribution is unchanged), and
:meth:`FCS.resort` moves any number of mixed-dtype data columns in a single
exchange.  The historical per-dtype entry points
(``resort_floats``/``resort_ints``/``resort_bytes``) were removed in API
v2 (``tests/test_removed_apis.py`` pins them gone).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from repro.core.particles import ParticleSet, RankMajor
from repro.core.plan import ResortPlan, ResortPlanStats
from repro.obs.spans import machine_span
from repro.simmpi.machine import Machine
from repro.solvers.base import RunReport, Solver

__all__ = ["FCS", "fcs_init", "available_solvers"]


_REGISTRY: Dict[str, Callable[..., Solver]] = {}


def _ensure_builtin_registry() -> None:
    # populated lazily to avoid import cycles between core and solvers
    if _REGISTRY:
        return
    from repro.solvers.fmm.solver import FMMSolver
    from repro.solvers.p2nfft.solver import P2NFFTSolver
    from repro.solvers.direct_solver import DirectSolver
    from repro.solvers.ewald_solver import EwaldSolver

    _REGISTRY.setdefault("fmm", FMMSolver)
    _REGISTRY.setdefault("p2nfft", P2NFFTSolver)
    _REGISTRY.setdefault("direct", DirectSolver)
    _REGISTRY.setdefault("ewald", EwaldSolver)


def available_solvers() -> List[str]:
    """Names accepted by :func:`fcs_init`.

    The built-in methods: "direct", "ewald", "fmm", "p2nfft".
    """
    _ensure_builtin_registry()
    return sorted(_REGISTRY)


def fcs_init(
    method: Union[str, Solver], machine: Machine, **solver_kwargs
) -> "FCS":
    """Create a new solver handle (``fcs_init``).

    ``method`` selects the solver — either a built-in name ("fmm",
    "p2nfft", "direct", "ewald") or an already-constructed :class:`Solver`
    instance, which lets applications bring their own solver or one that
    takes rich construction arguments.  ``machine`` plays the role of the
    MPI communicator specifying the group of parallel processes that
    execute the solver.
    """
    if isinstance(method, Solver):
        if solver_kwargs:
            raise TypeError(
                "solver keyword arguments only apply when constructing by "
                "name; the given Solver instance is already constructed"
            )
        if method.machine is not machine:
            raise ValueError(
                "the Solver instance was constructed for a different machine"
            )
        return FCS(method, machine)
    _ensure_builtin_registry()
    try:
        factory = _REGISTRY[method]
    except KeyError:
        raise ValueError(
            f"unknown solver {method!r}; available: {available_solvers()}"
        ) from None
    return FCS(factory(machine, **solver_kwargs), machine)


class FCS:
    """Handle for one solver instance (the ``FCS`` handle of the C API)."""

    def __init__(self, solver: Solver, machine: Machine) -> None:
        self._solver = solver
        self.machine = machine
        self._resort_requested = False
        self._max_move: Optional[float] = None
        self._last_report: Optional[RunReport] = None
        self._plan: Optional[ResortPlan] = None
        self._retired_plan_stats = ResortPlanStats()
        self._destroyed = False

    # -- configuration -----------------------------------------------------------

    @property
    def method(self) -> str:
        return self._solver.name

    @property
    def solver(self) -> Solver:
        """The underlying solver (for solver-specific setter functions)."""
        return self._solver

    # -- observability accessors (API v2) -----------------------------------------

    @property
    def trace(self):
        """The machine's :class:`~repro.simmpi.tracing.Trace` — per-phase
        virtual time / message / byte aggregates of everything this handle
        (and anything else on the machine) has charged."""
        return self.machine.trace

    def set_common(
        self, *, box, offset=(0.0, 0.0, 0.0), periodic: bool = True
    ) -> None:
        """Set particle-system properties (``fcs_set_common``).

        All arguments are keyword-only (API v2 — the historical positional
        form silently swapped ``box``/``offset``):

        ``box``
            edge lengths of the (cuboid) system box, a positive 3-vector.
        ``offset``
            lower corner of the box (default: the origin).
        ``periodic``
            whether the system is fully periodic.

        Arguments are validated by :meth:`repro.solvers.base.Solver.set_common`
        — a non-finite or non-positive box, or malformed 3-vectors, raise
        ``ValueError`` immediately rather than corrupting a later ``run``.
        """
        self._check_alive()
        self._solver.set_common(box=box, offset=offset, periodic=periodic)

    def set_resort(self, flag: bool) -> None:
        """Opt into method B: request the solver-specific particle order and
        distribution to be returned from :meth:`run`."""
        self._check_alive()
        self._resort_requested = bool(flag)

    def set_max_particle_move(self, max_move: Optional[float]) -> None:
        """Pass the application's bound on the maximum particle movement
        since the previous :meth:`run` (``None`` = unknown).  Enables the
        limited-movement redistribution strategies."""
        self._check_alive()
        if max_move is not None and max_move < 0:
            raise ValueError(f"max_move must be non-negative, got {max_move}")
        self._max_move = max_move

    # -- execution -----------------------------------------------------------------

    def tune(self, particles: ParticleSet, accuracy: float = 1e-3) -> None:
        """Tuning step (``fcs_tune``)."""
        self._check_alive()
        self._solver.tune(particles, accuracy)

    def run(self, particles: ParticleSet) -> RunReport:
        """Compute the long-range interactions (``fcs_run``).

        Writes potentials and fields into ``particles``.  Returns the run
        report; use :meth:`resort_availability` for the paper's query
        function telling whether the particle order and distribution was
        changed.
        """
        self._check_alive()
        with machine_span(
            self.machine, "fcs.run", op="solver.run",
            solver=self.method, resort=self._resort_requested,
        ):
            report = self._solver.run(
                particles, resort=self._resort_requested, max_move=self._max_move
            )
        self.machine.count("solver.runs", solver=self.method)
        self._last_report = report
        self._max_move = None  # a bound holds for one run only
        return report

    # -- method B support --------------------------------------------------------------

    @property
    def last_report(self) -> Optional[RunReport]:
        """The :class:`RunReport` of the most recent :meth:`run` (``None``
        before any run) — exposed for the verification subsystem's
        resort-index invariants."""
        return self._last_report

    def resort_availability(self) -> bool:
        """Whether the last run returned the changed (solver-specific)
        particle order and distribution, i.e. whether resort indices exist.

        ``False`` after a method-A run, before any run, or when the local
        particle data arrays of at least one process were too small so the
        original order and distribution had to be restored.
        """
        return bool(self._last_report and self._last_report.changed)

    @property
    def plan_stats(self) -> ResortPlanStats:
        """Aggregated plan-engine statistics for this handle: schedule
        compiles, cache hits, fused executions, columns and payload bytes
        moved — across every plan this handle has compiled."""
        stats = self._retired_plan_stats
        if self._plan is not None:
            stats = stats.merged(self._plan.stats)
        return stats

    def resort_plan(self) -> ResortPlan:
        """Return the compiled redistribution plan for the last run's resort
        indices (``fcs_resort_plan``).

        The plan is compiled on first request and cached on the handle;
        subsequent requests — including across later :meth:`run` calls whose
        resort indices turn out identical (a particle distribution that did
        not change between time steps) — reuse it after an explicit validity
        check, skipping schedule compilation entirely.
        """
        self._check_alive()
        report = self._require_resort_report()
        plan = self._plan
        if plan is not None and plan.matches(
            report.resort_indices,
            report.old_counts,
            report.new_counts,
            comm=report.comm,
        ):
            plan.stats.cache_hits += 1
            self.machine.count("resort_plan.cache_hits")
            return plan
        if plan is not None:
            self._retired_plan_stats = self._retired_plan_stats.merged(plan.stats)
        plan = ResortPlan(
            self.machine,
            report.resort_indices,
            [int(c) for c in report.old_counts],
            [int(c) for c in report.new_counts],
            comm=report.comm,
            phase="resort",
        )
        self._plan = plan
        return plan

    def resort(
        self,
        data,
        columns=None,
        *,
        plan: Optional[ResortPlan] = None,
    ):
        """Redistribute additional per-particle data (``fcs_resort``).

        The unified resort entry point: moves one or many data columns of
        arbitrary dtype from the original to the changed order and
        distribution in a **single** fused exchange, driven by the cached
        :class:`~repro.core.plan.ResortPlan`.

        Parameters
        ----------
        data:
            either one column or a sequence of columns.  A column is a
            rank-major :class:`~repro.core.particles.RankMajor` array or a
            list with one array per rank (concatenated once, at entry);
            columns keep their dtypes, rows may be scalars or ``(k,)``
            vectors.  Returned the same way: one ``RankMajor`` array, or a
            list of them — ``out[c][r]`` is a view of column ``c``'s one
            delivered buffer, ``out[c].data`` that buffer.
        plan:
            an explicit plan from :meth:`resort_plan` (also accepted as the
            first positional argument: ``fcs.resort(plan, data)``).  When
            omitted, the handle's cached plan is used (compiling it if
            needed).  A plan that no longer matches the last run's resort
            indices raises ``ValueError``.
        """
        self._check_alive()
        if isinstance(data, ResortPlan):
            if plan is not None:
                raise TypeError("pass the plan positionally or as plan=, not both")
            if columns is None:
                raise TypeError("fcs.resort(plan, data): data columns are required")
            plan, data = data, columns
        elif columns is not None:
            raise TypeError(
                "the second positional argument is only valid when the first "
                "is a ResortPlan"
            )
        report = self._require_resort_report()
        if plan is None:
            plan = self.resort_plan()
        elif not plan.matches(
            report.resort_indices,
            report.old_counts,
            report.new_counts,
            comm=report.comm,
        ):
            raise ValueError(
                "stale resort plan: it does not match the last run's resort "
                "indices; request a fresh one with fcs.resort_plan()"
            )
        single = isinstance(data, RankMajor)
        if not single:
            data = list(data)
            single = bool(data) and all(isinstance(a, np.ndarray) for a in data)
        cols = [data] if single else data
        for col in cols:
            if len(col) != self.machine.nprocs:
                raise ValueError(
                    f"{len(col)} data arrays for {self.machine.nprocs} ranks"
                )
        out = plan.execute(cols)
        return out[0] if single else out

    def _require_resort_report(self) -> RunReport:
        report = self._last_report
        if report is None or not report.changed or report.resort_indices is None:
            raise RuntimeError(
                "resort indices unavailable: the last run did not return the "
                "changed particle order (check resort_availability())"
            )
        return report

    # -- checkpointing --------------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """The handle's resort state as checkpoint-plain data: the resort
        request, the last :class:`RunReport` and whether a compiled
        :class:`ResortPlan` was cached — the plan itself is not stored; its
        *key*, the report's resort indices, is."""
        report = self._last_report
        return {
            "resort_requested": self._resort_requested,
            "has_plan": self._plan is not None,
            "report": None if report is None else report.state_dict(),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict` (absent keys load as a fresh
        handle's).  A cached plan is recompiled from the same resort indices,
        so the continuation cache-hits on the identical key exactly like the
        donor run; the compile charges the machine, which a restore wipes
        when it reinstates the clocks and trace afterwards."""
        self._resort_requested = bool(state.get("resort_requested", False))
        report = state.get("report")
        self._last_report = None if report is None else RunReport.from_state(report)
        if state.get("has_plan") and self.resort_availability():
            self.resort_plan()

    # -- lifecycle ------------------------------------------------------------------------

    def destroy(self) -> None:
        """Release the solver instance and its resources (``fcs_destroy``)."""
        if not self._destroyed:
            self._solver.destroy()
            self._plan = None
            self._destroyed = True

    def _check_alive(self) -> None:
        if self._destroyed:
            raise RuntimeError("FCS handle already destroyed")

    def __enter__(self) -> "FCS":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy()

    def __repr__(self) -> str:
        state = "destroyed" if self._destroyed else "active"
        return f"FCS(method={self.method!r}, {state})"
