"""The coupled particle dynamics simulation (Fig. 3 of the paper).

:class:`Simulation` wires the pieces together: a generated particle system,
one of the three initial distributions, a solver behind the ScaFaCoS-like
``FCS`` handle, the leapfrog integrator, and one of the redistribution
methods:

* ``method="A"`` — the library restores the original particle order and
  distribution after every ``fcs_run`` (Sect. III-A),
* ``method="B"`` — the application adopts the solver-specific order and
  distribution; after each run the velocities, accelerations and particle
  identities are redistributed with the solver-created resort indices
  (Sect. III-B) in one fused plan-based ``fcs.resort`` exchange,
* ``method="B+move"`` — additionally the maximum particle movement measured
  during the position update is passed to the solver, enabling the
  merge-based parallel sorting (FMM) / neighborhood communication (P2NFFT).

Every step produces a :class:`StepRecord` with the per-phase virtual-time
deltas — the data behind each of the paper's figures.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.balance import LOAD_BALANCE_MODES, ImbalanceMonitor
from repro.core.geometry import squared_norms
from repro.core.handle import FCS, fcs_init
from repro.core.particles import ColumnBlock, ParticleSet, RankMajor, column_view
from repro.md.distributions import distribute_rows
from repro.md.integrator import accelerations, position_update, velocity_update
from repro.md.observables import kinetic_energy, potential_energy
from repro.md.systems import ParticleSystem
from repro.obs.spans import machine_span
from repro.simmpi.machine import Machine
from repro.simmpi.tracing import PhaseStats, PhaseTable

__all__ = [
    "BALANCE_PHASES", "REDISTRIBUTION_PHASES", "Simulation", "SimulationConfig", "StepRecord",
]

METHODS = ("A", "B", "B+move", "adaptive")

#: the phases that constitute "redistribution" (the paper's subject): the
#: sort into the solver layout, method A's restoration, and method B's
#: resort of application data with its resort-index creation and the plan
#: engine's schedule-compilation exchanges
REDISTRIBUTION_PHASES = ("sort", "restore", "resort", "resort_index", "resort_plan")

#: trace phases whose per-rank nominal work feeds λ — near is the
#: distribution-sensitive cost, far is count-proportional, and the weighted
#: splitter balances their sum, so λ watches both
BALANCE_PHASES = ("near", "far")


@dataclasses.dataclass
class SimulationConfig:
    """Knobs of the coupled simulation."""

    solver: str = "fmm"
    method: str = "A"
    dt: float = 0.01
    accuracy: float = 1e-3
    distribution: str = "random"
    track_energy: bool = False
    mass: float = 1.0
    seed: int = 0
    solver_kwargs: dict = dataclasses.field(default_factory=dict)
    #: ``"force"`` integrates the solver's fields (full physics);
    #: ``"brownian"`` replaces the forces by persistent randomly rotating
    #: velocities of fixed per-step displacement ``brownian_step`` — a
    #: surrogate for the melt's diffusive drift used by the long-running
    #: redistribution benchmarks (every redistribution stays charged in full)
    dynamics: str = "force"
    brownian_step: float = 0.05
    #: for ``method="adaptive"``: how many steps between re-evaluations of
    #: the A-vs-B choice (an extension beyond the paper: the application
    #: trials both redistribution methods online and keeps the cheaper one)
    adapt_every: int = 25
    #: optional :class:`~repro.simmpi.chaos.Perturbation` applied to the
    #: machine before any cost is charged (the DST chaos harness); ``None``
    #: leaves the machine untouched
    perturbation: Optional[object] = None
    #: weighted-partition load balancing (:mod:`repro.core.balance`):
    #: ``"off"`` keeps the historical count-based partitioning bit-for-bit;
    #: ``"static"`` rebalances once on the first solver run; ``"dynamic"``
    #: attaches an :class:`~repro.core.balance.ImbalanceMonitor` that
    #: triggers rebalances when λ = max/mean rank work crosses
    #: ``balance_trigger`` (with ``balance_rearm`` hysteresis).  Only
    #: solvers with ``supports_rebalance`` (the FMM) ever repartition;
    #: others record the mode and ignore it.
    load_balance: str = "off"
    balance_trigger: float = 1.5
    balance_rearm: float = 1.15
    #: local array over-allocation passed to
    #: :func:`~repro.md.distributions.distribute` — method B adopts a
    #: changed layout only when it fits (Sect. III-B), and a *weighted*
    #: layout is count-unequal by design, so balanced runs typically need
    #: more headroom than the homogeneous default
    capacity_factor: float = 3.0
    #: write a :mod:`repro.ckpt` checkpoint to ``checkpoint_dir`` every N
    #: steps (after initialization and whenever ``step_index % N == 0``);
    #: 0 disables auto-checkpointing.  Checkpoint capture is an out-of-band
    #: observation and charges no machine cost, so a checkpointed run's
    #: trace is bitwise that of an uncheckpointed one.
    checkpoint_every: int = 0
    #: target directory for auto-checkpoints (files named
    #: ``step-NNNNNN.ckpt.ndjson``); required when ``checkpoint_every > 0``
    checkpoint_dir: Optional[str] = None
    #: execution backend hosting the payload data plane: ``None`` (default)
    #: leaves the machine's current attachment untouched, ``"inprocess"``
    #: detaches it, ``"process"`` / ``"process:N"`` resolve via
    #: :func:`repro.backend.resolve_backend`, or pass a live
    #: :class:`~repro.backend.ExecutionBackend`.  Purely a hosting choice:
    #: traces, ledgers and state fingerprints are backend-independent
    #: (see ``docs/backends.md``)
    backend: object = None
    #: collective-algorithm spec (:func:`repro.simmpi.algos.parse_algos`
    #: grammar, e.g. ``"bruck"`` or ``"alltoallv=pairwise+allreduce=
    #: binomial-tree"``): routes the named collectives through staged
    #: algorithm engines instead of the direct one-shot model.  Recv
    #: payloads are bitwise-identical by contract; only modeled clocks and
    #: message/byte counts move (see ``docs/collectives.md``).  ``None`` or
    #: ``"direct"`` keeps the default direct path everywhere.
    collective_algos: Optional[str] = None

    def __post_init__(self) -> None:
        """Reject unknown or conflicting knobs up front.

        A mistyped knob silently running the default scenario is the worst
        failure mode of a benchmark harness — every constraint below raises
        immediately with the accepted values spelled out.  Note what is
        deliberately *not* checked here: the solver name (``fcs_init``
        already raises with the registry contents) and
        ``load_balance="dynamic"`` with non-rebalanceable solvers or with
        method A (legal — the mode is recorded and simply never fires, a
        combination the conformance and DST suites exercise on purpose).
        """
        from repro.md.distributions import DISTRIBUTIONS

        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.dynamics not in ("force", "brownian"):
            raise ValueError(
                f"dynamics must be 'force' or 'brownian', got {self.dynamics!r}"
            )
        if self.load_balance not in LOAD_BALANCE_MODES:
            raise ValueError(
                f"load_balance must be one of {LOAD_BALANCE_MODES}, "
                f"got {self.load_balance!r}"
            )
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {DISTRIBUTIONS}, "
                f"got {self.distribution!r}"
            )
        if not isinstance(self.solver_kwargs, dict):
            raise ValueError(
                "solver_kwargs must be a dict of solver constructor arguments, "
                f"got {type(self.solver_kwargs).__name__}"
            )
        for knob, value, low in (
            ("dt", self.dt, 0.0),
            ("accuracy", self.accuracy, 0.0),
            ("mass", self.mass, 0.0),
        ):
            if not value > low:
                raise ValueError(f"{knob} must be > {low}, got {value!r}")
        if self.brownian_step < 0:
            raise ValueError(
                f"brownian_step must be >= 0, got {self.brownian_step!r}"
            )
        if self.adapt_every < 1:
            raise ValueError(f"adapt_every must be >= 1, got {self.adapt_every!r}")
        if self.capacity_factor < 1.0:
            raise ValueError(
                f"capacity_factor must be >= 1 (arrays cannot shrink below "
                f"their particle count), got {self.capacity_factor!r}"
            )
        if not self.balance_trigger >= self.balance_rearm >= 1.0:
            raise ValueError(
                "conflicting balance knobs: need balance_trigger >= "
                f"balance_rearm >= 1 (hysteresis), got trigger="
                f"{self.balance_trigger!r}, rearm={self.balance_rearm!r}"
            )
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every!r}"
            )
        if self.checkpoint_every > 0 and not self.checkpoint_dir:
            raise ValueError(
                "conflicting knobs: checkpoint_every > 0 needs a "
                "checkpoint_dir to write into; pass checkpoint_dir=... or "
                "checkpoint_every=0"
            )
        if self.backend is not None:
            from repro.backend import BACKEND_NAMES, ExecutionBackend
            from repro.backend.base import _parse_spec

            if isinstance(self.backend, str):
                _parse_spec(self.backend)  # raises BackendError on bad specs
            elif not isinstance(self.backend, ExecutionBackend):
                raise ValueError(
                    f"backend must be None, one of {BACKEND_NAMES} (optionally "
                    f"'process:N'), or an ExecutionBackend instance, got "
                    f"{type(self.backend).__name__}"
                )
        if self.collective_algos is not None:
            from repro.simmpi.algos import parse_algos

            parse_algos(self.collective_algos)  # raises ValueError on bad specs


@dataclasses.dataclass
class StepRecord:
    """Per-step timing and diagnostics."""

    step: int
    #: per-phase virtual-time/message/byte deltas of this step (a
    #: :class:`~repro.simmpi.tracing.PhaseTable`, also when restored)
    phases: Dict[str, PhaseStats]
    #: total virtual-time delta of the step
    total_time: float
    #: global maximum particle displacement during the position update
    max_move: float
    #: whether the solver returned the changed order (method B succeeded)
    changed: bool
    #: solver strategy ("partition", "merge", "grid+alltoall", ...)
    strategy: str
    #: redistribution method in effect ("A", "B", "B+move")
    method: str = ""
    energy: Optional[float] = None
    #: load-imbalance factor λ = max/mean per-rank near-field work of this
    #: step (``None`` unless a dynamic balance monitor is attached)
    lambda_factor: Optional[float] = None

    def phase_time(self, *labels: str) -> float:
        """Summed virtual time of the given phase labels in this step
        (missing labels count as zero, like :meth:`PhaseTable.time`)."""
        return sum(self.phases[l].time for l in labels if l in self.phases)

    def redistribution_time(self) -> float:
        """Virtual time of this step's :data:`REDISTRIBUTION_PHASES`."""
        return self.phase_time(*REDISTRIBUTION_PHASES)

    def state_dict(self) -> Dict[str, Any]:
        """The record as checkpoint-plain data (fields by name)."""
        phases = {label: stats.state_dict() for label, stats in self.phases.items()}
        return {**vars(self), "phases": phases}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "StepRecord":
        """Inverse of :meth:`state_dict`."""
        phases = PhaseTable(
            (label, PhaseStats(**s)) for label, s in state["phases"].items()
        )
        return cls(**{**state, "phases": phases})


class Simulation:
    """A particle dynamics simulation coupled to a long-range solver.

    The application's own per-particle data — velocities, accelerations and
    particle identities — is stored like the particle set's columns: one
    rank-major block ``store`` (``vel``, ``acc``, ``ids``) with one offsets
    vector.  ``sim.vel``, ``sim.acc`` and ``sim.ids`` are per-rank views of
    it.
    """

    vel = column_view("vel")
    acc = column_view("acc")
    ids = column_view("ids")

    def __init__(
        self,
        machine: Machine,
        system: ParticleSystem,
        config: Optional[SimulationConfig] = None,
    ) -> None:
        self.machine = machine
        self.system = system
        self.config = config or SimulationConfig()
        cfg = self.config
        if cfg.perturbation is not None:
            machine.perturb(cfg.perturbation)
        if cfg.backend is not None:
            from repro.backend import resolve_backend

            machine.attach_backend(resolve_backend(cfg.backend))
        if cfg.collective_algos is not None:
            machine.set_collective_algos(cfg.collective_algos)

        self.particles, vel, _, order = distribute_rows(
            system,
            machine.nprocs,
            cfg.distribution,
            seed=cfg.seed,
            capacity_factor=cfg.capacity_factor,
        )
        #: the application's columns, rank-major like ``particles``
        self.store = RankMajor(
            ColumnBlock(
                vel=vel.data,
                acc=np.zeros_like(vel.data),
                ids=order,
            ),
            vel.offsets,
        )

        self.fcs: FCS = fcs_init(cfg.solver, machine, **cfg.solver_kwargs)
        self.fcs.set_common(box=system.box, offset=system.offset, periodic=True)
        #: the redistribution method in effect this step ("A" or "B"/"B+move");
        #: fixed unless method="adaptive"
        self.active_method = "B" if cfg.method == "adaptive" else cfg.method
        self._adaptive_trial: Optional[str] = None
        self._method_costs: Dict[str, float] = {}
        self._switch_transient = False
        if self.active_method in ("B", "B+move"):
            self.fcs.set_resort(True)
        #: the dynamic-mode :class:`~repro.core.balance.ImbalanceMonitor`
        #: (``None`` unless ``load_balance="dynamic"`` on a solver that can
        #: repartition ownership)
        self.balance_monitor: Optional[ImbalanceMonitor] = None
        if cfg.load_balance != "off":
            self.fcs.solver.set_load_balance(cfg.load_balance)
            if cfg.load_balance == "dynamic" and self.fcs.solver.supports_rebalance:
                self.balance_monitor = ImbalanceMonitor(
                    trigger=cfg.balance_trigger, rearm=cfg.balance_rearm
                )
        self.records: List[StepRecord] = []
        self.step_index = 0
        self._initialized = False
        self._last_max_move: Optional[float] = None
        self._rng = np.random.default_rng(cfg.seed + 7919)
        if cfg.dynamics == "brownian":
            # initialize random walk directions — unless the system already
            # carries velocities (e.g. restarted from a checkpoint)
            if not (vel.data.size and np.abs(vel.data).max() > 0):
                speed = cfg.brownian_step / cfg.dt
                self.store.data["vel"] = self._random_directions(vel.data.shape[0]) * speed

    # -- setup (Fig. 3, lines 2-6) ------------------------------------------------

    def initialize(self) -> StepRecord:
        """Tune the solver and compute the initial interactions/accelerations."""
        if self._initialized:
            raise RuntimeError("simulation already initialized")
        cfg = self.config
        snap = self.machine.trace.snapshot()
        wsnap = self.machine.trace.rank_work_snapshot()
        t0 = self.machine.elapsed()
        with machine_span(
            self.machine, "sim.initialize", op="sim.initialize",
            solver=cfg.solver, method=self.active_method,
        ):
            self.fcs.tune(self.particles, cfg.accuracy)
            report = self.fcs.run(self.particles)
            if report.changed:
                self._resort_application_data(report)
            lam = self._observe_balance(wsnap, step=0)
            self.store.data["acc"] = accelerations(
                self.particles.q, self.particles.field, cfg.mass
            ).data
        record = StepRecord(
            step=0,
            phases=self.machine.trace.delta_since(snap),
            total_time=self.machine.elapsed() - t0,
            max_move=0.0,
            changed=report.changed,
            strategy=report.strategy,
            method=self.active_method,
            energy=self._energy() if cfg.track_energy else None,
            lambda_factor=lam,
        )
        self.records.append(record)
        self._initialized = True
        return record

    # -- one loop iteration (Fig. 3, lines 9-12) --------------------------------------

    def step(self) -> StepRecord:
        """Advance the simulation by one time step."""
        if not self._initialized:
            raise RuntimeError("call initialize() before step()")
        cfg = self.config
        snap = self.machine.trace.snapshot()
        wsnap = self.machine.trace.rank_work_snapshot()
        t0 = self.machine.elapsed()

        if cfg.method == "adaptive":
            self._adapt()

        with machine_span(
            self.machine, "sim.step", op="sim.step",
            step=self.step_index + 1, method=self.active_method,
        ):
            new_pos, max_move = position_update(
                self.machine,
                self.particles.pos,
                self.vel,
                self.acc,
                cfg.dt,
                box=self.system.box,
                offset=self.system.offset,
            )
            self.particles.block["pos"] = new_pos.data
            self._last_max_move = max_move

            if self.active_method == "B+move":
                self.fcs.set_max_particle_move(max_move)
            report = self.fcs.run(self.particles)
            if report.changed:
                self._resort_application_data(report)
            lam = self._observe_balance(wsnap, step=self.step_index + 1)

            columns = self.store.data  # after the resort: it installs a new store
            if cfg.dynamics == "brownian":
                # persistent random-walk surrogate: rotate directions
                # slightly, keep the per-step displacement fixed (acc stays
                # zero)
                speed = cfg.brownian_step / cfg.dt
                columns["vel"] = self._rotate_directions(columns["vel"], speed)
                columns["acc"] = np.zeros_like(columns["acc"])
                self.machine.compute(1e-8 * self.store.counts, phase="integrate")
            else:
                acc_new = accelerations(
                    self.particles.q, self.particles.field, cfg.mass
                )
                columns["vel"] = velocity_update(
                    self.machine, self.vel, self.acc, acc_new, cfg.dt
                ).data
                columns["acc"] = acc_new.data

        self.step_index += 1
        record = StepRecord(
            step=self.step_index,
            phases=self.machine.trace.delta_since(snap),
            total_time=self.machine.elapsed() - t0,
            max_move=max_move,
            changed=report.changed,
            strategy=report.strategy,
            method=self.active_method,
            energy=self._energy() if cfg.track_energy else None,
            lambda_factor=lam,
        )
        self.records.append(record)
        return record

    def run(self, steps: int) -> List[StepRecord]:
        """Initialize (if needed) and simulate ``steps`` time steps.

        With ``config.checkpoint_every > 0`` a restartable checkpoint is
        written to ``config.checkpoint_dir`` after initialization and after
        every N-th step — see :mod:`repro.ckpt`.  A negative ``steps`` is
        refused before anything runs.
        """
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps!r}")
        if not self._initialized:
            self.initialize()
            self._maybe_checkpoint()
        for _ in range(steps):
            self.step()
            self._maybe_checkpoint()
        return self.records

    # -- checkpointing (repro.ckpt) ---------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """The application state as deep-copied checkpoint-plain data: step
        counters, method/adaptive bookkeeping, RNG, step ``records`` and the
        particle ``columns`` — one array per rank, cut from one copy of each
        stored column — with their ``capacities``.  Pure observation —
        charges no machine cost.  The solver handle, solver, balance monitor
        and machine each own (and serialize) their own state."""
        stores = (self.particles.store, self.store)
        return {
            "step_index": self.step_index,
            "initialized": self._initialized,
            "active_method": self.active_method,
            "last_max_move": self._last_max_move,
            "adaptive": {
                "trial": self._adaptive_trial,
                "method_costs": dict(self._method_costs),
                "switch_transient": self._switch_transient,
            },
            "rng_state": copy.deepcopy(self._rng.bit_generator.state),
            "records": [record.state_dict() for record in self.records],
            "columns": {
                name: list(RankMajor(store.data[name].copy(), store.offsets))
                for store in stores
                for name in store.data
            },
            "capacities": self.particles.capacities.tolist(),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict`: overwrite the application state
        bit-for-bit (copying, so ``state`` is never aliased).  The columns
        must all be cut the same way — one ``ValueError`` names a column and
        rank that is not, before anything is overwritten.  Absent
        bookkeeping keys keep a freshly constructed simulation's values."""
        store = RankMajor.of_columns(state["columns"])
        columns, offsets = store.data, store.offsets
        particles = ParticleSet(
            RankMajor(columns["pos"], offsets),
            RankMajor(columns["q"], offsets),
            capacities=list(state["capacities"]),
        )
        particles.block["pot"], particles.block["field"] = columns["pot"], columns["field"]
        self.particles = particles
        self.store = RankMajor(
            ColumnBlock(vel=columns["vel"], acc=columns["acc"], ids=columns["ids"]), offsets
        )
        self.records = [StepRecord.from_state(r) for r in state.get("records", [])]
        self.step_index = int(state.get("step_index", 0))
        self._initialized = bool(state.get("initialized", False))
        self.active_method = str(state.get("active_method", self.active_method))
        last_max_move = state.get("last_max_move")
        self._last_max_move = None if last_max_move is None else float(last_max_move)
        adaptive = state.get("adaptive", {})
        self._adaptive_trial = adaptive.get("trial")
        self._method_costs = {
            str(k): float(v) for k, v in adaptive.get("method_costs", {}).items()
        }
        self._switch_transient = bool(adaptive.get("switch_transient", False))
        if "rng_state" in state:
            self._rng.bit_generator.state = copy.deepcopy(state["rng_state"])

    def save_checkpoint(self, path: str) -> int:
        """Write a restartable :mod:`repro.ckpt` checkpoint; returns bytes
        written.  Pure observation — charges no machine cost."""
        from repro.ckpt import save_checkpoint

        return save_checkpoint(self, path)

    def _maybe_checkpoint(self) -> None:
        cfg = self.config
        if cfg.checkpoint_every <= 0:
            return
        if self.step_index % cfg.checkpoint_every != 0:
            return
        import os

        self.save_checkpoint(
            os.path.join(
                cfg.checkpoint_dir, f"step-{self.step_index:06d}.ckpt.ndjson"
            )
        )

    # -- adaptive method selection (extension beyond the paper) -----------------------

    def _adapt(self) -> None:
        """Online A-vs-B selection (an extension beyond the paper).

        The controller measures each step's redistribution cost from the
        phase trace and

        * switches eagerly when the active method's cost drifts above the
          alternative's last known cost (method A's cost grows as particles
          drift away from the frozen application layout — Fig. 8 — while
          method B's stays flat),
        * re-trials the inactive method every ``adapt_every`` steps so its
          cost estimate never goes stale,
        * discards the first step after any switch from the bookkeeping:
          a method switch triggers a one-off layout-refresh redistribution
          that does not reflect the method's steady-state cost.

        A useful emergent behaviour: right after a B step the application
        holds the solver layout, making method A temporarily almost free —
        the controller then runs A until drift makes it lose again, i.e. it
        implements "method A with periodic layout refreshes" automatically.
        """
        last = self.records[-1] if self.records else None
        if last is not None and not self._switch_transient:
            method_of_last = self._adaptive_trial or self.active_method
            self._method_costs[method_of_last] = last.redistribution_time()
        measured = not self._switch_transient
        self._switch_transient = False

        if self._adaptive_trial is not None:
            if not measured:
                # the trial's first step was the layout-refresh transient;
                # keep trialing one more step to measure the steady cost
                return
            # the trial measurement is in: pick the winner
            trial = self._adaptive_trial
            self._adaptive_trial = None
            other = "A" if trial != "A" else "B"
            if self._method_costs.get(trial, np.inf) >= self._method_costs.get(
                other, np.inf
            ):
                self._set_active(other)
            return
        mine = self._method_costs.get(self.active_method, np.inf)
        other_method = "A" if self.active_method != "A" else "B"
        theirs = self._method_costs.get(other_method, np.inf)
        if np.isfinite(theirs) and mine > 1.5 * theirs:
            self._set_active(other_method)
        elif self.step_index > 0 and self.step_index % self.config.adapt_every == 0:
            # start a trial of the other method (one measured step; switches
            # into B get an extra unmeasured layout-refresh step first)
            self._adaptive_trial = "A" if self.active_method != "A" else "B"
            self._set_active(self._adaptive_trial)

    _B_FAMILY = ("B", "B+move")

    def _set_active(self, method: str) -> None:
        # switching INTO method B triggers a one-off full redistribution to
        # (re-)adopt the solver layout; that transient is not the method's
        # steady-state cost.  Switching to A just stops resorting.
        if method != self.active_method and method in self._B_FAMILY:
            self._switch_transient = True
        self.active_method = method
        self.fcs.set_resort(method in self._B_FAMILY)

    # -- dynamic load balancing --------------------------------------------------------

    def _observe_balance(
        self, rank_work_snapshot: Dict[str, np.ndarray], step: int
    ) -> Optional[float]:
        """Feed this step's per-rank nominal work to the imbalance monitor.

        On a trigger the solver is asked to rebalance on its *next* run, and
        the adaptive-method bookkeeping treats that next step as a layout
        transient (its one-off balance exchange is not any method's
        steady-state redistribution cost).  The observed work is the
        pre-perturbation nominal of :meth:`Trace.rank_work_delta
        <repro.simmpi.tracing.Trace.rank_work_delta>`, so the decision is
        schedule-independent.
        """
        if self.balance_monitor is None:
            return None
        delta = self.machine.trace.rank_work_delta(rank_work_snapshot)
        work = np.zeros(self.machine.nprocs, dtype=np.float64)
        for phase in BALANCE_PHASES:
            contribution = delta.get(phase)
            if contribution is not None:
                work += contribution
        fired = self.balance_monitor.observe(work, step)
        lam = self.balance_monitor.history[-1]
        obs = self.machine.obs
        if obs is not None:
            obs.metrics.gauge("balance.lambda").set(lam)
            if fired:
                obs.metrics.counter("balance.triggers").inc()
                obs.mark("balance.trigger", op="balance", step=step, lam=lam)
        if fired:
            self.fcs.solver.request_rebalance()
            self._switch_transient = True
        return lam

    # -- brownian surrogate dynamics ---------------------------------------------------

    def _random_directions(self, n: int) -> np.ndarray:
        v = self._rng.normal(size=(n, 3))
        norm = np.sqrt(squared_norms(v))
        norm[norm == 0] = 1.0
        return v / norm[:, None]

    def _rotate_directions(self, vel: np.ndarray, speed: float) -> np.ndarray:
        """One pass over the velocities of all ranks; the jitter is one draw
        from the application's stream (a ``Generator`` fills in order, so it
        is the draws a rank-by-rank loop would make)."""
        if vel.shape[0] == 0:
            return vel
        v = self._rng.normal(size=vel.shape)
        v *= 0.3
        v += vel / max(speed, 1e-300)
        norm = np.sqrt(squared_norms(v))
        norm[norm == 0] = 1.0
        v /= norm[:, None]
        v *= speed
        return v

    # -- method B plumbing ------------------------------------------------------------

    def _resort_application_data(self, report) -> None:
        """Adapt velocities, accelerations and identities to the changed
        particle order and distribution.

        The plan compiled from the run's resort indices is cached on the
        handle, so across unchanged time steps only the data exchange
        remains: the six float columns and the ids travel in ONE fused
        exchange."""
        vel, acc, ids = self.fcs.resort(
            (self.vel, self.acc, self.ids), plan=self.fcs.resort_plan()
        )
        self.store = RankMajor(ColumnBlock(vel=vel.data, acc=acc.data, ids=ids.data), vel.offsets)

    # -- observables -----------------------------------------------------------------

    def _energy(self) -> float:
        return kinetic_energy(self.vel, self.config.mass) + potential_energy(
            self.particles.q, self.particles.pot
        )

    def gather_state(self) -> Dict[str, np.ndarray]:
        """Global (id-ordered) positions, velocities, charges — an
        out-of-band observer view for tests and examples."""
        ids = self.store.data["ids"]
        order = np.argsort(ids)
        block = self.particles.block
        return {
            "ids": ids[order],
            "pos": block["pos"][order],
            "vel": self.store.data["vel"][order],
            "q": block["q"][order],
            "pot": block["pot"][order],
        }
