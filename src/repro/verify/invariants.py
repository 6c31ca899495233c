"""Composable invariant checks for live simulations and machines.

Every check is registered under a unique name in a global registry and runs
against a :class:`~repro.md.simulation.Simulation` (wrapped in an
:class:`InvariantChecker`, which captures the conserved baselines when it
attaches).  A check returns ``None`` when the invariant holds, a failure
message when it is violated, or :data:`SKIPPED` when it does not apply to
the current configuration (e.g. energy drift without energy tracking).

The catalog covers the failure modes a redistribution bug produces:

==============================  ====================================================
``particle-count``              global particle count conserved across every
                                redistribution (no lost/duplicated particles)
``charge-conservation``         total charge conserved (redistribution moves
                                charges, never creates them)
``identity-permutation``        the tracked particle identities are exactly a
                                permutation of the initial ids (method B's
                                ``fcs_resort_ints`` bookkeeping stays intact)
``local-shape-consistency``     per-rank velocity/acceleration/id array lengths
                                match the per-rank particle counts
``capacity-respected``          no rank holds more particles than its declared
                                local array capacity (the method-B gate)
``resort-permutation``          the last run's resort indices hit each packed
                                (target rank, target position) exactly once
``results-finite``              potentials and fields contain no NaN/Inf
``trace-accounting``            per-phase ``messages``/``bytes`` in the machine
                                trace equal the sums the audited collectives
                                report (requires an attached CommAuditor)
``plan-accounting``             the resort-plan engine's self-reported fused
                                traffic never exceeds what its audited
                                exchanges actually carried — messages and
                                bytes, bytes only where Bruck staging forwarded
                                aggregated blocks (requires an attached
                                CommAuditor and executed plans)
``collective-algo-accounting``  a staged collective engine's planned messages
                                and bytes equal what its audited rounds carried
                                (requires an attached CommAuditor and a staged
                                algorithm spec)
``energy-drift``                bounded total-energy drift in energy-tracked runs
``momentum-bounded``            total momentum stays near zero under force
                                dynamics (forces sum to zero pairwise)
``schedule-independence``       the physics state fingerprint is bitwise
                                identical to the reference run's at the same
                                step (armed by
                                :func:`~repro.verify.trajectory.play` via
                                ``expected_fingerprint``): a chaos schedule, or
                                a run killed and resumed from its checkpoint
``balance-conservation``        weighted rebalancing permutes but never drops
                                particles, and the observed imbalance factor
                                after a triggered rebalance never exceeds the
                                factor that triggered it
``clock-monotonicity``          virtual clocks and per-phase times never go
                                negative
==============================  ====================================================

Register additional checks with the :func:`invariant` decorator::

    @invariant("my-check", "one-line description")
    def _my_check(checker):
        if something_wrong(checker.sim):
            return "what went wrong"
        return None
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.resort import unpack_resort_index

__all__ = [
    "SKIPPED",
    "CheckResult",
    "Invariant",
    "InvariantChecker",
    "InvariantViolation",
    "all_invariants",
    "check_resort_permutation",
    "get_invariant",
    "invariant",
    "run_invariants",
    "state_fingerprint",
]

#: sentinel a check returns when it does not apply to the configuration
SKIPPED = object()

#: phases whose traffic flows exclusively through audited primitives; the
#: modeled far-field/mesh charges (direct ``Machine.advance`` calls in the
#: FMM and P2NFFT compute paths) are cost-model artifacts with no data plane
#: to audit and are deliberately excluded
AUDITED_PHASES = frozenset(
    {
        "sort",
        "restore",
        "resort",
        "resort_index",
        "resort_plan",
        "halo",
        "gather",
        "integrate",
        "tune",
        "balance",
    }
)


class InvariantViolation(AssertionError):
    """One or more registered invariants failed."""


@dataclasses.dataclass(frozen=True)
class Invariant:
    """A registered invariant check."""

    name: str
    description: str
    check: Callable[["InvariantChecker"], object]


@dataclasses.dataclass
class CheckResult:
    """Outcome of running one invariant."""

    name: str
    status: str  # "passed" | "failed" | "skipped"
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "failed"


_REGISTRY: Dict[str, Invariant] = {}


def invariant(name: str, description: str) -> Callable:
    """Decorator registering a check function under ``name``."""

    def register(fn: Callable[["InvariantChecker"], object]) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"invariant {name!r} already registered")
        _REGISTRY[name] = Invariant(name=name, description=description, check=fn)
        return fn

    return register


def get_invariant(name: str) -> Invariant:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown invariant {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def all_invariants() -> List[Invariant]:
    """Registered invariants in registration order."""
    return list(_REGISTRY.values())


# -- standalone checkers (shared by invariants and direct tests) -----------------


def check_resort_permutation(
    resort_indices: Sequence[np.ndarray],
    new_counts: Sequence[int],
    nprocs: int,
) -> Optional[str]:
    """Validate that resort indices form a permutation onto the new layout.

    Unpacks every packed (target rank, target position) value and checks
    each target slot ``(r, p)`` with ``p < new_counts[r]`` is hit exactly
    once — the property ``fcs_resort_floats``/``fcs_resort_ints`` rely on.
    Returns a failure message or ``None``.
    """
    if len(new_counts) != nprocs:
        return f"{len(new_counts)} new counts for {nprocs} ranks"
    hits = [np.zeros(int(c), dtype=np.int64) for c in new_counts]
    total = 0
    for src, idx in enumerate(resort_indices):
        idx = np.asarray(idx)
        if idx.ndim != 1:
            return f"rank {src}: resort indices must be 1-D, got shape {idx.shape}"
        if idx.size == 0:
            continue
        if np.any(idx < 0):
            return f"rank {src}: invalid (negative/ghost) resort index present"
        try:
            ranks, positions = unpack_resort_index(idx)
        except ValueError as exc:
            return f"rank {src}: {exc}"
        if np.any(ranks >= nprocs):
            return f"rank {src}: target rank {int(ranks.max())} out of range"
        for r in range(nprocs):
            mask = ranks == r
            if not mask.any():
                continue
            pos = positions[mask]
            if np.any(pos >= len(hits[r])):
                return (
                    f"rank {src}: target position {int(pos.max())} exceeds "
                    f"rank {r}'s new count {len(hits[r])}"
                )
            np.add.at(hits[r], pos, 1)
        total += idx.size
    if total != int(sum(int(c) for c in new_counts)):
        return (
            f"{total} resort indices for {int(sum(int(c) for c in new_counts))} "
            "target slots"
        )
    for r, h in enumerate(hits):
        bad = np.flatnonzero(h != 1)
        if bad.size:
            p = int(bad[0])
            return (
                f"rank {r} position {p} targeted {int(h[p])} times "
                "(resort indices are not a permutation)"
            )
    return None


def state_fingerprint(sim) -> Dict[str, str]:
    """Per-component digests of every schedule-independent observable.

    Covers the physics state (per-rank layout, ids, positions, velocities,
    accelerations, charges, potentials, fields) and the per-step dynamics
    record (changed flag, strategy, method, max movement, energy) — exactly
    the outputs that must be **bitwise identical** under any machine
    perturbation or legal message schedule.  Virtual clocks and per-phase
    trace times are deliberately excluded: those are the only outputs allowed
    to respond to a perturbation.

    Returns an ordered ``{component: sha256 hexdigest}`` map so a divergence
    can be reported per component rather than as one opaque hash.
    """

    def digest(chunks: Sequence[bytes]) -> str:
        h = hashlib.sha256()
        for chunk in chunks:
            h.update(chunk)
        return h.hexdigest()

    def arrays(seq) -> List[bytes]:
        return [np.ascontiguousarray(a).tobytes() for a in seq]

    particles = sim.particles
    components: Dict[str, List[bytes]] = {
        "layout": [
            np.asarray([p.shape[0] for p in particles.pos], dtype=np.int64).tobytes()
        ],
        "ids": arrays(sim.ids),
        "positions": arrays(particles.pos),
        "velocities": arrays(sim.vel),
        "accelerations": arrays(sim.acc),
        "charges": arrays(particles.q),
        "potentials": arrays(particles.pot),
        "fields": arrays(particles.field),
        "dynamics": [
            repr((r.step, r.changed, r.strategy, r.method)).encode()
            + np.float64(r.max_move).tobytes()
            + (np.float64(r.energy).tobytes() if r.energy is not None else b"\x00")
            for r in sim.records
        ],
    }
    return {name: digest(chunks) for name, chunks in components.items()}


# -- the checker -------------------------------------------------------------------


class InvariantChecker:
    """Binds a simulation to the registry and captures conserved baselines.

    Create one right after the :class:`~repro.md.simulation.Simulation` (the
    baselines — total particle count, total charge, initial ids — are read
    at attach time), then call :meth:`run` or :meth:`assert_ok` after any
    step or redistribution::

        sim = Simulation(machine, system, config)
        checker = InvariantChecker(sim)
        sim.run(10)
        checker.assert_ok()

    Parameters
    ----------
    sim:
        the live simulation to check.
    energy_tolerance:
        maximum allowed relative drift of the total energy (only enforced
        when the simulation tracks energy under force dynamics).
    momentum_tolerance:
        maximum total momentum relative to the summed speed scale.  The
        default absorbs the approximation error of truncated solvers (FMM
        multipole truncation breaks exact pairwise force cancellation at
        the solver's accuracy level, ~1e-4 relative) while still flagging
        the O(1) drift a velocity-scrambling redistribution bug produces.
    """

    def __init__(
        self,
        sim,
        energy_tolerance: float = 0.1,
        momentum_tolerance: float = 1e-2,
    ) -> None:
        self.sim = sim
        self.machine = sim.machine
        self.energy_tolerance = float(energy_tolerance)
        self.momentum_tolerance = float(momentum_tolerance)
        self.expected_total = int(sum(p.shape[0] for p in sim.particles.pos))
        self.expected_charge = float(sum(q.sum() for q in sim.particles.q))
        self.expected_ids = np.sort(np.concatenate(sim.ids)) if sim.ids else None
        self.history: List[CheckResult] = []

    # -- execution ---------------------------------------------------------------

    def run(self, names: Optional[Sequence[str]] = None) -> List[CheckResult]:
        """Run the selected (default: all) invariants; returns the results."""
        selected = (
            [get_invariant(n) for n in names] if names is not None else all_invariants()
        )
        results: List[CheckResult] = []
        for inv in selected:
            outcome = inv.check(self)
            if outcome is SKIPPED:
                results.append(CheckResult(inv.name, "skipped"))
            elif outcome is None:
                results.append(CheckResult(inv.name, "passed"))
            else:
                results.append(CheckResult(inv.name, "failed", str(outcome)))
        self.history.extend(results)
        return results

    def assert_ok(self, names: Optional[Sequence[str]] = None) -> List[CheckResult]:
        """Run invariants and raise :class:`InvariantViolation` on failure."""
        results = self.run(names)
        failures = [r for r in results if r.failed]
        if failures:
            lines = "\n".join(f"  {r.name}: {r.detail}" for r in failures)
            raise InvariantViolation(
                f"{len(failures)} invariant(s) violated:\n{lines}"
            )
        return results


def run_invariants(
    sim, names: Optional[Sequence[str]] = None, **kwargs
) -> List[CheckResult]:
    """One-shot convenience: attach a checker to ``sim`` and run."""
    return InvariantChecker(sim, **kwargs).run(names)


# -- registered checks ---------------------------------------------------------------


@invariant(
    "particle-count",
    "global particle count conserved across every redistribution",
)
def _check_particle_count(checker: InvariantChecker) -> object:
    total = int(sum(p.shape[0] for p in checker.sim.particles.pos))
    if total != checker.expected_total:
        return f"{total} particles, expected {checker.expected_total}"
    return None


@invariant(
    "charge-conservation",
    "total charge conserved across every redistribution",
)
def _check_charge(checker: InvariantChecker) -> object:
    charge = float(sum(q.sum() for q in checker.sim.particles.q))
    scale = max(
        float(sum(np.abs(q).sum() for q in checker.sim.particles.q)), 1.0
    )
    if abs(charge - checker.expected_charge) > 1e-9 * scale:
        return f"total charge {charge!r}, expected {checker.expected_charge!r}"
    return None


@invariant(
    "identity-permutation",
    "tracked particle identities are a permutation of the initial ids",
)
def _check_identities(checker: InvariantChecker) -> object:
    sim = checker.sim
    if not hasattr(sim, "ids") or checker.expected_ids is None:
        return SKIPPED
    ids = np.sort(np.concatenate(sim.ids)) if sim.ids else np.empty(0, dtype=np.int64)
    if ids.shape != checker.expected_ids.shape:
        return (
            f"{ids.shape[0]} ids, expected {checker.expected_ids.shape[0]} "
            "(lost or duplicated particles)"
        )
    if not np.array_equal(ids, checker.expected_ids):
        missing = np.setdiff1d(checker.expected_ids, ids)
        return (
            f"ids are not a permutation of the initial ids "
            f"({missing.size} missing, first: {missing[:3].tolist()})"
        )
    return None


@invariant(
    "local-shape-consistency",
    "per-rank velocity/acceleration/id lengths match the particle counts",
)
def _check_local_shapes(checker: InvariantChecker) -> object:
    sim = checker.sim
    for r, pos in enumerate(sim.particles.pos):
        n = pos.shape[0]
        if sim.vel[r].shape[0] != n:
            return f"rank {r}: {sim.vel[r].shape[0]} velocities for {n} particles"
        if sim.acc[r].shape[0] != n:
            return f"rank {r}: {sim.acc[r].shape[0]} accelerations for {n} particles"
        if hasattr(sim, "ids") and sim.ids[r].shape[0] != n:
            return f"rank {r}: {sim.ids[r].shape[0]} ids for {n} particles"
        if sim.particles.q[r].shape[0] != n:
            return f"rank {r}: {sim.particles.q[r].shape[0]} charges for {n} particles"
    return None


@invariant(
    "capacity-respected",
    "no rank exceeds its declared local particle array capacity",
)
def _check_capacity(checker: InvariantChecker) -> object:
    particles = checker.sim.particles
    for r, (pos, cap) in enumerate(zip(particles.pos, particles.capacities)):
        if pos.shape[0] > cap:
            return f"rank {r}: {pos.shape[0]} particles exceed capacity {cap}"
    return None


@invariant(
    "resort-permutation",
    "the last run's resort indices hit each target slot exactly once",
)
def _check_resort_permutation(checker: InvariantChecker) -> object:
    fcs = getattr(checker.sim, "fcs", None)
    report = fcs.last_report if fcs is not None else None
    if report is None or not report.changed or report.resort_indices is None:
        return SKIPPED
    return check_resort_permutation(
        report.resort_indices,
        [int(c) for c in report.new_counts],
        checker.machine.nprocs,
    )


@invariant(
    "results-finite",
    "potentials and fields contain no NaN/Inf after a solver run",
)
def _check_finite(checker: InvariantChecker) -> object:
    particles = checker.sim.particles
    for r in range(checker.machine.nprocs):
        if not np.all(np.isfinite(particles.pot[r])):
            return f"rank {r}: non-finite potential"
        if not np.all(np.isfinite(particles.field[r])):
            return f"rank {r}: non-finite field"
        if not np.all(np.isfinite(particles.pos[r])):
            return f"rank {r}: non-finite position"
    return None


@invariant(
    "trace-accounting",
    "per-phase trace messages/bytes equal the audited collective sums",
)
def _check_trace_accounting(checker: InvariantChecker) -> object:
    auditor = checker.machine.auditor
    if auditor is None:
        return SKIPPED
    trace = checker.machine.trace
    for phase, ledger in auditor.ledger.items():
        if phase not in AUDITED_PHASES:
            continue
        stats = trace.phase(phase)
        base = auditor.trace_baseline.get(phase)
        for field in ("messages", "bytes"):
            traced = getattr(stats, field) - (getattr(base, field) if base is not None else 0)
            if traced != getattr(ledger, field):
                return (
                    f"phase {phase!r}: trace reports {traced} {field}, "
                    f"auditor counted {getattr(ledger, field)}"
                )
    return None


@invariant(
    "plan-accounting",
    "resort-plan self-reported traffic never exceeds the audited exchanges",
)
def _check_plan_accounting(checker: InvariantChecker) -> object:
    auditor = checker.machine.auditor
    plan_ledger = getattr(auditor, "plan_ledger", None)
    if auditor is None or not plan_ledger:
        return SKIPPED
    # Bruck forwards aggregated blocks — fewer, larger messages than the
    # plan's direct route — so a phase it staged bounds the plan's claim by
    # bytes only (forwarding never carries fewer bytes than the direct
    # route); pairwise ships every route as one message and keeps both bounds
    forwarded = "alltoallv/bruck" in auditor.algo_counts
    for phase, planned in plan_ledger.items():
        audited = auditor.ledger.get(phase)
        if audited is None:
            return (
                f"phase {phase!r}: plan engine reports {planned.messages} "
                "messages but no audited exchange was observed"
            )
        aggregated = forwarded and phase in auditor.algo_round_ledger
        if not aggregated and planned.messages > audited.messages:
            return (
                f"phase {phase!r}: plan engine reports {planned.messages} "
                f"messages, audited exchanges carried only {audited.messages}"
            )
        if planned.bytes > audited.bytes:
            return (
                f"phase {phase!r}: plan engine reports {planned.bytes} bytes, "
                f"audited exchanges carried only {audited.bytes}"
            )
    return None


@invariant(
    "collective-algo-accounting",
    "staged collective engines' planned traffic equals the audited rounds",
)
def _check_collective_algo_accounting(checker: InvariantChecker) -> object:
    auditor = checker.machine.auditor
    algo_ledger = getattr(auditor, "algo_ledger", None)
    if auditor is None or not algo_ledger:
        return SKIPPED
    for phase, planned in algo_ledger.items():
        rounds = auditor.algo_round_ledger.get(phase)
        if rounds is None:
            return (
                f"phase {phase!r}: algorithm engine planned {planned.messages} "
                "messages but no staged round was audited"
            )
        # planned schedules must balance the executed rounds exactly: a
        # mismatch means a forwarding step shipped more (or less) than the
        # engine's symbolic schedule accounted for
        for field in ("messages", "bytes"):
            if getattr(planned, field) != getattr(rounds, field):
                return (
                    f"phase {phase!r}: engine planned {getattr(planned, field)} "
                    f"{field}, staged rounds carried {getattr(rounds, field)}"
                )
    return None


@invariant(
    "energy-drift",
    "total energy drift stays bounded in energy-tracked force runs",
)
def _check_energy_drift(checker: InvariantChecker) -> object:
    sim = checker.sim
    cfg = sim.config
    if not cfg.track_energy or cfg.dynamics != "force":
        return SKIPPED
    energies = [r.energy for r in sim.records if r.energy is not None]
    if len(energies) < 2:
        return SKIPPED
    e0 = energies[0]
    scale = max(abs(e0), 1e-12)
    drift = max(abs(e - e0) for e in energies) / scale
    if drift > checker.energy_tolerance:
        return (
            f"relative energy drift {drift:.3e} exceeds tolerance "
            f"{checker.energy_tolerance:.3e}"
        )
    return None


@invariant(
    "momentum-bounded",
    "total momentum stays near zero under force dynamics",
)
def _check_momentum(checker: InvariantChecker) -> object:
    sim = checker.sim
    if sim.config.dynamics != "force":
        return SKIPPED
    p = np.zeros(3)
    speed_scale = 0.0
    for v in sim.vel:
        if v.shape[0]:
            p += v.sum(axis=0)
            speed_scale += float(np.abs(v).sum())
    # a leapfrog with pairwise-balanced forces keeps sum(v) at its initial
    # value (zero here); the tolerance absorbs solver truncation error
    if float(np.abs(p).max()) > checker.momentum_tolerance * max(speed_scale, 1e-12):
        return (
            f"total momentum {p.tolist()} is not conserved near zero "
            f"(speed scale {speed_scale:.3e})"
        )
    return None


@invariant(
    "schedule-independence",
    "state fingerprint is bitwise identical to the reference schedule's",
)
def _check_schedule_independence(checker: InvariantChecker) -> object:
    expected = getattr(checker, "expected_fingerprint", None)
    if expected is None:
        return SKIPPED
    actual = state_fingerprint(checker.sim)
    diverged = [name for name in expected if actual.get(name) != expected[name]]
    if diverged:
        pert = checker.machine.trace.notes().get("perturbation", "none")
        return (
            f"component(s) {diverged} diverged from the reference run at step "
            f"{checker.sim.step_index} under perturbation [{pert}]"
        )
    return None


@invariant(
    "balance-conservation",
    "weighted rebalancing permutes but never drops particles, and never "
    "worsens the load-imbalance factor",
)
def _check_balance(checker: InvariantChecker) -> object:
    monitor = getattr(checker.sim, "balance_monitor", None)
    if monitor is None or not monitor.events:
        return SKIPPED
    # the weighted partition is a permutation of ownership: the global
    # particle count must match the attach-time baseline exactly
    total = int(sum(p.shape[0] for p in checker.sim.particles.pos))
    if total != checker.expected_total:
        return (
            f"rebalance changed the particle count: {total}, "
            f"expected {checker.expected_total}"
        )
    for event in monitor.events:
        if event.lambda_after is None:
            continue  # rebalance fired but its effect is not yet observed
        if event.lambda_after > event.lambda_before * (1.0 + 1e-9):
            return (
                f"rebalance at step {event.step} worsened the imbalance: "
                f"lambda {event.lambda_before:.6f} -> {event.lambda_after:.6f}"
            )
    return None


@invariant(
    "clock-monotonicity",
    "virtual clocks and per-phase times are non-negative",
)
def _check_clocks(checker: InvariantChecker) -> object:
    machine = checker.machine
    if np.any(machine.clocks < 0):
        return f"negative rank clock: {float(machine.clocks.min())}"
    for phase, stats in machine.trace.items():
        if stats.time < -1e-15:
            return f"phase {phase!r} has negative time {stats.time}"
        if stats.messages < 0 or stats.bytes < 0:
            return f"phase {phase!r} has negative message/byte counts"
    return None
