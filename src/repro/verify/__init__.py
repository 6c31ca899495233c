"""Differential verification subsystem.

Three cooperating layers turn the paper's correctness claims into
executable checks:

* :mod:`repro.verify.invariants` — a registry of composable invariant
  checks (particle/charge conservation, resort-index permutation validity,
  trace accounting, bounded energy drift, ...) that run against a live
  :class:`~repro.md.simulation.Simulation`.
* :mod:`repro.verify.differential` — the Method A/B cross-oracle: the same
  seeded trajectory is run under method A, method B and method B +
  max-movement across solvers and machine shapes, asserting identical
  physics and that method B never redistributes more data than method A
  (the executable form of the paper's Figures 7-8).
* :mod:`repro.verify.audit` — a communication auditor wired into
  :mod:`repro.simmpi.collectives` and :mod:`repro.simmpi.p2p` that
  validates every message of a raw send table, verifies neighborhood
  exchanges only touch declared Cartesian neighbors and keeps the
  independent traffic ledger the accounting invariants compare against.
* :mod:`repro.verify.dst` — deterministic simulation testing: the full MD
  loop re-run under seeded machine perturbations
  (:mod:`repro.simmpi.chaos`), asserting bitwise-identical physics and
  ledgers across every seed (only virtual clocks may differ).
* :mod:`repro.verify.trajectory` — the one place a checked run is built
  (``build_run``) and played (``play``): held to the invariant registry or
  to a reference run at every step, optionally killed and resumed from its
  checkpoint.

Run the differential oracle from the command line::

    python -m repro.verify --quick

and the chaos/DST sweep with::

    python -m repro.verify dst --seeds 10 --steps 5

See ``docs/verification.md`` for the invariant catalog and usage guide.
"""

from repro.verify.audit import (
    CommAuditError,
    CommAuditor,
    check_count_symmetry,
    enable_auditing,
    verify_exchange_schedule,
)
from repro.verify.differential import (
    DifferentialFailure,
    DifferentialReport,
    TrajectoryResult,
    compare_states,
    differential_check,
    run_trajectory,
    sweep,
)
from repro.verify.dst import (
    DstFailure,
    DstReport,
    ledger_fingerprint,
    run_dst,
)
from repro.verify.invariants import (
    CheckResult,
    Invariant,
    InvariantChecker,
    InvariantViolation,
    all_invariants,
    assert_invariants,
    check_resort_permutation,
    get_invariant,
    invariant,
    run_invariants,
    state_fingerprint,
)

__all__ = [
    "CommAuditError",
    "CommAuditor",
    "check_count_symmetry",
    "enable_auditing",
    "verify_exchange_schedule",
    "DifferentialFailure",
    "DifferentialReport",
    "TrajectoryResult",
    "compare_states",
    "differential_check",
    "run_trajectory",
    "sweep",
    "CheckResult",
    "Invariant",
    "InvariantChecker",
    "InvariantViolation",
    "all_invariants",
    "assert_invariants",
    "check_resort_permutation",
    "get_invariant",
    "invariant",
    "run_invariants",
    "state_fingerprint",
    "DstFailure",
    "DstReport",
    "ledger_fingerprint",
    "run_dst",
]
