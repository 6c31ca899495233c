"""One-decorator verification opt-in for tests.

``@auto_verify()`` (usable as decorator or context manager) instruments
:class:`~repro.md.simulation.Simulation` for the duration of a test: every
simulation constructed inside the scope gets a strict
:class:`~repro.verify.audit.CommAuditor` attached to its machine at
``initialize()`` and the full invariant registry asserted after
``initialize()`` and after every ``step()``.  Nothing about the simulation's
behaviour changes — the instrumentation only observes and raises.

Usage::

    @auto_verify()
    def test_fmm_trajectory(machine8, medium_system):
        sim = Simulation(machine8, medium_system, SimulationConfig(...))
        sim.run(5)        # every step is invariant-checked and audited

    def test_explicit_scope():
        with auto_verify(names=["particle-count", "charge-conservation"]):
            ...

The ``tests/verify`` suite also exposes this as the ``verified`` pytest
fixture (see ``tests/verify/conftest.py``).
"""

from __future__ import annotations

import contextlib
import functools
from typing import Iterator, Optional, Sequence

from repro.md.simulation import Simulation
from repro.verify.audit import enable_auditing
from repro.verify.invariants import InvariantChecker

__all__ = ["auto_verify"]

_CHECKER_ATTR = "_verify_checker"


class _AutoVerify(contextlib.ContextDecorator):
    """Patches ``Simulation.initialize``/``step`` inside its scope."""

    def __init__(
        self,
        names: Optional[Sequence[str]] = None,
        energy_tolerance: float = 0.1,
        audit: bool = True,
        strict_audit: bool = True,
    ) -> None:
        self.names = list(names) if names is not None else None
        self.energy_tolerance = float(energy_tolerance)
        self.audit = bool(audit)
        self.strict_audit = bool(strict_audit)
        self._originals = None

    # -- patched methods -------------------------------------------------------

    def _make_initialize(self, original):
        scope = self

        @functools.wraps(original)
        def initialize(sim):
            if scope.audit and sim.machine.auditor is None:
                enable_auditing(sim.machine, strict=scope.strict_audit)
            record = original(sim)
            checker = InvariantChecker(
                sim, energy_tolerance=scope.energy_tolerance
            )
            setattr(sim, _CHECKER_ATTR, checker)
            checker.assert_ok(scope.names)
            return record

        return initialize

    def _make_step(self, original):
        scope = self

        @functools.wraps(original)
        def step(sim):
            record = original(sim)
            checker = getattr(sim, _CHECKER_ATTR, None)
            if checker is not None:
                checker.assert_ok(scope.names)
            return record

        return step

    # -- scope management ------------------------------------------------------

    def __enter__(self) -> "_AutoVerify":
        if self._originals is not None:
            raise RuntimeError("auto_verify scope already entered")
        self._originals = (Simulation.initialize, Simulation.step)
        Simulation.initialize = self._make_initialize(Simulation.initialize)
        Simulation.step = self._make_step(Simulation.step)
        return self

    def __exit__(self, *exc) -> None:
        Simulation.initialize, Simulation.step = self._originals
        self._originals = None


def auto_verify(
    names: Optional[Sequence[str]] = None,
    energy_tolerance: float = 0.1,
    audit: bool = True,
    strict_audit: bool = True,
) -> _AutoVerify:
    """Verification opt-in: decorator or context manager.

    Parameters
    ----------
    names:
        invariant names to assert (default: the full registry).
    energy_tolerance:
        relative energy-drift bound for the ``energy-drift`` invariant.
    audit:
        attach a :class:`~repro.verify.audit.CommAuditor` to each
        simulation's machine (skipped if one is already attached).
    strict_audit:
        raise on the first audit violation (default) instead of collecting.
    """
    return _AutoVerify(
        names=names,
        energy_tolerance=energy_tolerance,
        audit=audit,
        strict_audit=strict_audit,
    )
