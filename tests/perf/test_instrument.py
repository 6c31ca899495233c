"""Unit tests of :mod:`repro.perf.instrument` — host-wall phase attribution.

The invariant guarded: attribution observes, it never perturbs.  Modeled
clocks and traces must be bitwise unchanged whether it is on or off.
"""

import numpy as np

from repro.perf import instrument
from repro.simmpi.machine import Machine


def run_machine_ops(machine):
    """A tiny deterministic workload touching compute and communication."""
    P = machine.nprocs
    machine.compute(np.full(P, 1e-6), "near")
    from repro.simmpi.collectives import alltoallv

    sends = [
        {(r + 1) % P: np.arange(8, dtype=np.float64) + r} for r in range(P)
    ]
    alltoallv(machine, sends, "sort")
    machine.compute(np.full(P, 2e-6), "near")


class TestWallPhaseAttribution:
    def test_wall_attributed_without_perturbing_model(self):
        plain = Machine(4)
        run_machine_ops(plain)
        with instrument.wall_phases():
            assert instrument.wall_phases_enabled()
            attributed = Machine(4)
            run_machine_ops(attributed)
        assert not instrument.wall_phases_enabled()

        snap_plain = plain.trace.snapshot()
        snap_attr = attributed.trace.snapshot()
        assert set(snap_plain) == set(snap_attr)
        # modeled fields are bitwise unchanged by wall attribution ...
        assert np.array_equal(plain.clocks, attributed.clocks)
        for label in snap_plain:
            a, b = snap_plain[label], snap_attr[label]
            assert (a.time, a.messages, a.bytes, a.calls) == (
                b.time,
                b.messages,
                b.bytes,
                b.calls,
            )
            # ... while host wall time is only present when enabled
            assert a.wall_ns == 0
        assert sum(s.wall_ns for s in snap_attr.values()) > 0

    def test_wall_attribution_off_outside_block(self):
        machine = Machine(2)
        run_machine_ops(machine)
        assert all(s.wall_ns == 0 for s in machine.trace.snapshot().values())
