"""Machine clock semantics and trace accounting."""

import numpy as np
import pytest

from repro.simmpi.costmodel import JUQUEEN, JUROPA, LOCAL, CostModel
from repro.simmpi.machine import Machine
from repro.simmpi.topology import SwitchTopology


class TestConstruction:
    def test_profile(self):
        m = Machine(16, profile=JUROPA)
        assert m.nprocs == 16
        assert m.topology.name == "fat-tree"
        assert m.profile_name == "juropa"

    def test_juqueen_torus(self):
        m = Machine(64, profile=JUQUEEN)
        assert m.topology.name == "torus"

    def test_profile_exclusive(self):
        with pytest.raises(ValueError):
            Machine(4, profile=LOCAL, topology=SwitchTopology(4))

    def test_topology_size_mismatch(self):
        with pytest.raises(ValueError):
            Machine(8, topology=SwitchTopology(4))

    def test_bad_nprocs(self):
        with pytest.raises(ValueError):
            Machine(0)


class TestClocks:
    def test_initial_zero(self, machine4):
        assert machine4.elapsed() == 0.0

    def test_advance_scalar(self, machine4):
        machine4.advance(1.5, "x")
        assert machine4.elapsed() == pytest.approx(1.5)
        assert machine4.trace.phase("x").time == pytest.approx(1.5)

    def test_advance_vector_critical_path(self, machine4):
        machine4.advance(np.array([1.0, 3.0, 2.0, 0.5]), "x")
        assert machine4.elapsed() == pytest.approx(3.0)
        # trace records the max-clock increase, not the sum
        assert machine4.trace.phase("x").time == pytest.approx(3.0)

    def test_synchronize(self, machine4):
        machine4.clocks[:] = [1.0, 4.0, 2.0, 3.0]
        t = machine4.synchronize()
        assert t == 4.0
        np.testing.assert_allclose(machine4.clocks, 4.0)

    def test_synchronize_subset(self, machine4):
        machine4.clocks[:] = [1.0, 4.0, 2.0, 3.0]
        machine4.synchronize([0, 2])
        np.testing.assert_allclose(machine4.clocks, [2.0, 4.0, 2.0, 3.0])

    def test_monotonic(self, machine4):
        for _ in range(10):
            before = machine4.clocks.copy()
            machine4.advance(np.random.rand(4), "w")
            assert np.all(machine4.clocks >= before)

    def test_compute_scaled_by_rate(self):
        m = Machine(2, cost_model=CostModel(compute_rate=0.5))
        m.compute(1.0, "c")
        assert m.elapsed() == pytest.approx(2.0)

    def test_barrier_syncs(self, machine4):
        machine4.clocks[:] = [0.0, 5.0, 1.0, 2.0]
        machine4.barrier("b")
        assert np.all(machine4.clocks == machine4.clocks[0])
        assert machine4.clocks[0] > 5.0


class TestTrace:
    def test_delta(self, machine4):
        machine4.advance(1.0, "a", messages=2, nbytes=100)
        snap = machine4.trace.snapshot()
        machine4.advance(0.5, "a", messages=1, nbytes=50)
        machine4.advance(0.2, "b")
        d = machine4.trace.delta_since(snap)
        assert d["a"].time == pytest.approx(0.5)
        assert d["a"].messages == 1
        assert d["a"].bytes == 50
        assert d["b"].time == pytest.approx(0.2)

    def test_none_phase_goes_to_other(self, machine4):
        machine4.advance(1.0, None)
        assert machine4.trace.phase("other").time == pytest.approx(1.0)

    def test_totals(self, machine4):
        machine4.advance(1.0, "a", messages=3, nbytes=10)
        machine4.advance(2.0, "b", messages=4, nbytes=20)
        assert machine4.trace.total_time() == pytest.approx(3.0)
        assert machine4.trace.total_messages() == 7
