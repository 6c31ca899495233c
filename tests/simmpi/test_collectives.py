"""Collective primitives: data-plane correctness and cost accounting."""

import numpy as np
import pytest

from repro.simmpi.collectives import (
    allgather_scalars,
    allgatherv,
    allreduce,
    alltoallv,
    bcast,
    gatherv,
    neighborhood_alltoallv,
    payload_nbytes,
    scatterv,
)
from repro.simmpi.machine import Machine


class TestPayloadNbytes:
    def test_array(self):
        assert payload_nbytes(np.zeros(10)) == 80

    def test_tuple(self):
        assert payload_nbytes((np.zeros(10), np.zeros((5, 3)))) == 80 + 120

    def test_none(self):
        assert payload_nbytes(None) == 0

    def test_bad_type(self):
        with pytest.raises(TypeError):
            payload_nbytes("nope")


class TestAlltoallv:
    def test_delivery(self, machine4):
        sends = [
            {1: np.array([10.0]), 2: np.array([20.0])},
            {0: np.array([1.0])},
            {},
            {0: np.array([3.0]), 3: np.array([33.0])},
        ]
        recv = alltoallv(machine4, sends, "x")
        assert [src for src, _ in recv[0]] == [1, 3]
        assert recv[0][0][1][0] == 1.0
        assert recv[0][1][1][0] == 3.0
        assert [src for src, _ in recv[1]] == [0]
        assert [src for src, _ in recv[2]] == [0]
        assert recv[2][0][1][0] == 20.0
        assert recv[3][0][1][0] == 33.0

    def test_source_order_sorted(self, machine8):
        sends = [{} for _ in range(8)]
        for src in (5, 2, 7, 0):
            sends[src] = {3: np.array([float(src)])}
        recv = alltoallv(machine8, sends, "x")
        assert [src for src, _ in recv[3]] == [0, 2, 5, 7]

    def test_advances_clock_and_counts(self, machine4):
        sends = [{(r + 1) % 4: np.zeros(100)} for r in range(4)]
        alltoallv(machine4, sends, "x")
        st = machine4.trace.phase("x")
        assert machine4.elapsed() > 0
        assert st.messages == 4
        assert st.bytes == 4 * 800

    def test_self_send_free_bytes(self, machine4):
        sends = [{0: np.zeros(100)}, {}, {}, {}]
        alltoallv(machine4, sends, "x")
        assert machine4.trace.phase("x").messages == 0
        assert machine4.trace.phase("x").bytes == 0

    def test_invalid_target(self, machine4):
        with pytest.raises(ValueError):
            alltoallv(machine4, [{7: np.zeros(1)}, {}, {}, {}], "x")

    def test_wrong_length(self, machine4):
        with pytest.raises(ValueError):
            alltoallv(machine4, [{}], "x")

    def test_neighborhood_cheaper_than_dense(self):
        """The dense count exchange makes the general alltoall pay more for
        the same payload (the Sect. III-B optimization)."""
        sends = [{(r + 1) % 64: np.zeros(16)} for r in range(64)]
        m1 = Machine(64)
        alltoallv(m1, [dict(s) for s in sends], "x")
        m2 = Machine(64)
        neighborhood_alltoallv(m2, [dict(s) for s in sends], "x")
        assert m2.elapsed() < m1.elapsed()

    def test_congestion_superlinear(self):
        """Per-rank time grows faster than linearly with fan-out."""
        def fan(m, k):
            sends = [{} for _ in range(m.nprocs)]
            for dst in range(1, k + 1):
                sends[0][dst] = np.zeros(8)
            t0 = m.elapsed()
            alltoallv(m, sends, "x", count_exchange="sparse")
            return m.elapsed() - t0

        m = Machine(256)
        t8 = fan(m, 8)
        t128 = fan(m, 128)
        assert t128 > 16 * t8 * 0.9  # superlinear in fan-out


class TestAllreduce:
    def test_sum(self, machine4):
        out = allreduce(machine4, [1.0, 2.0, 3.0, 4.0], "sum", "x")
        assert out == pytest.approx(10.0)

    def test_max_min(self, machine4):
        assert allreduce(machine4, [1.0, 5.0, 3.0, 2.0], "max") == 5.0
        assert allreduce(machine4, [1.0, 5.0, 3.0, 2.0], "min") == 1.0

    def test_arrays(self, machine4):
        vals = [np.full(3, float(r)) for r in range(4)]
        out = allreduce(machine4, vals, "sum")
        np.testing.assert_allclose(out, 6.0)

    def test_bad_op(self, machine4):
        with pytest.raises(ValueError):
            allreduce(machine4, [1.0] * 4, "prod")

    def test_charges_time(self, machine4):
        allreduce(machine4, [1.0] * 4, "sum", "x")
        assert machine4.trace.phase("x").time > 0


class TestAllgather:
    def test_allgatherv(self, machine4):
        contribs = [np.full(r + 1, float(r)) for r in range(4)]
        out = allgatherv(machine4, contribs, "x")
        assert len(out) == 4
        expected = np.concatenate(contribs)
        for o in out:
            np.testing.assert_allclose(o, expected)

    def test_allgather_scalars(self, machine4):
        out = allgather_scalars(machine4, [1.0, 2.0, 3.0, 4.0], "x")
        np.testing.assert_allclose(out, [1, 2, 3, 4])

    def test_scalars_shape_check(self, machine4):
        with pytest.raises(ValueError):
            allgather_scalars(machine4, [1.0, 2.0], "x")


class TestRooted:
    def test_bcast(self, machine4):
        out = bcast(machine4, np.arange(5), root=2, phase="x")
        for o in out:
            np.testing.assert_array_equal(o, np.arange(5))

    def test_gatherv(self, machine4):
        contribs = [np.full(2, float(r)) for r in range(4)]
        out = gatherv(machine4, contribs, root=1, phase="x")
        np.testing.assert_allclose(out[1], [0, 0, 1, 1, 2, 2, 3, 3])
        assert out[0].shape[0] == 0

    def test_scatterv(self, machine4):
        parts = [np.full(3, float(r)) for r in range(4)]
        out = scatterv(machine4, parts, root=0, phase="x")
        for r in range(4):
            np.testing.assert_allclose(out[r], float(r))

    def test_scatter_root_bottleneck(self):
        """The root's serialized sends make everyone wait — the single
        process initial distribution effect of Fig. 6."""
        m_small = Machine(4)
        scatterv(m_small, [np.zeros(1000)] * 4, root=0, phase="x")
        m_big = Machine(64)
        scatterv(m_big, [np.zeros(1000)] * 64, root=0, phase="x")
        assert m_big.elapsed() > m_small.elapsed()
