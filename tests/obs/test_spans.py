"""ObsRecorder unit tests: charge capture, same call same floats, sections,
ring bounds."""

import numpy as np
import pytest
from trace_spy import assert_same_floats, spy_on_trace

from repro.obs.spans import (
    MACHINE_RANK,
    ROOT_SPAN,
    ObsRecorder,
    enable_observability,
    machine_span,
)
from repro.simmpi.machine import Machine
from repro.simmpi.p2p import exchange_pairs, send_round, sendrecv


class TestChargeCapture:
    def test_advance_emits_charge_and_rank_spans(self, machine4):
        rec = enable_observability(machine4)
        log = spy_on_trace(machine4)
        machine4.advance(np.array([1.0, 2.0, 0.0, 0.5]), "work")
        charges = [s for s in rec.spans(MACHINE_RANK) if s.kind == "charge"]
        assert len(charges) == 1
        assert charges[0].phase == "work"
        assert charges[0].time == machine4.trace.phase("work").time
        # rank spans only for ranks whose clock moved
        assert rec.span_count(2) == 0
        for r in (0, 1, 3):
            (span,) = list(rec.spans(r))
            assert span.kind == "rank"
            assert span.t_end == machine4.clocks[r]
        assert_same_floats(log, rec)

    def test_rank_spans_carry_the_float64_bits_and_are_immutable(self, machine4):
        rec = enable_observability(machine4)
        machine4.advance(np.array([0.1, 0.2, 0.0, 0.3]), "w")
        before = machine4.clocks.copy()
        machine4.advance(np.array([0.25, 0.7, 0.0, 1 / 3]), "w")
        for r in (0, 1, 3):
            _, span = rec.spans(r)
            assert type(span.time) is float
            assert span.time.hex() == float(machine4.clocks[r] - before[r]).hex()
            assert span.t_start.hex() == float(before[r]).hex()
        with pytest.raises(AttributeError):
            span.time = 0.0

    def test_p2p_parity(self, machine4):
        rec = enable_observability(machine4)
        log = spy_on_trace(machine4)
        sendrecv(machine4, 0, 1, np.zeros(16), "a")
        send_round(machine4, [(0, 2, np.zeros(4)), (1, 3, np.zeros(8))], "b")
        exchange_pairs(machine4, np.array([[0, 1]]), np.array([[16, 16]]), "c")
        assert len(log) == 3
        assert_same_floats(log, rec)

    def test_mixed_run_parity(self, machine8):
        rec = enable_observability(machine8)
        log = spy_on_trace(machine8)
        rng = np.random.default_rng(7)
        for k in range(10):
            machine8.advance(rng.random(8) * 1e-3, f"p{k % 3}")
            sendrecv(machine8, k % 8, (k + 3) % 8, np.zeros(k + 1), f"p{k % 3}")
        assert len(log) == 20
        assert_same_floats(log, rec)

    def test_metrics_fed_from_charges(self, machine4):
        rec = enable_observability(machine4)
        sendrecv(machine4, 0, 1, np.zeros(16), "x")
        assert rec.metrics.value("comm.messages", phase="x") == 1
        assert rec.metrics.value("comm.bytes", phase="x") == 128
        assert rec.metrics.value("comm.payload_nbytes") == 1

    def test_per_rank_false_only_machine_stream(self, machine4):
        rec = enable_observability(machine4, per_rank=False)
        log = spy_on_trace(machine4)
        machine4.advance(np.ones(4), "w")
        assert rec.ranks() == [MACHINE_RANK]
        assert_same_floats(log, rec)


class TestSections:
    def test_nesting_and_parenting(self, machine4):
        rec = enable_observability(machine4)
        with rec.span("outer") as outer_id:
            machine4.advance(np.ones(4), "w")
            with rec.span("inner") as inner_id:
                machine4.advance(np.ones(4), "w")
        spans = {s.id: s for s in rec.spans(MACHINE_RANK)}
        assert spans[inner_id].parent == outer_id
        assert spans[outer_id].parent == ROOT_SPAN
        charges = [s for s in rec.spans(MACHINE_RANK) if s.kind == "charge"]
        assert charges[0].parent == outer_id
        assert charges[1].parent == inner_id
        # critical-path containment: charges lie inside their section
        for c in charges:
            sec = spans[c.parent]
            assert sec.t_start <= c.t_start and c.t_end <= sec.t_end

    def test_machine_span_null_when_detached(self, machine4):
        with machine_span(machine4, "anything") as sid:
            assert sid is None
        rec = enable_observability(machine4)
        with machine_span(machine4, "real", op="test") as sid:
            assert sid is not None
        (span,) = list(rec.spans(MACHINE_RANK))
        assert span.phase == "real" and span.kind == "section"

    def test_mark(self, machine4):
        rec = enable_observability(machine4)
        machine4.advance(np.ones(4), "w")
        rec.mark("event", step=3)
        mark = [s for s in rec.spans(MACHINE_RANK) if s.kind == "mark"][0]
        assert mark.time == 0.0
        assert mark.t_start == machine4.elapsed()
        assert mark.attrs_dict() == {"step": 3}


class TestBounds:
    def test_ring_eviction_clears_complete(self, machine4):
        rec = enable_observability(machine4, capacity=4)
        for _ in range(6):
            machine4.advance(np.ones(4), "w")
        assert rec.span_count(MACHINE_RANK) == 4
        assert rec.dropped[MACHINE_RANK] == 2
        assert not rec.complete

    def test_late_attach_not_complete(self, machine4):
        machine4.advance(np.ones(4), "w")
        rec = enable_observability(machine4)
        assert not rec.complete

    def test_clear_empties(self, machine4):
        rec = enable_observability(machine4, capacity=2)
        for _ in range(5):
            machine4.advance(np.ones(4), "w")
        rec.clear()
        assert rec.span_count() == 0
        assert rec.dropped == {}
        assert rec.complete
        machine4.advance(np.ones(4), "w")
        assert rec.span_count(MACHINE_RANK) == 1 and rec.complete

    def test_bad_capacity(self, machine4):
        with pytest.raises(ValueError, match="capacity"):
            ObsRecorder(machine4, capacity=0)
