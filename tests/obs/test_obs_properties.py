"""Hypothesis properties of the span stream.

* **span-tree nesting**: every span's parent resolves to a section opened
  around it (or the root); on the machine stream, charges are
  time-contained in their parent section's critical-path interval.
* **same call, same floats**: the charge spans carry, one for one and in
  order, bitwise what ``Trace.record`` was handed, for arbitrary
  interleavings of advances, p2p traffic and nested sections.
"""

import numpy as np
from trace_spy import assert_same_floats, spy_on_trace
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.spans import MACHINE_RANK, ROOT_SPAN, enable_observability
from repro.simmpi.machine import Machine
from repro.simmpi.p2p import send_round, sendrecv

PHASES = ("sort", "near", "resort", "other")

op_advance = st.tuples(
    st.just("advance"),
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=4,
        max_size=4,
    ),
    st.sampled_from(PHASES),
)
op_sendrecv = st.tuples(
    st.just("sendrecv"),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.sampled_from(PHASES),
)
op_round = st.tuples(
    st.just("send_round"),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4
    ),
    st.sampled_from(PHASES),
)
op_section = st.tuples(st.just("section"), st.none(), st.sampled_from(PHASES))

programs = st.lists(
    st.one_of(op_advance, op_sendrecv, op_round, op_section),
    min_size=1,
    max_size=25,
)


def execute(machine, recorder, program):
    """Run the op list; sections bracket the remainder at their position."""
    stack = []
    try:
        for kind, arg, phase in program:
            if kind == "advance":
                machine.advance(np.asarray(arg), phase)
            elif kind == "sendrecv":
                src, dst = arg
                sendrecv(machine, src, dst, np.zeros(3), phase)
            elif kind == "send_round":
                transfers = [
                    (s, d, np.zeros(2)) for s, d in arg if s != d
                ]
                if transfers:
                    send_round(machine, transfers, phase)
            else:
                cm = recorder.span(f"section.{phase}", op="prop")
                cm.__enter__()
                stack.append(cm)
    finally:
        while stack:
            stack.pop().__exit__(None, None, None)


@given(programs)
@settings(max_examples=60, deadline=None)
def test_charge_spans_carry_the_trace_floats(program):
    """Same call, same floats: one charge span per ``Trace.record`` call, in
    order, with bitwise the time and the counts the trace was handed."""
    machine = Machine(4)
    recorder = enable_observability(machine)
    log = spy_on_trace(machine)
    execute(machine, recorder, program)
    assert_same_floats(log, recorder)


@given(programs)
@settings(max_examples=60, deadline=None)
def test_span_tree_nesting(program):
    machine = Machine(4)
    recorder = enable_observability(machine)
    execute(machine, recorder, program)
    machine_spans = {s.id: s for s in recorder.spans(MACHINE_RANK)}
    sections = {
        sid: s for sid, s in machine_spans.items() if s.kind == "section"
    }
    for span in recorder.spans():
        # parents resolve to a section (or the root); ids are unique
        assert span.parent == ROOT_SPAN or span.parent in sections
        if span.parent in sections:
            parent = sections[span.parent]
            assert parent.t_start <= parent.t_end
            if span.rank == MACHINE_RANK:
                # critical-path containment (machine stream only; per-rank
                # clocks legitimately lag the critical path)
                assert parent.t_start <= span.t_start
                assert span.t_end <= parent.t_end
    ids = [s.id for s in recorder.spans()]
    assert len(ids) == len(set(ids))
