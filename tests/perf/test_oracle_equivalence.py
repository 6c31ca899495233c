"""Bitwise equivalence of every vectorized hot kernel against its retained
scalar oracle.

Each vectorized kernel in the tree keeps its original implementation under a
``*_reference`` name and routes through it inside
:func:`repro.perf.instrument.reference_mode` (the resort plan's former loops
live in ``tests/redistribution_oracles.py`` instead: the production path no
longer branches on the switch).  The contract checked here is
strict: *bitwise identical* outputs (``np.array_equal`` on equal dtypes —
never ``allclose``), identical dict key orders, identical modeled clocks,
traces and error messages.  Host speed is the only thing the vectorization
is allowed to change.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redistribution_oracles import ResortPlanLoop
from repro.core.particles import ColumnBlock
from repro.core.plan import ResortPlan
from repro.core.resort import pack_resort_index
from repro.perf import instrument
from repro.simmpi.machine import Machine
from repro.solvers.common.pairs import ragged_cross, ragged_cross_reference
from repro.solvers.fmm.expansions import (
    derivative_tensors,
    derivative_tensors_reference,
)
from repro.solvers.p2nfft.linked_cell import LinkedCellNearField
from repro.sorting.partition_sort import (
    partition_destinations,
    partition_destinations_reference,
    split_by_destination,
    split_by_destination_reference,
)


def assert_same_arrays(vec, ref):
    """Bitwise array equality including dtype and shape."""
    assert type(vec) is type(ref) or (
        isinstance(vec, np.ndarray) and isinstance(ref, np.ndarray)
    )
    assert vec.dtype == ref.dtype
    assert vec.shape == ref.shape
    assert np.array_equal(vec, ref)


# ------------------------------------------------------------- ragged_cross

#: (t_start, t_len, s_start, s_len) per segment; zero lengths and empty
#: tables are the important edge cases
segment_tables = st.lists(
    st.tuples(
        st.integers(0, 40),
        st.integers(0, 7),
        st.integers(0, 40),
        st.integers(0, 7),
    ),
    min_size=0,
    max_size=40,
)


class TestRaggedCross:
    @given(segment_tables)
    def test_bitwise(self, segs):
        t_starts = np.array([s[0] for s in segs], dtype=np.int64)
        t_ends = t_starts + np.array([s[1] for s in segs], dtype=np.int64)
        s_starts = np.array([s[2] for s in segs], dtype=np.int64)
        s_ends = s_starts + np.array([s[3] for s in segs], dtype=np.int64)
        vec_ti, vec_si = ragged_cross(t_starts, t_ends, s_starts, s_ends)
        ref_ti, ref_si = ragged_cross_reference(t_starts, t_ends, s_starts, s_ends)
        assert_same_arrays(vec_ti, ref_ti)
        assert_same_arrays(vec_si, ref_si)

    def test_reference_mode_dispatch(self):
        t_starts = np.array([0, 3], dtype=np.int64)
        t_ends = np.array([3, 5], dtype=np.int64)
        s_starts = np.array([1, 0], dtype=np.int64)
        s_ends = np.array([4, 2], dtype=np.int64)
        with instrument.reference_mode():
            ti, si = ragged_cross(t_starts, t_ends, s_starts, s_ends)
        ref_ti, ref_si = ragged_cross_reference(t_starts, t_ends, s_starts, s_ends)
        assert_same_arrays(ti, ref_ti)
        assert_same_arrays(si, ref_si)

    def test_all_empty_segments(self):
        z = np.zeros(5, dtype=np.int64)
        vec = ragged_cross(z, z, z, z)
        ref = ragged_cross_reference(z, z, z, z)
        for a, b in zip(vec, ref):
            assert_same_arrays(a, b)
            assert a.size == 0


# --------------------------------------------------------- partition sort

@st.composite
def destination_problems(draw):
    n = draw(st.integers(0, 200))
    P = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    order = rng.permutation(n).astype(np.int64)
    cuts = np.sort(rng.integers(0, n + 1, P - 1)) if P > 1 else np.empty(0, np.int64)
    bounds = np.concatenate(([0], cuts, [n])).astype(np.int64)
    return order, bounds, rng


class TestPartitionSort:
    @given(destination_problems())
    def test_destinations_bitwise(self, problem):
        order, bounds, _rng = problem
        vec = partition_destinations(order, bounds)
        ref = partition_destinations_reference(order, bounds)
        assert_same_arrays(vec, ref)

    @given(destination_problems())
    def test_split_bitwise(self, problem):
        order, bounds, rng = problem
        n = order.shape[0]
        P = bounds.shape[0] - 1
        d = rng.integers(0, P, n).astype(np.int64)
        block = ColumnBlock(
            keys=rng.integers(0, 1 << 50, n).astype(np.uint64),
            pos=rng.standard_normal((n, 3)),
            ids=np.arange(n, dtype=np.int64),
        )
        vec = split_by_destination(block, d)
        ref = split_by_destination_reference(block, d)
        # identical key *order*, not just identical key sets
        assert list(vec) == list(ref)
        for dst in vec:
            assert vec[dst].names() == ref[dst].names()
            for name in vec[dst].names():
                assert_same_arrays(vec[dst][name], ref[dst][name])

    def test_split_empty_block(self):
        block = ColumnBlock(keys=np.empty(0, dtype=np.uint64))
        d = np.empty(0, dtype=np.int64)
        assert split_by_destination(block, d) == {}
        assert split_by_destination_reference(block, d) == {}


# ----------------------------------------------------- derivative tensors

class TestDerivativeTensors:
    @given(
        st.integers(2, 6),
        st.integers(1, 40),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_bitwise(self, order, m, seed):
        rng = np.random.default_rng(seed)
        d = rng.normal(scale=10.0, size=(m, 3))
        # keep displacements away from the origin (well-separated cells)
        d[np.linalg.norm(d, axis=1) < 2.0] += 6.0
        vec = derivative_tensors(d, order)
        ref = derivative_tensors_reference(d, order)
        assert_same_arrays(vec, ref)

    def test_single_displacement(self):
        d = np.array([3.0, -2.0, 5.0])
        vec = derivative_tensors(d, 6)
        ref = derivative_tensors_reference(d, 6)
        assert_same_arrays(vec, ref)

    def test_reference_mode_dispatch(self):
        d = np.array([[3.0, -2.0, 5.0], [-1.0, 4.0, 2.0]])
        with instrument.reference_mode():
            routed = derivative_tensors(d, 4)
        assert_same_arrays(routed, derivative_tensors_reference(d, 4))


# ----------------------------------------------------- linked-cell pairs

@st.composite
def linked_cell_problems(draw):
    # small boxes exercise the dims < 3 dedup branch, large ones the
    # common 27-distinct-neighbors geometry
    rc = draw(st.floats(0.8, 2.5))
    edges = draw(
        st.tuples(
            st.floats(2.0, 9.0), st.floats(2.0, 9.0), st.floats(2.0, 9.0)
        )
    )
    seed = draw(st.integers(0, 2**31 - 1))
    nt = draw(st.integers(0, 25))
    ns = draw(st.integers(0, 60))
    box = np.array(edges) * rc
    return box, rc, seed, nt, ns


class TestCandidatePairs:
    @given(linked_cell_problems())
    @settings(max_examples=60, deadline=None)
    def test_bitwise(self, problem):
        box, rc, seed, nt, ns = problem
        nf = LinkedCellNearField(box, np.zeros(3), rc, alpha=0.7)
        rng = np.random.default_rng(seed)
        tpos = rng.uniform(0.0, 1.0, (nt, 3)) * box
        spos = rng.uniform(0.0, 1.0, (ns, 3)) * box
        s_sorted = np.sort(nf.cell_ids(spos))
        t_ids = nf.cell_ids(tpos)
        t_sorted = np.sort(t_ids)
        cells, first = np.unique(t_sorted, return_index=True)
        if first.size:
            last = np.concatenate((first[1:], [t_sorted.shape[0]])).astype(first.dtype)
        else:
            last = first.copy()
        cx = cells // (nf.dims[1] * nf.dims[2])
        cy = (cells // nf.dims[2]) % nf.dims[1]
        cz = cells % nf.dims[2]
        vec = nf.candidate_pairs(first, last, s_sorted, cx, cy, cz, ns)
        ref = nf.candidate_pairs_reference(first, last, s_sorted, cx, cy, cz, ns)
        for a, b in zip(vec, ref):
            assert_same_arrays(a, b)

    def test_dedup_geometry_is_exercised(self):
        """dims < 3 (wrapped neighbors coincide) must flow through _dedup."""
        nf = LinkedCellNearField(np.array([2.0, 2.0, 2.0]), np.zeros(3), 1.0, 0.7)
        assert nf.needs_dedup
        big = LinkedCellNearField(np.array([9.0, 9.0, 9.0]), np.zeros(3), 1.0, 0.7)
        assert not big.needs_dedup


# ------------------------------------------------------------ resort plan

def _resort_problem(n, P, seed, *, local=False):
    """Random (or banded-local) resort indices + mixed columns."""
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, np.ones(P) / P).astype(np.int64)
    off = np.concatenate(([0], np.cumsum(counts)))
    perm = np.arange(n)
    if local:
        w = max(2 * (n // P), 1)
        for s in range(0, n, w):
            seg = perm[s : s + 2 * w].copy()
            rng.shuffle(seg)
            perm[s : s + 2 * w] = seg
    else:
        rng.shuffle(perm)
    tgt_rank = np.searchsorted(off[1:], perm, side="right")
    tgt_pos = perm - off[tgt_rank]
    idx = [
        pack_resort_index(tgt_rank[off[r] : off[r + 1]], tgt_pos[off[r] : off[r + 1]])
        for r in range(P)
    ]
    counts_l = [int(c) for c in counts]
    cols = [
        [rng.standard_normal((counts_l[r], 3)) for r in range(P)],
        [rng.standard_normal(counts_l[r]) for r in range(P)],
        [rng.integers(0, 1 << 40, counts_l[r]) for r in range(P)],
    ]
    return idx, counts_l, cols


def _run_plan(plan_type, idx, counts, cols, comm):
    machine = Machine(len(counts))
    plan = plan_type(machine, idx, counts, counts, comm=comm)
    out = plan.execute(cols)
    return machine, plan, out


def assert_plan_runs_identical(idx, counts, cols, comm):
    m_vec, p_vec, out_vec = _run_plan(ResortPlan, idx, counts, cols, comm)
    m_ref, p_ref, out_ref = _run_plan(ResortPlanLoop, idx, counts, cols, comm)
    # redistributed data: bitwise per column per rank
    assert len(out_vec) == len(out_ref)
    for cv, cr in zip(out_vec, out_ref):
        for av, ar in zip(cv, cr):
            assert_same_arrays(av, ar)
    # modeled clocks and trace: the virtual machine must not notice which
    # implementation ran
    assert np.array_equal(m_vec.clocks, m_ref.clocks)
    assert m_vec.trace.snapshot() == m_ref.trace.snapshot()
    assert m_vec.trace.counters() == m_ref.trace.counters()
    # plan-level statistics
    for field in ("compiles", "cache_hits", "executions", "fused_columns", "bytes_moved"):
        assert getattr(p_vec.stats, field) == getattr(p_ref.stats, field)


class TestResortPlan:
    """The plan against the per-rank loops it replaced
    (``tests/redistribution_oracles.py``; the mixed-layout property lives in
    ``tests/core/test_redistribution_oracles.py``)."""

    @given(
        st.integers(0, 160),
        st.integers(1, 6),
        st.integers(0, 2**31 - 1),
        st.sampled_from(["alltoall", "neighborhood"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_full_equivalence(self, n, P, seed, comm):
        idx, counts, cols = _resort_problem(n, P, seed)
        assert_plan_runs_identical(idx, counts, cols, comm)

    def test_banded_neighborhood(self):
        """The method-B brownian-local shape the benchmarks use."""
        idx, counts, cols = _resort_problem(512, 8, 17, local=True)
        assert_plan_runs_identical(idx, counts, cols, "neighborhood")

    @pytest.mark.parametrize("reference", [False, True])
    def test_error_messages_identical(self, reference):
        """Validation failures must raise the same message on both paths."""
        idx, counts, cols = _resort_problem(64, 4, 5)
        machine = Machine(4)
        plan = (ResortPlanLoop if reference else ResortPlan)(machine, idx, counts, counts)
        bad = [list(col) for col in cols]
        bad[1] = list(bad[1])
        bad[1][3] = bad[1][3][:-1]  # drop one row of column 1 on rank 3
        with pytest.raises(ValueError) as exc:
            plan.execute(bad)
        assert "column 1, rank 3" in str(exc.value)
