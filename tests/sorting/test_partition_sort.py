"""Partition-based parallel sorting: exact part sizes, global order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.particles import ColumnBlock
from repro.simmpi.machine import Machine
from repro.sorting.partition_sort import partition_sort, select_splitters


def make_blocks(keys_per_rank):
    out = []
    for keys in keys_per_rank:
        keys = np.asarray(keys, dtype=np.uint64)
        out.append(ColumnBlock(key=keys, val=keys.astype(np.float64) + 0.5))
    return out


def check_output(out, target_counts):
    last = None
    for b, c in zip(out, target_counts):
        assert b.n == c
        keys = b["key"]
        assert np.all(keys[:-1] <= keys[1:])
        np.testing.assert_allclose(b["val"], keys.astype(np.float64) + 0.5)
        if keys.shape[0]:
            if last is not None:
                assert last <= keys[0]
            last = keys[-1]


class TestCorrectness:
    def test_counts_preserved_by_default(self, rng):
        """No load balancing: part sizes default to the input counts —
        the ScaFaCoS FMM behaviour behind Fig. 6's single-process case."""
        P = 6
        counts = [10, 0, 25, 5, 60, 0]
        m = Machine(P)
        keys = [rng.integers(0, 1000, c) for c in counts]
        out = partition_sort(m, make_blocks(keys), "key", "s")
        check_output(out, counts)

    def test_explicit_balanced_counts(self, rng):
        P = 4
        m = Machine(P)
        keys = [rng.integers(0, 1000, c) for c in (100, 0, 0, 0)]
        out = partition_sort(m, make_blocks(keys), "key", "s", target_counts=[25] * 4)
        check_output(out, [25] * 4)

    def test_single_process_stays_single(self, rng):
        m = Machine(4)
        keys = [rng.integers(0, 100, 40), [], [], []]
        out = partition_sort(m, make_blocks(keys), "key", "s")
        assert [b.n for b in out] == [40, 0, 0, 0]
        assert np.all(np.diff(out[0]["key"].astype(np.int64)) >= 0)

    def test_multiset_preserved(self, rng):
        P = 8
        m = Machine(P)
        keys = [rng.integers(0, 50, 30) for _ in range(P)]  # many duplicates
        out = partition_sort(m, make_blocks(keys), "key", "s")
        all_in = np.sort(np.concatenate(keys).astype(np.uint64))
        all_out = np.sort(np.concatenate([b["key"] for b in out]))
        np.testing.assert_array_equal(all_in, all_out)

    def test_bad_target_counts(self, rng):
        m = Machine(2)
        keys = [rng.integers(0, 10, 4), rng.integers(0, 10, 4)]
        with pytest.raises(ValueError):
            partition_sort(m, make_blocks(keys), "key", "s", target_counts=[4, 5])

    def test_single_rank(self, rng):
        m = Machine(1)
        out = partition_sort(m, make_blocks([rng.integers(0, 100, 20)]), "key", "s")
        assert np.all(np.diff(out[0]["key"].astype(np.int64)) >= 0)

    @given(
        st.lists(
            st.lists(st.integers(0, 10 ** 9), min_size=0, max_size=25),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property(self, keys_per_rank):
        P = len(keys_per_rank)
        m = Machine(P)
        out = partition_sort(m, make_blocks(keys_per_rank), "key", "s")
        check_output(out, [len(k) for k in keys_per_rank])


class TestCosts:
    def test_uses_collective_alltoall(self, rng):
        """Every step pays the dense count exchange (vs merge sort)."""
        P = 8
        m = Machine(P)
        keys = [rng.integers(0, 1000, 100) for _ in range(P)]
        partition_sort(m, make_blocks(keys), "key", "s")
        assert m.elapsed() > 0
        assert m.trace.phase("s").messages > 0

    def test_sorted_input_cheap_payload(self, rng):
        """Steady-state input (already partitioned) sends almost nothing."""
        P = 8
        per = 200
        base = np.sort(rng.integers(0, 10 ** 6, P * per).astype(np.uint64))
        sorted_keys = [base[r * per:(r + 1) * per] for r in range(P)]
        m1 = Machine(P)
        partition_sort(m1, make_blocks(sorted_keys), "key", "s")
        m2 = Machine(P)
        partition_sort(m2, make_blocks([rng.permutation(base)[r * per:(r + 1) * per] for r in range(P)]), "key", "s")
        # splitter samples are a fixed overhead in both; the payload difference dominates
        assert m1.trace.phase("s").bytes < m2.trace.phase("s").bytes / 2
        assert m1.elapsed() < m2.elapsed()


def test_select_splitters_monotone(rng):
    P = 6
    m = Machine(P)
    keys = [np.sort(rng.integers(0, 10 ** 6, 100).astype(np.uint64)) for _ in range(P)]
    spl = select_splitters(m, keys, 16, "s")
    assert spl.shape == (P - 1,)
    assert np.all(np.diff(spl.astype(np.int64)) >= 0)
