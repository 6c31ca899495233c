"""Weighted splitter selection and work-balanced partitioning.

Property tests for the load-balanced mode of
:mod:`repro.sorting.partition_sort` and the split-point arithmetic of
:mod:`repro.core.balance`:

* the weight-balance bound: no part exceeds ``total/P + max(w)`` work,
* uniform weights reduce *bitwise* to the count-based splits,
* splits are invariant under input permutation across ranks and under
  empty ranks (the splitters are a function of the global multiset).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.balance import count_split_bounds, work_split_bounds
from repro.core.particles import ColumnBlock
from repro.simmpi.machine import Machine
from repro.sorting.partition_sort import partition_sort, select_splitters


def make_blocks(keys_per_rank, weights_per_rank=None):
    out = []
    for r, keys in enumerate(keys_per_rank):
        keys = np.asarray(keys, dtype=np.uint64)
        cols = dict(key=keys, val=keys.astype(np.float64) + 0.5)
        if weights_per_rank is not None:
            cols["weight"] = np.asarray(weights_per_rank[r], dtype=np.float64)
        out.append(ColumnBlock(**cols))
    return out


# -- work_split_bounds ---------------------------------------------------------


class TestWorkSplitBounds:
    @given(
        weights=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        nparts=st.integers(min_value=1, max_value=16),
    )
    # a subnormal total: ``total / nparts`` underflows to 0 (all work used
    # to land in the last part); the second case is why degrading to the
    # count split is not the fix (its first part would hold both weights)
    @example(weights=[5e-324, 5e-324], nparts=4)
    @example(weights=[5e-324, 5e-324, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], nparts=4)
    @settings(max_examples=200, deadline=None)
    def test_weight_balance_bound(self, weights, nparts):
        """Every part's work stays below ``total/P + max(w)`` — the
        granularity limit of contiguous weighted splitting (compared after
        multiplying through by ``P``, so a tiny total cannot underflow the
        bound itself)."""
        w = np.asarray(weights, dtype=np.float64)
        bounds = work_split_bounds(w, nparts)
        assert bounds[0] == 0 and bounds[-1] == w.shape[0]
        assert np.all(np.diff(bounds) >= 0)
        total = float(w.sum())
        if total <= 0.0:
            return
        limit = total + nparts * (float(w.max()) + 1e-9 * total)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            assert float(w[lo:hi].sum()) * nparts <= limit

    @given(
        n=st.integers(min_value=0, max_value=300),
        nparts=st.integers(min_value=1, max_value=16),
        scale=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 8.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_uniform_weights_reduce_to_count_splits(self, n, nparts, scale):
        """Constant power-of-two weights give *bitwise* the count-based
        bounds: the cumulative-work targets are then exact binary scalings
        of the count targets, so searchsorted sees identical comparisons."""
        w = np.full(n, scale, dtype=np.float64)
        np.testing.assert_array_equal(
            work_split_bounds(w, nparts), count_split_bounds(n, nparts)
        )

    @given(
        n=st.integers(min_value=0, max_value=100),
        nparts=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_zero_weights_fall_back_to_counts(self, n, nparts):
        w = np.zeros(n, dtype=np.float64)
        np.testing.assert_array_equal(
            work_split_bounds(w, nparts), count_split_bounds(n, nparts)
        )


# -- select_splitters ----------------------------------------------------------


def split_by(splitters, all_keys):
    """Part sizes induced by ``splitters`` on the sorted global key set."""
    s = np.sort(np.concatenate([np.asarray(k, dtype=np.uint64) for k in all_keys]))
    edges = np.searchsorted(s, splitters, side="left")
    return np.diff(np.concatenate([[0], edges, [s.shape[0]]]))


keys_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=500), min_size=0, max_size=40),
    min_size=2,
    max_size=6,
)


class TestSelectSplitters:
    @given(keys=keys_strategy, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_uniform_weights_bitwise_reduction(self, keys, data):
        """Constant power-of-two per-element weights choose the same
        splitters as the count-based path, bit for bit."""
        scale = data.draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
        P = len(keys)
        sorted_keys = [np.sort(np.asarray(k, dtype=np.uint64)) for k in keys]
        weights = [np.full(k.shape[0], scale) for k in sorted_keys]
        m1, m2 = Machine(P), Machine(P)
        plain = select_splitters(m1, sorted_keys, oversampling=8)
        weighted = select_splitters(m2, sorted_keys, oversampling=8, weights=weights)
        np.testing.assert_array_equal(plain, weighted)

    @given(keys=keys_strategy, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, keys, seed):
        """Shuffling elements across ranks does not change the balanced
        partition: the data plane computes the exact work split from the
        global (key, weight) multiset, so ownership is irrelevant.  (The
        splitter *agreement* is sampling-based and only charged for its
        cost — the partition itself is exact, as in [12].)"""
        P = len(keys)
        flat = np.sort(np.concatenate([np.asarray(k) for k in keys]).astype(np.uint64))
        rng = np.random.default_rng(seed)
        owner_a = rng.integers(0, P, flat.shape[0])
        owner_b = rng.permutation(owner_a)

        def run(owner):
            ks = [np.sort(flat[owner == r]) for r in range(P)]
            ws = [(k % 7 + 1).astype(np.float64) for k in ks]  # weight keyed to key
            out = partition_sort(
                Machine(P), make_blocks(ks, ws), "key", "s", balance_key="weight"
            )
            return [b["key"] for b in out]

        for a, b in zip(run(owner_a), run(owner_b)):
            np.testing.assert_array_equal(a, b)

    @given(keys=keys_strategy)
    @settings(max_examples=60, deadline=None)
    def test_empty_rank_invariance(self, keys):
        """An all-on-one-rank layout (every other rank empty) partitions
        into the same per-rank key sets as the spread layout."""
        P = len(keys)
        flat = np.sort(np.concatenate([np.asarray(k) for k in keys]).astype(np.uint64))
        spread = [np.sort(np.asarray(k, dtype=np.uint64)) for k in keys]
        lumped = [flat] + [np.empty(0, dtype=np.uint64)] * (P - 1)

        def run(layout):
            ws = [(k % 5 + 1).astype(np.float64) for k in layout]
            out = partition_sort(
                Machine(P), make_blocks(layout, ws), "key", "s", balance_key="weight"
            )
            return [b["key"] for b in out]

        for a, b in zip(run(spread), run(lumped)):
            np.testing.assert_array_equal(a, b)


# -- partition_sort with balance_key -------------------------------------------


class TestBalancedPartitionSort:
    @given(
        keys=keys_strategy,
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_balanced_sort_is_sorted_and_preserves_multiset(self, keys, seed):
        P = len(keys)
        m = Machine(P)
        rng = np.random.default_rng(seed)
        weights = [rng.integers(1, 9, len(k)).astype(np.float64) for k in keys]
        blocks = make_blocks(keys, weights)
        out = partition_sort(m, blocks, "key", "s", balance_key="weight")
        got = np.concatenate([b["key"] for b in out])
        assert np.all(got[:-1] <= got[1:]) if got.shape[0] else True
        want = np.sort(np.concatenate([np.asarray(k, dtype=np.uint64) for k in keys]))
        np.testing.assert_array_equal(np.sort(got), want)
        # the weight column rides the exchange, aligned with its key
        for b in out:
            np.testing.assert_allclose(b["val"], b["key"].astype(np.float64) + 0.5)

    def test_balanced_sort_equalizes_work(self, rng):
        """A skewed layout (all heavy keys on one rank) partitions into
        near-equal work parts, not near-equal counts."""
        P = 4
        m = Machine(P)
        # 40 heavy elements (weight 10) + 160 light (weight 1)
        heavy = np.sort(rng.integers(0, 100, 40)).astype(np.uint64)
        light = np.sort(rng.integers(100, 1000, 160)).astype(np.uint64)
        keys = [heavy, light[:60], light[60:120], light[120:]]
        weights = [
            np.full(40, 10.0),
            np.full(60, 1.0),
            np.full(60, 1.0),
            np.full(40, 1.0),
        ]
        out = partition_sort(m, make_blocks(keys, weights), "key", "s",
                             balance_key="weight")
        total = 40 * 10.0 + 160 * 1.0
        works = [
            np.where(b["key"] < 100, 10.0, 1.0).sum() for b in out
        ]
        assert sum(works) == total
        # bound: every part below total/P + max weight (plus sampling slack)
        assert max(works) <= total / P + 10.0 + 0.25 * total / P

    def test_balance_key_and_target_counts_are_exclusive(self, rng):
        m = Machine(2)
        blocks = make_blocks([[1, 2], [3, 4]], [[1.0, 1.0], [1.0, 1.0]])
        try:
            partition_sort(
                m, blocks, "key", "s", target_counts=[2, 2], balance_key="weight"
            )
        except ValueError:
            return
        raise AssertionError("expected ValueError")
