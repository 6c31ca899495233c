"""Batcher's merge-exchange network: validity via the zero-one principle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instruments import verify_exchange_schedule
from repro.sorting.batcher import merge_exchange_rounds


def comparator_count(n):
    return sum(len(r) for r in merge_exchange_rounds(n))


def apply_network(rounds, values):
    v = list(values)
    for comparators in rounds:
        for lo, hi in comparators:
            if v[lo] > v[hi]:
                v[lo], v[hi] = v[hi], v[lo]
    return v


class TestStructure:
    def test_empty(self):
        assert merge_exchange_rounds(0) == []
        assert merge_exchange_rounds(1) == []

    def test_two(self):
        assert merge_exchange_rounds(2) == [[(0, 1)]]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 13, 16])
    def test_rounds_disjoint(self, n):
        rounds = merge_exchange_rounds(n)
        verify_exchange_schedule(rounds, n)
        assert all(lo < hi for comparators in rounds for lo, hi in comparators)

    def test_comparator_count_n_log2_n(self):
        # merge exchange uses ~ n/4 log^2 n comparators
        assert comparator_count(64) <= 64 * 36 / 2

    def test_round_count(self):
        # t(t+1)/2 rounds for n = 2^t
        assert len(merge_exchange_rounds(16)) == 10
        assert len(merge_exchange_rounds(64)) == 21


class TestZeroOnePrinciple:
    """A comparator network sorts all inputs iff it sorts all 0/1 inputs."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_all_binary_inputs(self, n):
        rounds = merge_exchange_rounds(n)
        for bits in itertools.product((0, 1), repeat=n):
            out = apply_network(rounds, bits)
            assert out == sorted(bits), f"fails on {bits}"

    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_sorts_arbitrary(self, values):
        rounds = merge_exchange_rounds(len(values))
        assert apply_network(rounds, values) == sorted(values)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            merge_exchange_rounds(-1)
