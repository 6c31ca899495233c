"""Batcher's merge-exchange sorting network [16, Knuth Vol. III, Alg. 5.2.2M].

:func:`merge_exchange_rounds` emits the comparator schedule for ``n``
elements as a list of *rounds*; within a round every element participates in
at most one comparator, so a round maps directly onto one step of pairwise
point-to-point exchanges between parallel processes (each process holding
one sorted run).  The network has ``t(t+1)/2`` rounds for ``t = ceil(log2
n)`` and is *data-oblivious*: the same schedule sorts any input, which is
what allows the parallel merge sort to run without any collective
coordination.
"""

from __future__ import annotations

import math
from typing import List, Tuple

__all__ = ["merge_exchange_rounds"]


def merge_exchange_rounds(n: int) -> List[List[Tuple[int, int]]]:
    """Comparator rounds of Batcher's merge exchange for ``n`` elements.

    Each round is a list of ``(lo, hi)`` pairs with ``lo < hi``; applying
    "compare-exchange so position ``lo`` holds the smaller element" for all
    rounds in order sorts any ``n``-vector.  Within a round all pairs are
    disjoint.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n < 2:
        return []
    t = math.ceil(math.log2(n))
    rounds: List[List[Tuple[int, int]]] = []
    p = 1 << (t - 1)
    while p > 0:
        q = 1 << (t - 1)
        r = 0
        d = p
        while True:
            comparators: List[Tuple[int, int]] = []
            for i in range(n - d):
                if (i & p) == r:
                    comparators.append((i, i + d))
            if comparators:
                rounds.append(comparators)
            if q == p:
                break
            d = q - p
            q >>= 1
            r = p
        p >>= 1
    return rounds
