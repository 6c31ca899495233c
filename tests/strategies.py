"""Shared Hypothesis strategies for the property-based test suites.

A test instrument: every user is a test module, which imports it with a
plain ``from strategies import ...`` (``tests/`` is on the test path).
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis.extra import numpy as hnp

from repro.core.resort import RANK_LIMIT, POSITION_LIMIT

__all__ = [
    "rank_arrays",
    "position_arrays",
    "rank_position_arrays",
    "permutations",
    "count_tables",
    "multiplicity_maps",
    "rank_layouts",
    "message_rounds",
    "exchanges",
]


def rank_arrays(max_size: int = 64):
    """Arrays of valid target ranks over the full packing range."""
    return hnp.arrays(
        dtype=np.int64,
        shape=st.integers(min_value=0, max_value=max_size),
        elements=st.integers(min_value=0, max_value=RANK_LIMIT - 1),
    )


def position_arrays(max_size: int = 64):
    """Arrays of valid target positions over the full packing range."""
    return hnp.arrays(
        dtype=np.int64,
        shape=st.integers(min_value=0, max_value=max_size),
        elements=st.integers(min_value=0, max_value=POSITION_LIMIT - 1),
    )


def rank_position_arrays(max_size: int = 64):
    """Equal-length (ranks, positions) pairs spanning the full ranges.

    Ranks cover ``[0, 2**31 - 1]`` and positions ``[0, 2**32 - 1]`` — the
    extremes where a packing bug (sign bit, shifted-mask overlap) shows up.
    """

    def pair(n):
        ranks = hnp.arrays(
            dtype=np.int64,
            shape=n,
            elements=st.integers(min_value=0, max_value=RANK_LIMIT - 1),
        )
        positions = hnp.arrays(
            dtype=np.int64,
            shape=n,
            elements=st.integers(min_value=0, max_value=POSITION_LIMIT - 1),
        )
        return st.tuples(ranks, positions)

    return st.integers(min_value=0, max_value=max_size).flatmap(pair)


def permutations(max_size: int = 128):
    """Random permutations of ``0..n-1`` as int64 arrays."""

    def build(n_and_seed):
        n, seed = n_and_seed
        return np.random.default_rng(seed).permutation(n).astype(np.int64)

    return st.tuples(
        st.integers(min_value=0, max_value=max_size),
        st.integers(min_value=0, max_value=2**32 - 1),
    ).map(build)


def count_tables(max_nprocs: int = 8, max_count: int = 16):
    """Square alltoallv count tables: ``send[i][j]`` items from rank ``i`` to ``j``."""
    return st.integers(min_value=1, max_value=max_nprocs).flatmap(
        lambda n: hnp.arrays(
            dtype=np.int64, shape=(n, n), elements=st.integers(min_value=0, max_value=max_count)
        )
    )


def multiplicity_maps(max_size: int = 48, max_nprocs: int = 8, max_copies: int = 3):
    """Per-element target multiplicities for duplicating distributions.

    Draws ``(nprocs, targets)`` where ``targets[i]`` is the list of target
    ranks element ``i`` is sent to (possibly empty = dropped, possibly
    repeated = duplicated) — the ground truth a fine-grained redistribution
    with a duplicating distribution function must reproduce exactly.
    """

    def build(n_and_p):
        n, nprocs = n_and_p
        target_list = st.lists(
            st.integers(min_value=0, max_value=nprocs - 1),
            min_size=0,
            max_size=max_copies,
        )
        return st.tuples(
            st.just(nprocs),
            st.lists(target_list, min_size=n, max_size=n),
        )

    return st.tuples(
        st.integers(min_value=0, max_value=max_size),
        st.integers(min_value=1, max_value=max_nprocs),
    ).flatmap(build)


def rank_layouts(max_rows: int = 60, max_nprocs: int = 9):
    """Per-rank row counts of a rank-major store: ``(counts, seed)``.

    ``counts`` (int64, one entry per rank) covers the layouts a flat pass
    over ``(block, offsets)`` must get right: rows spread unevenly with empty
    ranks in between, fewer rows than ranks, every row on one rank, no rows
    at all.  ``seed`` is for the caller's own column data.
    """

    def build(drawn):
        nprocs, rows, shape, seed = drawn
        rng = np.random.default_rng(seed)
        if shape == "one-rank":
            counts = np.zeros(nprocs, dtype=np.int64)
            counts[rng.integers(nprocs)] = rows
        else:
            rows = min(rows, nprocs - 1) if shape == "fewer-than-ranks" else rows
            cuts = np.sort(rng.integers(0, rows + 1, nprocs - 1))
            counts = np.diff(np.concatenate(([0], cuts, [rows]))).astype(np.int64)
        return counts, seed

    return st.tuples(
        st.integers(min_value=1, max_value=max_nprocs),
        st.integers(min_value=0, max_value=max_rows),
        st.sampled_from(["spread", "fewer-than-ranks", "one-rank"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    ).map(build)


def message_rounds(max_nprocs: int = 17, max_messages: int = 40):
    """One point-to-point round: ``(nprocs, src, dst, nbytes)`` int64 arrays.

    Covers what a round charge must serialize correctly: ranks that post or
    receive several messages (up to every message on one rank), the same
    ``(src, dst)`` pair more than once, self-messages, zero-byte messages,
    the empty round, and rank counts that are not powers of two.
    """

    def build(drawn):
        nprocs, n, shape, seed = drawn
        rng = np.random.default_rng(seed)
        src = rng.integers(0, nprocs, n)
        dst = rng.integers(0, nprocs, n)
        if shape == "one-source":
            src[:] = rng.integers(nprocs)
        elif shape == "one-destination":
            dst[:] = rng.integers(nprocs)
        elif shape == "ring":
            dst = (src + 1) % nprocs
        nbytes = rng.integers(0, 5000, n) * (rng.random(n) < 0.8)
        return nprocs, src.astype(np.int64), dst.astype(np.int64), nbytes.astype(np.int64)

    return st.tuples(
        st.integers(min_value=1, max_value=max_nprocs),
        st.integers(min_value=0, max_value=max_messages),
        st.sampled_from(["any", "one-source", "one-destination", "ring"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    ).map(build)


def exchanges(max_nprocs: int = 17, max_rows: int = 60):
    """One all-to-all exchange in buffer form: ``(nprocs, fields)`` with
    ``fields`` the ``(columns, row_index, msg_src, msg_dst, row_ptr)`` of an
    :class:`~repro.simmpi.collectives.Exchange`.

    A float ``(n, 3)`` and an ``int32`` column; the message table runs from
    empty over sparse to every pair, self-sends and zero-row messages
    included, and ``row_index`` may name a buffer row any number of times.
    """

    def build(drawn):
        nprocs, n_rows, density, seed = drawn
        rng = np.random.default_rng(seed)
        columns = (rng.random((n_rows, 3)), rng.integers(0, 1000, n_rows).astype(np.int32))
        pairs = np.flatnonzero(rng.random(nprocs * nprocs) < density)
        lens = rng.integers(0, 6, pairs.shape[0]) * (n_rows > 0)
        row_ptr = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
        row_index = rng.integers(0, max(n_rows, 1), int(row_ptr[-1])).astype(np.int64)
        return nprocs, (columns, row_index, pairs // nprocs, pairs % nprocs, row_ptr)

    return st.tuples(
        st.integers(min_value=1, max_value=max_nprocs),
        st.integers(min_value=0, max_value=max_rows),
        st.sampled_from([0.0, 0.2, 0.7, 1.0]),
        st.integers(min_value=0, max_value=2**32 - 1),
    ).map(build)
