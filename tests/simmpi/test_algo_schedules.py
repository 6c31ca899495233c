"""Schedule-level tests of the staged collectives: no ``Machine``, no payloads.

An algorithm in :mod:`repro.simmpi.algos` is a pure function returning
``rounds`` — array tuples ``(src, dst, ptr, ids)``: message ``k`` travels
``src[k] -> dst[k]`` and carries the items ``ids[ptr[k]:ptr[k + 1]]`` — over
items that start at their ``origins``.  A symbolic replay checks, for every
schedule function, rank count 1..17 and root, what the one executor relies
on and what the collective promises: a message only forwards items its sender held when the
round began, a round has at most one message per ``(src, dst)``, every item
ends where the collective requires, and the message count is the textbook
closed form.
"""

from __future__ import annotations

import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simmpi import algos
from round_oracles import as_messages

RANKS = range(1, 18)


def ceil_log2(P):
    return (P - 1).bit_length()


def messages(round_):
    """One array round as its ``(src, dst, item ids)`` messages."""
    src, dst, ptr, ids = round_
    for a in round_:
        assert a.dtype == np.int64 and a.ndim == 1
    assert src.shape == dst.shape and ptr.shape == (src.shape[0] + 1,)
    assert ptr[0] == 0 and ptr[-1] == ids.shape[0]
    return as_messages([round_])[0]


def replay(nprocs, origins, rounds):
    """Run ``rounds`` over item ids alone; returns ``(held, n_messages)``."""
    held = [set() for _ in range(nprocs)]
    for t, rank in enumerate(origins):
        held[rank].add(t)
    n_messages = 0
    for batch in map(messages, rounds):
        before = [set(h) for h in held]
        pairs = [(src, dst) for src, dst, _ids in batch]
        assert len(set(pairs)) == len(pairs), "two messages on one (src, dst) in a round"
        for src, dst, ids in batch:
            assert 0 <= src < nprocs and 0 <= dst < nprocs and src != dst
            assert ids and list(ids) == sorted(set(ids))
            assert set(ids) <= before[src], f"rank {src} forwards items it does not hold"
            held[dst].update(ids)
            n_messages += 1
    return held, n_messages


def all_pairs(P):
    return [(i, j) for i in range(P) for j in range(P) if j != i]


def route_arrays(routes):
    ends = np.array(routes, dtype=np.int64).reshape(-1, 2)
    return ends[:, 0], ends[:, 1]


@pytest.mark.parametrize("P", RANKS)
class TestUnrootedSchedules:
    def test_pairwise_ships_each_item_once_in_exchange_rounds(self, P):
        routes = all_pairs(P)
        rounds = algos._pairwise_rounds(P, *route_arrays(routes))
        held, n_messages = replay(P, [src for src, _ in routes], rounds)
        assert len(rounds) == P - 1 and n_messages == len(routes)
        for batch in map(messages, rounds):
            # an exchange round: every rank posts one send and one receive
            assert sorted(src for src, _, _ in batch) == list(range(P))
            assert sorted(dst for _, dst, _ in batch) == list(range(P))
            assert all(len(ids) == 1 for _, _, ids in batch)
        assert all(t in held[dst] for t, (_, dst) in enumerate(routes))

    def test_bruck_dense_is_log_rounds_of_at_most_p_messages(self, P):
        routes = all_pairs(P)
        rounds = algos._bruck_rounds(P, *route_arrays(routes))
        held, n_messages = replay(P, [src for src, _ in routes], rounds)
        assert len(rounds) == ceil_log2(P)
        assert n_messages <= P * ceil_log2(P)
        if P & (P - 1) == 0:
            assert n_messages == P * ceil_log2(P)
        assert all(t in held[dst] for t, (_, dst) in enumerate(routes))

    def test_ring_passes_every_block_all_the_way_round(self, P):
        rounds = algos._ring_rounds(P)
        held, n_messages = replay(P, range(P), rounds)
        assert n_messages == P * (P - 1)
        assert all(len(ids) == 1 for batch in rounds for _, _, ids in messages(batch))
        assert all(h == set(range(P)) for h in held)

    def test_recursive_doubling_reaches_everyone_in_log_rounds(self, P):
        rounds = algos._doubling_rounds(P)
        held, n_messages = replay(P, range(P), rounds)
        assert len(rounds) == ceil_log2(P) and n_messages == P * ceil_log2(P)
        assert all(h == set(range(P)) for h in held)

    def test_allreduce_tree_reduces_to_rank_0_then_broadcasts(self, P):
        rounds = algos._allreduce_tree_rounds(P)
        reduce_up = rounds[: len(rounds) // 2]
        held, n_messages = replay(P, [*range(P), 0], reduce_up)
        assert n_messages == P - 1 and held[0] == set(range(P + 1))
        held, n_messages = replay(P, [*range(P), 0], rounds)
        assert n_messages == 2 * (P - 1)
        assert all(P in h for h in held)


@pytest.mark.parametrize("P", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("n", [0, 1, 5, 16, 37])
def test_halving_doubling_scatters_then_regathers_the_vector(P, n):
    rounds, slices = algos._halving_doubling_rounds(P, n)
    K = ceil_log2(P)
    _, n_messages = replay(P, [src for r in rounds for src in r[0].tolist()], rounds)
    rounds = [messages(r) for r in rounds]
    # every message mints its own item, numbered in message order
    assert [ids for batch in rounds for _, _, ids in batch] == [[t] for t in range(len(slices))]
    assert len(rounds) == 2 * K and n_messages == 2 * P * K
    own = [set(range(n)) for _ in range(P)]
    for batch in rounds[:K]:
        gives = {src: set(range(*slices[ids[0]])) for src, _, ids in batch}
        for src, dst, _ in batch:
            # partners split their common segment: each gives what the other keeps
            assert own[src] == own[dst] and gives[src] <= own[src]
            assert gives[dst] == own[src] - gives[src]
        for src in gives:
            own[src] -= gives[src]
    # reduce-scatter done: the owned segments partition the vector
    assert sorted(i for seg in own for i in seg) == list(range(n))
    for batch in rounds[K:]:
        sent = {dst: set(range(*slices[ids[0]])) for src, dst, ids in batch}
        for src, dst, ids in batch:
            assert sent[dst] == own[src], "a rank ships exactly the segment it owns"
        for dst in sent:
            own[dst] |= sent[dst]
    assert all(seg == set(range(n)) for seg in own)


@pytest.mark.parametrize("P", RANKS)
class TestRootedSchedules:
    def test_bcast_doubles_the_informed_set(self, P):
        for root in range(P):
            rounds = algos._bcast_rounds(P, root)
            held, n_messages = replay(P, [root], rounds)
            assert n_messages == P - 1
            assert [len(batch[0]) for batch in rounds] == [
                min(1 << k, P - (1 << k)) for k in range(ceil_log2(P))
            ]
            assert all(h == {0} for h in held)

    def test_gather_bundles_everything_to_the_root(self, P):
        for root in range(P):
            rounds = algos._gather_rounds(P, root)
            held, n_messages = replay(P, range(P), rounds)
            assert n_messages == P - 1 and held[root] == set(range(P))
            # every other rank forwards its bundle exactly once
            assert sorted(src for batch in rounds for src in batch[0].tolist()) == [
                r for r in range(P) if r != root
            ]

    def test_scatter_hands_every_rank_its_part(self, P):
        for root in range(P):
            rounds = algos._scatter_rounds(P, root)
            held, n_messages = replay(P, [root] * P, rounds)
            assert n_messages == P - 1
            assert all(rank in held[rank] for rank in range(P))
            # a bundle is forwarded whole: each part travels down one tree path
            assert all(
                dst in ids for batch in rounds for _, dst, ids in messages(batch)
            )


@st.composite
def sparse_routes(draw):
    P = draw(st.integers(1, 17))
    pairs = draw(st.sets(st.tuples(st.integers(0, P - 1), st.integers(0, P - 1))))
    return P, sorted((src, dst) for src, dst in pairs if src != dst)


@settings(max_examples=200, deadline=None)
@given(sparse_routes())
def test_sparse_routes_are_delivered_by_pairwise_and_bruck(case):
    P, routes = case
    origins = [src for src, _ in routes]
    held, n_messages = replay(P, origins, algos._pairwise_rounds(P, *route_arrays(routes)))
    assert n_messages == len(routes)
    assert all(t in held[dst] for t, (_, dst) in enumerate(routes))

    rounds = algos._bruck_rounds(P, *route_arrays(routes))
    held, n_messages = replay(P, origins, rounds)
    assert all(t in held[dst] for t, (_, dst) in enumerate(routes))
    # an item hops once per set bit of its cyclic distance
    hops = [0] * len(routes)
    for batch in rounds:
        for _, _, ids in messages(batch):
            for t in ids:
                hops[t] += 1
    assert hops == [bin((dst - src) % P).count("1") for src, dst in routes]
    assert n_messages <= min(sum(hops), P * ceil_log2(P))


def test_one_executor_owns_shipping_and_accounting():
    """Every algorithm's rounds go through the single executor: the module
    calls ``charge_round``, ``observe_algo_collective`` and ``algo_scope``
    exactly once each — and ships nothing: no ``send_round``, no payload
    sizing, no backend."""
    calls = [
        getattr(node.func, "attr", getattr(node.func, "id", None))
        for node in ast.walk(ast.parse(inspect.getsource(algos)))
        if isinstance(node, ast.Call)
    ]
    for name in ("charge_round", "observe_algo_collective", "algo_scope"):
        assert calls.count(name) == 1, name
    for name in ("send_round", "payload_nbytes", "deliver", "route"):
        assert calls.count(name) == 0, name
