"""The array round forms against the per-message loops they replaced.

``tests/round_oracles.py`` keeps the parent bodies of ``send_round``,
``_run_rounds``, ``_bruck_rounds``, ``_pairwise_rounds``,
``alltoallv_staged`` and the ``Exchange.as_sends``/``collect`` bridge.  Each
property runs the production code and the oracle on twin machines — audited,
with a funnel listener, on every cost profile, with and without a
perturbation whose per-rank communication factors differ, and with clocks
that are *not* synchronized on entry — and requires the clock vector, every
trace row and counter, the auditor's whole state (ledgers and
``algo_round_ledger`` included), the ordered charge/count stream and the
delivered data to be identical: ``==`` on float hex, never ``allclose``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import round_oracles as oracle
from redistribution_oracles import assert_same_arrays, observed
from repro.simmpi import JUQUEEN, JUROPA, LOCAL, Machine, Perturbation, algos
from repro.simmpi.collectives import Exchange, alltoallv
from repro.simmpi.p2p import charge_round, send_round, sendrecv
from repro.verify.audit import enable_auditing
from strategies import exchanges, message_rounds

PROFILES = {"JUROPA": JUROPA, "JUQUEEN": JUQUEEN, "LOCAL": LOCAL}

#: profile, chaos seed (0 = unperturbed), clock scramble seed
machines = st.tuples(
    st.sampled_from(sorted(PROFILES)), st.integers(0, 5), st.integers(0, 2**32 - 1)
)


def twin_machines(nprocs, variant, algo=None):
    """Two identically prepared machines: audited, listened to, perturbed
    with non-uniform ``comm_factors`` and entered with ragged clocks."""
    profile, chaos, scramble = variant
    pair = []
    for _ in range(2):
        perturbation = None
        if chaos:
            perturbation = Perturbation(
                seed=chaos, degraded_link_fraction=0.5, degraded_link_slowdown=3.0,
                bandwidth_degradation=0.3, extra_latency=2e-6, clock_skew=1e-4,
            )
        machine = Machine(nprocs, profile=PROFILES[profile], perturbation=perturbation)
        machine.clocks += np.random.default_rng(scramble).random(nprocs) * 1e-4
        machine.set_collective_algos(algo)
        enable_auditing(machine)
        machine.obs = oracle.FunnelLog()
        pair.append(machine)
    return pair


def assert_same_observations(got: Machine, want: Machine):
    assert observed(got) == observed(want)
    assert got.obs.stream == want.obs.stream


def test_the_perturbation_used_here_is_not_uniform():
    machine = twin_machines(16, ("JUROPA", 3, 0))[0]
    assert len(set(machine.comm_factors.tolist())) > 1
    assert len(set(machine.clocks.tolist())) > 1


# ------------------------------------------------------------------ one round


@settings(max_examples=150, deadline=None)
@given(message_rounds(), machines)
def test_charge_round_is_the_send_round_loop(round_, variant):
    nprocs, src, dst, nbytes = round_
    got, want = twin_machines(nprocs, variant)
    transfers = [
        (s, d, np.zeros(n, dtype=np.uint8)) for s, d, n in zip(src.tolist(), dst.tolist(), nbytes.tolist())
    ]
    want_recv = oracle.send_round_loop(want, transfers, "x", op="some.op")
    charge_round(got, src, dst, nbytes, "x", op="some.op")
    assert_same_observations(got, want)
    # and send_round is that charge plus the hand-over of the payloads
    got_recv = send_round(got, transfers, "y")
    oracle.send_round_loop(want, transfers, "y")
    assert_same_observations(got, want)
    assert len(got_recv) == len(want_recv)
    for g, w in zip(got_recv, want_recv):
        assert [s for s, _ in g] == [s for s, _ in w]
        assert all(a is b for (_, a), (_, b) in zip(g, w))


@settings(max_examples=60, deadline=None)
@given(message_rounds(max_messages=6), machines)
def test_sendrecv_is_a_round_of_one_message(round_, variant):
    """Message after message (self-messages included: those stay a
    ``machine.copy``), every ``sendrecv`` charges what its scalar body did."""
    nprocs, src, dst, nbytes = round_
    got, want = twin_machines(nprocs, variant)
    for s, d, n in zip(src.tolist(), dst.tolist(), nbytes.tolist()):
        payload = np.zeros(n, dtype=np.uint8)
        assert sendrecv(got, s, d, payload, "x") is oracle.sendrecv_scalar(want, s, d, payload, "x")
    assert_same_observations(got, want)


@pytest.mark.parametrize("bad", [(0, 7), (-1, 2), (7, 0)])
def test_a_bad_rank_rejects_the_round_untouched(bad):
    machine = twin_machines(4, ("JUROPA", 0, 1))[0]
    before = machine.clocks.copy()
    with pytest.raises(ValueError, match="out of range"):
        charge_round(machine, np.array([0, bad[0]]), np.array([1, bad[1]]), np.array([8, 8]), "x")
    assert (machine.clocks == before).all() and machine.trace.items() == []
    assert machine.auditor.ledger == {} and machine.auditor.n_p2p_calls == 0


# ------------------------------------------------------------------ schedules


@st.composite
def routes(draw):
    P = draw(st.integers(1, 17))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, P - 1), st.integers(0, P - 1)).filter(lambda p: p[0] != p[1]),
        unique=True,
    ))
    return P, pairs  # in any order: a dict-form table lists targets as inserted


@settings(max_examples=200, deadline=None)
@given(routes())
def test_schedules_are_the_loops_message_for_message(case):
    P, pairs = case
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    for array_form, loop in (
        (algos._bruck_rounds, oracle.bruck_rounds_loop),
        (algos._pairwise_rounds, oracle.pairwise_rounds_loop),
    ):
        assert oracle.as_messages(array_form(P, ends[:, 0], ends[:, 1])) == loop(P, pairs)


SCHEDULES = {
    "ring": lambda P, root: (algos._ring_rounds(P), range(P)),
    "doubling": lambda P, root: (algos._doubling_rounds(P), range(P)),
    "gather": lambda P, root: (algos._gather_rounds(P, root), range(P)),
    "scatter": lambda P, root: (algos._scatter_rounds(P, root), [root] * P),
    "allreduce-tree": lambda P, root: (algos._allreduce_tree_rounds(P), [*range(P), 0]),
    "bcast": lambda P, root: (algos._bcast_rounds(P, root), [root]),
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(SCHEDULES)), st.integers(1, 17), st.integers(0, 16),
    st.integers(0, 2**32 - 1), machines,
)
def test_executor_charges_what_the_loop_shipped(name, P, root, seed, variant):
    """Any schedule, items of one or two columns (some empty): the executor
    that only knows sizes charges what the one that forwarded payloads did."""
    rounds, origins = SCHEDULES[name](P, root % P)
    rng = np.random.default_rng(seed)
    items = [
        [rng.random(int(rng.integers(0, 40))) for _ in range(int(rng.integers(1, 3)))]
        for _ in origins
    ]
    got, want = twin_machines(P, variant)
    oracle.run_rounds_loop(want, "c", "a", "x", items, origins, oracle.as_messages(rounds))
    sizes = [sum(col.nbytes for col in cols) for cols in items]
    algos._run_rounds(got, "c", "a", "x", sizes, origins, rounds, ([], []))
    assert_same_observations(got, want)


def test_executor_refuses_a_schedule_that_loses_an_item():
    machine = Machine(4)
    rounds = algos._gather_rounds(4, 0)[:-1]  # the last level never runs
    with pytest.raises(RuntimeError, match="undelivered"):
        algos._run_rounds(machine, "gatherv", "binomial-tree", "x", [8] * 4, range(4), rounds,
                          ([0] * 4, range(4)))
    assert not machine.clocks.any() and machine.trace.items() == []


# ------------------------------------------------------------- whole exchange


@settings(max_examples=120, deadline=None)
@given(
    exchanges(), st.sampled_from(["bruck", "pairwise", "auto", None]),
    st.sampled_from(["dense", "sparse", "cached"]), machines,
)
def test_staged_exchange_is_the_bridge(case, algo, count_exchange, variant):
    """A descriptor on a staged machine: rounds from the triples and one
    gather, against per-message views forwarded round by round and
    concatenated back."""
    nprocs, exchange = case[0], Exchange(*case[1])
    got, want = twin_machines(nprocs, variant, algo)
    want_columns, want_offsets = oracle.alltoallv_bridge(
        want, exchange, "x", count_exchange=count_exchange
    )
    got_columns, got_offsets = alltoallv(got, exchange, "x", count_exchange=count_exchange)
    assert_same_arrays(got_columns, want_columns)
    np.testing.assert_array_equal(got_offsets, want_offsets)
    assert got_offsets.dtype == want_offsets.dtype
    assert_same_observations(got, want)


@settings(max_examples=60, deadline=None)
@given(
    exchanges(max_rows=30), st.sampled_from(["bruck", "pairwise"]),
    st.sampled_from(["dense", "sparse", "cached"]), machines,
)
def test_staged_dict_table_is_the_staged_loop(case, algo, count_exchange, variant):
    """The per-message entry: same charges, and the payload objects
    themselves come back (reference delivery), targets in any dict order."""
    nprocs, exchange = case[0], Exchange(*case[1])
    sends = [dict(reversed(list(t.items()))) for t in oracle.exchange_as_sends(exchange, nprocs)]
    got, want = twin_machines(nprocs, variant, algo)
    want_recv = oracle.alltoallv_bridge(want, sends, "x", count_exchange=count_exchange)
    got_recv = alltoallv(got, sends, "x", count_exchange=count_exchange)
    assert_same_observations(got, want)
    for g, w in zip(got_recv, want_recv):
        assert [s for s, _ in g] == [s for s, _ in w]
        for (_, a), (_, b) in zip(g, w):
            assert type(a) is type(b)
            assert_same_arrays(a, b)
