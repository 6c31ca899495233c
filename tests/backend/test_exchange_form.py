"""The buffer form of ``alltoallv`` against the ``list[dict]`` form.

An :class:`~repro.simmpi.collectives.Exchange` and the equivalent per-message
send table must be one exchange to everything that observes it: the same
clocks, trace rows, auditor state and received bytes — on the closed-form
path, under a staged algorithm, on the process backend and on both at once.
A descriptor stays a descriptor on every one of them: it is charged from its
``(src, dst, nbytes)`` triples (closed form or staged rounds) and delivered
by one gather, in-process or by the backend's workers; only the
``list[dict]`` table still travels message by message.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from cart_neighbors import neighbor_table
from redistribution_oracles import observed, recv_rows_kept
from repro.backend import shm
from repro.simmpi import Machine
from repro.simmpi.cart import CartGrid
from repro.simmpi.collectives import (
    Exchange,
    alltoallv,
    message_triples,
    neighborhood_alltoallv,
)
from repro.verify.audit import CommAuditError, enable_auditing

P = 6


def random_exchange(seed, nprocs=P):
    """A random sparse table (self-sends and zero-row messages included) in
    both forms: the Exchange and an independently built ``list[dict]``."""
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(0, 40))
    columns = (rng.random((n_rows, 3)), rng.integers(0, 1000, n_rows).astype(np.int32))
    keys = np.flatnonzero(rng.random(nprocs * nprocs) < rng.choice([0.0, 0.2, 0.7]))
    lens = rng.integers(0, 6, keys.shape[0]) * (n_rows > 0)
    row_ptr = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    row_index = rng.integers(0, max(n_rows, 1), int(row_ptr[-1])).astype(np.int64)
    exchange = Exchange(columns, row_index, keys // nprocs, keys % nprocs, row_ptr)
    sends = [{} for _ in range(nprocs)]
    for k, key in enumerate(keys.tolist()):
        rows = row_index[row_ptr[k]:row_ptr[k + 1]]
        sends[key // nprocs][key % nprocs] = tuple(c[rows] for c in columns)
    return exchange, sends


def flatten(recv, like):
    """A ``recv`` list as the ``(columns, recv_offsets)`` of the buffer form."""
    payloads = [payload for received in recv for _src, payload in received]
    columns = tuple(
        np.concatenate([p[i] for p in payloads]) if payloads else c[:0]
        for i, c in enumerate(like)
    )
    rows = [sum(p[0].shape[0] for _src, p in received) for received in recv]
    return columns, np.concatenate(([0], np.cumsum(rows))).astype(np.int64)


@pytest.mark.timeout(300)
@pytest.mark.parametrize("count_exchange", ["dense", "sparse", "cached"])
@pytest.mark.parametrize("seed", range(12))
def test_descriptor_is_the_same_exchange(make_machine, seed, count_exchange):
    exchange, sends = random_exchange(seed)
    as_dicts = make_machine(P)
    want = flatten(alltoallv(as_dicts, sends, "x", count_exchange=count_exchange), exchange.columns)
    as_buffer = make_machine(P)
    got = alltoallv(as_buffer, exchange, "x", count_exchange=count_exchange)
    for g, w in zip(got[0], want[0]):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)
    np.testing.assert_array_equal(got[1], want[1])
    assert observed(as_buffer) == observed(as_dicts)


def listed_positions(exchange, seed):
    """Route positions to list: none, every one, and a random subset that
    lists no row of any message to one receiving rank."""
    total = exchange.row_index.shape[0]
    rng = np.random.default_rng(seed)
    dropped = int(rng.integers(0, P))
    to_dropped = np.repeat(exchange.msg_dst, np.diff(exchange.row_ptr)) == dropped
    subset = np.flatnonzero((rng.random(total) < 0.6) & ~to_dropped)
    return {"none": np.empty(0, dtype=np.int64), "every": np.arange(total), "subset": subset}


def counted(exchange, listed):
    """``exchange`` charged whole (``sent``) but listing only the rows at
    the ascending route positions ``listed``."""
    return dataclasses.replace(
        exchange,
        row_index=exchange.row_index[listed],
        row_ptr=np.searchsorted(listed, exchange.row_ptr).astype(np.int64),
        sent=np.diff(exchange.row_ptr),
    )


@pytest.mark.timeout(300)
@pytest.mark.parametrize("seed", range(8))
def test_kept_rows_are_the_delivery_indexed(make_machine, seed):
    """An exchange with ``sent`` delivers exactly the rows it lists: what
    the whole delivery holds at their receive positions, cut by receiver,
    and what a listing of every row with those positions kept delivered
    (``recv_rows_kept``) — and is charged, traced and audited as the whole
    exchange; over ``process:2`` only the listed rows are written to shared
    memory."""
    exchange, _sends = random_exchange(seed)
    whole = make_machine(P)
    columns, offsets = alltoallv(whole, exchange, "x")
    for name, listed in listed_positions(exchange, seed).items():
        keep = exchange.recv_positions(listed)
        kept_rows, kept_offsets = recv_rows_kept(exchange, keep, P)
        machine = make_machine(P)
        backend = machine.backend
        before = backend.counters["backend.shm_bytes"] if backend is not None else 0
        got, got_offsets = alltoallv(machine, counted(exchange, listed), "x")
        for g, c, sent in zip(got, columns, exchange.columns):
            assert g.dtype == c.dtype
            np.testing.assert_array_equal(g, c[keep])
            np.testing.assert_array_equal(g, sent[kept_rows])
        np.testing.assert_array_equal(got_offsets, kept_offsets)
        np.testing.assert_array_equal(got_offsets, np.searchsorted(keep, offsets))
        assert observed(machine) == observed(whole), name
        if backend is not None:
            shipped = backend.counters["backend.shm_bytes"] - before
            assert shipped == sum(c[keep].nbytes for c in columns), name


@pytest.mark.timeout(300)
def test_neighborhood_peer_check_fires_on_a_descriptor(make_machine):
    nprocs = 16
    grid = CartGrid(nprocs, box=(10.0, 10.0, 10.0), dims=(4, 2, 2))
    table = neighbor_table(grid, include_self=True)
    stranger = next(r for r in range(nprocs) if r not in set(table[0].tolist()))
    column = np.arange(4.0)

    def one_message(dst):
        return Exchange(
            (column,), np.arange(4), np.array([0]), np.array([dst]), np.array([0, 4])
        )

    machine = make_machine(nprocs, table)
    neighbor = int(neighbor_table(grid, include_self=False)[0][0])
    (received,), offsets = neighborhood_alltoallv(machine, one_message(neighbor), "halo")
    np.testing.assert_array_equal(received, column)
    assert offsets[neighbor + 1] - offsets[neighbor] == 4
    with pytest.raises(CommAuditError, match="not a declared neighbor"):
        neighborhood_alltoallv(machine, one_message(stranger), "halo")
    # the dense exchange may talk to anyone
    alltoallv(machine, one_message(stranger), "halo")


class TestMalformedDescriptor:
    """Rejected like a bad destination in the dict form: before anything is
    audited, synchronized or charged."""

    def table(self, **changes):
        fields = dict(
            columns=(np.arange(6.0), np.arange(6)),
            row_index=np.array([0, 1, 2, 3], dtype=np.int64),
            msg_src=np.array([0, 2], dtype=np.int64),
            msg_dst=np.array([1, 0], dtype=np.int64),
            row_ptr=np.array([0, 3, 4], dtype=np.int64),
        )
        fields.update(changes)
        return Exchange(**fields)

    MALFORMED = [
        (dict(msg_dst=np.array([1, 9])), "rank 2 sends to invalid rank 9"),
        (dict(msg_src=np.array([0, 7])), "msg_src outside"),
        (dict(msg_src=np.array([2, 0])), "sorted by"),
        (dict(msg_src=np.array([0, 0]), msg_dst=np.array([1, 1])), "sorted by"),
        (dict(row_ptr=np.array([0, 3])), "ragged"),
        (dict(row_ptr=np.array([0, 3, 5])), "row_ptr"),
        (dict(row_ptr=np.array([0, 5, 4])), "row_ptr"),
        (dict(row_index=np.array([0, 1, 2, 6])), "outside the column buffers"),
        (dict(columns=(np.arange(6.0), np.arange(5))), "differ in length"),
        (dict(row_index=np.array([0.0, 1.0, 2.0, 3.0])), "int64"),
        (dict(sent=np.array([2, 1])), "Exchange.sent"),
        (dict(sent=np.array([3, 0])), "Exchange.sent"),
        (dict(sent=np.array([3, 1, 0])), "Exchange.sent"),
        (dict(sent=np.array([3, -1])), "Exchange.sent"),
        (dict(sent=np.array([3.0, 1.0])), "Exchange.sent"),
    ]

    @pytest.mark.parametrize("changes, message", MALFORMED)
    def test_rejected_before_any_charge(self, changes, message):
        machine = Machine(4)
        auditor = enable_auditing(machine)
        with pytest.raises(ValueError, match=message):
            alltoallv(machine, self.table(**changes), "x")
        assert not machine.clocks.any()
        assert machine.trace.items() == []
        assert auditor.ledger == {} and auditor.n_alltoall_calls == 0

    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("changes, message", MALFORMED)
    @pytest.mark.parametrize("variant", ["bruck", "pairwise", "process", "bruck+process"])
    def test_rejected_before_any_transport(self, changes, message, variant, request, monkeypatch):
        """...and before a round is planned or a byte is written to an arena:
        staged, on ``process:2`` and on both.  (Passed on the parent, whose
        bridge validated before it took the descriptor apart; pinned because
        the transports now read the descriptor's arrays themselves.)"""
        machine = Machine(4)
        backend = None
        if "process" in variant:
            backend = request.getfixturevalue("process_backend")
            machine.attach_backend(backend)
        if variant.split("+")[0] != "process":
            machine.set_collective_algos(variant.split("+")[0])
        auditor = enable_auditing(machine)
        arenas = []
        create = shm.ShmArena.__init__

        def counting_create(self, *args, **kwargs):
            arenas.append(args)
            create(self, *args, **kwargs)

        monkeypatch.setattr(shm.ShmArena, "__init__", counting_create)
        counters = dict(backend.counters) if backend is not None else None
        with pytest.raises(ValueError, match=message):
            alltoallv(machine, self.table(**changes), "x")
        assert not machine.clocks.any()
        assert machine.trace.items() == []
        assert auditor.state_dict() == enable_auditing(Machine(4)).state_dict()
        assert arenas == []
        if backend is not None:
            assert {k: v for k, v in backend.counters.items() if k != "backend.wait_ns"} == {
                k: v for k, v in counters.items() if k != "backend.wait_ns"
            }

    def test_well_formed_table_passes(self):
        machine = Machine(4)
        (a, b), offsets = alltoallv(machine, self.table(), "x")
        np.testing.assert_array_equal(a, [3.0, 0.0, 1.0, 2.0])
        np.testing.assert_array_equal(offsets, [0, 1, 4, 4, 4])
        # charged as carrying more rows than it lists: the listed ones arrive
        counted = self.table(sent=np.array([5, 1]))
        (a, b), offsets = alltoallv(machine, counted, "x")
        np.testing.assert_array_equal(a, [3.0, 0.0, 1.0, 2.0])
        np.testing.assert_array_equal(offsets, [0, 1, 4, 4, 4])
        np.testing.assert_array_equal(message_triples(counted)[2], [5 * 16, 16])
