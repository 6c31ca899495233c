"""Point-to-point primitives: clock semantics of sends and exchanges."""

import numpy as np
import pytest

from repro.backend import ExecutionBackend
from repro.simmpi import costmodel
from repro.simmpi.chaos import Perturbation
from repro.simmpi.collectives import payload_nbytes
from repro.simmpi.machine import Machine
from repro.simmpi.p2p import exchange_pairs, send_round, sendrecv


class TestSendrecv:
    def test_advances_both(self, machine4):
        sendrecv(machine4, 0, 1, np.zeros(100), "x")
        assert machine4.clocks[0] > 0
        assert machine4.clocks[1] > machine4.clocks[0]  # receive completes after send
        assert machine4.clocks[2] == 0.0

    def test_receiver_waits_for_sender(self, machine4):
        machine4.clocks[0] = 1.0  # sender is behind schedule? no: ahead
        sendrecv(machine4, 0, 1, np.zeros(8), "x")
        assert machine4.clocks[1] > 1.0

    def test_self_send_is_copy(self, machine4):
        sendrecv(machine4, 2, 2, np.zeros(1000), "x")
        assert machine4.trace.phase("x").messages == 0
        assert machine4.clocks[2] > 0

    def test_payload_returned(self, machine4):
        payload = np.arange(4)
        out = sendrecv(machine4, 0, 1, payload, "x")
        assert out is payload


class TestSendRound:
    def test_delivery(self, machine4):
        recv = send_round(
            machine4,
            [(0, 1, np.array([1.0])), (2, 1, np.array([2.0])), (3, 0, np.array([3.0]))],
            "x",
        )
        assert [src for src, _ in recv[1]] == [0, 2]
        assert recv[0][0][0] == 3
        assert machine4.trace.phase("x").messages == 3

    def test_same_source_serializes(self, machine4):
        send_round(machine4, [(0, 1, np.zeros(8)), (0, 2, np.zeros(8))], "x")
        one = machine4.clocks[0]
        m2 = Machine(4)
        send_round(m2, [(0, 1, np.zeros(8))], "x")
        assert one > m2.clocks[0]


def pairs(*ends):
    """``(k, 2)`` int64 pair or byte arrays."""
    return np.asarray(ends, dtype=np.int64).reshape(-1, 2)


class TestExchangePairs:
    def test_swap(self, machine4):
        """Naming a pair the other way round, with its byte columns
        swapped, is the same exchange."""
        exchange_pairs(machine4, pairs((0, 1)), pairs((80, 160)), "x")
        m2 = Machine(4)
        exchange_pairs(m2, pairs((1, 0)), pairs((160, 80)), "x")
        assert [c.hex() for c in m2.clocks] == [c.hex() for c in machine4.clocks]
        assert machine4.clocks[0] != machine4.clocks[1]

    def test_disjointness_enforced(self, machine4):
        with pytest.raises(ValueError):
            exchange_pairs(machine4, pairs((0, 1), (1, 2)), pairs((8, 8), (8, 8)), "x")

    def test_self_pair_rejected(self, machine4):
        with pytest.raises(ValueError):
            exchange_pairs(machine4, pairs((1, 1)), pairs((8, 8)), "x")

    def test_overlapping_directions(self, machine4):
        """A symmetric exchange costs about one message time, not two."""
        exchange_pairs(machine4, pairs((0, 1)), pairs((6400, 6400)), "x")
        t_pair = machine4.elapsed()
        m2 = Machine(4)
        sendrecv(m2, 0, 1, np.zeros(800), "x")
        sendrecv(m2, 1, 0, np.zeros(800), "x")
        assert t_pair < m2.elapsed()

    def test_counts(self, machine4):
        exchange_pairs(machine4, pairs((0, 1), (2, 3)), pairs((80, 160), (40, 40)), "x")
        st = machine4.trace.phase("x")
        assert st.messages == 4
        assert st.bytes == (10 + 20 + 5 + 5) * 8


def exchange_pairs_scalar(machine, exchanges):
    """The charge of ``exchange_pairs`` as it was made: one scalar topology
    and cost-model query per pair and direction."""
    model = machine.model
    for a, b, pa, pb in exchanges:
        bytes_ab, bytes_ba = payload_nbytes(pa), payload_nbytes(pb)
        hops = int(machine.topology.hops(a, b))
        post_a = machine.clocks[a] + model.overhead + float(model.copy_time(bytes_ab))
        post_b = machine.clocks[b] + model.overhead + float(model.copy_time(bytes_ba))
        pair_factor = machine.comm_factor(a, b)
        arrive_at_b = post_a + float(model.msg_time(hops, bytes_ab)) * pair_factor - model.overhead
        arrive_at_a = post_b + float(model.msg_time(hops, bytes_ba)) * pair_factor - model.overhead
        machine.clocks[a] = max(post_a, arrive_at_a) + float(model.copy_time(bytes_ba))
        machine.clocks[b] = max(post_b, arrive_at_b) + float(model.copy_time(bytes_ab))


class TestExchangePairsRoundQueries:
    """A round asks the topology and the cost model once for all its pairs;
    the clocks are bit for bit those of a scalar query per pair."""

    @pytest.mark.parametrize("profile", ["JUROPA", "JUQUEEN"])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_same_clocks_as_a_query_per_pair(self, profile, perturbed):
        P = 96

        def machine():
            m = Machine(P, profile=getattr(costmodel, profile))
            if perturbed:
                m.perturb(Perturbation(
                    seed=5, degraded_link_fraction=0.3, bandwidth_degradation=0.2,
                    extra_latency=1e-6, clock_skew=1e-3,
                ))
            return m

        rng = np.random.default_rng(3)
        got, want = machine(), machine()
        for _round in range(6):
            # disjoint pairs, same node and across the machine, empty and large payloads
            ranks = rng.permutation(P)[: 2 * int(rng.integers(0, P // 2 + 1))]
            exchanges = [
                (int(a), int(b), np.zeros(rng.integers(5000)), np.zeros(rng.integers(3), np.uint8))
                for a, b in ranks.reshape(-1, 2)
            ]
            exchange_pairs(
                got,
                pairs(*[(a, b) for a, b, _pa, _pb in exchanges]),
                pairs(*[(pa.nbytes, pb.nbytes) for _a, _b, pa, pb in exchanges]),
                "x",
            )
            exchange_pairs_scalar(want, exchanges)
            assert [c.hex() for c in got.clocks.tolist()] == [c.hex() for c in want.clocks.tolist()]
        stats = got.trace.phase("x")
        assert stats.messages > 0 and stats.calls == 6

    def test_bad_rank_is_named_as_before(self, machine4):
        with pytest.raises(ValueError, match=r"rank 7 out of range \[0, 4\)"):
            exchange_pairs(machine4, pairs((0, 1), (2, 7)), pairs((8, 8), (8, 8)), "x")


def _listeners(name):
    """A 4-rank machine with the named listeners / data plane attached."""
    from repro.obs.spans import enable_observability
    from repro.verify.audit import enable_auditing

    machine = Machine(4)
    if "audited" in name:
        enable_auditing(machine)
    if "obs" in name:
        enable_observability(machine)
    if name == "inprocess":
        machine.attach_backend(_CountingBackend())
    return machine


class _CountingBackend(ExecutionBackend):
    """An in-process data plane that counts the payloads it is handed."""

    def route(self, transfers, nprocs):
        self.counters["backend.messages"] += len(transfers)
        return [payload for _src, _dst, payload in transfers]


def _untouched(machine):
    """No clock moved, nothing traced, audited, recorded or shipped."""
    assert not machine.clocks.any()
    assert machine.trace.labels() == []
    auditor = machine.auditor
    if auditor is not None:
        assert not auditor.ledger and not auditor.violations
        assert auditor.n_p2p_calls == 0
    if machine.obs is not None:
        assert machine.obs.span_count() == 0
    if machine.backend is not None:
        assert machine.backend.counters["backend.messages"] == 0


@pytest.mark.parametrize("listeners", ["bare", "audited", "audited+obs", "inprocess"])
class TestRejectedRound:
    """A round naming a bad rank is rejected whole, with the primitive's
    ``ValueError``, before anything is audited, routed or charged — the same
    with and without listeners (it used to move rank 0's clock and ship the
    batch first, and to raise ``CommAuditError`` with a call counted once an
    auditor was attached)."""

    def test_send_round_bad_rank(self, listeners):
        machine = _listeners(listeners)
        a = np.zeros(1024)
        with pytest.raises(ValueError, match=r"rank 7 out of range \[0, 4\)") as err:
            send_round(machine, [(0, 1, a), (2, 7, a)], "p")
        assert type(err.value) is ValueError
        _untouched(machine)

    def test_send_round_negative_rank(self, listeners):
        machine = _listeners(listeners)
        with pytest.raises(ValueError, match=r"rank -1 out of range"):
            send_round(machine, [(0, 1, np.zeros(2)), (-1, 2, np.zeros(2))], "p")
        _untouched(machine)

    @pytest.mark.parametrize("pairs, message", [
        ([(0, 1), (2, 7)], r"rank 7 out of range \[0, 4\)"),
        ([(0, 1), (1, 2)], "rank 1 appears in more than one exchange"),
        ([(0, 1), (3, 3)], "exchanges with itself"),
    ])
    def test_exchange_pairs(self, listeners, pairs, message):
        machine = _listeners(listeners)
        ends = np.asarray(pairs, dtype=np.int64)
        with pytest.raises(ValueError, match=message) as err:
            exchange_pairs(machine, ends, np.full(ends.shape, 8), "p")
        assert type(err.value) is ValueError
        _untouched(machine)
