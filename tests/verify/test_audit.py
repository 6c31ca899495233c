"""Communication auditor: the raw-table observers, neighbor contract; and
the validators for count tables and exchange schedules that tests hand
production code's tables to (``tests/instruments.py``)."""

import numpy as np
import pytest

from cart_neighbors import neighbor_table
from instruments import check_count_symmetry, verify_exchange_schedule
from repro.core.particles import ColumnBlock
from repro.simmpi.cart import CartGrid
from repro.simmpi.collectives import alltoallv, allreduce, neighborhood_alltoallv
from repro.simmpi.machine import Machine
from repro.simmpi.p2p import exchange_pairs, send_round, sendrecv
from repro.verify import CommAuditError, CommAuditor, enable_auditing


class TestCountSymmetry:
    def test_symmetric_table_accepted(self):
        send = np.array([[0, 3], [2, 0]])
        check_count_symmetry(send, send.T)

    def test_asymmetric_table_rejected(self):
        """The acceptance-criterion negative test: an injected asymmetric
        count table must raise with the offending (src, dst) pair named."""
        send = np.array([[0, 3], [2, 0]])
        recv = np.array([[0, 2], [1, 0]])  # rank 1 expects 1, rank 0 sends 3
        with pytest.raises(CommAuditError, match="asymmetric alltoallv counts"):
            check_count_symmetry(send, recv)

    def test_message_names_ranks(self):
        send = np.zeros((3, 3), dtype=np.int64)
        send[1, 2] = 5
        recv = np.zeros((3, 3), dtype=np.int64)
        with pytest.raises(CommAuditError, match="rank 1 sends 5 to rank 2"):
            check_count_symmetry(send, recv)

    def test_negative_counts_rejected(self):
        send = np.array([[0, -1], [0, 0]])
        with pytest.raises(CommAuditError, match="non-negative"):
            check_count_symmetry(send, send.T)

    def test_non_square_rejected(self):
        with pytest.raises(CommAuditError, match="square"):
            check_count_symmetry(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_property_symmetric_tables_pass(self):
        """What ``alltoallv`` delivers, counted per source, is the transpose
        of the count table it was given."""
        from hypothesis import given, settings

        from strategies import count_tables

        @given(count_tables())
        @settings(max_examples=50, deadline=None)
        def run(send):
            sends = [{j: np.zeros(int(c)) for j, c in enumerate(row) if c} for row in send]
            recv = np.zeros_like(send)
            for j, got in enumerate(alltoallv(Machine(len(send)), sends, phase="x")):
                for i, payload in got:
                    recv[j, i] = len(payload)
            check_count_symmetry(send, recv)

        run()


class TestExchangeSchedule:
    def test_valid_schedule(self):
        verify_exchange_schedule([[(0, 1), (2, 3)], [(1, 2)]], 4)

    def test_rank_in_two_pairs_rejected(self):
        """A rank scheduled into two simultaneous exchanges is the virtual
        deadlock of a mis-scheduled Batcher merge-exchange round."""
        with pytest.raises(CommAuditError, match="virtual deadlock"):
            verify_exchange_schedule([[(0, 1), (1, 2)]], 4)

    def test_self_pair_rejected(self):
        with pytest.raises(CommAuditError, match="paired with itself"):
            verify_exchange_schedule([[(2, 2)]], 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(CommAuditError, match="outside"):
            verify_exchange_schedule([[(0, 7)]], 4)


class TestP2PMatching:
    def test_sendrecv_is_matched(self):
        machine = Machine(4)
        auditor = enable_auditing(machine)
        sendrecv(machine, 0, 2, np.zeros(8), phase="x")
        assert auditor.n_p2p_calls == 1
        assert vars(auditor.ledger["x"]) == {"messages": 1, "bytes": 64}

    def test_nonstrict_collects(self):
        """``strict=False`` reports every bad message, in table order,
        instead of stopping at the first."""
        auditor = CommAuditor(4, strict=False)
        auditor.observe_round(
            np.array([0, 1, -1]), np.array([9, 2, 3]), np.array([8, 8, 8]), "x"
        )
        assert len(auditor.violations) == 2
        assert "0->9" in auditor.violations[0] and "-1->3" in auditor.violations[1]
        # only the valid message reaches the ledger
        assert vars(auditor.ledger["x"]) == {"messages": 1, "bytes": 8}

    def test_send_round_audited(self):
        machine = Machine(4)
        auditor = enable_auditing(machine)
        send_round(
            machine,
            [(0, 1, np.zeros(4)), (2, 3, np.zeros(4)), (1, 1, np.zeros(4))],
            phase="x",
        )
        # self-send excluded from the ledger, like the trace
        assert auditor.ledger["x"].messages == 2

    def test_exchange_pairs_audited(self):
        machine = Machine(4)
        auditor = enable_auditing(machine)
        exchange_pairs(machine, np.array([[0, 1]]), np.array([[64, 24]]), phase="x")
        assert vars(auditor.ledger["x"]) == {"messages": 2, "bytes": 88}


class TestAlltoallvAudit:
    def test_ledger_matches_trace(self):
        machine = Machine(4)
        auditor = enable_auditing(machine)
        sends = [
            {1: np.zeros(10), 0: np.zeros(2)},
            {2: np.zeros(5)},
            {},
            {0: np.zeros(7)},
        ]
        alltoallv(machine, sends, phase="sort")
        stats = machine.trace.phase("sort")
        assert auditor.ledger["sort"].messages == stats.messages
        assert auditor.ledger["sort"].bytes == stats.bytes

    def test_invalid_target_rank_detected(self):
        auditor = CommAuditor(4)
        with pytest.raises(CommAuditError, match="invalid rank"):
            auditor.observe_alltoallv(
                [{9: np.zeros(4)}, {}, {}, {}], "x", "dense"
            )

    def test_collectives_mirrored(self):
        machine = Machine(4)
        auditor = enable_auditing(machine)
        allreduce(machine, [np.ones(3)] * 4, op="sum", phase="far")
        assert auditor.ledger["far"].messages == machine.trace.phase("far").messages


class TestNeighborContract:
    # 4x2x2 grid: x-extent 4 means ranks two x-cells apart are NOT
    # neighbors (a 2x2x2 grid has no non-neighbor pair to test against)
    NPROCS = 16

    @classmethod
    def _grid_machine(cls):
        machine = Machine(cls.NPROCS)
        grid = CartGrid(machine.nprocs, box=(10.0, 10.0, 10.0), dims=(4, 2, 2))
        table = neighbor_table(grid, include_self=True)
        auditor = enable_auditing(machine, neighbor_table=table)
        return machine, grid, auditor

    @classmethod
    def _stranger(cls, grid):
        neighbors = {
            int(x)
            for x in np.asarray(neighbor_table(grid, include_self=True)[0]).ravel()
        }
        return next(r for r in range(cls.NPROCS) if r not in neighbors)

    def test_neighbor_traffic_accepted(self):
        machine, grid, auditor = self._grid_machine()
        neighbor = int(neighbor_table(grid, include_self=False)[0][0])
        sends = [{} for _ in range(self.NPROCS)]
        sends[0] = {neighbor: np.zeros(8)}
        neighborhood_alltoallv(machine, sends, phase="halo")
        assert auditor.ledger["halo"].messages == 1

    def test_non_neighbor_traffic_rejected(self):
        machine, grid, _ = self._grid_machine()
        sends = [{} for _ in range(self.NPROCS)]
        sends[0] = {self._stranger(grid): np.zeros(8)}
        with pytest.raises(CommAuditError, match="not a declared neighbor"):
            neighborhood_alltoallv(machine, sends, phase="halo")

    def test_dense_alltoall_exempt(self):
        """The neighbor contract only binds the sparse count-exchange path;
        a general alltoallv may talk to anyone."""
        machine, grid, auditor = self._grid_machine()
        sends = [{} for _ in range(self.NPROCS)]
        sends[0] = {self._stranger(grid): np.zeros(8)}
        alltoallv(machine, sends, phase="sort")
        assert auditor.ledger["sort"].messages == 1

    def test_fine_grained_neighborhood_audited(self):
        """End-to-end: a neighborhood fine-grained redistribution between
        Cartesian neighbors passes under a declared-neighbor auditor."""
        from repro.core.fine_grained import fine_grained_redistribute

        machine, grid, auditor = self._grid_machine()
        table = neighbor_table(grid, include_self=False)
        blocks = [
            ColumnBlock(x=np.full(2, float(r))) for r in range(self.NPROCS)
        ]
        fine_grained_redistribute(
            machine,
            blocks,
            lambda r, b: np.full(b.n, int(table[r][0]), dtype=np.int64),
            "halo",
            comm="neighborhood",
        )
        assert auditor.ledger["halo"].messages > 0


class TestEnableAuditing:
    def test_attaches_and_snapshots_baseline(self):
        machine = Machine(4)
        machine.barrier(phase="warmup")  # pre-attach traffic
        auditor = enable_auditing(machine)
        assert machine.auditor is auditor
        assert "warmup" in auditor.trace_baseline


class TestNothingDenseInP:
    """The audited path allocates by the message, never by the rank pair: a
    4-messages-per-rank exchange at P = 4096 used to build a (P, P) int64
    count table (134 MB) to compare with its own transpose."""

    P = 4096

    def _exchange(self):
        from repro.simmpi.collectives import Exchange

        P = self.P
        src = np.repeat(np.arange(P, dtype=np.int64), 4)
        dst = (src + np.tile(np.array([1, 2, 3, 5], dtype=np.int64), P)) % P
        order = np.argsort(src * P + dst, kind="stable")
        rows = 3 * np.arange(4 * P + 1, dtype=np.int64)
        return Exchange(
            columns=(np.zeros(rows[-1]),),
            row_index=np.arange(rows[-1], dtype=np.int64),
            msg_src=src[order], msg_dst=dst[order], row_ptr=rows,
        )

    def test_audited_exchange_peak_and_ledger(self):
        import tracemalloc

        exchange = self._exchange()
        bare = Machine(self.P)
        alltoallv(bare, exchange, "sort")
        audited = Machine(self.P)
        auditor = enable_auditing(audited)
        tracemalloc.start()
        try:
            alltoallv(audited, exchange, "sort")
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        stats = bare.trace.phase("sort")
        assert (stats.messages, stats.bytes) == (4 * self.P, 4 * self.P * 3 * 8)
        assert vars(auditor.ledger["sort"]) == {"messages": stats.messages, "bytes": stats.bytes}
        assert auditor.n_alltoall_calls == 1
