"""Fine-grained data redistribution: permutation, duplication, ordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fine_grained import counted_route, fine_grained_redistribute
from repro.core.particles import ColumnBlock
from repro.simmpi.machine import Machine
from repro.verify.audit import CommAuditor, enable_auditing


def id_blocks(counts, start=0):
    """Blocks carrying a unique id column."""
    blocks, base = [], start
    for c in counts:
        blocks.append(ColumnBlock(ident=np.arange(base, base + c, dtype=np.int64)))
        base += c
    return blocks


class TestPlainTargets:
    def test_all_to_one(self, machine4):
        blocks = id_blocks([2, 3, 1, 0])
        out = fine_grained_redistribute(
            machine4, blocks, lambda r, b: np.zeros(b.n, dtype=np.int64), "x"
        )
        assert [b.n for b in out] == [6, 0, 0, 0]
        np.testing.assert_array_equal(np.sort(out[0]["ident"]), np.arange(6))

    def test_identity(self, machine4):
        blocks = id_blocks([2, 2, 2, 2])
        out = fine_grained_redistribute(
            machine4, blocks, lambda r, b: np.full(b.n, r, dtype=np.int64), "x"
        )
        for r in range(4):
            np.testing.assert_array_equal(out[r]["ident"], blocks[r]["ident"])

    def test_source_order_preserved(self, machine4):
        """Received elements arrive grouped by source rank, each group in
        the sender's element order — the contract resort indices rely on."""
        blocks = id_blocks([3, 3, 0, 0])
        out = fine_grained_redistribute(
            machine4, blocks, lambda r, b: np.ones(b.n, dtype=np.int64), "x"
        )
        np.testing.assert_array_equal(out[1]["ident"], [0, 1, 2, 3, 4, 5])

    def test_permutation_property(self, rng):
        P = 6
        m = Machine(P)
        counts = rng.integers(0, 20, P)
        blocks = id_blocks(counts)
        targets = [rng.integers(0, P, c) for c in counts]
        out = fine_grained_redistribute(
            m, blocks, lambda r, b: targets[r], "x"
        )
        all_ids = np.sort(np.concatenate([b["ident"] for b in out]))
        np.testing.assert_array_equal(all_ids, np.arange(counts.sum()))
        # per-rank counts match target multiplicities
        tg = np.concatenate(targets) if counts.sum() else np.empty(0, dtype=np.int64)
        for r in range(P):
            assert out[r].n == int((tg == r).sum())

    def test_invalid_rank_raises(self, machine4):
        blocks = id_blocks([2, 0, 0, 0])
        with pytest.raises(ValueError):
            fine_grained_redistribute(
                machine4, blocks, lambda r, b: np.full(b.n, 9, dtype=np.int64), "x"
            )

    def test_wrong_shape_raises(self, machine4):
        blocks = id_blocks([2, 0, 0, 0])
        with pytest.raises(ValueError):
            fine_grained_redistribute(
                machine4, blocks, lambda r, b: np.zeros(b.n + 1, dtype=np.int64), "x"
            )


class TestDuplication:
    def test_ghost_copies(self, machine4):
        """Returning repeated element indices duplicates particles — the
        ghost-creation mechanism of the P2NFFT redistribution."""
        blocks = id_blocks([2, 0, 0, 0])

        def dist(rank, block):
            if rank != 0:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            elems = np.array([0, 0, 1], dtype=np.int64)
            targs = np.array([1, 2, 1], dtype=np.int64)
            return elems, targs

        out = fine_grained_redistribute(machine4, blocks, dist, "x")
        assert out[0].n == 0  # original dropped (no self target)
        np.testing.assert_array_equal(np.sort(out[1]["ident"]), [0, 1])
        np.testing.assert_array_equal(out[2]["ident"], [0])

    def test_dropping(self, machine4):
        """Elements with no target vanish (ghost removal)."""
        blocks = id_blocks([3, 0, 0, 0])

        def dist(rank, block):
            if rank or block.n == 0:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            return np.array([1], dtype=np.int64), np.array([0], dtype=np.int64)

        out = fine_grained_redistribute(machine4, blocks, dist, "x")
        assert sum(b.n for b in out) == 1
        assert out[0]["ident"][0] == 1

    def test_mismatched_dup_arrays(self, machine4):
        blocks = id_blocks([2, 0, 0, 0])
        with pytest.raises(ValueError):
            fine_grained_redistribute(
                machine4,
                blocks,
                lambda r, b: (np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.int64)),
                "x",
            )


class TestMultiplicityConservation:
    """Property: with a duplicating distribution function, each element
    appears at each rank exactly as often as the distribution asked —
    duplication creates ghosts, omission drops them, nothing else changes."""

    @staticmethod
    def _run(nprocs, targets_per_elem):
        from repro.verify.invariants import InvariantChecker  # noqa: F401  (import check)

        machine = Machine(nprocs)
        n = len(targets_per_elem)
        # spread the elements over the ranks round-robin
        owner = np.arange(n, dtype=np.int64) % nprocs
        blocks = [
            ColumnBlock(ident=np.flatnonzero(owner == r).astype(np.int64))
            for r in range(nprocs)
        ]

        def dist(rank, block):
            elems = []
            targs = []
            for i, ident in enumerate(block["ident"]):
                for t in targets_per_elem[int(ident)]:
                    elems.append(i)
                    targs.append(t)
            return (
                np.asarray(elems, dtype=np.int64),
                np.asarray(targs, dtype=np.int64),
            )

        return machine, fine_grained_redistribute(machine, blocks, dist, "x")

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_multiplicities_exact(self, data):
        from strategies import multiplicity_maps

        nprocs, targets_per_elem = data.draw(multiplicity_maps())
        _, out = self._run(nprocs, targets_per_elem)
        n = len(targets_per_elem)
        # expected[r][i] = how often element i was sent to rank r
        for r in range(nprocs):
            got = np.bincount(out[r]["ident"], minlength=n) if out[r].n else np.zeros(n, np.int64)
            expected = np.zeros(n, dtype=np.int64)
            for i, targets in enumerate(targets_per_elem):
                expected[i] = sum(1 for t in targets if t == r)
            np.testing.assert_array_equal(got, expected)
        # global multiplicity: total copies == total requested targets
        assert sum(b.n for b in out) == sum(len(t) for t in targets_per_elem)

    def test_zero_copy_everything_dropped(self):
        """Every element returns zero targets: all data vanishes, the
        operation still completes and returns empty blocks."""
        _, out = self._run(4, [[] for _ in range(12)])
        assert [b.n for b in out] == [0, 0, 0, 0]

    def test_all_to_one_with_duplicates(self):
        """Every element sends 3 copies of itself to rank 0."""
        n = 10
        machine, out = self._run(5, [[0, 0, 0] for _ in range(n)])
        assert out[0].n == 3 * n
        np.testing.assert_array_equal(
            np.bincount(out[0]["ident"], minlength=n), np.full(n, 3)
        )
        for r in range(1, 5):
            assert out[r].n == 0


class TestComm:
    def test_neighborhood_same_data(self, machine8):
        blocks = id_blocks([4] * 8)
        targets = lambda r, b: np.full(b.n, (r + 1) % 8, dtype=np.int64)
        out1 = fine_grained_redistribute(machine8, blocks, targets, "x", comm="alltoall")
        m2 = Machine(8)
        out2 = fine_grained_redistribute(m2, id_blocks([4] * 8), targets, "x", comm="neighborhood")
        for a, b in zip(out1, out2):
            np.testing.assert_array_equal(a["ident"], b["ident"])
        assert m2.elapsed() < machine8.elapsed()

    def test_bad_comm(self, machine4):
        with pytest.raises(ValueError):
            fine_grained_redistribute(
                machine4, id_blocks([1, 0, 0, 0]),
                lambda r, b: np.zeros(b.n, dtype=np.int64), "x", comm="magic",
            )

    def test_multi_column_payload_travels_together(self, machine4):
        rng = np.random.default_rng(1)
        blocks = []
        for r in range(4):
            n = 5
            ident = np.arange(r * 5, r * 5 + 5, dtype=np.int64)
            blocks.append(
                ColumnBlock(ident=ident, pos=rng.uniform(size=(n, 3)), q=ident * 1.5)
            )
        out = fine_grained_redistribute(
            machine4, blocks, lambda r, b: b["ident"] % 4, "x"
        )
        for r in range(4):
            np.testing.assert_allclose(out[r]["q"], out[r]["ident"] * 1.5)
            assert np.all(out[r]["ident"] % 4 == r)


class TestRejectedBeforeCharging:
    """A redistribution that raises leaves clocks, trace, auditor ledgers
    and counters untouched — the rule ``alltoallv`` follows for a bad
    destination or ``count_exchange``.  Mismatched columns used to surface
    in the receive-side concat, after the count exchange and the transfer
    had been charged; mismatched dtypes were upcast in silence, so the bytes
    delivered were not the bytes charged."""

    @staticmethod
    def _assert_untouched(machine, auditor):
        assert not machine.clocks.any()
        assert machine.trace.items() == []
        assert machine.trace.counters() == {}
        fresh = CommAuditor(machine.nprocs).state_dict()
        assert auditor.state_dict() == fresh

    @pytest.mark.parametrize("comm", ["alltoall", "neighborhood"])
    @pytest.mark.parametrize(
        "blocks, message",
        [
            (
                [ColumnBlock(a=np.arange(3.0)), ColumnBlock(b=np.arange(2.0))],
                "column mismatch",
            ),
            (
                [ColumnBlock(a=np.arange(3.0)), ColumnBlock(a=np.arange(2))],
                "rank 1: column 'a' is int64",
            ),
            (
                [ColumnBlock(a=np.zeros((3, 3))), ColumnBlock(a=np.zeros((2, 2)))],
                "rank 1: column 'a' is float64",
            ),
            (
                [ColumnBlock(a=np.zeros(3), b=np.zeros(3)), ColumnBlock(b=np.zeros(2), a=np.zeros(2))],
                "column mismatch",
            ),
        ],
    )
    def test_mismatched_columns(self, blocks, message, comm):
        machine = Machine(2)
        auditor = enable_auditing(machine)
        with pytest.raises(ValueError, match=message):
            fine_grained_redistribute(
                machine, blocks, lambda r, b: np.full(b.n, 1 - r, dtype=np.int64), "x", comm=comm
            )
        self._assert_untouched(machine, auditor)

    @pytest.mark.parametrize(
        "distribution, message",
        [
            # per-rank form: rank 2 is the first with a bad target
            (lambda r, b: np.full(b.n, 7 if r >= 2 else 0, dtype=np.int64),
             "rank 2: target ranks out of range"),
            (lambda r, b: np.full(b.n, -1, dtype=np.int64), "rank 0: target ranks"),
            (lambda r, b: (np.array([b.n]), np.array([0])), "element indices out of range"),
            (lambda r, b: (np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.int64)),
             "equal 1-D arrays"),
            (lambda r, b: np.zeros(b.n + 1, dtype=np.int64), "must return shape"),
            # global form over the 8 concatenated rows
            (np.array([0, 1, 2, 3, 0, 9, 2, 4]), "rank 2: target ranks out of range"),
            ((np.array([0, 8]), np.array([0, 0])), "element indices out of range"),
            ((np.array([0, 1]), np.array([0])), "equal 1-D arrays"),
            (np.zeros(7, dtype=np.int64), "must return shape"),
        ],
    )
    def test_bad_distribution(self, distribution, message):
        machine = Machine(4)
        auditor = enable_auditing(machine)
        with pytest.raises(ValueError, match=message):
            fine_grained_redistribute(machine, id_blocks([2, 2, 2, 2]), distribution, "x")
        self._assert_untouched(machine, auditor)

    def test_mismatch_found_on_an_empty_rank_too(self):
        """No in-tree caller hands an empty rank a column of another dtype,
        so zero-row blocks are held to the same layout."""
        machine = Machine(2)
        blocks = [ColumnBlock(a=np.arange(3)), ColumnBlock(a=np.zeros(0))]
        with pytest.raises(ValueError, match="rank 1: column 'a' is float64"):
            fine_grained_redistribute(machine, blocks, np.zeros(3, dtype=np.int64), "x")
        assert not machine.clocks.any()


def test_counted_route_holds_nothing_rank_pair_sized():
    """At 2**20 ranks a table over (source, target) pairs would hold 2**40
    entries: the counted route is built from its rows' sorted keys alone."""
    P = 1 << 20
    offsets = np.zeros(P + 1, dtype=np.int64)
    offsets[P // 2 + 1:] = 3  # rank P/2 holds all three rows
    route = counted_route(offsets, np.array([P - 1, 0, P - 1]))
    assert route.msg_src.tolist() == [P // 2, P // 2]
    assert route.msg_dst.tolist() == [0, P - 1]
    assert route.sent.tolist() == [1, 2] and route.row_index.size == 0
