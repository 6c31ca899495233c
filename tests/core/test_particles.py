"""ColumnBlock and ParticleSet container semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.particles import ColumnBlock, ParticleSet


class TestColumnBlock:
    def make(self, n=5):
        return ColumnBlock(
            pos=np.arange(n * 3, dtype=float).reshape(n, 3),
            q=np.arange(n, dtype=float),
        )

    def test_n_and_names(self):
        b = self.make()
        assert b.n == 5
        assert b.names() == ["pos", "q"]
        assert "pos" in b and "w" not in b

    def test_nbytes(self):
        b = self.make(4)
        assert b.nbytes == 4 * 3 * 8 + 4 * 8

    def test_length_mismatch(self):
        b = self.make(5)
        with pytest.raises(ValueError):
            b["bad"] = np.zeros(4)

    def test_take(self):
        b = self.make()
        t = b.take(np.array([3, 1]))
        assert t.n == 2
        np.testing.assert_allclose(t["q"], [3.0, 1.0])

    def test_row_slice_is_view(self):
        b = self.make()
        s = b.row_slice(1, 3)
        assert s.n == 2
        s["q"][0] = 99.0
        assert b["q"][1] == 99.0  # shares memory

    def test_concat(self):
        a, b = self.make(2), self.make(3)
        c = ColumnBlock.concat([a, b])
        assert c.n == 5
        np.testing.assert_allclose(c["q"], [0, 1, 0, 1, 2])

    def test_concat_mismatch(self):
        a = self.make(2)
        b = ColumnBlock(q=np.zeros(2))
        with pytest.raises(ValueError):
            ColumnBlock.concat([a, b])

    def test_concat_empty_list(self):
        with pytest.raises(ValueError):
            ColumnBlock.concat([])

    def test_drop(self):
        b = self.make()
        d = b.drop("pos")
        assert d.names() == ["q"]
        assert b.names() == ["pos", "q"]  # original untouched

    def test_payload_tuple(self):
        b = self.make(2)
        p = b.payload()
        assert isinstance(p, tuple) and len(p) == 2

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_copy_independent(self, n):
        b = ColumnBlock(x=np.zeros(n))
        c = b.copy()
        if n:
            c["x"][0] = 1.0
            assert b["x"][0] == 0.0


class TestParticleSet:
    def make(self, counts=(3, 0, 5)):
        rng = np.random.default_rng(0)
        pos = [rng.uniform(0, 1, (c, 3)) for c in counts]
        q = [np.ones(c) for c in counts]
        return ParticleSet(pos, q)

    def test_counts_total(self):
        ps = self.make()
        np.testing.assert_array_equal(ps.counts(), [3, 0, 5])
        assert ps.total() == 8

    def test_default_capacity_covers(self):
        ps = self.make()
        assert all(c >= n for c, n in zip(ps.capacities, ps.counts()))

    def test_fits(self):
        ps = self.make()
        assert ps.fits([1, 1, 1])
        assert not ps.fits([10 ** 9, 0, 0])

    def test_capacity_below_count_rejected(self):
        with pytest.raises(ValueError):
            ParticleSet([np.zeros((3, 3))], [np.zeros(3)], capacities=[2])

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            ParticleSet([np.zeros((3, 2))], [np.zeros(3)])
        with pytest.raises(ValueError):
            ParticleSet([np.zeros((3, 3))], [np.zeros(4)])

    @staticmethod
    def layout(n, n_q=None):
        return ColumnBlock(
            pos=np.zeros((n, 3)), q=np.ones(n if n_q is None else n_q),
            pot=np.zeros(n), field=np.zeros((n, 3)),
        )

    def test_replace(self):
        """``install`` replaces the whole layout: new block, new offsets."""
        ps = self.make()
        ps.install(self.layout(6), np.array([0, 1, 3, 6]))
        np.testing.assert_array_equal(ps.counts(), [1, 2, 3])
        assert ps.pos[2].shape == (3, 3) and ps.q[1].base is ps.block["q"]

    def test_replace_inconsistent(self):
        ps = self.make()
        block = ColumnBlock(pos=np.zeros((2, 3)), q=np.ones(2), pot=np.zeros(2))
        with pytest.raises(ValueError):
            ps.install(block, np.array([0, 2, 2, 2]))
        with pytest.raises(ValueError):
            ps.install(self.layout(6), np.array([0, 1, 3, 5]))

    def test_install_rejects_a_rank_over_capacity_before_replacing(self):
        """A set with capacities [2, 1] cannot be left holding 5 rows on rank
        1 — the state its own constructor rejects (``replace`` allowed it)."""
        ps = ParticleSet(
            [np.zeros((2, 3)), np.zeros((1, 3))], [np.ones(2), np.ones(1)], capacities=[2, 1]
        )
        before = ps.block
        with pytest.raises(ValueError, match="rank 1: capacity 1 < local count 5"):
            ps.install(self.layout(7), np.array([0, 2, 7]))
        assert ps.block is before
        np.testing.assert_array_equal(ps.counts(), [2, 1])
        ps.install(self.layout(2), np.array([0, 1, 2]))  # within capacity: adopted
        np.testing.assert_array_equal(ps.counts(), [1, 1])

    def test_columns_are_views_of_one_store(self):
        ps = self.make()
        assert len(ps.pos) == len(ps.field) == 3
        ps.q[2][:] = 7.0  # through the view
        np.testing.assert_array_equal(ps.block["q"], [1, 1, 1, 7, 7, 7, 7, 7])
        with pytest.raises(TypeError):
            ps.q[2] = np.zeros(5)
        assert [p.shape[0] for p in ps.pot] == [3, 0, 5]

    def test_gather_views(self):
        ps = self.make()
        assert ps.gather_charges().shape == (8,)
        assert ps.gather_potentials().shape == (8,)
