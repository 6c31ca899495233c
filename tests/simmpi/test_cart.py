"""Cartesian process grids: dims, coords, neighbors, position ownership."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cart_neighbors import neighbor_ranks, subdomain_bounds
from repro.simmpi.cart import CartGrid, dims_create


class TestDimsCreate:
    @pytest.mark.parametrize("n,expect", [(8, (2, 2, 2)), (12, (3, 2, 2)), (1, (1, 1, 1))])
    def test_known(self, n, expect):
        assert dims_create(n) == expect

    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=80, deadline=None)
    def test_product_exact(self, n):
        dims = dims_create(n)
        assert dims[0] * dims[1] * dims[2] == n
        assert dims[0] >= dims[1] >= dims[2]


class TestCartGrid:
    def grid(self, nprocs=8, box=(10.0, 10.0, 10.0)):
        return CartGrid(nprocs, box)

    def test_rank_coords_roundtrip(self):
        g = self.grid(27)
        ranks = np.arange(27)
        np.testing.assert_array_equal(g.rank_of(g.coords_of(ranks)), ranks)

    def test_rank_of_positions(self):
        g = self.grid(8)
        # position in the first octant belongs to rank of cell (0,0,0)
        assert g.rank_of_positions(np.array([[1.0, 1.0, 1.0]]))[0] == 0
        assert g.rank_of_positions(np.array([[9.0, 9.0, 9.0]]))[0] == 7

    def test_positions_wrap(self):
        g = self.grid(8)
        r1 = g.rank_of_positions(np.array([[11.0, 1.0, 1.0]]))
        r2 = g.rank_of_positions(np.array([[1.0, 1.0, 1.0]]))
        assert r1[0] == r2[0]

    def test_every_position_owned_once(self, rng):
        g = self.grid(27)
        pos = rng.uniform(0, 10, (500, 3))
        owners = g.rank_of_positions(pos)
        assert owners.min() >= 0 and owners.max() < 27
        # ownership respects subdomain bounds
        for r in range(27):
            lo, hi = subdomain_bounds(g, r)
            mine = pos[owners == r]
            assert np.all(mine >= lo - 1e-12) and np.all(mine < hi + 1e-12)

    def test_neighbors_26(self):
        g = self.grid(64)
        nb = neighbor_ranks(g, 0)
        assert len(nb) == 26
        assert 0 not in nb

    def test_neighbors_small_grid_dedup(self):
        g = self.grid(8)  # 2x2x2: every other rank is a neighbor
        nb = neighbor_ranks(g, 0)
        assert set(nb.tolist()) == set(range(1, 8))

    def test_neighbors_include_self(self):
        g = self.grid(27)
        nb = neighbor_ranks(g, 13, include_self=True)
        assert 13 in nb

    def test_neighbor_symmetry(self):
        g = self.grid(27)
        for r in (0, 5, 13):
            for nb in neighbor_ranks(g, r):
                assert r in neighbor_ranks(g, int(nb))

    def test_max_neighbor_extent(self):
        g = CartGrid(8, (10.0, 20.0, 30.0))
        assert g.max_neighbor_extent() == pytest.approx(min(g.cell))

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            CartGrid(8, (10.0, 10.0, 10.0), dims=(2, 2, 3))

    def test_bad_box(self):
        with pytest.raises(ValueError):
            CartGrid(8, (0.0, 10.0, 10.0))
