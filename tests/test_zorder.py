"""Morton encoding: roundtrips, ordering and locality properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.zorder.morton import (
    MAX_BITS_2D,
    MAX_BITS_3D,
    morton_decode3,
    morton_encode2,
    morton_encode3,
    morton_keys_of_positions,
)

coord3 = st.integers(min_value=0, max_value=(1 << MAX_BITS_3D) - 1)
coord2 = st.integers(min_value=0, max_value=(1 << MAX_BITS_2D) - 1)


@given(coord2, coord2)
@settings(max_examples=200, deadline=None)
def test_roundtrip_2d(x, y):
    """x in the even bits of the key, y in the odd ones (decoded here bit by bit)."""
    key = int(morton_encode2(np.array([x]), np.array([y]))[0])
    bits = range(MAX_BITS_2D)
    assert sum(((key >> (2 * b)) & 1) << b for b in bits) == x
    assert sum(((key >> (2 * b + 1)) & 1) << b for b in bits) == y


@given(coord3, coord3, coord3)
@settings(max_examples=200, deadline=None)
def test_roundtrip_3d(x, y, z):
    k = morton_encode3(np.array([x]), np.array([y]), np.array([z]))
    dx, dy, dz = morton_decode3(k)
    assert (dx[0], dy[0], dz[0]) == (x, y, z)


@given(coord3, coord3, coord3, coord3, coord3, coord3)
@settings(max_examples=100, deadline=None)
def test_injective(a, b, c, d, e, f):
    k1 = morton_encode3(np.array([a]), np.array([b]), np.array([c]))[0]
    k2 = morton_encode3(np.array([d]), np.array([e]), np.array([f]))[0]
    assert (k1 == k2) == ((a, b, c) == (d, e, f))


def test_z_pattern_2x2x2():
    """Keys 0..7 enumerate the unit cube in x-fastest bit order."""
    xs, ys, zs = np.meshgrid([0, 1], [0, 1], [0, 1], indexing="ij")
    keys = morton_encode3(xs.ravel(), ys.ravel(), zs.ravel())
    # key = x | y<<1 | z<<2 per our bit layout
    expected = xs.ravel() | (ys.ravel() << 1) | (zs.ravel() << 2)
    np.testing.assert_array_equal(keys, expected)


def test_monotone_along_axis_within_octant():
    # within one octant, increasing a coordinate increases the key
    k0 = morton_encode3(np.array([0]), np.array([0]), np.array([0]))[0]
    k1 = morton_encode3(np.array([1]), np.array([0]), np.array([0]))[0]
    assert k1 > k0


def test_out_of_range_raises():
    too_big = np.array([1 << MAX_BITS_3D], dtype=np.uint64)
    with pytest.raises(ValueError):
        morton_encode3(too_big, np.array([0]), np.array([0]))


class TestKeysOfPositions:
    box = np.array([8.0, 8.0, 8.0])
    off = np.zeros(3)

    def test_depth_zero(self):
        pos = np.random.default_rng(0).uniform(0, 8, (20, 3))
        keys = morton_keys_of_positions(pos, self.off, self.box, 0)
        assert np.all(keys == 0)

    def test_locality(self):
        """Points in the same cell share a key; distinct cells differ."""
        pos = np.array([[0.1, 0.1, 0.1], [0.4, 0.4, 0.4], [7.9, 7.9, 7.9]])
        keys = morton_keys_of_positions(pos, self.off, self.box, 3)
        assert keys[0] == keys[1] != keys[2]

    def test_periodic_wrap(self):
        pos = np.array([[8.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
        keys = morton_keys_of_positions(pos, self.off, self.box, 3, periodic=True)
        assert keys[0] == keys[1]

    def test_open_clamp(self):
        pos = np.array([[9.5, 0.0, 0.0], [7.9, 0.0, 0.0]])
        keys = morton_keys_of_positions(pos, self.off, self.box, 3, periodic=False)
        assert keys[0] == keys[1]

    def test_all_cells_reachable(self, rng):
        keys = morton_keys_of_positions(
            rng.uniform(0, 8, (20000, 3)), self.off, self.box, 2
        )
        assert np.unique(keys).shape[0] == 64

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            morton_keys_of_positions(np.zeros((1, 3)), self.off, self.box, 30)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            morton_keys_of_positions(np.zeros((3,)), self.off, self.box, 2)


def test_sorted_keys_traverse_z_curve():
    """Sorting cells by Morton key visits children of each octant
    contiguously (the domain decomposition property of Fig. 2)."""
    n = 4
    xs, ys, zs = np.meshgrid(range(n), range(n), range(n), indexing="ij")
    keys = morton_encode3(xs.ravel(), ys.ravel(), zs.ravel())
    order = np.argsort(keys)
    coords = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)[order]
    # the first 8 cells in key order are exactly the first octant, the
    # next 8 the second octant (x high-bit set in our x-fastest layout)
    assert np.all(coords[:8] < 2)
    assert np.all(coords[8:16, 0] >= 2) and np.all(coords[8:16, 1:] < 2)


class TestDtypeBoundaries:
    """Dtype-boundary corners of the 3-D encoding: the 63-bit key budget
    (3 x 21 coordinate bits) is exactly exhausted at depth 21."""

    MAX = (1 << MAX_BITS_3D) - 1  # 0x1FFFFF

    def test_max_coordinate_corner_key(self):
        """All-max coordinates fill every one of the 63 payload bits."""
        k = morton_encode3(
            np.array([self.MAX]), np.array([self.MAX]), np.array([self.MAX])
        )
        assert k.dtype == np.uint64
        assert int(k[0]) == 0x7FFFFFFFFFFFFFFF

    def test_single_axis_corner_keys(self):
        """Each axis owns its own interleaved bit lane."""
        lane = int(
            morton_encode3(np.array([self.MAX]), np.array([0]), np.array([0]))[0]
        )
        assert lane == 0x1249249249249249  # bits 0, 3, 6, ..., 60
        y = int(morton_encode3(np.array([0]), np.array([self.MAX]), np.array([0]))[0])
        z = int(morton_encode3(np.array([0]), np.array([0]), np.array([self.MAX]))[0])
        assert y == lane << 1 and z == lane << 2
        assert lane | (lane << 1) | (lane << 2) == 0x7FFFFFFFFFFFFFFF

    @pytest.mark.parametrize(
        "coords",
        [
            (0, 0, 0),
            ((1 << MAX_BITS_3D) - 1,) * 3,
            ((1 << 20), (1 << 20) - 1, 1),
            ((1 << MAX_BITS_3D) - 1, 0, (1 << 20)),
        ],
    )
    def test_roundtrip_at_boundaries(self, coords):
        x, y, z = (np.array([c], dtype=np.uint64) for c in coords)
        dx, dy, dz = morton_decode3(morton_encode3(x, y, z))
        assert (int(dx[0]), int(dy[0]), int(dz[0])) == coords

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_coordinate_overflow_rejected(self, axis):
        """2**21 needs a 22nd bit: one past the boundary must raise, the
        boundary itself must not."""
        ok = [np.array([self.MAX])] * 3
        morton_encode3(*ok)
        bad = list(ok)
        bad[axis] = np.array([1 << MAX_BITS_3D])
        with pytest.raises(ValueError, match="21 bits"):
            morton_encode3(*bad)

    @pytest.mark.parametrize("depth", [20, 21])
    def test_deep_levels_reach_the_far_corner(self, depth):
        """Levels 20 and 21 are in-budget: the far box corner clamps to the
        all-ones key of that depth."""
        box = np.full(3, 1.0)
        corner = np.array([[1.0, 1.0, 1.0]])  # exactly offset + box
        keys = morton_keys_of_positions(corner, np.zeros(3), box, depth, periodic=False)
        ncells = 1 << depth
        expect = morton_encode3(
            np.array([ncells - 1]), np.array([ncells - 1]), np.array([ncells - 1])
        )
        assert keys.dtype == np.uint64
        assert int(keys[0]) == int(expect[0])
        # periodic boundaries wrap the same position to the origin cell
        wrapped = morton_keys_of_positions(corner, np.zeros(3), box, depth)
        assert int(wrapped[0]) == 0

    def test_depth_22_rejected(self):
        """Level 22 would need 66 key bits — past the uint64 budget."""
        with pytest.raises(ValueError, match=r"depth must be in \[0, 21\]"):
            morton_keys_of_positions(np.zeros((1, 3)), np.zeros(3), np.ones(3), 22)

    def test_depth_21_roundtrip_of_random_cells(self):
        rng = np.random.default_rng(2013)
        c = rng.integers(0, 1 << MAX_BITS_3D, (256, 3)).astype(np.uint64)
        dx, dy, dz = morton_decode3(morton_encode3(c[:, 0], c[:, 1], c[:, 2]))
        assert (
            np.array_equal(dx, c[:, 0])
            and np.array_equal(dy, c[:, 1])
            and np.array_equal(dz, c[:, 2])
        )
