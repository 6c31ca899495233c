"""Topology geometry: hop counts, diameters, bisections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracles import torus_hops
from repro.simmpi.topology import (
    FatTreeTopology,
    SwitchTopology,
    TorusTopology,
    balanced_torus_dims,
)


class TestSwitch:
    def test_intranode_zero_hops(self):
        t = SwitchTopology(8, node_size=4)
        assert t.hops(0, 3) == 0
        assert t.hops(4, 7) == 0

    def test_internode_one_hop(self):
        t = SwitchTopology(8, node_size=4)
        assert t.hops(0, 4) == 1
        assert t.diameter() == 1

    def test_single_node(self):
        t = SwitchTopology(4, node_size=4)
        assert t.diameter() == 0


class TestFatTree:
    def test_same_leaf_two_hops(self):
        t = FatTreeTopology(64, node_size=1, radix=8)
        # nodes 0..7 share a leaf switch
        assert t.hops(0, 7) == 2
        assert t.hops(0, 8) == 4  # via the next level

    def test_symmetry(self):
        t = FatTreeTopology(128, node_size=8, radix=4)
        ranks = np.arange(128)
        h1 = t.hops(np.zeros(128, dtype=int), ranks)
        h2 = t.hops(ranks, np.zeros(128, dtype=int))
        np.testing.assert_array_equal(h1, h2)

    def test_bisection_scales(self):
        small = FatTreeTopology(64, node_size=1)
        big = FatTreeTopology(1024, node_size=1)
        assert big.bisection_links() > small.bisection_links()

    def test_intranode_free(self):
        t = FatTreeTopology(16, node_size=8)
        assert t.hops(0, 7) == 0


class TestTorus:
    def test_wraparound(self):
        t = TorusTopology(64, dims=(4, 4, 4), node_size=1)
        # coords (0,0,0) to (3,0,0): wrapped distance 1
        assert t.hops(0, t.nnodes - 16) == 1

    def test_manhattan(self):
        t = TorusTopology(64, dims=(4, 4, 4), node_size=1)
        # node 0 = (0,0,0); node with coords (1,1,1) = 16+4+1 = 21
        assert t.hops(0, 21) == 3

    def test_diameter(self):
        t = TorusTopology(64, dims=(4, 4, 4), node_size=1)
        assert t.diameter() == 6

    def test_bisection_sublinear(self):
        t1 = TorusTopology(512, dims=(8, 8, 8), node_size=1)
        t2 = TorusTopology(4096, dims=(16, 16, 16), node_size=1)
        # 8x the nodes, only 4x the bisection
        assert t2.bisection_links() == 4 * t1.bisection_links()

    def test_dims_must_cover(self):
        with pytest.raises(ValueError):
            TorusTopology(100, dims=(2, 2, 2), node_size=1)

    def test_symmetry_random_pairs(self, rng):
        t = TorusTopology(256, dims=(8, 8, 4), node_size=2)
        a = rng.integers(0, 256, 50)
        b = rng.integers(0, 256, 50)
        np.testing.assert_array_equal(t.hops(a, b), t.hops(b, a))

    def test_triangle_inequality(self, rng):
        t = TorusTopology(128, dims=(8, 4, 4), node_size=1)
        a, b, c = rng.integers(0, 128, (3, 40))
        assert np.all(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c))


@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_balanced_torus_dims_cover(nnodes, ndims):
    dims = balanced_torus_dims(nnodes, ndims)
    assert len(dims) == ndims
    prod = 1
    for d in dims:
        prod *= d
    assert prod >= nnodes
    # near-cubic: max/min ratio bounded
    assert max(dims) <= 2 * max(min(dims), 1) + 1 or min(dims) == 1


def test_hops_zero_on_self():
    for topo in (
        SwitchTopology(16),
        FatTreeTopology(16, node_size=2),
        TorusTopology(16, dims=(4, 2, 2), node_size=1),
    ):
        ranks = np.arange(16)
        np.testing.assert_array_equal(topo.hops(ranks, ranks), 0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 700),
    st.integers(1, 16),
    st.booleans(),
    st.sampled_from(["scalar", "array", "scalar-array", "broadcast", "list"]),
    st.integers(0, 2**32 - 1),
)
def test_torus_hops_table_matches_coordinate_arithmetic(nprocs, node_size, roomy, form, seed):
    """The coordinate-table gather gives the arithmetic's hop counts — same
    values, dtype and shape — for scalar, array, scalar-against-array,
    broadcast ``(k, 1)`` against ``(1, m)`` and list arguments, on balanced
    tori and on tori with more nodes than ranks fill."""
    rng = np.random.default_rng(seed)
    nnodes = -(-nprocs // node_size)
    dims = balanced_torus_dims(nnodes)
    if roomy:
        dims = tuple(d + int(rng.integers(0, 3)) for d in dims)
    t = TorusTopology(nprocs, dims=dims, node_size=node_size)

    def ranks(shape):
        return rng.integers(0, nprocs, shape)

    src, dst = {
        "scalar": lambda: (int(ranks(())), int(ranks(()))),
        "array": lambda: (ranks(40), ranks(40)),
        "scalar-array": lambda: (int(ranks(())), ranks(17)),
        "broadcast": lambda: (ranks((9, 1)), ranks((1, 7))),
        "list": lambda: (ranks(5).tolist(), ranks(5).tolist()),
    }[form]()
    got, want = t.hops(src, dst), torus_hops(t, src, dst)
    assert type(got) is type(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
