"""The row passes held to the full-length bodies they replaced, bit for bit.

``tests/row_oracles.py`` keeps the bodies that ran their slow per-element
operation over every row.  The production code runs that operation only on
the rows that need it — the coordinates outside the box, the cells outside
the grid, the pairs more than half a box apart, the blocks that rejected a
pair — and has to give the same bits everywhere else, so the inputs here are
built around those exceptions: coordinates on both faces (``0``, ``-0.0``,
``L``), a hair inside and outside them (``-1e-16``, ``nextafter(L, 0)``),
several box lengths away, NaN and ±inf.  Equality is of bit patterns
(``view(np.uint64)``), so even a NaN payload or the sign of a zero counts.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import row_oracles
from repro.core.geometry import squared_norms, wrap_into_box
from repro.md.simulation import Simulation
from repro.simmpi.cart import CartGrid
from repro.solvers.common import pairs
from repro.solvers.p2nfft.solver import _cell_columns
from repro.zorder import morton

FEW = dict(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: box edges with and without exact binary cell edges; dims with a factor
#: 3, 5 or 6 make the cell edge an inexact fraction of the box
EDGES = st.sampled_from([1.0, 0.7, 3.0, 10.0, 19.5])
DIMS = st.sampled_from(
    [(1, 1, 1), (2, 2, 2), (3, 2, 2), (5, 1, 1), (6, 2, 1), (3, 3, 5), (4, 3, 2)]
)


def bits(a):
    """The bit patterns of a float (or integer) array."""
    a = np.ascontiguousarray(a)
    return a.view(np.uint64 if a.dtype.itemsize == 8 else np.uint8)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def special_values(edge):
    """Coordinates, measured from the lower face, at and around the faces."""
    return np.array([
        0.0, -0.0, -1e-16, np.nextafter(0.0, -1.0), np.nextafter(edge, 0.0), edge,
        np.nextafter(edge, 2 * edge), 0.5 * edge, edge / 3.0, 2.5 * edge, -1.5 * edge,
        -edge, np.nan, np.inf, -np.inf,
    ])


def positions(seed, n, box, offset, special_frac, finite=False):
    """``n`` positions inside the box, drifted a little, a fraction of their
    coordinates replaced by :func:`special_values`."""
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3)) * box + rng.normal(scale=0.02, size=(n, 3)) * box
    rows, axes = np.nonzero(rng.random((n, 3)) < special_frac)
    for axis in range(3):
        values = special_values(box[axis])
        if finite:
            values = values[np.isfinite(values)]
        mine = rows[axes == axis]
        pos[mine, axis] = rng.choice(values, mine.size)
    return offset + pos


#: NaN and inf rows warn in ``np.mod`` and the integer casts, on both sides
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# ------------------------------------------------------------------ wrap


@given(st.integers(0, 2**31), st.integers(0, 80), st.tuples(EDGES, EDGES, EDGES),
       st.sampled_from([0.0, 0.1, 0.5, 1.0]))
@settings(**FEW)
def test_wrap_is_np_mod_on_every_coordinate(seed, n, edges, special_frac):
    box = np.array(edges)
    x = positions(seed, n, box, np.zeros(3), special_frac)
    want = x.copy()
    row_oracles.wrap_into_box(want, box)
    got = x.copy()
    outside = wrap_into_box(got, box)
    assert_same_bits(got, want)
    # and np.mod saw exactly the coordinates not strictly inside the box
    for axis, rows in enumerate(outside):
        column = x[:, axis]
        np.testing.assert_array_equal(
            rows, np.flatnonzero(~((column > 0.0) & (column < box[axis])))
        )


def test_wrap_leaves_a_strided_view_of_the_caller_in_place():
    """It writes through whatever ``(n, 3)`` view it is given: the
    integrator's C-ordered block and the grid placement's transposed
    ``(3, n)`` buffer."""
    box = np.array([1.0, 2.0, 3.0])
    w = np.array([[-0.25, 0.5], [1.0, 2.5], [4.0, 3.0]])  # (3, n)
    assert [r.tolist() for r in wrap_into_box(w.T, box)] == [[0], [1], [0, 1]]
    np.testing.assert_array_equal(w, [[0.75, 0.5], [1.0, 0.5], [1.0, 0.0]])


# ----------------------------------------------------------- row norms


@given(st.integers(0, 2**31), st.integers(0, 200), st.sampled_from([0.0, 0.3]))
@settings(**FEW)
def test_squared_norms_add_a_row_as_sum_and_norm_do(seed, n, special_frac):
    """Against both of the full-length forms the step path used: the
    integrator's ``.sum(axis=1)`` and the brownian ``np.linalg.norm``."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-5, 5, (n, 3))
    rows, axes = np.nonzero(rng.random((n, 3)) < special_frac)
    v[rows, axes] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf, 1e300], rows.size)
    assert_same_bits(squared_norms(v), (v * v).sum(axis=1))
    assert_same_bits(np.sqrt(squared_norms(v)), np.linalg.norm(v, axis=1))


class _Directions:
    """What the brownian methods read of a ``Simulation``: its generator."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)


@given(st.integers(0, 2**31), st.integers(0, 300), st.floats(1e-3, 50.0), st.booleans())
@settings(**FEW)
def test_brownian_directions(seed, n, speed, zero_rows):
    got, want = _Directions(seed), _Directions(seed)
    assert_same_bits(
        Simulation._random_directions(got, n), row_oracles._random_directions(want, n)
    )
    vel = np.random.default_rng(seed + 1).normal(size=(n, 3)) * speed
    if zero_rows and n:
        vel[::3] = 0.0
    assert_same_bits(
        Simulation._rotate_directions(got, vel.copy(), speed),
        row_oracles._rotate_directions(want, vel.copy(), speed),
    )
    assert got._rng.bit_generator.state == want._rng.bit_generator.state


# ------------------------------------------------------- cells and keys


@given(st.integers(0, 2**31), st.integers(0, 80), DIMS, st.tuples(EDGES, EDGES, EDGES),
       st.booleans(), st.booleans(), st.sampled_from([0.0, 0.2, 1.0]))
@settings(**FEW)
def test_cell_of_positions(seed, n, dims, edges, shifted, periodic, special_frac):
    box = np.array(edges)
    offset = np.array([-1.0, 0.5, 2.0]) if shifted else np.zeros(3)
    grid = CartGrid(int(np.prod(dims)), box, offset, dims=dims, periodic=periodic)
    pos = positions(seed, n, box, offset, special_frac)
    got = grid.cell_of_positions(pos)
    assert_same_bits(got, row_oracles.cell_of_positions(grid, pos))
    for k in range(3):
        assert got[:, k].flags.c_contiguous


@given(st.integers(0, 2**31), st.integers(0, 80), DIMS, st.tuples(EDGES, EDGES, EDGES),
       st.booleans(), st.sampled_from([0.0, 0.2, 1.0]))
@settings(**FEW)
def test_cell_columns(seed, n, dims, edges, shifted, special_frac):
    """The same cells and offsets within them, except on the rows the
    parent got wrong: a position that rounds up into cell ``dims`` (which
    wraps to 0) is measured from that cell, an ulp or two below the face."""
    box = np.array(edges)
    offset = np.array([-1.0, 0.5, 2.0]) if shifted else np.zeros(3)
    grid = CartGrid(int(np.prod(dims)), box, offset, dims=dims)
    pos = positions(seed, n, box, offset, special_frac)
    cells, rel = _cell_columns(grid, pos)
    want_cells, want_rel = row_oracles._cell_columns(grid, pos)
    for k in range(3):
        assert cells[k].flags.c_contiguous and rel[k].flags.c_contiguous
        assert_same_bits(cells[k], want_cells[k])
        # (rounding can put a row of another cell at exactly ``cell``: kept)
        up = (want_rel[k] >= grid.cell[k]) & (want_cells[k] == 0)
        assert_same_bits(rel[k][~up], want_rel[k][~up])
        assert_same_bits(rel[k][up], want_rel[k][up] - grid.dims[k] * grid.cell[k])
        assert np.all(np.abs(rel[k][up]) <= 4 * np.spacing(box[k]))


def test_cell_columns_fixes_the_row_a_hair_below_the_upper_face():
    grid = CartGrid(12, np.ones(3))
    assert grid.dims == (3, 2, 2)
    pos = np.array([[np.nextafter(1.0, 0.0), 0.75, 0.75]])
    (cx, _, _), (rx, _, _) = _cell_columns(grid, pos)
    (want_cx, _, _), (want_rx, _, _) = row_oracles._cell_columns(grid, pos)
    assert cx[0] == want_cx[0] == 0
    hair = np.nextafter(1.0, 0.0)
    assert want_rx[0] == hair  # a box length above the lower face of cell 0
    assert rx[0] == hair - 1.0 < 0.0  # an ulp below it


@given(st.integers(0, 2**31), st.integers(0, 300), st.integers(0, 7),
       st.tuples(EDGES, EDGES, EDGES), st.booleans(), st.booleans(),
       st.sampled_from([0.0, 0.2, 1.0]), st.sampled_from([1, 7, 64, morton._ROW_BLOCK]))
@settings(**FEW)
def test_morton_keys_of_positions(seed, n, depth, edges, shifted, periodic, special_frac, block):
    box = np.array(edges)
    offset = np.array([-1.0, 0.5, 2.0]) if shifted else np.zeros(3)
    pos = positions(seed, n, box, offset, special_frac)
    with mock.patch.object(morton, "_ROW_BLOCK", block):
        got = morton.morton_keys_of_positions(pos, offset, box, depth, periodic)
    assert_same_bits(got, row_oracles.morton_keys_of_positions(pos, offset, box, depth, periodic))


def test_morton_keys_at_the_deepest_level():
    pos = positions(3, 500, np.full(3, 2.0), np.zeros(3), 0.3)
    for periodic in (True, False):
        assert_same_bits(
            morton.morton_keys_of_positions(pos, np.zeros(3), np.full(3, 2.0), 21, periodic),
            row_oracles.morton_keys_of_positions(pos, np.zeros(3), np.full(3, 2.0), 21, periodic),
        )


# ------------------------------------------------------------ pair blocks


@st.composite
def pair_lists(draw, finite=False):
    """Pairs of mostly nearby particles in a periodic box — some across a
    face, so more than half a box apart unwrapped — with special
    coordinates, coincident pairs and exact half-box displacements."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    box = np.array([draw(EDGES), draw(EDGES), draw(EDGES)])
    nt, ns = draw(st.integers(1, 30)), draw(st.integers(1, 40))
    npairs = draw(st.integers(0, 200))
    special = draw(st.sampled_from([0.0, 0.05, 0.3]))
    tpos = positions(draw(st.integers(0, 2**31)), nt, box, np.zeros(3), special, finite)
    spos = positions(draw(st.integers(0, 2**31)), ns, box, np.zeros(3), special, finite)
    shared = min(nt, ns, draw(st.integers(0, 3)))
    spos[:shared] = tpos[:shared]
    if draw(st.booleans()) and ns > 1:
        spos[-1] = tpos[0] + 0.5 * box  # exactly half a box away
    ti = rng.integers(0, nt, npairs)
    si = rng.integers(0, ns, npairs)
    return tpos, spos, rng.uniform(-1.0, 1.0, ns), ti, si, box


@given(pair_lists(), st.booleans())
@settings(**FEW)
def test_pair_displacements(problem, periodic):
    tpos, spos, _sq, ti, si, box = problem
    box = box if periodic else None
    tcols, scols = np.ascontiguousarray(tpos.T), np.ascontiguousarray(spos.T)
    r2, d = pairs.pair_displacements(tcols, scols, ti, si, box)
    want_r2, want_d = row_oracles.pair_displacements(tcols, scols, ti, si, box)
    assert_same_bits(r2, want_r2)
    for got, want in zip(d, want_d):
        assert_same_bits(got, want)


def test_minus_zero_displacement_is_plus_zero_as_before():
    """A target coordinate ``-0.0`` against a source at ``+0.0`` is a
    ``-0.0`` displacement; the full correction subtracted ``-0.0`` from it,
    which makes ``+0.0``."""
    tcols = np.array([[-0.0], [1.0], [2.0]])
    scols = np.array([[0.0], [1.0], [2.5]])
    ti = si = np.zeros(1, dtype=np.int64)
    _r2, d = pairs.pair_displacements(tcols, scols, ti, si, np.full(3, 10.0))
    assert not np.signbit(d[0][0]) and not np.signbit(d[1][0])


@given(pair_lists(finite=True), st.sampled_from([1, 5, 64, pairs._BLOCK]),
       st.sampled_from([None, 0.2, 1.5]), st.booleans())
@settings(**FEW)
def test_pair_sums(problem, block, cutoff, coulomb):
    """Finite positions: ``Solver.run`` turns away anything else before a
    pair kernel sees it."""
    *args, box = problem
    radial = pairs._coulomb_radial if coulomb else (lambda q, r2: (q * r2, q / (1.0 + r2)))
    cutoff = None if cutoff is None else cutoff * float(box.min())
    with mock.patch.object(pairs, "_BLOCK", block):
        got = pairs._pair_sums(*args, box, cutoff, radial)
    want = row_oracles._pair_sums(*args, box, cutoff, radial)
    assert_same_bits(got[0], want[0])
    assert_same_bits(got[1], want[1])
    assert type(got[2]) is int and got[2] == want[2]
