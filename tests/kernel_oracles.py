"""The bodies eight production kernels had first, kept as test oracles.

``ragged_cross`` (per-pair ``divmod`` against the segment table),
``candidate_pairs`` (one ``searchsorted`` pair and one cross product per
neighbour offset), ``derivative_tensors`` (one recurrence step per
coefficient), ``partition_destinations`` (one slice assignment per
destination rank) and ``split_by_destination`` (one boolean scan per present
destination) are the ``*_reference`` implementations that used to live next
to their vectorized replacements under ``src/``, moved here verbatim and
named after the kernel they stand for (``candidate_pairs`` outlived its
production twin: it lists the candidates the linked cell's cutoff bound
is measured against).  The property tests in
``tests/perf/test_oracle_equivalence.py`` hold the production kernels to
them bit for bit, and the ``oracle_kernels`` fixture of ``tests/conftest.py``
swaps them in for whole golden trajectories.  Nothing under ``src/`` imports
this module.

The FMM tree passes ``upward`` / ``interactions`` / ``downward`` are the
bodies ``FMMTree`` had before the far-field schedule became part of its
tune-time tables: they derive the pass geometry (children, interaction
lists, wrapping or clipping) from the level arrays on every call, with
their own copies of the geometry helpers, and read only the tree's operator
matrices.  ``tests/solvers/test_tune_tables.py`` holds the scheduled passes
to them bit for bit.

``torus_hops`` is the body ``TorusTopology.hops`` had before it gathered
coordinates from a table built once per topology;
``tests/simmpi/test_topology.py`` holds the gather to it bit for bit.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.particles import ColumnBlock
from repro.solvers.fmm.expansions import multi_index_set
from repro.solvers.p2nfft.linked_cell import LinkedCellNearField

#: the oracles a force-computing run of each solver reaches: the linked cell
#: expands the runs its cutoff can reach with ``ragged_cross`` (nothing under
#: ``src/`` lists every candidate pair: ``candidate_pairs`` is what the tests
#: hold the cutoff bound against); the FMM hands its runs to the kernel whole
USED_BY = {
    "direct": set(),
    "ewald": {"ragged_cross"},
    "p2nfft": {"ragged_cross"},
    "fmm": {"derivative_tensors", "partition_destinations"},
}

_OFFSETS = np.array(
    [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)],
    dtype=np.int64,
)


def ragged_cross(
    t_starts: np.ndarray,
    t_ends: np.ndarray,
    s_starts: np.ndarray,
    s_ends: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Scalar-arithmetic oracle of ``pairs.ragged_cross``: per-pair
    ``divmod`` against the segment table (the original implementation)."""
    t_starts = np.asarray(t_starts, dtype=np.int64)
    t_ends = np.asarray(t_ends, dtype=np.int64)
    s_starts = np.asarray(s_starts, dtype=np.int64)
    s_ends = np.asarray(s_ends, dtype=np.int64)
    nt = t_ends - t_starts
    ns = s_ends - s_starts
    pairs_per_seg = nt * ns
    total = int(pairs_per_seg.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    keep = pairs_per_seg > 0
    nt = nt[keep]
    ns = ns[keep]
    t0 = t_starts[keep]
    s0 = s_starts[keep]
    ppseg = pairs_per_seg[keep]

    seg_of_pair = np.repeat(np.arange(ppseg.shape[0]), ppseg)
    seg_offsets = np.concatenate(([0], np.cumsum(ppseg)[:-1]))
    within = np.arange(total, dtype=np.int64) - seg_offsets[seg_of_pair]
    # pair p within segment k: target = within // ns[k], source = within % ns[k]
    ti = t0[seg_of_pair] + within // ns[seg_of_pair]
    si = s0[seg_of_pair] + within % ns[seg_of_pair]
    return ti, si


def candidate_pairs(
    self: LinkedCellNearField,
    t_first: np.ndarray,
    t_last: np.ndarray,
    s_sorted: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    cz: np.ndarray,
    n_sources: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every candidate (target, source) pair of the 27 neighbour cells,
    offset-major, cell-major: one searchsorted and cross product per
    neighbor offset (the original implementation; bitwise the
    ``LinkedCellNearField.candidate_pairs`` method it outlived)."""
    pair_ti = []
    pair_si = []
    for d in _OFFSETS:
        nx = (cx + d[0]) % self.dims[0]
        ny = (cy + d[1]) % self.dims[1]
        nz = (cz + d[2]) % self.dims[2]
        ncell = (nx * self.dims[1] + ny) * self.dims[2] + nz
        s_start = np.searchsorted(s_sorted, ncell, side="left")
        s_end = np.searchsorted(s_sorted, ncell, side="right")
        ti, si = ragged_cross(t_first, t_last, s_start, s_end)
        if ti.size:
            pair_ti.append(ti)
            pair_si.append(si)
    if not pair_ti:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    ti = np.concatenate(pair_ti)
    si = np.concatenate(pair_si)
    return self._dedup(ti, si, n_sources)


def derivative_tensors(points: np.ndarray, order: int) -> np.ndarray:
    """Scalar oracle of ``expansions.derivative_tensors``: one recurrence
    step per coefficient (the original implementation)."""
    mis = multi_index_set(order)
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    m = pts.shape[0]
    r2 = (pts * pts).sum(axis=1)
    if np.any(r2 == 0.0):
        raise ValueError("derivative tensors undefined at the origin")
    inv_r2 = 1.0 / r2
    T = np.empty((m, mis.ncoef), dtype=np.float64)
    T[:, 0] = np.sqrt(inv_r2)
    e = np.eye(3, dtype=np.int64)
    for i in range(1, mis.ncoef):
        a = mis.indices[i]
        j = int(np.flatnonzero(a)[0])
        b = a.copy()
        b[j] -= 1
        acc = np.zeros(m, dtype=np.float64)
        for k in range(3):
            coeff1 = 2 * b[k] + (1 if k == j else 0)
            if coeff1:
                am1 = a - e[k]
                if np.all(am1 >= 0):
                    acc += coeff1 * pts[:, k] * T[:, mis.position[tuple(am1)]]
            coeff2 = b[k] * (b[k] - 1 + (1 if k == j else 0))
            if coeff2:
                am2 = a - 2 * e[k]
                if np.all(am2 >= 0):
                    acc += coeff2 * T[:, mis.position[tuple(am2)]]
        T[:, i] = -acc * inv_r2
    return T[0] if single else T


def partition_destinations(order: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Scalar oracle of ``partition_sort.partition_destinations``: one slice
    assignment per destination rank (the original implementation)."""
    P = bounds.shape[0] - 1
    dest = np.empty(order.shape[0], dtype=np.int64)
    for dst in range(P):
        dest[order[bounds[dst]:bounds[dst + 1]]] = dst
    return dest


def split_by_destination(block: ColumnBlock, d: np.ndarray) -> Dict[int, ColumnBlock]:
    """Scalar oracle of ``partition_sort.split_by_destination``: one boolean
    scan per present destination (the original implementation)."""
    out: Dict[int, ColumnBlock] = {}
    if not block.n:
        return out
    targets = np.unique(d)
    for dst in targets:
        out[int(dst)] = block.take(np.flatnonzero(d == dst))
    return out


def torus_hops(self, src, dst):
    """``TorusTopology.hops`` before it read a per-node coordinate table:
    both ends' torus coordinates by per-dimension ``//`` and ``%``
    (``node_coords``) on every call."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    ca = self.node_coords(self.node_of(src))
    cb = self.node_coords(self.node_of(dst))
    ca, cb = np.broadcast_arrays(ca, cb)
    delta = np.abs(ca - cb)
    dims = np.asarray(self.dims, dtype=np.int64)
    wrapped = np.minimum(delta, dims - delta)
    return wrapped.sum(axis=-1)


# ------------------------------------------------------- FMM tree passes

_OCTANTS = np.array(list(itertools.product((0, 1), repeat=3)), dtype=np.int64)


def _allowed_displacements(parity: Tuple[int, int, int]) -> np.ndarray:
    """Interaction-list displacements (source - target) for a target parity."""
    ranges = [range(-2, 4) if p == 0 else range(-3, 3) for p in parity]
    out = [
        d
        for d in itertools.product(*ranges)
        if max(abs(c) for c in d) >= 2
    ]
    return np.asarray(out, dtype=np.int64)


def _parity_tables() -> Dict[Tuple[int, int, int], np.ndarray]:
    return {tuple(p): _allowed_displacements(tuple(p)) for p in _OCTANTS.tolist()}


def _children_linear(level: int) -> np.ndarray:
    """(nboxes_level, 8) linear child indices at ``level + 1``."""
    nside = 1 << level
    nchild = nside * 2
    lin = np.arange(nside ** 3, dtype=np.int64)
    cz = lin % nside
    cy = (lin // nside) % nside
    cx = lin // (nside * nside)
    out = np.empty((nside ** 3, 8), dtype=np.int64)
    for o, oct_ in enumerate(_OCTANTS):
        out[:, o] = (
            (2 * cx + oct_[0]) * nchild + (2 * cy + oct_[1])
        ) * nchild + (2 * cz + oct_[2])
    return out


def upward(self, M_leaf: np.ndarray, stats) -> List[Optional[np.ndarray]]:
    """Oracle of ``FMMTree.upward``: children derived per call (the
    original implementation)."""
    M: List[Optional[np.ndarray]] = [None] * (self.depth + 1)
    M[self.depth] = M_leaf
    for level in range(self.depth - 1, 1, -1):
        children = _children_linear(level)
        Ml = np.zeros(((1 << level) ** 3, self.ncoef))
        for o in range(8):
            Ml += M[level + 1][children[:, o]] @ self._m2m[level][o].T
        M[level] = Ml
        stats.m2m_ops += Ml.shape[0] * 8
    return M


def interactions(self, M: List[Optional[np.ndarray]], stats) -> List[Optional[np.ndarray]]:
    """Oracle of ``FMMTree.interactions``: interaction lists, wrapping and
    clipping derived from the dense level arrays per call (the original
    implementation)."""
    L: List[Optional[np.ndarray]] = [None] * (self.depth + 1)
    for level in range(2, self.depth + 1):
        nside = 1 << level
        nboxes = nside ** 3
        Ll = np.zeros((nboxes, self.ncoef))
        Ml = M[level]
        if level == 2 and self.periodic:
            # lattice operator: in-cell displacements, no wrapping (the
            # images are inside the pre-summed kernels)
            lin = np.arange(nboxes, dtype=np.int64)
            cz = lin % nside
            cy = (lin // nside) % nside
            cx = lin // (nside * nside)
            for di, delta in enumerate(self._lattice_deltas):
                sx = cx + delta[0]
                sy = cy + delta[1]
                sz = cz + delta[2]
                inside = (
                    (sx >= 0) & (sx < nside)
                    & (sy >= 0) & (sy < nside)
                    & (sz >= 0) & (sz < nside)
                )
                if not inside.any():
                    continue
                src = (sx[inside] * nside + sy[inside]) * nside + sz[inside]
                Ll[inside] += Ml[src] @ self._lattice_K[di].T
                stats.m2l_ops += int(inside.sum())
            L[level] = Ll
            continue
        K = self._m2l_by_level[level]
        lin = np.arange(nboxes, dtype=np.int64)
        cz = lin % nside
        cy = (lin // nside) % nside
        cx = lin // (nside * nside)
        parity_key = ((cx % 2) * 2 + (cy % 2)) * 2 + (cz % 2)
        tables = _parity_tables()
        for o, oct_ in enumerate(_OCTANTS):
            targets = np.flatnonzero(parity_key == ((oct_[0] * 2 + oct_[1]) * 2 + oct_[2]))
            if targets.size == 0:
                continue
            tx, ty, tz = cx[targets], cy[targets], cz[targets]
            for d in tables[tuple(oct_)]:
                sx, sy, sz = tx + d[0], ty + d[1], tz + d[2]
                if self.periodic:
                    sx, sy, sz = sx % nside, sy % nside, sz % nside
                    sel = slice(None)
                    tgt = targets
                else:
                    inside = (
                        (sx >= 0) & (sx < nside)
                        & (sy >= 0) & (sy < nside)
                        & (sz >= 0) & (sz < nside)
                    )
                    if not inside.any():
                        continue
                    sel = inside
                    tgt = targets[inside]
                    sx, sy, sz = sx[sel], sy[sel], sz[sel]
                src = (sx * nside + sy) * nside + sz
                Kd = K[self._disp_position[tuple(d)]]
                Ll[tgt] += Ml[src] @ Kd.T
                stats.m2l_ops += tgt.shape[0]
        L[level] = Ll
    return L


def downward(self, L: List[Optional[np.ndarray]], stats) -> np.ndarray:
    """Oracle of ``FMMTree.downward``: children derived per call (the
    original implementation)."""
    for level in range(2, self.depth):
        children = _children_linear(level)
        for o in range(8):
            L[level + 1][children[:, o]] += L[level] @ self._l2l[level][o].T
        stats.l2l_ops += L[level].shape[0] * 8
    return L[self.depth]
