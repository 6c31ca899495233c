"""Uniform-depth FMM octree: interaction lists, tree passes, near field.

The system box is subdivided ``depth`` times (leaf grid ``2**depth`` per
dimension).  Boxes at every level are stored in dense row-major per-level
arrays; all passes are batched matrix operations over these arrays.

Interaction lists (well-separated pairs handled per level) follow the
classical rule: a source box ``w`` is in the interaction list of target
``b`` iff their parents are neighbors (Chebyshev distance <= 1) but the
boxes themselves are not.  For a displacement ``d = w - b`` and per-dim
target parity ``p`` this reduces to ``d_i in [-2, 3]`` for ``p_i = 0`` and
``d_i in [-3, 2]`` for ``p_i = 1``, with ``max_i |d_i| >= 2``.

Boundary conditions:

* **open** — displacements are clipped to the grid; levels 0/1 carry no
  interactions.
* **periodic** — neighbor and interaction lists wrap around the box.  At
  level 2 every pair of parent boxes is a (wrapped) neighbor, so level 2
  must account for *all* image displacements with Chebyshev distance >= 2.
  This is done with a truncated **lattice operator**: for each of the 64
  residue classes ``delta = d mod 4`` the M2L kernels of all images
  ``d = delta + 4R`` (``R`` in ``[-shells, shells]^3``, excluding the
  near-field images) are pre-summed into one matrix.  The truncation at
  ``shells`` periodic images is this solver's periodic approximation
  (DESIGN.md §2); the accompanying tests bound the resulting error against
  the exact Ewald reference.  Periodic runs require ``depth >= 3`` so that
  the minimum image convention identifies the adjacent-box image uniquely
  in the near field.

The near field (:meth:`FMMTree.near_field_morton`) is one run table — a run
per (neighbour offset, target): the target against that leaf box's sorted
sources — handed whole to the pair kernel, which sweeps it source slot by
source slot (:mod:`repro.solvers.common.pairs`).  Zero targets make empty
sums.
"""

from __future__ import annotations

import dataclasses
import itertools
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.solvers.common.pairs import coulomb_pairs
from repro.solvers.common.tables import freeze_arrays, shared_tables, vector_key
from repro.solvers.fmm.expansions import Expansion

__all__ = ["FMMTree", "FarFieldStats", "fmm_tree", "leaf_index_of_positions", "OCTANTS"]

#: the 8 child-coordinate offsets within a parent box
OCTANTS = np.array(list(itertools.product((0, 1), repeat=3)), dtype=np.int64)
#: the 27 near-field box displacements (source - target), in summation order
_NEIGHBOR_OFFSETS = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int64)


def _allowed_displacements(parity: Tuple[int, int, int]) -> np.ndarray:
    """Interaction-list displacements (source - target) for a target parity."""
    ranges = [range(-2, 4) if p == 0 else range(-3, 3) for p in parity]
    out = [
        d
        for d in itertools.product(*ranges)
        if max(abs(c) for c in d) >= 2
    ]
    return np.asarray(out, dtype=np.int64)


@lru_cache(maxsize=8)
def _parity_tables() -> Dict[Tuple[int, int, int], np.ndarray]:
    return {tuple(p): _allowed_displacements(tuple(p)) for p in OCTANTS.tolist()}


def leaf_index_of_positions(
    pos: np.ndarray,
    offset: np.ndarray,
    box: np.ndarray,
    depth: int,
    periodic: bool,
) -> np.ndarray:
    """Row-major leaf box index containing each position."""
    nside = 1 << depth
    rel = (np.asarray(pos, dtype=np.float64) - offset) / box * nside
    cells = np.floor(rel).astype(np.int64)
    if periodic:
        cells %= nside
    else:
        np.clip(cells, 0, nside - 1, out=cells)
    return (cells[:, 0] * nside + cells[:, 1]) * nside + cells[:, 2]


@dataclasses.dataclass
class FarFieldStats:
    """Workload counts of one far-field evaluation (for the cost model)."""

    p2m_particles: int = 0
    m2m_ops: int = 0
    m2l_ops: int = 0
    l2l_ops: int = 0
    l2p_particles: int = 0
    near_pairs: int = 0
    ncoef: int = 0


class FMMTree:
    """Geometry, operators and passes of a uniform FMM tree.

    A pure function of its constructor arguments and immutable once built
    (it copies ``box`` / ``offset`` and freezes every array it owns): the
    tree is reusable across runs, and shareable between solvers, as long as
    ``depth``, ``p`` and the box stay fixed (the tuning contract of
    ``fcs_tune``).  Solvers obtain it from :func:`fmm_tree`.
    """

    def __init__(
        self,
        depth: int,
        p: int,
        box: np.ndarray,
        offset: np.ndarray,
        periodic: bool,
        lattice_shells: int = 3,
        build_operators: bool = True,
    ) -> None:
        if periodic and depth < 3:
            raise ValueError("periodic FMM requires depth >= 3 (minimum image)")
        if depth < 2:
            raise ValueError("FMM requires depth >= 2 (no far field otherwise)")
        self.depth = int(depth)
        self.p = int(p)
        # copies: a later in-place change of the caller's box must not
        # rescale tables built for this one
        self.box = np.array(box, dtype=np.float64)
        self.offset = np.array(offset, dtype=np.float64)
        self.periodic = bool(periodic)
        self.lattice_shells = int(lattice_shells)
        self.expansion = Expansion(p)
        self.ncoef = self.expansion.ncoef
        self.nside_leaf = 1 << depth
        self.nboxes_leaf = self.nside_leaf ** 3

        if build_operators:
            self._build_translation_ops()
            self._build_m2l_ops()
            if self.periodic:
                self._build_lattice_operator()
            self._build_pass_schedule()
        freeze_arrays(self)

    # -- geometry ----------------------------------------------------------------

    def box_width(self, level: int) -> np.ndarray:
        """Edge lengths of a level-``level`` box."""
        return self.box / (1 << level)

    def box_centers(self, level: int, linear: np.ndarray) -> np.ndarray:
        """Centers of boxes given by row-major linear indices."""
        nside = 1 << level
        c = np.empty((np.asarray(linear).shape[0], 3), dtype=np.int64)
        lin = np.asarray(linear, dtype=np.int64)
        c[:, 2] = lin % nside
        c[:, 1] = (lin // nside) % nside
        c[:, 0] = lin // (nside * nside)
        return self.offset + (c + 0.5) * self.box_width(level)

    # -- operator precomputation ----------------------------------------------------

    def _build_translation_ops(self) -> None:
        """Per-level M2M / L2L matrices for the 8 octants.

        Child-center offset from the parent center at level ``l`` (children
        live at level ``l+1``) is ``(octant - 0.5) * w_{l+1}``.
        """
        self._m2m: List[np.ndarray] = []  # [level][octant] -> (ncoef, ncoef)
        self._l2l: List[np.ndarray] = []
        for level in range(self.depth):
            w_child = self.box_width(level + 1)
            m2m = np.empty((8, self.ncoef, self.ncoef))
            l2l = np.empty((8, self.ncoef, self.ncoef))
            for o, oct_ in enumerate(OCTANTS):
                s = (oct_ - 0.5) * w_child
                m2m[o] = self.expansion.m2m_matrix(s)
                l2l[o] = self.expansion.l2l_matrix(s)
            self._m2m.append(m2m)
            self._l2l.append(l2l)

    def _build_m2l_ops(self) -> None:
        """M2L kernels for the 316 unique displacements, per level.

        The kernel argument is ``t = center_target - center_source =
        -d * w_level``; matrices are computed once for unit box width and
        rescaled per level with the homogeneity of ``T``.
        """
        disp = np.asarray(
            [
                d
                for d in itertools.product(range(-3, 4), repeat=3)
                if max(abs(c) for c in d) >= 2
            ],
            dtype=np.int64,
        )
        self._m2l_disp = disp  # (316, 3), d = source - target
        w1 = self.box_width(0)  # unit: level-0 width = box
        K_unit = self.expansion.m2l_matrices(-disp.astype(np.float64) * w1)
        self._m2l_by_level: List[Optional[np.ndarray]] = [None, None]
        for level in range(2, self.depth + 1):
            scale = self.expansion.m2l_scale(1.0 / (1 << level))
            self._m2l_by_level.append(K_unit * scale[None, :, :])
        self._disp_position = {tuple(d): i for i, d in enumerate(disp.tolist())}

    def _build_lattice_operator(self) -> None:
        """Pre-summed level-2 M2L kernels over whole unit-cell images.

        For every *in-cell* box displacement ``delta = s - b`` (``delta`` in
        ``[-3, 3]^3``) the kernels of the image displacements ``d = delta +
        4R`` with ``R`` in ``[-shells, shells]^3`` and ``Cheb(d) >= 2`` are
        pre-summed.  Truncating at whole unit-cell images keeps every
        included image set charge-complete (each cell is the full neutral
        system), so the truncated sum converges to the shell-summed
        (vacuum-boundary) periodic potential; any per-box truncation shape
        would leave uncancelled partial-cell monopoles instead.
        """
        from repro.solvers.fmm.expansions import derivative_tensors, multi_index_set

        S = self.lattice_shells
        w2 = self.box_width(2)
        deltas = np.asarray(list(itertools.product(range(-3, 4), repeat=3)), dtype=np.int64)
        shifts = np.asarray(
            list(itertools.product(range(-S, S + 1), repeat=3)), dtype=np.int64
        )
        ncoef2 = multi_index_set(2 * self.p).ncoef
        # displacement vectors are shared between residue classes: evaluate
        # the derivative tensors once per unique vector, then index-sum
        side = 8 * S + 7  # d in [-(4S+3), 4S+3]
        lo = -(4 * S + 3)
        vecs = np.asarray(
            list(itertools.product(range(lo, lo + side), repeat=3)), dtype=np.int64
        )
        vec_keep = np.abs(vecs).max(axis=1) >= 2
        T_unique = np.zeros((vecs.shape[0], ncoef2))
        kept = np.flatnonzero(vec_keep)
        # in chunks: the recurrence's working set is several times its
        # result, and every vector's tensors are independent of the chunking
        chunk = 2048
        for start in range(0, kept.shape[0], chunk):
            sel = kept[start:start + chunk]
            T_unique[sel] = derivative_tensors(-vecs[sel].astype(np.float64) * w2, 2 * self.p)

        def vec_index(v: np.ndarray) -> np.ndarray:
            return ((v[:, 0] - lo) * side + (v[:, 1] - lo)) * side + (v[:, 2] - lo)

        K_lat = np.empty((deltas.shape[0], self.ncoef, self.ncoef))
        for di, delta in enumerate(deltas):
            d_all = delta[None, :] + 4 * shifts
            d_all = d_all[np.abs(d_all).max(axis=1) >= 2]
            Tsum = T_unique[vec_index(d_all)].sum(axis=0)
            K_lat[di] = self.expansion.m2l_matrix_from_tensors(Tsum)
        self._lattice_deltas = deltas
        self._lattice_K = K_lat

    def _build_pass_schedule(self) -> None:
        """The geometry of the M2L pass, which depends on nothing but the
        tree shape and the boundary condition.

        ``_m2l_schedule[level]``: the ``(targets, sources, K.T)`` triples of
        the pass in the order it applies them, both sides addressing the
        level's ``(nside, nside, nside)`` box grid: ``targets`` is one slice
        per axis, ``sources`` the open mesh (``np.ix_``) of the boxes at the
        kernel's displacement from them.  A box set that is a product of
        per-axis sets costs three vectors of at most ``nside`` entries, so a
        level's schedule is ``O(nside)`` bytes per step, not ``O(nside**3)``.
        ``_m2l_ops[level]`` counts the target boxes of the level's steps.

        Levels with interaction lists go octant by octant through the
        displacements of the target parity; sources wrap around the box
        (periodic) or are clipped to the grid (open).  Periodic level 2 is
        the lattice operator: in-cell displacements of all boxes, no
        wrapping (the images are inside the pre-summed kernels).
        """
        self._m2l_schedule: List[Optional[list]] = [None, None]
        self._m2l_ops: List[int] = [0, 0]
        tables = _parity_tables()
        for level in range(2, self.depth + 1):
            nside = 1 << level
            lattice = level == 2 and self.periodic
            wrap = self.periodic and not lattice
            if lattice:
                # (first target per axis, displacements, kernel of each)
                stride = 1
                groups = [((0, 0, 0), self._lattice_deltas, self._lattice_K)]
            else:
                stride = 2
                K = self._m2l_by_level[level]
                groups = [
                    (
                        octant, tables[octant],
                        [K[self._disp_position[tuple(d)]] for d in tables[octant].tolist()],
                    )
                    for octant in map(tuple, OCTANTS.tolist())
                ]
            # the steps of a level share their per-axis vectors
            along: Dict[Tuple[int, int, int], Optional[Tuple[slice, np.ndarray]]] = {}
            for axis, first, d in itertools.product(range(3), range(stride), range(-3, 4)):
                t = np.arange(first, nside, stride)
                s = t + d
                if wrap:
                    s %= nside
                else:
                    inside = (s >= 0) & (s < nside)
                    t, s = t[inside], s[inside]
                # the targets with a source inside the grid, and those sources
                # as their axis of an open mesh (``np.ix_``)
                along[axis, first, d] = (
                    (slice(int(t[0]), int(t[-1]) + 1, stride), np.ix_(s, s, s)[axis])
                    if t.size else None
                )
            steps = []
            ops = 0
            for first, displacements, kernels in groups:
                for d, Kd in zip(np.asarray(displacements).tolist(), kernels):
                    axes = [along[axis, first[axis], d[axis]] for axis in range(3)]
                    if None in axes:  # no target has this source inside the grid
                        continue
                    tgt, src = zip(*axes)
                    # the transposed *view*: a contiguous ``K.T`` takes another
                    # BLAS path and moves the last bits of the products
                    steps.append((tgt, src, Kd.T))
                    ops += src[0].size * src[1].size * src[2].size
            self._m2l_schedule.append(steps)
            self._m2l_ops.append(ops)

    def _grid(self, level: int, coefficients: np.ndarray) -> np.ndarray:
        """A level's dense ``(nboxes, ncoef)`` array as the view
        ``(nside, nside, nside, ncoef)`` over its row-major box grid."""
        nside = 1 << level
        return coefficients.reshape(nside, nside, nside, self.ncoef)

    # -- tree passes -------------------------------------------------------------------

    def leaf_moments(self, pos: np.ndarray, q: np.ndarray, leaf_idx: np.ndarray) -> np.ndarray:
        """P2M: accumulate particle moments into the dense leaf array."""
        centers = self.box_centers(self.depth, leaf_idx)
        rows = self.expansion.p2m_rows(pos - centers, q)
        M = np.zeros((self.nboxes_leaf, self.ncoef))
        np.add.at(M, leaf_idx, rows)
        return M

    def upward(self, M_leaf: np.ndarray, stats: FarFieldStats) -> List[Optional[np.ndarray]]:
        """M2M from leaves up to level 2; returns moments per level."""
        M: List[Optional[np.ndarray]] = [None] * (self.depth + 1)
        M[self.depth] = M_leaf
        for level in range(self.depth - 1, 1, -1):
            finer = self._grid(level + 1, M[level + 1])
            Ml = np.zeros(((1 << level) ** 3, self.ncoef))
            for o, (ox, oy, oz) in enumerate(OCTANTS):
                # every box's child in octant o, in box order
                children = finer[ox::2, oy::2, oz::2].reshape(-1, self.ncoef)
                Ml += children @ self._m2m[level][o].T
            M[level] = Ml
            stats.m2m_ops += Ml.shape[0] * 8
        return M

    def interactions(self, M: List[Optional[np.ndarray]], stats: FarFieldStats) -> List[Optional[np.ndarray]]:
        """M2L at every level; returns local coefficients per level: the
        products of :meth:`_build_pass_schedule`, in its order."""
        L: List[Optional[np.ndarray]] = [None] * (self.depth + 1)
        for level in range(2, self.depth + 1):
            Ll = np.zeros(((1 << level) ** 3, self.ncoef))
            targets, sources = self._grid(level, Ll), self._grid(level, M[level])
            for tgt, src, Kt in self._m2l_schedule[level]:
                block = targets[tgt]
                block += (sources[src].reshape(-1, self.ncoef) @ Kt).reshape(block.shape)
            stats.m2l_ops += self._m2l_ops[level]
            L[level] = Ll
        return L

    def downward(self, L: List[Optional[np.ndarray]], stats: FarFieldStats) -> np.ndarray:
        """L2L from level 2 down, in place on the (contiguous) level arrays of
        :meth:`interactions`; returns the leaf local coefficients."""
        for level in range(2, self.depth):
            finer = self._grid(level + 1, L[level + 1])
            for o, (ox, oy, oz) in enumerate(OCTANTS):
                children = finer[ox::2, oy::2, oz::2]
                children += (L[level] @ self._l2l[level][o].T).reshape(children.shape)
            stats.l2l_ops += L[level].shape[0] * 8
        return L[self.depth]

    def far_field(
        self,
        pos: np.ndarray,
        q: np.ndarray,
        leaf_idx: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, FarFieldStats]:
        """Complete far-field evaluation for all particles.

        Returns ``(pot, field, stats)``.  ``leaf_idx`` must match ``pos``
        (see :func:`leaf_index_of_positions`).
        """
        stats = FarFieldStats(ncoef=self.ncoef)
        stats.p2m_particles = pos.shape[0]
        stats.l2p_particles = pos.shape[0]
        M_leaf = self.leaf_moments(pos, q, leaf_idx)
        M = self.upward(M_leaf, stats)
        L = self.interactions(M, stats)
        L_leaf = self.downward(L, stats)
        centers = self.box_centers(self.depth, leaf_idx)
        pot, field = self.expansion.l2p(L_leaf[leaf_idx], pos - centers)
        return pot, field, stats

    # -- near field -----------------------------------------------------------------------

    def morton_keys(self, pos: np.ndarray) -> np.ndarray:
        """Z-Morton leaf box numbers of positions (the FMM's sort keys)."""
        from repro.zorder.morton import morton_keys_of_positions

        return morton_keys_of_positions(
            pos, self.offset, self.box, self.depth, self.periodic
        )

    def linear_of_morton(self, keys: np.ndarray) -> np.ndarray:
        """Row-major leaf index of Morton box numbers."""
        from repro.zorder.morton import morton_decode3

        x, y, z = morton_decode3(keys)
        nside = self.nside_leaf
        return (x.astype(np.int64) * nside + y.astype(np.int64)) * nside + z.astype(np.int64)

    def near_field_morton(
        self,
        tpos: np.ndarray,
        t_keys_sorted: np.ndarray,
        spos: np.ndarray,
        sq: np.ndarray,
        s_keys_sorted: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Near field of targets against sources grouped by Morton leaf box.

        ``t_keys_sorted``/``s_keys_sorted`` are ascending Morton box numbers
        (the order the parallel sort produces); positions/charges are in
        that same order.  Periodic systems use minimum-image displacements
        (valid because ``depth >= 3``).  Used both by the sequential
        evaluation (targets == sources == everything) and by each rank of
        the parallel solver (targets = owned, sources = owned + halo).

        Returns ``(pot, field, pair_count)`` aligned with the targets (empty
        for no targets).
        """
        from repro.zorder.morton import morton_decode3, morton_encode3

        nside = self.nside_leaf
        # populated target boxes, and each target's among them
        t_boxes, t_box = np.unique(t_keys_sorted, return_inverse=True)
        # source box of every (neighbor offset, target box), (27, nboxes)
        sx, sy, sz = (
            c.astype(np.int64)[None, :] + _NEIGHBOR_OFFSETS[:, axis, None]
            for axis, c in enumerate(morton_decode3(t_boxes))
        )
        src_keys = morton_encode3(sx % nside, sy % nside, sz % nside)
        first = np.searchsorted(s_keys_sorted, src_keys, side="left")
        length = np.searchsorted(s_keys_sorted, src_keys, side="right") - first
        if not self.periodic:
            # open boundaries: a displacement that leaves the grid pairs
            # with nothing
            outside = (
                (sx < 0) | (sx >= nside)
                | (sy < 0) | (sy >= nside)
                | (sz < 0) | (sz >= nside)
            )
            length[outside] = 0
        # one run per (offset, target), offset-major: a target's sum is its
        # 27 neighbour boxes' sums, each in source order, added in offset
        # order (that association is part of the result's bits)
        n_targets = tpos.shape[0]
        return coulomb_pairs(
            tpos, spos, sq, np.tile(np.arange(n_targets), 27), first[:, t_box].ravel(),
            lengths=length[:, t_box].ravel(), box=self.box if self.periodic else None,
        )


#: one tree: a tree is the large table (tens of MB, and its lattice build
#: peaks at four times that), and every caller that tunes more than once in
#: a process (``repro.verify``, ``repro.verify dst``, ``repro.ckpt verify``)
#: re-tunes one parameter set (docs/performance.md, PR 24)
@shared_tables(
    maxsize=1,
    key=lambda depth, p, box, offset, periodic, lattice_shells, build_operators: (
        int(depth), int(p), vector_key(box), vector_key(offset), bool(periodic),
        int(lattice_shells), bool(build_operators),
    ),
)
def fmm_tree(
    depth: int,
    p: int,
    box: np.ndarray,
    offset: np.ndarray,
    periodic: bool,
    lattice_shells: int,
    build_operators: bool,
) -> FMMTree:
    """The shared, immutable :class:`FMMTree` of these tune parameters
    (:mod:`repro.solvers.common.tables`); a miss is the cold build."""
    return FMMTree(depth, p, box, offset, periodic, lattice_shells, build_operators)
