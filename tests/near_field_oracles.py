"""The near-field pair kernels and the near fields' former bodies, kept as
test oracles.

These are the bodies ``repro.solvers.common.pairs.coulomb_pairs``,
``erfc_pairs`` and ``_accumulate`` had before they became two radial
functions over one column-wise, blocked core (gather two ``(npairs, 3)``
position arrays, minimum image and ``(d*d).sum(axis=1)`` over every
candidate, boolean-index four arrays, two ``np.add.at`` scatters), and the
body ``FMMTree.near_field_morton`` had before it built the segment tables of
all 27 neighbour offsets at once (one encode, one ``searchsorted`` pair and
one cross product per offset), moved here verbatim.

The second generation follows: the blocked pair-list core
(``pair_sums_blocked``: a pair list walked in blocks that keep the accepted
rows, one ``bincount`` per column), ``near_field_morton_offsets`` (the
candidate pairs of all 27 offsets from one cross product, one kernel call
per offset) and ``linked_cell_compute`` (every candidate pair of the 27
neighbour cells into the kernel) — the bodies the run-table sweep and the
linked cell's cutoff bound replaced.  ``over_runs`` makes any of the pair-list
kernels here a kernel over run tables, the form the solvers call.

The property tests in ``tests/perf/test_oracle_equivalence.py`` hold the
production code to them bit for bit, call by call and over whole
trajectories; ``tests/solvers/test_pair_kernel_work.py`` measures the
production near fields' memory against the second generation.  Nothing
under ``src/`` imports this module.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.special import erfc

import kernel_oracles
from repro.solvers.common import pairs
from repro.solvers.common.pairs import pair_displacements, ragged_cross
from repro.solvers.fmm.tree import _NEIGHBOR_OFFSETS, FMMTree
from repro.solvers.p2nfft.linked_cell import LinkedCellNearField


def _accumulate(
    n_targets: int,
    ti: np.ndarray,
    dvec: np.ndarray,
    pot_contrib: np.ndarray,
    field_scale: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Scatter-add pair contributions onto targets.

    ``field_scale`` multiplies the displacement vector (target - source) to
    give the field contribution of each pair.
    """
    pot = np.zeros(n_targets, dtype=np.float64)
    np.add.at(pot, ti, pot_contrib)
    field = np.zeros((n_targets, 3), dtype=np.float64)
    np.add.at(field, ti, dvec * field_scale[:, None])
    return pot, field


def coulomb_pairs(
    tpos: np.ndarray,
    spos: np.ndarray,
    sq: np.ndarray,
    ti: np.ndarray,
    si: np.ndarray,
    *,
    shift: Optional[np.ndarray] = None,
    box: Optional[np.ndarray] = None,
    cutoff: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Plain ``1/r`` kernel over pair lists.

    Parameters
    ----------
    tpos, spos, sq:
        target positions, source positions, source charges.
    ti, si:
        pair index arrays from :func:`ragged_cross`.
    shift:
        optional per-pair source position shift (periodic images), shape
        ``(npairs, 3)``.
    box:
        optional periodic box edges; displacements then use the minimum
        image convention (valid whenever interacting cells are smaller than
        half the box, which both solvers guarantee).
    cutoff:
        optional pair distance cutoff.

    Zero-distance pairs (a particle with itself, or an unshifted ghost
    duplicate) contribute nothing.  Returns ``(pot, field, pair_count)``
    where ``pair_count`` is the number of pairs actually evaluated — the
    workload count the performance model charges.
    """
    d = tpos[ti] - spos[si]
    if shift is not None:
        d = d - shift
    if box is not None:
        d = d - np.round(d / box) * box
    r2 = (d * d).sum(axis=1)
    mask = r2 > 0.0
    if cutoff is not None:
        mask &= r2 <= cutoff * cutoff
    d = d[mask]
    r2 = r2[mask]
    ti = ti[mask]
    q = sq[si[mask]]
    r = np.sqrt(r2)
    inv_r = 1.0 / r
    pot_c = q * inv_r
    field_s = q * inv_r / r2  # q / r^3
    pot, field = _accumulate(tpos.shape[0], ti, d, pot_c, field_s)
    return pot, field, int(mask.sum())


def erfc_pairs(
    tpos: np.ndarray,
    spos: np.ndarray,
    sq: np.ndarray,
    ti: np.ndarray,
    si: np.ndarray,
    alpha: float,
    cutoff: float,
    *,
    shift: Optional[np.ndarray] = None,
    box: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Ewald real-space kernel ``erfc(alpha r)/r`` over pair lists.

    The field kernel is ``(erfc(alpha r)/r + 2 alpha/sqrt(pi) exp(-alpha^2
    r^2)) / r^2`` times the displacement.  Pairs beyond ``cutoff`` and
    zero-distance pairs are skipped.  ``box`` enables minimum-image
    displacements as in :func:`coulomb_pairs`.  Returns ``(pot, field,
    pair_count)``.
    """
    d = tpos[ti] - spos[si]
    if shift is not None:
        d = d - shift
    if box is not None:
        d = d - np.round(d / box) * box
    r2 = (d * d).sum(axis=1)
    mask = (r2 > 0.0) & (r2 <= cutoff * cutoff)
    d = d[mask]
    r2 = r2[mask]
    ti = ti[mask]
    q = sq[si[mask]]
    r = np.sqrt(r2)
    inv_r = 1.0 / r
    e = erfc(alpha * r)
    pot_c = q * e * inv_r
    gauss = (2.0 * alpha / np.sqrt(np.pi)) * np.exp(-(alpha * alpha) * r2)
    field_s = q * (e * inv_r + gauss) / r2
    pot, field = _accumulate(tpos.shape[0], ti, d, pot_c, field_s)
    return pot, field, int(mask.sum())


def near_field_morton_loop(
    tree: FMMTree,
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

    Returns ``(pot, field, pair_count)`` aligned with the targets.
    """
    from repro.zorder.morton import morton_decode3, morton_encode3

    nside = tree.nside_leaf
    # unique populated target boxes and their segments
    t_boxes, t_first = np.unique(t_keys_sorted, return_index=True)
    t_last = np.concatenate((t_first[1:], [t_keys_sorted.shape[0]]))
    tx, ty, tz = (c.astype(np.int64) for c in morton_decode3(t_boxes))
    pot = np.zeros(tpos.shape[0])
    field = np.zeros((tpos.shape[0], 3))
    pair_count = 0
    box = tree.box if tree.periodic else None
    for d in itertools.product((-1, 0, 1), repeat=3):
        sx, sy, sz = tx + d[0], ty + d[1], tz + d[2]
        if tree.periodic:
            sx, sy, sz = sx % nside, sy % nside, sz % nside
            mask = np.ones(t_boxes.shape[0], dtype=bool)
        else:
            mask = (
                (sx >= 0) & (sx < nside)
                & (sy >= 0) & (sy < nside)
                & (sz >= 0) & (sz < nside)
            )
            if not mask.any():
                continue
            sx, sy, sz = sx[mask], sy[mask], sz[mask]
        src_keys = morton_encode3(sx, sy, sz)
        s_start = np.searchsorted(s_keys_sorted, src_keys, side="left")
        s_end = np.searchsorted(s_keys_sorted, src_keys, side="right")
        ti, si = ragged_cross(t_first[mask], t_last[mask], s_start, s_end)
        if ti.size == 0:
            continue
        p, f, c = coulomb_pairs(tpos, spos, sq, ti, si, box=box)
        pot += p
        field += f
        pair_count += c
    return pot, field, pair_count


def over_runs(kernel: Callable) -> Callable:
    """A pair-list kernel (``coulomb_pairs``, ``erfc_pairs``, ``_pair_sums``
    or an oracle of one) as a kernel over run tables: every run is summed
    on its own, as a target of its own at its target's position, and the
    runs' sums are added onto their targets in table order."""

    @functools.wraps(kernel)
    def runs_kernel(tpos, spos, sq, ti, si, *args, lengths=None, **kwargs):
        if lengths is None:
            return kernel(tpos, spos, sq, ti, si, *args, **kwargs)
        runs = np.arange(ti.shape[0])
        run_i, source = kernel_oracles.ragged_cross(runs, runs + 1, si, si + lengths)
        run_pot, run_field, count = kernel(tpos[ti], spos, sq, run_i, source, *args, **kwargs)
        pot = np.zeros(tpos.shape[0])
        np.add.at(pot, ti, run_pot)
        field = np.zeros((tpos.shape[0], 3))
        np.add.at(field, ti, run_field)
        return pot, field, count

    return runs_kernel


_BLOCK = 32768


def pair_sums_blocked(
    tpos: np.ndarray, spos: np.ndarray, sq: np.ndarray, ti: np.ndarray, si: np.ndarray,
    box: Optional[np.ndarray], cutoff: Optional[float],
    radial: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Sum a radial kernel over a pair list onto the targets.

    ``radial(q, r2)`` returns each pair's potential contribution and the
    factor its displacement is scaled by for the field.  Only pairs with
    ``0 < r2 <= cutoff**2`` reach it: the list is walked in blocks of
    :data:`_BLOCK` and nothing but the accepted rows outlives a block — a
    block that rejected nothing is kept as it is.  Contributions are added
    per target in pair order.
    """
    n_targets = tpos.shape[0]
    # no copy for a caller whose (n, 3) array is already stored by columns
    tcols = np.ascontiguousarray(tpos.T)
    scols = np.ascontiguousarray(spos.T)
    kept = []
    # an empty list still takes one (empty) block, so ``kept`` never is
    for start in range(0, max(ti.shape[0], 1), _BLOCK):
        stop = start + _BLOCK
        block_ti, block_si = ti[start:stop], si[start:stop]
        r2, d = pair_displacements(tcols, scols, block_ti, block_si, box)
        mask = r2 > 0.0
        if cutoff is not None:
            mask &= r2 <= cutoff * cutoff
        block = (block_ti, block_si, r2, *d)
        kept.append(block if mask.all() else _accepted(mask, block))
    ti, si, r2, *d = kept[0] if len(kept) == 1 else map(np.concatenate, zip(*kept))
    pot_c, field_s = radial(sq.take(si), r2)
    # written into float arrays: bincount of nothing into no bins is integer
    pot = np.empty(n_targets, dtype=np.float64)
    pot[:] = np.bincount(ti, weights=pot_c, minlength=n_targets)
    field = np.empty((n_targets, 3), dtype=np.float64)
    for axis, dx in enumerate(d):
        field[:, axis] = np.bincount(ti, weights=dx * field_s, minlength=n_targets)
    return pot, field, int(ti.shape[0])


def _accepted(mask: np.ndarray, columns) -> Tuple[np.ndarray, ...]:
    """The rows of each column that ``mask`` accepts: a block's compaction."""
    keep = np.flatnonzero(mask)
    return tuple(column.take(keep) for column in columns)


def coulomb_pairs_blocked(tpos, spos, sq, ti, si, *, box=None, cutoff=None):
    """``coulomb_pairs`` over :func:`pair_sums_blocked`."""
    return pair_sums_blocked(tpos, spos, sq, ti, si, box, cutoff, pairs._coulomb_radial)


def erfc_pairs_blocked(tpos, spos, sq, ti, si, alpha, cutoff, *, box=None):
    """``erfc_pairs`` over :func:`pair_sums_blocked`."""
    return pair_sums_blocked(tpos, spos, sq, ti, si, box, cutoff, pairs._erfc_radial(alpha))


def near_field_morton_offsets(
    tree: FMMTree,
    tpos: np.ndarray,
    t_keys_sorted: np.ndarray,
    spos: np.ndarray,
    sq: np.ndarray,
    s_keys_sorted: np.ndarray,
    kernel: Callable = coulomb_pairs_blocked,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """``FMMTree.near_field_morton`` with every offset's pairs from one
    cross product and one ``kernel`` call per offset."""
    from repro.zorder.morton import morton_decode3, morton_encode3

    nside = tree.nside_leaf
    # unique populated target boxes and their segments
    t_boxes, t_first = np.unique(t_keys_sorted, return_index=True)
    t_last = np.concatenate((t_first[1:], [t_keys_sorted.shape[0]]))
    # source box of every (neighbor offset, target box), (27, nboxes)
    sx, sy, sz = (
        c.astype(np.int64)[None, :] + _NEIGHBOR_OFFSETS[:, axis, None]
        for axis, c in enumerate(morton_decode3(t_boxes))
    )
    src_keys = morton_encode3(sx % nside, sy % nside, sz % nside).ravel()
    s_start = np.searchsorted(s_keys_sorted, src_keys, side="left")
    s_end = np.searchsorted(s_keys_sorted, src_keys, side="right")
    if not tree.periodic:
        # open boundaries: a displacement that leaves the grid pairs
        # with nothing
        outside = (
            (sx < 0) | (sx >= nside)
            | (sy < 0) | (sy >= nside)
            | (sz < 0) | (sz >= nside)
        ).ravel()
        s_end[outside] = s_start[outside]
    # every offset's pairs from one cross product, offset-major
    ti, si = ragged_cross(np.tile(t_first, 27), np.tile(t_last, 27), s_start, s_end)
    per_offset = ((t_last - t_first) * (s_end - s_start).reshape(27, -1)).sum(axis=1)
    stops = np.cumsum(per_offset)
    # the kernel reads positions by columns: transpose once, not per offset
    tpos = np.ascontiguousarray(tpos.T).T
    spos = np.ascontiguousarray(spos.T).T
    pot = np.zeros(tpos.shape[0])
    field = np.zeros((tpos.shape[0], 3))
    pair_count = 0
    box = tree.box if tree.periodic else None
    # a target's sum is formed per offset first, then added: that
    # association is part of the result's bits
    for start, stop in zip(stops - per_offset, stops):
        if start == stop:
            continue
        p, f, c = kernel(tpos, spos, sq, ti[start:stop], si[start:stop], box=box)
        pot += p
        field += f
        pair_count += c
    return pot, field, pair_count


def linked_cell_compute(
    nf: LinkedCellNearField,
    tpos: np.ndarray,
    spos: np.ndarray,
    sq: np.ndarray,
    candidates: Callable = kernel_oracles.candidate_pairs,
    kernel: Callable = erfc_pairs_blocked,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """``LinkedCellNearField.compute`` with every ``candidates`` pair of the
    27 neighbour cells through ``kernel``."""
    nt = tpos.shape[0]
    if nt == 0 or spos.shape[0] == 0:
        return np.zeros(nt), np.zeros((nt, 3)), 0

    t_cells = nf.cell_ids(tpos)
    s_cells = nf.cell_ids(spos)
    t_order = np.argsort(t_cells, kind="stable")
    s_order = np.argsort(s_cells, kind="stable")
    tpos_s = tpos[t_order]
    spos_s = spos[s_order]
    sq_s = sq[s_order]
    t_sorted = t_cells[t_order]
    s_sorted = s_cells[s_order]

    cells, t_first = np.unique(t_sorted, return_index=True)
    t_last = np.concatenate((t_first[1:], [t_sorted.shape[0]]))
    cz = cells % nf.dims[2]
    cy = (cells // nf.dims[2]) % nf.dims[1]
    cx = cells // (nf.dims[1] * nf.dims[2])

    ti, si = candidates(nf, t_first, t_last, s_sorted, cx, cy, cz, spos.shape[0])
    if ti.size == 0:
        return np.zeros(nt), np.zeros((nt, 3)), 0

    pot_s, field_s, count = kernel(tpos_s, spos_s, sq_s, ti, si, nf.alpha, nf.rc, box=nf.box)
    pot = np.zeros(nt)
    field = np.zeros((nt, 3))
    pot[t_order] = pot_s
    field[t_order] = field_s
    return pot, field, count
