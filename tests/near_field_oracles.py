"""The near-field pair kernels and the FMM neighbour loop, kept as test oracles.

These are the bodies ``repro.solvers.common.pairs.coulomb_pairs``,
``erfc_pairs`` and ``_accumulate`` had before they became two radial
functions over one column-wise, blocked core (gather two ``(npairs, 3)``
position arrays, minimum image and ``(d*d).sum(axis=1)`` over every
candidate, boolean-index four arrays, two ``np.add.at`` scatters), and the
body ``FMMTree.near_field_morton`` had before it built the segment tables of
all 27 neighbour offsets at once (one encode, one ``searchsorted`` pair and
one cross product per offset), moved here verbatim.  The property tests in
``tests/perf/test_oracle_equivalence.py`` hold the production code to them
bit for bit, call by call and over whole trajectories.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

import numpy as np
from scipy.special import erfc

from repro.solvers.common.pairs import ragged_cross
from repro.solvers.fmm.tree import FMMTree


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
