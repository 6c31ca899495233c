"""Vectorised pairwise interaction machinery.

Both solvers reduce their near fields to the same primitive: *for a set of
target particles and a set of source particles grouped into cells, evaluate
a pairwise kernel between every target and every source in neighboring
cells*.  :func:`ragged_cross` builds the flat pair index arrays for the
ragged cell-by-cell cross products without any Python-level per-cell loop,
and the kernel evaluators accumulate potential and field contributions.

Conventions: Gaussian units (``phi_i = sum_j q_j / r_ij``), fields are
``E_i = -grad_i phi`` so the force on particle ``i`` is ``q_i * E_i``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.special import erfc

__all__ = [
    "ragged_cross",
    "pair_displacements",
    "coulomb_pairs",
    "erfc_pairs",
    "segment_starts",
]


def segment_starts(sorted_ids: np.ndarray, n_segments: int) -> np.ndarray:
    """Start offsets (length ``n_segments + 1``) of each id's run in a
    sorted id array — the CSR-style index every cell structure uses."""
    sorted_ids = np.asarray(sorted_ids)
    return np.searchsorted(sorted_ids, np.arange(n_segments + 1))


def ragged_cross(
    t_starts: np.ndarray,
    t_ends: np.ndarray,
    s_starts: np.ndarray,
    s_ends: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat (target, source) index pairs of segment-by-segment cross products.

    For each segment ``k``, every target index in ``[t_starts[k],
    t_ends[k])`` is paired with every source index in ``[s_starts[k],
    s_ends[k])``; pairs are emitted segment-major, target-major.  Returns
    ``(ti, si)`` index arrays of equal length
    ``sum((t_ends-t_starts) * (s_ends-s_starts))``.

    The assembly is division-free: each target becomes a *run* of
    consecutive source indices, built from two ``np.repeat`` expansions and
    one subtraction instead of a per-pair ``divmod`` (the scalar oracle in
    ``tests/kernel_oracles.py`` — both produce bitwise-identical index
    arrays, enforced by ``tests/perf/test_oracle_equivalence.py``).
    """
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
    tstart = t_starts[keep]
    sstart = s_starts[keep]

    # one run of ns[k] consecutive source indices per target in segment k
    ntargets = int(nt.sum())
    seg_of_target = np.repeat(np.arange(nt.shape[0]), nt)
    target_starts = np.concatenate(([0], np.cumsum(nt)[:-1]))
    # target index of each run: segment base + position within the segment
    run_ti = (
        tstart[seg_of_target]
        + np.arange(ntargets, dtype=np.int64)
        - target_starts[seg_of_target]
    )
    reps = ns[seg_of_target]
    run_offsets = np.concatenate(([0], np.cumsum(reps)[:-1]))
    ti = np.repeat(run_ti, reps)
    # si counts sstart[k], sstart[k]+1, ... within each run
    si = np.arange(total, dtype=np.int64) + np.repeat(
        sstart[seg_of_target] - run_offsets, reps
    )
    return ti, si


#: pairs per block of the displacement pass: one block's temporaries (two
#: gathers, three displacement columns, ``r2``, the mask) stay cache-resident
_BLOCK = 32768


def pair_displacements(
    tcols: np.ndarray, scols: np.ndarray, ti: np.ndarray, si: np.ndarray, box: Optional[np.ndarray]
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Squared lengths and the three columns of ``target - source`` over a
    pair list, minimum image when ``box`` is given.

    Positions come as ``(3, n)`` coordinate rows.  ``r2`` is summed
    ``(dx*dx + dy*dy) + dz*dz`` — the order ``(d*d).sum(axis=1)`` adds a row
    of an ``(npairs, 3)`` array in, which this never builds.

    The image correction ``np.round(dx / L) * L`` is a zero of the sign of
    ``dx`` for every ``|dx| <= L/2``, so only the other rows (periodic
    neighbours, NaN, inf) compute it; subtracting that zero changes nothing
    but ``-0.0``, which becomes ``+0.0`` — what adding ``0.0`` does.
    """
    d = []
    for axis in range(3):
        dx = tcols[axis].take(ti)
        dx -= scols[axis].take(si)
        if box is not None:
            half = 0.5 * box[axis]
            size = np.abs(dx)
            if not size.max(initial=0.0) <= half:
                far = np.flatnonzero(~(size <= half))
                image = dx[far]
                dx[far] = image - np.round(image / box[axis]) * box[axis]
            dx += 0.0
        d.append(dx)
    return d[0] * d[0] + d[1] * d[1] + d[2] * d[2], d


def _pair_sums(
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


def _coulomb_radial(q: np.ndarray, r2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    pot_c = q * (1.0 / np.sqrt(r2))
    return pot_c, pot_c / r2  # q / r^3


def coulomb_pairs(
    tpos: np.ndarray,
    spos: np.ndarray,
    sq: np.ndarray,
    ti: np.ndarray,
    si: np.ndarray,
    *,
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
    return _pair_sums(tpos, spos, sq, ti, si, box, cutoff, _coulomb_radial)


def erfc_pairs(
    tpos: np.ndarray,
    spos: np.ndarray,
    sq: np.ndarray,
    ti: np.ndarray,
    si: np.ndarray,
    alpha: float,
    cutoff: float,
    *,
    box: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Ewald real-space kernel ``erfc(alpha r)/r`` over pair lists.

    The field kernel is ``(erfc(alpha r)/r + 2 alpha/sqrt(pi) exp(-alpha^2
    r^2)) / r^2`` times the displacement.  Pairs beyond ``cutoff`` and
    zero-distance pairs are skipped.  ``box`` enables minimum-image
    displacements as in :func:`coulomb_pairs`.  Returns ``(pot, field,
    pair_count)``.
    """

    def radial(q: np.ndarray, r2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        r = np.sqrt(r2)
        inv_r = 1.0 / r
        e = erfc(alpha * r)
        gauss = (2.0 * alpha / np.sqrt(np.pi)) * np.exp(-(alpha * alpha) * r2)
        return q * e * inv_r, q * (e * inv_r + gauss) / r2

    return _pair_sums(tpos, spos, sq, ti, si, box, cutoff, radial)
