"""Vectorised pairwise interaction machinery.

Both solvers reduce their near fields to the same unit of work, a *run*:
one target against a contiguous range of sorted sources — one neighbour
leaf box (FMM) or cell (linked cell).  The kernels :func:`coulomb_pairs`
and :func:`erfc_pairs` take a run table (target row, first source row,
length; a flat ``(ti, si)`` pair list is a table of length-1 runs) and
choose a radial function; one core sums it.  The table is sorted longest
run first and swept slot by slot: step ``j`` evaluates source slot ``j`` of
every run still that long — a contiguous prefix — and adds it in place to
that run's own sum.  Target coordinates are gathered once per run and no
pair-length index array is built.  The run sums are added onto their
targets in table order (one ``bincount`` over runs): a target's sum is
associated run by run, each run in source order.

:func:`pair_distance_bounds` lower-bounds a run's ``r2`` in the kernel's
own arithmetic, so a caller can drop runs the cutoff cannot reach before
forming any pair; :func:`ragged_cross` expands segment-by-segment cross
products into flat pair lists without a Python-level per-segment loop.
:func:`pair_displacements` is the one place a source is subtracted from a
target.

Conventions: Gaussian units (``phi_i = sum_j q_j / r_ij``), fields are
``E_i = -grad_i phi`` so the force on particle ``i`` is ``q_i * E_i``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = [
    "ragged_cross",
    "pair_displacements",
    "pair_distance_bounds",
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


#: runs per block of the sweep: one step's temporaries over a block (a
#: source gather, three displacement columns, ``r2``, the mask, the four
#: contributions) stay cache-resident
_BLOCK = 32768


def pair_displacements(
    tcols: np.ndarray, scols: np.ndarray, ti, si: np.ndarray, box: Optional[np.ndarray]
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Squared lengths and the three columns of ``target - source`` over a
    pair list, minimum image when ``box`` is given.

    Positions come as ``(3, n)`` coordinate rows; ``ti`` indexes the target
    rows (an index array, or a slice of targets already gathered per run).
    ``r2`` is summed ``(dx*dx + dy*dy) + dz*dz`` — the order
    ``(d*d).sum(axis=1)`` adds a row of an ``(npairs, 3)`` array in, which
    this never builds.

    The image correction ``np.round(dx / L) * L`` is a zero of the sign of
    ``dx`` for every ``|dx| <= L/2``, so only the other rows (periodic
    neighbours, NaN, inf) compute it; subtracting that zero changes nothing
    but ``-0.0``, which becomes ``+0.0`` — what adding ``0.0`` does.
    """
    d = []
    for axis in range(3):
        dx = tcols[axis].take(ti) if isinstance(ti, np.ndarray) else tcols[axis][ti].copy()
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
    # (dx*dx + dy*dy) + dz*dz, into two arrays.  Each sum goes into its
    # second operand's array: numpy adds a one-element array into its own
    # first operand as a reduction, which keeps the second of two NaNs where
    # ``a + b`` keeps the first.
    first = d[0] * d[0]
    second = d[1] * d[1]
    np.add(first, second, out=second)
    np.multiply(d[2], d[2], out=first)
    return np.add(second, first, out=first), d


def pair_distance_bounds(
    tcols: np.ndarray, lo_cols: np.ndarray, hi_cols: np.ndarray,
    ti: np.ndarray, ci: np.ndarray, box: Optional[np.ndarray],
) -> np.ndarray:
    """A lower bound, per row, on the ``r2`` :func:`pair_displacements`
    computes between target ``ti`` and *any* source whose coordinates lie
    between the corners ``lo_cols[:, ci]`` and ``hi_cols[:, ci]``.

    The bound repeats the kernel's arithmetic on the corners, so it needs no
    tolerance: ``x_t - x_s`` rounds monotonically, so every source's raw
    displacement lies between the two corners'.  The minimum image
    subtracts ``round(dx / L) * L`` where ``|dx| > L/2`` and nothing
    elsewhere; that multiple never decreases with ``dx``, so where both
    corners take the same one every displacement between them does, and the
    rounded ``dx - k*L`` (then ``+ 0.0``, which changes no magnitude) is
    again monotone between the corners' images.  Where the corners take
    different multiples (or are NaN) the axis bounds nothing (0).  Squaring
    and the left-associated sum are monotone in each axis too.
    """
    _, low = pair_displacements(tcols, hi_cols, ti, ci, None)
    _, high = pair_displacements(tcols, lo_cols, ti, ci, None)
    gaps = []
    for axis, (a, b) in enumerate(zip(low, high)):
        if box is not None:
            edge, half = box[axis], 0.5 * box[axis]
            # the rows where a corner may take an image (a <= b)
            far = np.flatnonzero(~((a >= -half) & (b <= half)))
            if far.size:
                fa, fb = a.take(far), b.take(far)
                ka = np.where(np.abs(fa) <= half, 0.0, np.round(fa / edge))
                kb = np.where(np.abs(fb) <= half, 0.0, np.round(fb / edge))
                mixed = ~(ka == kb)
                fa -= ka * edge
                fb -= kb * edge
                fa[mixed] = fb[mixed] = 0.0
                a[far], b[far] = fa, fb
        # the distance from zero to [a, b], max(a, -b, 0); ``-0.0`` and
        # ``+0.0`` alike
        np.maximum(a, np.negative(b, out=b), out=a)
        gaps.append(np.maximum(a, 0.0, out=a))
    bound = gaps[0] * gaps[0]
    bound += np.multiply(gaps[1], gaps[1], out=gaps[1])
    bound += np.multiply(gaps[2], gaps[2], out=gaps[2])
    return bound


def _pair_sums(
    tpos: np.ndarray, spos: np.ndarray, sq: np.ndarray, ti: np.ndarray, si: np.ndarray,
    box: Optional[np.ndarray], cutoff: Optional[float],
    radial: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]],
    lengths: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Sum a radial kernel over a run table onto the targets.

    Run ``k`` pairs target ``ti[k]`` with the sources ``si[k]``,
    ``si[k] + 1``, ... (``lengths[k]`` of them; ``lengths=None`` makes every
    run one pair, i.e. ``(ti, si)`` a flat pair list).  ``radial(q, r2)``
    returns each pair's potential contribution and the factor its
    displacement is scaled by for the field; only pairs with
    ``0 < r2 <= cutoff**2`` reach it.

    The table is swept longest run first, in blocks of :data:`_BLOCK` runs:
    step ``j`` of a block evaluates source slot ``j`` of every run that is
    still that long — a prefix of the block — and adds it in place to the
    run's own sum, so each target coordinate is gathered once per run.  A
    block of one-pair runs keeps only the rows it accepted.  The run sums
    are then added onto their targets in table order: a target's sum is
    associated run by run, each run in source order.
    """
    n_targets = tpos.shape[0]
    # no copy for a caller whose (n, 3) array is already stored by columns
    tcols = np.ascontiguousarray(tpos.T)
    scols = np.ascontiguousarray(spos.T)
    table_ti, n_runs = ti, ti.shape[0]
    if lengths is not None:
        # the non-empty runs longest first, so the runs a step reaches are a
        # prefix (a run's sums do not depend on where it is swept)
        live = np.flatnonzero(lengths)
        live = live.take(np.argsort(-lengths.take(live)))
        ti, si, lengths = ti.take(live), si.take(live), lengths.take(live)
    kept = []
    count = 0
    # an empty table still takes one (empty) block, so ``kept`` never is
    for start in range(0, max(ti.shape[0], 1), _BLOCK):
        block = slice(start, start + _BLOCK)
        rows, sums, accepted = _sweep(
            tcols, ti[block], scols, sq, si[block], None if lengths is None else lengths[block],
            box, cutoff, radial,
        )
        runs = np.arange(start, start + sums.shape[1]) if rows is None else rows + start
        kept.append((runs, sums))
        count += accepted
    runs, sums = kept[0] if len(kept) == 1 else map(np.concatenate, zip(*kept), (0, 1))
    if lengths is None:
        targets = ti.take(runs)
    else:
        # back to table order: that is the order the runs are added in
        targets, table = table_ti, np.zeros((4, n_runs))
        for row, column in zip(table, sums):
            row[live.take(runs)] = column
        sums = table
    # written into float arrays: bincount of nothing into no bins is integer
    pot = np.empty(n_targets, dtype=np.float64)
    pot[:] = np.bincount(targets, weights=sums[0], minlength=n_targets)
    field = np.empty((n_targets, 3), dtype=np.float64)
    for axis in range(3):
        field[:, axis] = np.bincount(targets, weights=sums[axis + 1], minlength=n_targets)
    return pot, field, count


def _sweep(
    tcols: np.ndarray, ti: np.ndarray, scols: np.ndarray, sq: np.ndarray, first: np.ndarray,
    lengths: Optional[np.ndarray], box: Optional[np.ndarray], cutoff: Optional[float],
    radial: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]],
) -> Tuple[Optional[np.ndarray], np.ndarray, int]:
    """The sums of one block of runs, longest first: ``(rows, sums,
    accepted)`` with ``sums`` the ``(4, k)`` potential and field sums of the
    block's runs ``rows`` (``None``: all of them) and ``accepted`` the pairs
    that reached the kernel."""
    if lengths is None or not lengths.size or lengths[0] == 1:
        # one slot: the accepted pairs are the block's sums
        r2, d, mask = _slot(tcols, ti, scols, first, box, cutoff)
        rows = None
        if not mask.all():
            rows = np.flatnonzero(mask)
            first, r2, d = first.take(rows), r2.take(rows), [dx.take(rows) for dx in d]
        pot_c, field_s = radial(sq.take(first), r2)
        sums = np.empty((4, r2.shape[0]))
        sums[0] = pot_c
        for axis, dx in enumerate(d):
            np.multiply(dx, field_s, out=sums[axis + 1])
        return rows, sums, r2.shape[0]
    # each target coordinate gathered once per run
    run_t = [column.take(ti) for column in tcols]
    acc = np.zeros((4, first.shape[0]))
    accepted = 0
    source = first.copy()
    # runs with a slot j, for j = 0, 1, ...: lengths descend, so a prefix
    for j, reach in enumerate(np.searchsorted(-lengths, -np.arange(lengths[0]), side="left").tolist()):
        if j:
            source[:reach] += 1
        r2, d, mask = _slot(run_t, slice(reach), scols, source[:reach], box, cutoff)
        rejected = np.flatnonzero(~mask)
        # a rejected pair adds zeros: its contributions are overwritten, so
        # whatever the radial function makes of its r2 goes nowhere
        with np.errstate(divide="ignore", invalid="ignore"):
            pot_c, field_s = radial(sq.take(source[:reach]), r2)
        for column in (pot_c, field_s, *d):
            column[rejected] = 0.0
        acc[0, :reach] += pot_c
        for axis, dx in enumerate(d):
            acc[axis + 1, :reach] += np.multiply(dx, field_s, out=dx)
        accepted += reach - rejected.shape[0]
    return None, acc, accepted


def _slot(
    tcols, ti, scols: np.ndarray, source: np.ndarray,
    box: Optional[np.ndarray], cutoff: Optional[float],
) -> Tuple[np.ndarray, List[np.ndarray], np.ndarray]:
    """One source slot of every run: ``r2``, the displacement columns and
    the mask of the pairs the kernel accepts (``0 < r2 <= cutoff**2``)."""
    r2, d = pair_displacements(tcols, scols, ti, source, box)
    mask = r2 > 0.0
    if cutoff is not None:
        mask &= r2 <= cutoff * cutoff
    return r2, d, mask


def _coulomb_radial(q: np.ndarray, r2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # q * (1 / sqrt(r2)) in one array (the product commutes bit for bit)
    pot_c = np.sqrt(r2)
    np.divide(1.0, pot_c, out=pot_c)
    pot_c *= q
    return pot_c, pot_c / r2  # q / r^3


def coulomb_pairs(
    tpos: np.ndarray,
    spos: np.ndarray,
    sq: np.ndarray,
    ti: np.ndarray,
    si: np.ndarray,
    *,
    lengths: Optional[np.ndarray] = None,
    box: Optional[np.ndarray] = None,
    cutoff: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Plain ``1/r`` kernel over a run table.

    Parameters
    ----------
    tpos, spos, sq:
        target positions, source positions, source charges.
    ti, si, lengths:
        the run table: run ``k`` pairs target ``ti[k]`` with the
        ``lengths[k]`` consecutive sources from ``si[k]`` on.  Without
        ``lengths`` every run is one pair: ``(ti, si)`` is a pair list (from
        :func:`ragged_cross`, say).
    box:
        optional periodic box edges; displacements then use the minimum
        image convention (valid whenever interacting cells are smaller than
        half the box, which both solvers guarantee).
    cutoff:
        optional pair distance cutoff.

    Zero-distance pairs (a particle with itself, or an unshifted ghost
    duplicate) contribute nothing.  A target's sum is added up run by run in
    table order, each run in source order.  Returns ``(pot, field,
    pair_count)`` where ``pair_count`` is the number of pairs actually
    evaluated — the workload count the performance model charges.
    """
    return _pair_sums(tpos, spos, sq, ti, si, box, cutoff, _coulomb_radial, lengths=lengths)


def erfc_pairs(
    tpos: np.ndarray,
    spos: np.ndarray,
    sq: np.ndarray,
    ti: np.ndarray,
    si: np.ndarray,
    alpha: float,
    cutoff: float,
    *,
    lengths: Optional[np.ndarray] = None,
    box: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Ewald real-space kernel ``erfc(alpha r)/r`` over a run table.

    The field kernel is ``(erfc(alpha r)/r + 2 alpha/sqrt(pi) exp(-alpha^2
    r^2)) / r^2`` times the displacement.  Pairs beyond ``cutoff`` and
    zero-distance pairs are skipped.  The run table ``(ti, si, lengths)``
    and ``box`` are those of :func:`coulomb_pairs`.  Returns ``(pot, field,
    pair_count)``.
    """
    return _pair_sums(tpos, spos, sq, ti, si, box, cutoff, _erfc_radial(alpha), lengths=lengths)


def _erfc_radial(alpha: float) -> Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    # bound here, not at import: a run that skips the solver arithmetic
    # never loads scipy
    from scipy.special import erfc

    def radial(q: np.ndarray, r2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        r = np.sqrt(r2)
        inv_r = 1.0 / r
        e = erfc(alpha * r)
        gauss = (2.0 * alpha / np.sqrt(np.pi)) * np.exp(-(alpha * alpha) * r2)
        return q * e * inv_r, q * (e * inv_r + gauss) / r2

    return radial
