"""Elastic rank-resize: redistribute a checkpoint from P to Q ranks.

The enabling observation (Sudarsan & Ribbens, "Efficient Multidimensional
Data Redistribution for Resizable Parallel Computations"): a P→Q resize is
*just another redistribution*, so the paper's fine-grained machinery applies
unchanged.  A :class:`ResizePlan` is compiled onto the
:class:`~repro.core.plan.ResortPlan` engine over a scratch machine with
``max(P, Q)`` ranks (the superset on which both layouts exist — source
ranks ≥ P hold nothing, target ranks ≥ Q receive nothing) and moves **all
seven checkpointed particle columns, each in its own dtype, in one
exchange**.

Target layout: the **canonical (globally id-ordered) decomposition** for Q
ranks.  Partition bounds come from :mod:`repro.core.balance` —
:func:`~repro.core.balance.count_split_bounds` by default (bitwise the
historical ``floor(i*n/Q)`` splits), or
:func:`~repro.core.balance.work_split_bounds` when per-particle weights (in
global id order) are supplied.  Particle with global id ``g`` lands on the
rank ``t`` whose half-open bound interval contains ``g``, at local position
``g - bounds[t]`` — so the result is id-sorted within every rank.
Consequences, all pinned by the property suite:

* resize is **permutation-safe**: any two checkpoints holding the same
  particles (however scattered over source ranks) resize to the identical
  per-rank layout;
* resize is **empty-rank-safe**: ``Q > n_particles`` simply leaves the top
  ranks empty;
* P→Q→P round-trips are **bitwise identity** on every column once the
  source layout is canonical (and identical on the id-gathered view
  always — the layout-independent statement of "restores every column").

Rank-count-specific bookkeeping cannot survive a resize and is reset: the
cached :class:`ResortPlan`/last report are dropped (their resort indices
address P ranks), the per-rank trace ``rank_work`` vectors are dropped
(shape P), capacities are recomputed for Q ranks, and the Q clocks all
start at the checkpoint's elapsed (max) clock — the machine-model analogue
of "every new rank joins at the wall time the old allocation stopped".
Aggregate history (trace phases/counters, auditor ledgers, step records,
RNG, monitor) is carried over unchanged.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro.ckpt.checkpoint import COLUMNS, Checkpoint
from repro.core.balance import count_split_bounds, work_split_bounds
from repro.core.particles import RankMajor
from repro.core.resort import pack_resort_index

__all__ = ["ResizePlan", "compile_resize_plan", "resize_checkpoint"]


@dataclasses.dataclass
class ResizePlan:
    """A compiled P→Q redistribution schedule for checkpoint columns."""

    old_nprocs: int
    new_nprocs: int
    n_particles: int
    #: ``new_nprocs + 1`` monotone global-id partition bounds of the target
    bounds: np.ndarray
    #: per-source-rank packed (target rank, target position) indices on the
    #: ``max(P, Q)``-rank scratch superset (ranks ≥ P are empty)
    resort_indices: List[np.ndarray]
    old_counts: List[int]
    new_counts: List[int]
    #: inter-rank payload bytes of the fused exchange (filled by
    #: :func:`resize_checkpoint`; 0 until executed)
    moved_bytes: int = 0

    @property
    def scratch_nprocs(self) -> int:
        return max(self.old_nprocs, self.new_nprocs)


def compile_resize_plan(
    ckpt: Checkpoint,
    new_nprocs: int,
    *,
    weights: Optional[np.ndarray] = None,
) -> ResizePlan:
    """Compile the P→Q schedule for ``ckpt`` (no data is moved yet).

    ``weights``, when given, are per-particle work estimates **in global id
    order** (length ``n_particles``); the target bounds then equalize work
    via :func:`~repro.core.balance.work_split_bounds` instead of counts.
    """
    Q = int(new_nprocs)
    if Q < 1:
        raise ValueError(f"new_nprocs must be >= 1, got {new_nprocs}")
    P = ckpt.nprocs
    n = ckpt.n_particles
    all_ids = (
        np.concatenate(ckpt.ids) if ckpt.ids else np.zeros(0, dtype=np.int64)
    )
    if not np.array_equal(np.sort(all_ids), np.arange(n, dtype=np.int64)):
        raise ValueError(
            "checkpoint ids are not a permutation of 0..n-1; cannot derive "
            "a canonical target layout"
        )
    if weights is None:
        bounds = count_split_bounds(n, Q)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError(
                f"weights must be per-particle in global id order, "
                f"expected shape ({n},), got {w.shape}"
            )
        bounds = work_split_bounds(w, Q)

    # one pack over all ids; ranks >= P of the scratch superset hold nothing
    R = max(P, Q)
    old_counts = [int(g.shape[0]) for g in ckpt.ids] + [0] * (R - P)
    target_rank = np.searchsorted(bounds, all_ids, side="right") - 1
    packed = pack_resort_index(target_rank, all_ids - bounds[target_rank])
    resort_indices = RankMajor(packed, np.concatenate(([0], np.cumsum(old_counts))))
    new_counts = [
        int(bounds[t + 1] - bounds[t]) if t < Q else 0 for t in range(R)
    ]
    return ResizePlan(
        old_nprocs=P,
        new_nprocs=Q,
        n_particles=n,
        bounds=bounds,
        resort_indices=resort_indices,
        old_counts=old_counts,
        new_counts=new_counts,
    )


def resize_checkpoint(
    ckpt: Checkpoint,
    new_nprocs: int,
    *,
    weights: Optional[np.ndarray] = None,
    metrics=None,
) -> Tuple[Checkpoint, ResizePlan]:
    """Redistribute ``ckpt`` onto ``new_nprocs`` ranks.

    Compiles a :class:`ResizePlan` and executes it as **one fused
    seven-column exchange** on a scratch machine (the scratch machine's
    costs are modeling scaffolding and are discarded — resizing happens
    offline, between runs).  Returns the new Q-rank checkpoint and the
    executed plan; ``plan.moved_bytes`` reports the inter-rank payload and
    is also fed to ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) as ``resize.moved_bytes``
    when one is passed.
    """
    from repro.core.plan import ResortPlan
    from repro.simmpi.machine import Machine

    plan = compile_resize_plan(ckpt, new_nprocs, weights=weights)
    P, Q, R = plan.old_nprocs, plan.new_nprocs, plan.scratch_nprocs
    scratch = Machine(R)
    engine = ResortPlan(
        scratch,
        plan.resort_indices,
        plan.old_counts,
        plan.new_counts,
        comm="alltoall",
        phase="resize",
    )
    # the ranks the scratch superset adds hold nothing: repeated end offsets
    store = ckpt.store()
    offsets = np.concatenate((store.offsets, np.full(R - P, store.offsets[-1])))
    out_cols = engine.execute(
        [RankMajor(store.data[name], offsets) for name in COLUMNS], phase="resize"
    )
    plan.moved_bytes = engine.stats.bytes_moved
    if metrics is not None:
        metrics.counter("resize.moved_bytes").inc(plan.moved_bytes)
        metrics.counter("resize.count").inc()

    n = plan.n_particles
    cfg_capacity = float(ckpt.config.get("capacity_factor", 3.0))
    per_rank = max(1, -(-n // Q))
    base_cap = int(np.ceil(cfg_capacity * per_rank))
    elapsed = float(ckpt.machine["clocks"].max()) if P else 0.0
    # everything not named here — aggregate history — is carried over
    resized = dataclasses.replace(
        ckpt,
        nprocs=Q,
        capacities=[max(base_cap, c, 1) for c in plan.new_counts[:Q]],
        # the cached plan/report key resort indices for P ranks — stale by
        # construction; the resumed run recompiles on its first changed run
        fcs={**ckpt.fcs, "has_plan": False, "report": None},
        # per-rank work vectors have shape P and cannot be reinterpreted on
        # Q ranks; the balance monitor restarts its observation window
        machine={
            "clocks": np.full(Q, elapsed, dtype=np.float64),
            "trace": {**ckpt.machine["trace"], "rank_work": {}},
        },
        **{name: list(out_cols[c])[:Q] for c, name in enumerate(COLUMNS)},
    )
    # the resized checkpoint shares no object with its source
    return copy.deepcopy(resized), plan
