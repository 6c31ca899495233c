"""The rank-by-rank bodies the flat particle store replaced, kept as oracles.

Before distributed per-particle data became one rank-major block plus
``offsets`` (:class:`repro.core.particles.RankMajor`), the integrator, the
brownian rotate, ``local_sort``, the merge tail of ``partition_sort``,
``FMMSolver._make_blocks`` and the hand-back of ``Solver.run`` each held a
``for`` over the ranks and a list of P arrays or blocks.  Those bodies are
moved here verbatim (``*_ranks``); what had to change is marked *adapted*:
a vanished API (``ParticleSet.replace``) or the boundary where a flat value
is cut into the per-rank list the old body expects.

``tests/core/test_store_oracles.py`` holds the flat versions to them bit
for bit — values, charges, and the RNG state after the call — and the
``oracle_store`` fixture (``tests/conftest.py``) rebinds them into a run so
the goldens can be asserted on the per-rank bodies a second time.  Nothing
under ``src/`` imports this module.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from redistribution_oracles import invert_indices_loop, restore_results_loop
from repro import kernels
from repro.core.balance import work_split_bounds
from repro.core.fine_grained import fine_grained_redistribute
from repro.core.particles import ColumnBlock, ParticleSet, RankMajor
from repro.core.resort import initial_numbering
from repro.simmpi.collectives import allreduce
from repro.simmpi.machine import Machine
from repro.solvers.base import RunReport
from repro.sorting.partition_sort import partition_destinations, select_splitters

# -- md/integrator.py -----------------------------------------------------------------


def accelerations_ranks(
    q: Sequence[np.ndarray],
    field: Sequence[np.ndarray],
    mass: float = 1.0,
) -> List[np.ndarray]:
    """Per-rank accelerations ``a = q E / m`` from solver field values."""
    return [(qi[:, None] * fi) / mass for qi, fi in zip(q, field)]


def position_update_ranks(
    machine: Machine,
    pos: Sequence[np.ndarray],
    vel: Sequence[np.ndarray],
    acc: Sequence[np.ndarray],
    dt: float,
    box: Optional[np.ndarray] = None,
    offset: Optional[np.ndarray] = None,
    phase: str = "integrate",
) -> Tuple[List[np.ndarray], float]:
    """Leapfrog position update; returns new positions and the *global*
    maximum displacement (one allreduce, charged to the integrator phase)."""
    new_pos: List[np.ndarray] = []
    local_max = np.zeros(machine.nprocs)
    cost = np.zeros(machine.nprocs)
    for r, (x, v, a) in enumerate(zip(pos, vel, acc)):
        step = v * dt + 0.5 * a * dt * dt
        xn = x + step
        if box is not None:
            off = offset if offset is not None else np.zeros(3)
            xn = off + np.mod(xn - off, box)
        new_pos.append(xn)
        if x.shape[0]:
            local_max[r] = float(np.sqrt((step * step).sum(axis=1).max()))
        cost[r] = kernels.INTEGRATION_STEP * x.shape[0]
    machine.compute(cost, phase)
    max_move = float(allreduce(machine, local_max, op="max", phase=phase))
    return new_pos, max_move


def velocity_update_ranks(
    machine: Machine,
    vel: Sequence[np.ndarray],
    acc_old: Sequence[np.ndarray],
    acc_new: Sequence[np.ndarray],
    dt: float,
    phase: str = "integrate",
) -> List[np.ndarray]:
    """Leapfrog velocity update ``v += (a_i + a_{i+1}) dt / 2``."""
    out: List[np.ndarray] = []
    cost = np.zeros(machine.nprocs)
    for r, (v, a0, a1) in enumerate(zip(vel, acc_old, acc_new)):
        out.append(v + 0.5 * (a0 + a1) * dt)
        cost[r] = kernels.INTEGRATION_STEP * v.shape[0]
    machine.compute(cost, phase)
    return out


# -- md/simulation.py: the brownian surrogate ------------------------------------------


def _rotate_directions_rank(rng: np.random.Generator, vel: np.ndarray, speed: float) -> np.ndarray:
    """``Simulation._rotate_directions`` (``self._rng`` is the argument)."""
    if vel.shape[0] == 0:
        return vel
    jitter = 0.3 * rng.normal(size=vel.shape)
    v = vel / max(speed, 1e-300) + jitter
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    return v / norm * speed


def rotate_directions_ranks(
    rng: np.random.Generator, vel: Sequence[np.ndarray], speed: float
) -> List[np.ndarray]:
    """The brownian branch of ``Simulation.step``: one draw per rank."""
    return [_rotate_directions_rank(rng, v, speed) for v in vel]


# -- sorting/merge_sort.py, sorting/partition_sort.py ---------------------------------


def local_sort_ranks(
    machine: Machine,
    blocks: Sequence[ColumnBlock],
    key: str,
    phase: Optional[str] = None,
) -> List[ColumnBlock]:
    """Stable per-rank sort of every block by its ``key`` column."""
    out: List[ColumnBlock] = []
    cost = np.zeros(machine.nprocs, dtype=np.float64)
    for r, block in enumerate(blocks):
        keys = block[key]
        order = np.argsort(keys, kind="stable")
        out.append(block.take(order))
        n = keys.shape[0]
        if n > 1:
            # adaptive (timsort-like) cost: nearly sorted runs cost a single
            # pass, disordered data the full n log n — this is what makes
            # method B's steady-state local sorts cheap
            disorder = float(np.count_nonzero(keys[1:] < keys[:-1])) / (n - 1)
            cost[r] = kernels.SORT_STEP * n * (1.0 + disorder * np.log2(n))
    machine.compute(cost, phase)
    return out


def partition_sort_ranks(
    machine: Machine,
    blocks: Sequence[ColumnBlock],
    key: str,
    phase: Optional[str] = None,
    *,
    target_counts: Optional[Sequence[int]] = None,
    oversampling: int = 32,
    presorted: bool = False,
    balance_key: Optional[str] = None,
) -> List[ColumnBlock]:
    """``partition_sort`` on lists of blocks, with its per-rank merge tail.
    *Adapted*: ``local_sort`` is :func:`local_sort_ranks`, and what
    ``fine_grained_redistribute`` delivers is listed rank by rank."""
    if len(blocks) != machine.nprocs:
        raise ValueError(f"{len(blocks)} blocks for {machine.nprocs} ranks")
    if balance_key is not None and target_counts is not None:
        raise ValueError("pass either balance_key or target_counts, not both")
    P = machine.nprocs
    current = list(blocks) if presorted else local_sort_ranks(machine, blocks, key, phase)
    if balance_key is None:
        if target_counts is None:
            target_counts = [b.n for b in current]
        else:
            target_counts = [int(c) for c in target_counts]
            total = sum(b.n for b in current)
            if sum(target_counts) != total:
                raise ValueError(
                    f"target_counts sum {sum(target_counts)} != total elements {total}"
                )
    if P == 1:
        return current

    select_splitters(
        machine,
        [b[key] for b in current],
        oversampling,
        phase,
        weights=None if balance_key is None else [b[balance_key] for b in current],
    )
    machine.collective(
        machine.model.tree_collective_time(P, 16.0, machine.topology.diameter()),
        phase,
        messages=2 * (P - 1),
    )

    all_keys = np.concatenate([b[key] for b in current])
    order = np.argsort(all_keys, kind="stable")  # stable = (rank, pos) tie order
    if balance_key is not None:
        all_weights = np.concatenate([b[balance_key] for b in current])
        bounds = work_split_bounds(all_weights[order], P)
    else:
        bounds = np.concatenate(
            ([0], np.cumsum(np.asarray(target_counts, dtype=np.int64)))
        )
    dest = partition_destinations(order, bounds)
    received = list(fine_grained_redistribute(machine, current, dest, phase))

    # every destination merges one sorted run per source that sent it rows:
    # count the distinct (source, destination) pairs, which change rarely
    # along the locally sorted rows
    pair = np.repeat(np.arange(P, dtype=np.int64) * P, [b.n for b in current]) + dest
    pair = pair[np.diff(pair, prepend=-1) != 0]
    runs = np.bincount(np.unique(pair) % P, minlength=P).tolist()
    out: List[ColumnBlock] = []
    merge_cost = np.zeros(P, dtype=np.float64)
    for dst, block in enumerate(received):
        merged = block.take(np.argsort(block[key], kind="stable"))
        out.append(merged)
        if merged.n > 1:
            # k-way merge of sorted runs: n log k
            merge_cost[dst] = kernels.SORT_STEP * merged.n * np.log2(max(runs[dst], 2))
    machine.compute(merge_cost, phase)
    return out


# -- solvers/fmm/solver.py ---------------------------------------------------------------


def make_blocks_ranks(self, particles: ParticleSet) -> List[ColumnBlock]:
    """``FMMSolver._make_blocks``: per-rank blocks (key, pos, q, origloc)
    with keygen cost."""
    numbering = initial_numbering(particles.counts())
    blocks: List[ColumnBlock] = []
    cost = np.zeros(self.machine.nprocs)
    for r in range(self.machine.nprocs):
        keys = self.tree.morton_keys(particles.pos[r])
        blocks.append(
            ColumnBlock(
                key=keys,
                pos=particles.pos[r].copy(),
                q=particles.q[r].copy(),
                origloc=numbering[r],
            )
        )
        cost[r] = kernels.KEY_GENERATION * keys.shape[0]
    self.machine.compute(cost, phase="keygen")
    return blocks


# -- solvers/base.py ---------------------------------------------------------------------


def require_finite_ranks(particles: ParticleSet) -> None:
    """``Solver.require_finite``: one reduction per rank and array."""
    for rank, (pos, q) in enumerate(zip(particles.pos, particles.q)):
        if not math.isfinite(pos.sum() + q.sum()):
            raise ValueError(f"rank {rank}: non-finite particle position or charge")


def solver_run_ranks(
    self,
    particles: ParticleSet,
    *,
    resort: bool = False,
    max_move: Optional[float] = None,
) -> RunReport:
    """``Solver.run`` with its per-rank hand-back.  *Adapted*: what the flat
    hooks return is cut into the per-rank lists the old glue worked on; the
    P calls of the vanished ``ParticleSet.replace`` became one
    ``install`` of the same P blocks; the two scatters are the loops of
    ``tests/redistribution_oracles.py``."""
    self.require_common()
    if not self._tuned:
        raise RuntimeError("fcs_tune must run before fcs_run")
    require_finite_ranks(particles)
    old_counts = particles.counts()
    placed, ghosts, comm, strategy = self._place(particles, max_move)
    blocks = list(placed)
    new_counts = np.asarray([b.n for b in blocks], dtype=np.int64)
    pot, field = self._compute(placed, ghosts)
    pots = list(RankMajor(pot, placed.offsets))
    fields = list(RankMajor(field, placed.offsets))

    origin = [b[self.origin_column] for b in blocks]
    counts = [int(c) for c in old_counts]
    ran = dict(old_counts=old_counts, strategy=strategy, comm=comm)
    if resort and particles.fits(new_counts):
        particles.install(
            ColumnBlock.concat([
                ColumnBlock(pos=b["pos"], q=b["q"], pot=pots[r], field=fields[r])
                for r, b in enumerate(blocks)
            ]),
            placed.offsets,
        )
        indices = invert_indices_loop(
            self.machine, origin, counts, phase="resort_index", comm=comm
        )
        return RunReport(changed=True, resort_indices=indices, new_counts=new_counts, **ran)
    restore_results_loop(
        self.machine, origin, pots, fields, particles, counts, phase="restore"
    )
    return RunReport(changed=False, new_counts=old_counts, **ran)
