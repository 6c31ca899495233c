"""Parallel FMM solver: Z-curve decomposition by parallel sorting.

Execution of one ``fcs_run`` (Sect. II-B / III of the paper); steps 1-3 are
this solver's ``_place`` hook, step 4 its ``_compute`` hook, and step 5 is
:meth:`repro.solvers.base.Solver.run`, shared by every solver:

1. **keygen** — every rank computes Z-Morton box numbers for its local
   particles.
2. **sort** — the particles (positions, charges and the consecutive initial
   numbering ``origloc``) are parallel-sorted by box number: the
   partition-based method [12] (collective all-to-all) for disordered
   input, or — when the application's maximum-movement bound says the
   particles are almost sorted — the merge-based method [15] on Batcher's
   network (point-to-point only).  Afterwards each rank owns a contiguous
   segment of the Z-order curve.
3. **halo** — copies of particles in boxes adjacent to other ranks'
   boxes are exchanged (neighborhood communication) for the near field.
4. **near/far** — direct neighbor-box sums plus the multipole tree passes.
5. method A: **restore** — potentials and fields are sent back to each
   particle's initial process and position (fine-grained redistribution +
   permutation), leaving the application's order untouched; or
   method B: the changed order is returned (if capacities allow) and
   **resort indices** are created by inverting the initial numbering — the
   additional communication step of Sect. III-B.

Far-field parallelization note: the data plane evaluates the global tree
passes once and the cost model charges each rank its share (moment
replication via an allgather-style exchange plus its owned fraction of the
per-level operator work).  This replaces a locally-essential-tree
construction; DESIGN.md §5 records the simplification.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

import numpy as np

from repro import kernels
from repro.core.fine_grained import pair_key_bits, redistribute_flat, sorted_route, stable_order
from repro.core.movement import fmm_prefers_merge_sort
from repro.core.particles import ColumnBlock, ParticleSet, RankMajor
from repro.core.resort import initial_numbering
from repro.simmpi.collectives import allgather_scalars, allgatherv, allreduce
from repro.simmpi.machine import Machine
from repro.solvers.base import Solver
from repro.solvers.fmm.tree import FMMTree, fmm_tree
from repro.solvers.fmm.tuning import choose_depth, choose_order, plan_parameters
from repro.sorting.merge_sort import merge_exchange_sort
from repro.sorting.partition_sort import partition_sort
from repro.zorder.morton import morton_decode3, morton_encode3

__all__ = ["FMMSolver"]


class FMMSolver(Solver):
    """Fast Multipole Method with Z-order-curve domain decomposition."""

    name = "fmm"

    #: the Z-curve is split at particle granularity, so ownership can be
    #: repartitioned freely — the FMM is the solver that rebalances
    supports_rebalance = True

    def __init__(
        self,
        machine: Machine,
        order: Optional[int] = None,
        depth: Optional[int] = None,
        lattice_shells: int = 3,
        boundary: str = "tinfoil",
        compute: str = "full",
        work_model: str = "uniform",
    ) -> None:
        super().__init__(machine)
        if boundary not in ("tinfoil", "vacuum"):
            raise ValueError(f"boundary must be 'tinfoil' or 'vacuum', got {boundary!r}")
        self._set_compute_mode(compute)
        if work_model not in ("uniform", "density"):
            raise ValueError(
                f"work_model must be 'uniform' or 'density', got {work_model!r}"
            )
        self._order_override = order
        self._depth_override = depth
        self.lattice_shells = int(lattice_shells)
        self.boundary = boundary
        #: near-field workload estimate used only by the skip-compute mode:
        #: ``"uniform"`` assumes homogeneous box occupancy (historical
        #: behavior, exact for the silica melt); ``"density"`` derives each
        #: rank's pair count from its actual leaf-box occupancies, which is
        #: what lets clustered systems show their imbalance without paying
        #: full force arithmetic.  Full-compute runs always count real pairs
        #: and ignore this knob.
        self.work_model = work_model
        self.tree: Optional[FMMTree] = None

    # -- solver-specific setter functions (fcs_fmm_set_*) -----------------------

    def set_order(self, order: Optional[int]) -> None:
        """Fix the expansion order (None = choose from the accuracy)."""
        if order is not None and order < 2:
            raise ValueError(f"order must be >= 2, got {order}")
        self._order_override = order
        self._tuned = False

    def set_depth(self, depth: Optional[int]) -> None:
        """Fix the tree depth (None = choose from the particle count)."""
        self._depth_override = depth
        self._tuned = False

    # -- tuning ----------------------------------------------------------------

    def tune(self, particles: ParticleSet, accuracy: float = 1e-3) -> None:
        """Choose expansion order and tree depth, obtain the operators.

        Without overrides, the model-driven planner picks the (order,
        depth) pair meeting the accuracy at minimum predicted runtime [8].
        The tree is shared with every solver tuned to the same parameters
        (:func:`repro.solvers.fmm.tree.fmm_tree`); the modeled charge is
        that of building it, hit or miss.
        """
        self.require_common()
        n = particles.total()
        if self._order_override is None and self._depth_override is None:
            plan = plan_parameters(n, accuracy, self.periodic)
            p, depth = plan.order, plan.depth
            self.last_plan = plan
        else:
            p = self._order_override or choose_order(accuracy)
            depth = self._depth_override or choose_depth(n, p, self.periodic)
            self.last_plan = None
        self.tree = fmm_tree(
            depth=depth,
            p=p,
            box=self.box,
            offset=self.offset,
            periodic=self.periodic,
            lattice_shells=self.lattice_shells,
            build_operators=self.compute_mode == "full",
        )
        # the tuning step is a small collective (parameter agreement) plus
        # local operator construction
        self.machine.barrier(phase="tune")
        self.machine.compute(
            kernels.EXPANSION_TERM * (self.tree.ncoef ** 2) * 400.0, phase="tune"
        )
        self._tuned = True

    # -- helpers ----------------------------------------------------------------

    def _make_blocks(self, particles: ParticleSet) -> RankMajor:
        """The rank-major block (key, pos, q, origloc) with keygen cost: one
        key generation over the positions of all ranks.  The sorts gather
        from it into fresh buffers, so the application's columns are handed
        over as they are."""
        counts = particles.counts()
        block = ColumnBlock(
            key=self.tree.morton_keys(particles.block["pos"]),
            pos=particles.block["pos"],
            q=particles.block["q"],
            origloc=initial_numbering(counts).data,
        )
        self.machine.compute(kernels.KEY_GENERATION * counts, phase="keygen")
        return RankMajor(block, particles.offsets)

    def _attach_weights(self, blocks: RankMajor) -> None:
        """Attach a per-particle ``weight`` column: modeled execution cost.

        One allgather of the local key arrays (phase ``"balance"``) gives
        every rank the global box histogram.  A particle's weight is its
        modeled per-particle execution cost — the linked-cell near-field
        pair estimate (``27 * occupancy`` interactions, the occupancy read
        from the global box histogram) plus the
        per-particle far-field share (P2M/L2P plus an even split of the
        tree-pass operator cost, which :meth:`_charge_far_field` charges
        proportionally to owned counts).  Balancing the weight column
        therefore balances the modeled near+far compute, not just the pair
        sums: a near-only weight would starve dense-box ranks of particles
        and pile count-proportional far-field work onto the sparse ranks.
        """
        machine = self.machine
        gathered = allgatherv(machine, blocks.column("key"), "balance")
        all_keys = gathered[0]
        n_total = int(all_keys.shape[0])
        uniq, counts = np.unique(all_keys, return_counts=True)
        far_stats = self._estimate_far_stats(n_total)
        op_cost = (
            (far_stats.m2m_ops + far_stats.l2l_ops + far_stats.m2l_ops)
            * far_stats.ncoef
            * far_stats.ncoef
        ) * kernels.EXPANSION_TERM
        far_per_particle = far_stats.ncoef * kernels.EXPANSION_TERM * 2.0
        if n_total:
            far_per_particle += op_cost / n_total
        histogram_cost = kernels.KEY_SORT_STEP * n_total * max(
            1.0, float(np.log2(max(n_total, 2)))
        )
        idx = np.searchsorted(uniq, blocks.data["key"])
        near = kernels.PAIR_INTERACTION * 27.0 * counts[idx].astype(np.float64)
        blocks.data["weight"] = near + far_per_particle
        machine.compute(np.full(machine.nprocs, histogram_cost), phase="balance")

    def _sort(
        self,
        blocks: RankMajor,
        max_move: Optional[float],
        *,
        rebalance: bool = False,
    ) -> Tuple[RankMajor, str]:
        """Parallel sort by box number, picking the strategy per Sect. III-B.

        ``rebalance=True`` forces the partition-based method with weighted
        split bounds (the ``weight`` column must be attached): a rebalance
        moves ownership anyway, so the merge network's almost-sorted
        shortcut does not apply.
        """
        if rebalance:
            sorted_blocks = partition_sort(
                self.machine, blocks, "key", phase="sort", balance_key="weight"
            )
            return sorted_blocks, "partition+balance"
        use_merge = (
            max_move is not None
            and fmm_prefers_merge_sort(self.box, self.machine.nprocs, max_move)
        )
        if use_merge:
            sorted_blocks, ok = merge_exchange_sort(
                self.machine, blocks, "key", phase="sort"
            )
            if ok:
                return sorted_blocks, "merge"
            # the block network only guarantees equal-size blocks; on the
            # rare verification failure, re-partition the (almost sorted)
            # result — cheap, since nearly nothing moves
            sorted_blocks = partition_sort(
                self.machine, sorted_blocks, "key", phase="sort", presorted=True
            )
            return sorted_blocks, "merge+fallback"
        sorted_blocks = partition_sort(self.machine, blocks, "key", phase="sort")
        return sorted_blocks, "partition"

    def _ownership(self, blocks: RankMajor) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Allgather per-rank (min key, max key); empty ranks are skipped.

        Returns ``(rank_ids, min_keys, max_keys)`` of the non-empty ranks in
        rank order (which is also key order after the sort).
        """
        P = self.machine.nprocs
        keys, offsets = blocks.data["key"], blocks.offsets
        nonempty = np.flatnonzero(blocks.counts)
        min_keys = keys[offsets[nonempty]]
        max_keys = keys[offsets[nonempty + 1] - 1]
        mins = np.zeros(P, dtype=np.float64)
        maxs = np.zeros(P, dtype=np.float64)
        mins[nonempty] = min_keys
        maxs[nonempty] = max_keys
        # two scalar allgathers (the sort already synchronized everyone)
        allgather_scalars(self.machine, mins, phase="halo")
        allgather_scalars(self.machine, maxs, phase="halo")
        return nonempty, min_keys.astype(np.uint64), max_keys.astype(np.uint64)

    def _owners_of_keys(
        self,
        keys: np.ndarray,
        rank_ids: np.ndarray,
        min_keys: np.ndarray,
        max_keys: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """All (key_index, owner_rank) pairs for box keys.

        A box can straddle consecutive ranks (the sort splits at particle
        granularity), so a key may have several owners.
        """
        lo = np.searchsorted(max_keys, keys, side="left")
        hi = np.searchsorted(min_keys, keys, side="right")
        counts = np.maximum(hi - lo, 0)
        ki = np.repeat(np.arange(keys.shape[0]), counts)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        within = np.arange(int(counts.sum())) - offsets[np.repeat(np.arange(keys.shape[0]), counts)]
        owners = rank_ids[lo[ki] + within]
        return ki, owners

    def _halo_exchange(
        self,
        blocks: RankMajor,
        ownership: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> RankMajor:
        """Send boundary-box particle copies to ranks owning adjacent boxes
        (charged in full; delivered only when the near field runs)."""
        rank_ids, min_keys, max_keys = ownership
        P = self.machine.nprocs
        nside = self.tree.nside_leaf
        halo_in = RankMajor(blocks.data.drop("origloc"), blocks.offsets)
        keys = blocks.data["key"]
        rank = np.repeat(np.arange(P, dtype=np.int64), blocks.counts)
        # one box per run of equal (rank, key) over the rank-major rows
        # (each rank's keys are sorted)
        new_box = np.ones(keys.shape[0], dtype=bool)
        new_box[1:] = (keys[1:] != keys[:-1]) | (rank[1:] != rank[:-1])
        first = np.flatnonzero(new_box)
        last = np.append(first[1:], keys.shape[0])
        box_rank = rank[first]
        # per axis, the (boxes, 26) table of neighbor box coordinates
        directions = np.asarray(
            [d for d in itertools.product((-1, 0, 1), repeat=3) if d != (0, 0, 0)],
            dtype=np.int64,
        )
        nbr = [
            c.astype(np.int64)[:, None] + directions[:, axis]
            for axis, c in enumerate(morton_decode3(keys[first]))
        ]
        if self.periodic:
            for coord in nbr:
                coord &= nside - 1  # ``% nside`` on a power of two
            inside = slice(None)
        else:
            # negative coordinates are huge as unsigned
            inside = np.flatnonzero(
                (nbr[0].view(np.uint64) < nside)
                & (nbr[1].view(np.uint64) < nside)
                & (nbr[2].view(np.uint64) < nside)
            )
        ki, owners = self._owners_of_keys(
            morton_encode3(*(coord.ravel()[inside] for coord in nbr)),
            rank_ids, min_keys, max_keys,
        )
        box = (ki if self.periodic else inside[ki]) // directions.shape[0]
        remote = owners != box_rank[box]
        # the distinct (box, destination) pairs in route order, by (source
        # rank, destination, box), as one packed int64 each; every row of a
        # box goes where the box goes, so the rows come out in route order
        # with no sort of their own
        rank_bits, box_bits = pair_key_bits(P, first.shape[0])
        box = box[remote]
        packed = box_rank[box] << rank_bits
        packed |= owners[remote]
        packed <<= box_bits
        packed |= box
        packed.sort()
        distinct = np.ones(packed.shape[0], dtype=bool)
        distinct[1:] = packed[1:] != packed[:-1]
        packed = packed[distinct]
        box = packed & ((1 << box_bits) - 1)
        packed >>= box_bits
        seg_len = (last - first)[box]
        if self.compute_mode == "skip":
            # only the near field reads a halo copy: every message is charged
            # its rows by count and lists none
            none = np.empty(0, dtype=np.int64)
            route = sorted_route(packed, 1 << rank_bits, none, sent=seg_len, listed=(none, none))
        else:
            seg_end = np.cumsum(seg_len)
            elems = np.repeat(first[box] - (seg_end - seg_len), seg_len) + np.arange(
                int(seg_len.sum())
            )
            route = sorted_route(packed, 1 << rank_bits, elems, rows=seg_len)
        return redistribute_flat(self.machine, halo_in.data, route, "halo", "neighborhood")

    def _estimate_far_stats(self, n_total: int):
        """Analytic far-field workload for the skip-compute mode."""
        from repro.solvers.fmm.tree import FarFieldStats

        stats = FarFieldStats(ncoef=self.tree.ncoef)
        stats.p2m_particles = n_total
        stats.l2p_particles = n_total
        for level in range(2, self.tree.depth + 1):
            nboxes = (1 << level) ** 3
            if level == 2 and self.periodic:
                stats.m2l_ops += nboxes * 343
            else:
                stats.m2l_ops += nboxes * 189
            if level < self.tree.depth:
                stats.m2m_ops += nboxes * 8
                stats.l2l_ops += nboxes * 8
        return stats

    def _charge_far_field(self, stats, owned_counts: np.ndarray, nonzero_leaves: int) -> None:
        """Charge the far-field comm (moment replication) and compute."""
        machine = self.machine
        P = machine.nprocs
        model = machine.model
        ncoef = stats.ncoef
        # moment replication: allgather-style exchange of nonzero leaf moments
        nbytes = float(nonzero_leaves * ncoef * 8)
        machine.synchronize()
        t = model.tree_collective_time(P, 0.0, machine.topology.diameter())
        t += nbytes / model.bandwidth if P > 1 else 0.0
        machine.advance(t, "far", messages=2 * max(0, P - 1), nbytes=int(nbytes) * (P - 1))
        # compute: per-particle work by local counts, per-box work by share
        total = float(owned_counts.sum())
        share = owned_counts / total if total else np.zeros(P)
        op_cost = (
            (stats.m2m_ops + stats.l2l_ops + stats.m2l_ops) * ncoef * ncoef
        ) * kernels.EXPANSION_TERM
        per_particle = (
            owned_counts * ncoef * kernels.EXPANSION_TERM * 2.0
        )  # P2M + L2P
        machine.compute(per_particle + share * op_cost, phase="far")

    # -- the hooks of Solver.run ------------------------------------------------------

    def _place(self, particles: ParticleSet, max_move: Optional[float]):
        """keygen, parallel sort (weighted when a rebalance is due), halo."""
        machine = self.machine
        rebalance = (
            self._rebalance_pending and self._load_balance != "off" and machine.nprocs > 1
        )
        self._rebalance_pending = False
        blocks = self._make_blocks(particles)
        if rebalance:
            self._attach_weights(blocks)
            blocks, strategy = self._sort(blocks, max_move, rebalance=True)
            blocks = RankMajor(blocks.data.drop("weight"), blocks.offsets)
            machine.count("balance.rebalances")
            if machine.obs is not None:
                machine.obs.mark("balance.rebalance", op="balance")
        else:
            blocks, strategy = self._sort(blocks, max_move)
        halo = self._halo_exchange(blocks, self._ownership(blocks))
        return blocks, halo, "alltoall", strategy

    def _near_field(self, blocks: RankMajor, halo: RankMajor):
        """Direct neighbor-box sums, rank by rank: owned targets against
        owned + halo sources, merged in key order.  The kernel keeps its
        per-rank call shape, on views of the two stores."""
        n = blocks.data.n
        pot, field, pairs = np.zeros(n), np.zeros((n, 3)), np.zeros(len(blocks))
        starts = blocks.offsets.tolist()
        for r, (own, far) in enumerate(zip(blocks, halo)):
            if not own.n:
                continue
            src = own
            if far.n:
                src = {name: np.concatenate([own[name], far[name]]) for name in far}
                order = stable_order(src["key"])
                if order is not None:
                    src = {name: column[order] for name, column in src.items()}
            pot[starts[r]:starts[r + 1]], field[starts[r]:starts[r + 1]], pairs[r] = (
                self.tree.near_field_morton(own["pos"], own["key"], src["pos"], src["q"], src["key"])
            )
        return pot, field, kernels.PAIR_INTERACTION * pairs

    def _compute(self, blocks: RankMajor, halo: RankMajor):
        """Near field per rank, global far field, boundary condition."""
        machine = self.machine
        new_counts = blocks.counts
        n_total = blocks.data.n
        # --- near field: owned targets vs owned + halo sources ------------------
        if self.compute_mode != "skip":
            pot, field, near_cost = self._near_field(blocks, halo)
        else:
            pot, field = np.zeros(n_total), np.zeros((n_total, 3))
            if self.work_model == "density":
                # pair estimate from actual leaf occupancy: a box of k
                # particles contributes ~27 k^2 neighborhood pairs (the
                # sort makes boxes rank-contiguous, so local counts are
                # the global ones up to boundary boxes)
                keys = blocks.data["key"]
                rank = np.repeat(np.arange(machine.nprocs), new_counts)
                new_box = np.ones(n_total, dtype=bool)
                new_box[1:] = (keys[1:] != keys[:-1]) | (rank[1:] != rank[:-1])
                first = np.flatnonzero(new_box)
                box_counts = np.diff(np.append(first, n_total)).astype(np.float64)
                near_cost = kernels.PAIR_INTERACTION * 27.0 * np.bincount(
                    rank[first], weights=np.square(box_counts), minlength=machine.nprocs
                )
            else:
                # analytic pair estimate: homogeneous occupancy over the
                # populated neighborhood
                occupancy = float(n_total) / self.tree.nboxes_leaf
                near_cost = kernels.PAIR_INTERACTION * new_counts * 27.0 * max(occupancy, 1.0)
        machine.compute(near_cost, phase="near")

        # --- far field: global data plane, per-rank cost model --------------
        if self.compute_mode == "skip":
            stats = self._estimate_far_stats(n_total)
            self._charge_far_field(
                stats,
                new_counts.astype(np.float64),
                min(self.tree.nboxes_leaf, n_total),
            )
            return pot, field
        gpos, gq = blocks.data["pos"], blocks.data["q"]
        linear = self.tree.linear_of_morton(blocks.data["key"])
        pot_far, field_far, stats = self.tree.far_field(gpos, gq, linear)
        self._charge_far_field(
            stats, new_counts.astype(np.float64), int(np.unique(linear).shape[0])
        )
        pot, field = pot + pot_far, field + field_far

        # --- boundary condition ----------------------------------------------
        if self.periodic and self.boundary == "tinfoil":
            volume = float(np.prod(self.box))
            # per-rank partial dipoles, summed by the allreduce: the
            # application's order of additions, kept
            local_dipole = [
                (q[:, None] * pos).sum(axis=0)
                for q, pos in zip(blocks.column("q"), blocks.column("pos"))
            ]
            dipole = np.asarray(allreduce(machine, local_dipole, op="sum", phase="far"))
            coef = 4.0 * np.pi / (3.0 * volume)
            bounds = blocks.offsets.tolist()
            for a, b in zip(bounds[:-1], bounds[1:]):
                pot[a:b] -= coef * (gpos[a:b] @ dipole)
            field = field + coef * dipole
        return pot, field
