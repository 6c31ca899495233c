"""Parallel P2NFFT-style solver: Cartesian process-grid decomposition.

Execution of one ``fcs_run`` (Sect. II-C / III of the paper); steps 1-2 are
:class:`GridSolver`, shared with the classical Ewald solver, step 3 is
:class:`P2NFFTSolver`, and step 4 is
:meth:`repro.solvers.base.Solver.run`, shared by every solver:

1. **sort** (the solver's particle data redistribution) — every particle is
   sent to the grid rank owning its position, carrying a packed 64-bit
   index value (source rank, source position); particles close to
   subdomain boundaries are *duplicated* to the neighboring ranks as ghost
   particles, all within one fine-grained data redistribution with a
   user-defined distribution function [13, 14].  When the application's
   maximum-movement bound limits the redistribution to direct grid
   neighbors, the all-to-all is replaced by neighborhood point-to-point
   communication (Sect. III-B).
2. **near** — linked-cell Ewald real-space sums of owned particles against
   owned + ghosts.
3. **mesh/fft** — the Fourier-space part on the global mesh; the data plane
   evaluates one global FFT while the cost model charges the distributed
   pencil-FFT compute and transpose communication.
4. method A: **restore** — potentials and fields return to the original
   order and distribution via the index values; or method B: ghosts are
   dropped, the redistributed particle data is returned in place, and
   resort indices are created by inverting the index values.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.core.fine_grained import (
    exchange_route,
    pair_key_bits,
    redistribute_flat,
    sorted_route,
)
from repro.core.geometry import wrap_into_box
from repro.core.movement import p2nfft_prefers_neighborhood
from repro.core.particles import ColumnBlock, ParticleSet, RankMajor
from repro.core.resort import initial_numbering
from repro.simmpi.cart import CartGrid
from repro.simmpi.collectives import Exchange
from repro.simmpi.machine import Machine
from repro.solvers.base import Solver
from repro.solvers.p2nfft.linked_cell import LinkedCellNearField
from repro.solvers.p2nfft.mesh import MeshSolver, mesh_solver
from repro.solvers.p2nfft.tuning import (
    optimize_cutoff,
    suggest_cutoff,
    tune_ewald_splitting,
)

__all__ = ["GridSolver", "P2NFFTSolver", "ghost_distribution", "charge_parallel_fft"]


def _near_rank_task(near, tpos, spos, sq):
    """One rank's near-field evaluation, as an execution-backend task.

    Top-level so worker processes can import it by dotted path; ``near``
    (the shared :class:`LinkedCellNearField` geometry) ships once per
    fan-out.  Pure and deterministic — backend results are bitwise those of
    calling ``near.compute`` inline.
    """
    return near.compute(tpos, spos, sq)


def _cell_columns(grid: CartGrid, pos: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per axis, as contiguous columns: the cell coordinate of every position
    (wrapped into the box) and the position within that cell, in
    ``[-ulp, cell)``."""
    # one (3, n) buffer: its transpose is the (n, 3) positions, its rows
    # contiguous columns
    w = np.subtract(pos.T, grid.offset[:, None], out=np.empty((3, pos.shape[0])))
    for axis, rows in enumerate(wrap_into_box(w.T, grid.box)):
        # a position a hair below the lower face wraps *onto* the box edge in
        # floating point (``np.mod(-1e-18, L) == L``); the edge is the lower
        # face.  Only a row the wrap touched can be on it.
        edge = rows[~(w[axis, rows] < grid.box[axis])]
        w[axis, edge] = 0.0
    wrapped = np.add(w, grid.offset[:, None], out=w)
    cells = grid.cell_of_positions(wrapped.T)
    cell_k, rel = [], []
    for k in range(3):
        cell_k.append(cells[:, k])
        rel_k = wrapped[k] - grid.offset[k]
        rel_k -= cell_k[k] * grid.cell[k]
        # a position a hair below the upper face can round *up* into cell
        # ``dims``, which wraps to 0: measured from the cell it fell in, it
        # lies an ulp below that cell's lower face, not a box length above it
        up = np.flatnonzero(rel_k >= grid.cell[k])
        up = up[cell_k[k][up] == 0]
        rel_k[up] = wrapped[k, up] - grid.offset[k] - grid.dims[k] * grid.cell[k]
        rel.append(rel_k)
    return cell_k, rel


def ghost_distribution(
    grid: CartGrid,
    pos: np.ndarray,
    rc: float,
    row_offsets: np.ndarray,
    counted: bool = False,
) -> Tuple[Exchange, np.ndarray]:
    """``(route, owned)``: the route of the placement — every row to its
    owner plus ghost duplicates within ``rc`` — and the route positions of
    the owner copies, ascending, one per row.

    The distribution function of the generalized fine-grained
    redistribution: each particle goes to the rank owning its position, and
    copies go to every rank whose subdomain lies within the cutoff radius
    (the ghost-creation rule of Sect. II-C).  ``pos`` are the rank-major
    rows cut by ``row_offsets``.  Every (row, target) pair is named once;
    within a message the rows rise.  This is the only place a position is
    turned into an owning rank: the copy of a row that is not a ghost is the
    pair whose target is that rank, marked while the route is made
    (:meth:`~repro.simmpi.collectives.Exchange.recv_positions` says where
    it lands).

    ``counted`` (a placement whose ghosts no phase reads) lists the owner
    copies alone and charges each message its ghost copies by count
    (:attr:`~repro.simmpi.collectives.Exchange.sent`): the same messages and
    row counts as the listed route, and it delivers the owner copies in the
    order the listed route delivers them, but no ghost pair is made.  Every
    route position is then an owner copy.  Both assemblies share the sweep
    over the target classes (:func:`_ghost_classes`); the listed one packs
    every copy it finds, the counted one only counts them per message
    (:func:`_counted_route`).

    Raises ``ValueError`` before any work when the packed ``(source,
    target, row)`` key of the route would not fit 63 bits, counted or not.
    """
    n = pos.shape[0]
    P = grid.nprocs
    rank_bits, row_bits = pair_key_bits(P, n)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return sorted_route(empty, 1 << rank_bits, empty), empty
    # from here on one contiguous column per axis: the cell coordinate and
    # the position within the cell
    cell_k, rel = _cell_columns(grid, pos)
    strides = grid.strides
    owner = cell_k[0] * strides[0]
    owner += cell_k[1] * strides[1]
    owner += cell_k[2] * strides[2]
    if counted:
        return _counted_route(grid, owner, row_offsets, rel, rc), np.arange(n)

    # Every (row, target) pair is one int64 — source rank, target, row, from
    # the high bits down — so one sort of the values is the route order.
    # ``head`` is the source and row part.
    head = np.repeat(np.arange(P, dtype=np.int64) << (rank_bits + row_bits), np.diff(row_offsets))
    head |= np.arange(n, dtype=np.int64)
    packed = [head | (owner << row_bits)]
    for shifted, rows in _ghost_classes(grid, rel, rc):
        target = shifted[owner[rows]]
        target <<= row_bits
        target |= head[rows]
        packed.append(target)
    packed = np.concatenate(packed)
    packed.sort()
    # A pair is its row's owner copy iff its target is the row's owner (a
    # ghost never targets it, so every row has exactly one).  One buffer
    # holds each pair's row, then the owner of that row shifted onto the
    # target bits, then their difference — and at last the rows again.
    row_mask = (1 << row_bits) - 1
    mark = packed & row_mask
    # rows are in range; ``clip`` gathers over the index vector unbuffered
    np.take(owner, mark, out=mark, mode="clip")
    mark <<= row_bits
    mark ^= packed
    mark &= ((1 << rank_bits) - 1) << row_bits
    owned = np.flatnonzero(mark == 0)
    rows = np.bitwise_and(packed, row_mask, out=mark)
    packed >>= row_bits
    return sorted_route(packed, 1 << rank_bits, rows), owned


def _ghost_classes(
    grid: CartGrid, rel: List[np.ndarray], rc: float, tags: Optional[np.ndarray] = None
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yields per *target class* with a copy its shifted-rank table and the
    rows with a copy there — each row once, in row order, given as itself
    (an index into the ``rel`` columns) or, with ``tags``, as its tag.

    Offsets equal modulo the grid dims land on one rank for every owner: a
    target class.  Class (0, 0, 0) is the owner itself.  Along an axis at
    least 2·ring + 1 subdomains wide the offsets within the ring are
    distinct classes, none of them the owner: only a narrower grid wraps a
    ghost back onto its owner or two offsets onto one class, whose copy of a
    row within the cutoff of both is one copy.  A row has a class's copy iff
    some offset of the class lies within the cutoff, and the offsets of a
    class are all combinations of its offsets along each axis: as a
    floating-point sum of non-negative terms only grows with each term, that
    holds iff the sum of the per-axis *nearest* offsets does.  So each axis
    keeps, per class along it, the squared distance to the nearest subdomain
    of the class (one offset's, on a grid wide enough), and the sweep visits
    every class once, yielding it as soon as it is found: an assembly packs
    or counts a class's copies while they are fresh, and they are freed
    before the next class is swept.
    """
    cell = grid.cell
    rc2 = rc * rc
    # per axis and class along it: every row's squared distance to the
    # nearest subdomain of the class — the row's own lower or upper face,
    # |c| − 1 whole cells beyond it (none: the face distance itself, bit for
    # bit what adding a zero gives).  The owner's own class, 0, is no
    # distance at all (``None``).
    axes = []
    for k in range(3):
        ring = max(int(np.ceil(rc / cell[k])), 1)
        near2 = {0: None}
        for c in range(-ring, ring + 1):
            s = c % grid.dims[k]
            if s == 0:
                continue
            dk = rel[k] if c < 0 else cell[k] - rel[k]
            if abs(c) > 1:
                dk = (abs(c) - 1) * cell[k] + dk
            dk = dk * dk
            near2[s] = dk if s not in near2 else np.minimum(near2[s], dk)
        axes.append(near2)

    def within(f2, rows, d2):
        """``(rows, d2)`` one axis further: of ``rows`` (``None``: all rows,
        nothing measured yet) the positions of those still within the cutoff
        once the class lies ``f2`` (squared, per row) away along this axis
        too, and their squared distances, summed in axis order."""
        if rows is not None:
            f2 = f2.take(rows)
            f2 += d2
        return np.flatnonzero(f2 < rc2), f2

    # A class is at least as far as its leading components, so each axis
    # only looks at the rows the axes before it left within the cutoff; the
    # sums run in axis order, so each comparison is bitwise the one a pass
    # over all rows for that class alone would make.
    for s0, f0 in axes[0].items():
        rows0 = d0 = None
        if f0 is not None:
            near, d0 = within(f0, None, None)
            rows0, d0 = near, d0.take(near)
            if not rows0.size:
                continue
        for s1, f1 in axes[1].items():
            rows1, d1 = rows0, d0
            if f1 is not None:
                near, d1 = within(f1, rows0, d0)
                rows1 = near if rows0 is None else rows0.take(near)
                if not rows1.size:
                    continue
                d1 = d1.take(near)
            # a copy is handed over as its row or its tag: ``label`` holds
            # that for every row in ``rows1`` (``None``: every row)
            label = rows1 if tags is None else (tags if rows1 is None else tags.take(rows1))
            for s2, f2 in axes[2].items():
                if f2 is None:
                    if rows1 is not None:  # None: the owner itself
                        yield grid.shift_table((s0, s1, s2)), label
                    continue
                near, _ = within(f2, rows1, d1)
                if near.size:
                    yield grid.shift_table((s0, s1, s2)), (
                        near if label is None else label.take(near)
                    )


def _counted_route(
    grid: CartGrid,
    owner: np.ndarray,
    row_offsets: np.ndarray,
    rel: List[np.ndarray],
    rc: float,
) -> Exchange:
    """The placement's route listing the owner copies alone, its ghosts
    charged by count.

    The owner copies travel as the plain ``(source, owner, row)`` route
    (:func:`~repro.core.fine_grained.exchange_route`), one *row group* per
    message.  Every row of a group has its class's copy on the one rank the
    class shifts the group's owner to, so the sweep (:func:`_ghost_classes`)
    hands over each class's copies as the groups of their rows, and they
    are counted per group — one ``bincount`` over the groups, or one entry
    per copy where the class has fewer copies than there are groups; a
    row's copies go to distinct ranks, none its owner.  The group sizes and
    these counts, as ``(source, target, count)`` entries packed into one
    ``uint64`` each, are merged into messages by one sort of the values.  A
    message's owner rows are then placed by message, at its group's key
    (:func:`~repro.core.fine_grained.sorted_route`'s ``listed``): nothing
    is kept per merge entry but its key and count.
    """
    n = owner.shape[0]
    P = grid.nprocs
    owners = exchange_route(row_offsets, np.arange(n), owner)
    size = np.diff(owners.row_ptr)
    n_groups = size.shape[0]
    group = np.empty(n, dtype=np.int64)
    group[owners.row_index] = np.repeat(np.arange(n_groups), size)
    group_src, group_owner = owners.msg_src * P, owners.msg_dst
    group_key = group_src + group_owner
    # a count is at most n: ``count_bits`` hold it below the (source,
    # target) key, which ``pair_key_bits`` leaves room for
    count_bits = np.uint64(n.bit_length())
    entries = [(group_key.view(np.uint64) << count_bits) | size.view(np.uint64)]
    for shifted, hit in _ghost_classes(grid, rel, rc, tags=group):
        count = np.uint64(1)
        if hit.shape[0] >= n_groups:
            count = np.bincount(hit, minlength=n_groups)
            hit = np.flatnonzero(count > 0)  # a mask: ``nonzero`` scans it fastest
            count = count.take(hit).view(np.uint64)
        entry = shifted.take(group_owner.take(hit))
        entry += group_src.take(hit)
        entry = entry.view(np.uint64)
        entry <<= count_bits
        entry |= count
        entries.append(entry)
    entries = np.concatenate(entries)
    entries.sort()
    key = (entries >> count_bits).view(np.int64)
    entries &= (np.uint64(1) << count_bits) - np.uint64(1)
    return sorted_route(
        key, P, owners.row_index, sent=entries.view(np.int64), listed=(group_key, size)
    )


def charge_parallel_fft(machine: Machine, M: int, n_transforms: int, phase: str) -> None:
    """Charge the cost of ``n_transforms`` distributed pencil FFTs.

    Per transform: the local butterfly work of ``M^3 log2(M^3) / P`` points
    plus two transpose all-to-alls exchanging the rank's full mesh share
    among ``~sqrt(P)`` pencil peers.
    """
    P = machine.nprocs
    model = machine.model
    points = float(M) ** 3
    stages = 3.0 * math.log2(max(M, 2))
    compute = kernels.FFT_POINT_STAGE * points * stages / P * n_transforms
    machine.compute(np.full(P, compute), phase=phase)
    peers = max(1, int(math.isqrt(P)) - 1)
    bytes_per_rank = 16.0 * points / P
    machine.synchronize()
    # transposes are *structured* all-to-alls (balanced, schedule known):
    # no incast-contention term, unlike the irregular redistribution traffic
    per_rank = (
        model.overhead * peers
        + model.latency
        + model.hop_latency * machine.topology.diameter() / 2.0
        + bytes_per_rank / model.bandwidth
    )
    bis = model.bisection_time(bytes_per_rank * P, machine.topology.bisection_links())
    per_round = max(per_rank, bis)
    machine.advance(
        np.full(P, per_round * 2.0 * n_transforms),
        phase,
        messages=2 * n_transforms * peers * P,
        nbytes=int(2 * n_transforms * bytes_per_rank * P),
    )


class GridSolver(Solver):
    """What the grid-decomposed Ewald-splitting solvers share: the
    redistribution onto the Cartesian process grid with ghost duplication
    (their ``_place`` hook) and the linked-cell real-space sums."""

    periodic_only = True
    origin_column = "index"

    def __init__(
        self, machine: Machine, cutoff: Optional[float], alpha: Optional[float], compute: str
    ) -> None:
        super().__init__(machine)
        self._set_compute_mode(compute)
        self._cutoff_override = cutoff
        self._alpha_override = alpha
        self.rc: Optional[float] = None
        self.alpha: Optional[float] = None
        self.near: Optional[LinkedCellNearField] = None
        self.grid: Optional[CartGrid] = None
        #: per-rank owned + ghost copies the last placement routed
        self.copies: Optional[np.ndarray] = None

    def _tune_grid(self, alpha: float) -> None:
        """Adopt the tuned splitting: build cells and process grid, agree."""
        self.alpha = alpha
        if self.compute_mode == "full":
            self.near = LinkedCellNearField(self.box, self.offset, self.rc, alpha)
        self.grid = CartGrid(self.machine.nprocs, self.box, self.offset, periodic=True)
        self.machine.barrier(phase="tune")
        self._tuned = True

    def _place(self, particles: ParticleSet, max_move: Optional[float]):
        """One fine-grained redistribution to the owning grid ranks, ghosts
        included (phase ``sort``); returns the owned and the owned+ghost
        particles, both rank-major.  Skipping the force arithmetic, no ghost
        is read: the exchange is charged in full but lists and delivers the
        owner copies alone, returned twice.  Cell binning is charged on the
        route's :attr:`copies`."""
        machine = self.machine
        neighborhood = (
            max_move is not None and p2nfft_prefers_neighborhood(self.grid, max_move)
        )
        comm = "neighborhood" if neighborhood else "alltoall"
        skip = self.compute_mode == "skip"

        # the route (owners + ghost duplicates, the ghosts only counted when
        # skipping) of all ranks in one pass over the rank-major positions,
        # before anything is charged; it is also the one decision who owns
        # which particle
        route, owned_pairs = ghost_distribution(
            self.grid, particles.block["pos"], self.rc, particles.offsets, counted=skip
        )
        # the redistribution gathers from these into fresh buffers, so the
        # application's columns can be handed over as they are
        rows = ColumnBlock(
            pos=particles.block["pos"],
            q=particles.block["q"],
            index=initial_numbering(particles.counts()).data,
        )
        machine.compute(kernels.KEY_GENERATION * particles.counts(), phase="keygen")
        self.copies = np.bincount(route.msg_dst, route.charged_rows(), self.grid.nprocs)
        local_all = redistribute_flat(machine, rows, route, phase="sort", comm=comm)
        if skip:
            return local_all, local_all, comm, f"grid+{comm}"
        # the owner copies were marked on the route; the route says where
        # each of its messages lands, so the delivered copies are not read
        own = route.recv_positions(owned_pairs)
        owned = RankMajor(local_all.data.take(own), np.searchsorted(own, local_all.offsets))
        return owned, local_all, comm, f"grid+{comm}"

    def _near_field(self, owned: RankMajor, local_all: RankMajor):
        """Linked-cell ``erfc(alpha r)/r`` sums of each rank's owned
        particles against its owned + ghost ones; returns the potentials and
        fields, rank-major over the owned rows, and the per-rank nominal
        pair cost (the caller charges it)."""
        new_counts = owned.counts
        if self.compute_mode == "skip":
            pair_density = (
                float(new_counts.sum()) / float(np.prod(self.box))
                * (4.0 / 3.0) * np.pi * self.rc ** 3
            )
            n = owned.data.n
            return np.zeros(n), np.zeros((n, 3)), kernels.ERFC_PAIR * new_counts * pair_density
        # the kernels keep their per-rank call shape, on views of the stores
        tasks = list(zip(owned.column("pos"), local_all.column("pos"), local_all.column("q")))
        backend = self.machine.backend
        if backend is not None and backend.workers:
            # each rank's near field is an independent pure computation over
            # its owned + ghost particles — fan it out to the rank-owning
            # workers.  The task is deterministic, so results (and the pair
            # counts feeding the cost model) are bitwise those of the
            # sequential loop.
            results = backend.rank_map(
                "repro.solvers.p2nfft.solver._near_rank_task", tasks, shared=self.near
            )
        else:
            results = [_near_rank_task(self.near, *task) for task in tasks]
        pots, fields, pairs = zip(*results)
        return (
            np.concatenate(pots),
            np.concatenate(fields),
            kernels.ERFC_PAIR * np.asarray(pairs, dtype=np.float64),
        )


class P2NFFTSolver(GridSolver):
    """Ewald-splitting particle-mesh solver on a Cartesian process grid."""

    name = "p2nfft"

    def __init__(
        self,
        machine: Machine,
        cutoff: Optional[float] = None,
        alpha: Optional[float] = None,
        mesh_size: Optional[int] = None,
        compute: str = "full",
    ) -> None:
        super().__init__(machine, cutoff, alpha, compute)
        self._mesh_override = mesh_size
        self.mesh: Optional[MeshSolver] = None

    # -- solver-specific setter functions (fcs_p2nfft_set_*) ----------------------

    def set_cutoff(self, rc: Optional[float]) -> None:
        """Fix the real-space cutoff radius (None = density-based default).

        The paper's benchmarks use a fixed cutoff of 4.8 for the silica
        system."""
        if rc is not None and rc <= 0:
            raise ValueError(f"cutoff must be positive, got {rc}")
        self._cutoff_override = rc
        self._tuned = False

    def set_alpha(self, alpha: Optional[float]) -> None:
        """Fix the Ewald splitting parameter (None = tuned from accuracy)."""
        if alpha is not None and alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self._alpha_override = alpha
        self._tuned = False

    def set_mesh_size(self, M: Optional[int]) -> None:
        """Fix the FFT mesh size per dimension (None = tuned)."""
        if M is not None and M < 4:
            raise ValueError(f"mesh size must be >= 4, got {M}")
        self._mesh_override = M
        self._tuned = False

    # -- tuning ------------------------------------------------------------------

    def tune(self, particles: ParticleSet, accuracy: float = 1e-3) -> None:
        """Choose splitting parameter and mesh size; build grid and cells.

        The mesh tables are shared with every solver tuned to the same
        parameters (:func:`repro.solvers.p2nfft.mesh.mesh_solver`); the
        modeled charge is that of building them, hit or miss."""
        self.require_common()
        n = particles.total()
        if self._cutoff_override is not None:
            self.rc = self._cutoff_override
        else:
            # model-driven: balance real-space pair work against mesh work
            try:
                self.rc = optimize_cutoff(self.box, n, accuracy)
            except ValueError:
                self.rc = suggest_cutoff(self.box, n)
        alpha, M = tune_ewald_splitting(self.box, self.rc, accuracy)
        if self._alpha_override is not None:
            alpha = float(self._alpha_override)
        if self._mesh_override is not None:
            M = int(self._mesh_override)
        self.mesh_size = M
        if self.compute_mode == "full":
            self.mesh = mesh_solver(M, self.box, self.offset, alpha)
        self._tune_grid(alpha)
        self.machine.compute(kernels.FFT_POINT_STAGE * float(M) ** 3, phase="tune")

    # -- the compute hook of Solver.run ------------------------------------------------

    def _compute(self, owned: RankMajor, local_all: RankMajor):
        """Real-space near field (phase ``near``), then the Fourier-space
        far field on the mesh (phases ``mesh``, ``fft``)."""
        machine = self.machine
        P = machine.nprocs
        new_counts = owned.counts
        pot, field, near_cost = self._near_field(owned, local_all)
        bin_cost = kernels.CELL_BINNING * self.copies
        machine.compute(near_cost + bin_cost, phase="near")

        if self.compute_mode == "full":
            gpos, gq = owned.data["pos"], owned.data["q"]
            pot_k, field_k = self.mesh.kspace(gpos, gq, gpos)
            total_charge = float(gq.sum())
            if abs(total_charge) > 1e-12:
                pot_k += self.mesh.background(total_charge)
            pot, field = pot + pot_k, field + field_k
        machine.compute(
            kernels.MESH_ASSIGNMENT * new_counts.astype(np.float64) * 5.0, phase="mesh"
        )
        # ghost mesh-layer exchange: one CIC layer of the local mesh surface
        local_mesh_pts = float(self.mesh_size) ** 3 / P
        surface = 6.0 * local_mesh_pts ** (2.0 / 3.0)
        machine.advance(
            np.full(P, machine.model.msg_time(1, surface * 8.0) * 6.0),
            phase="mesh",
            messages=6 * P,
            nbytes=int(surface * 8.0 * 6 * P),
        )
        charge_parallel_fft(machine, self.mesh_size, 5, phase="fft")
        return pot, field
