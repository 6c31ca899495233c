"""Initial particle distributions among the parallel processes.

Sect. IV-B of the paper compares three initial distributions:

* ``"single"`` — all particles on one single process (the communication
  bottleneck case),
* ``"random"`` — uniformly random distribution of particles among
  processes,
* ``"grid"`` — a domain decomposition that distributes particles uniformly
  among a Cartesian process grid (each particle on the rank owning its
  position).

:func:`distribute` splits a generated :class:`~repro.md.systems
.ParticleSystem` accordingly and returns both the solver-facing
:class:`~repro.core.particles.ParticleSet` and the distributed
application-side data (velocities), plus the assignment for test
verification.

Beyond the paper's homogeneous silica melt, :func:`clustered_system`
generates the **inhomogeneous** workloads of the load-balancing subsystem
(:mod:`repro.core.balance`): a Plummer sphere (the astrophysical
density-cusp standard), a two-cluster system (the worst case for
equal-count partitioning: half the ranks idle while the cluster owners
serialize), and an exponential slab (smooth density gradient).  All are
charge-neutral ±1 ion systems in the same periodic box convention as
:func:`~repro.md.systems.silica_melt_system`, so every solver runs them
unchanged.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.fine_grained import stable_order
from repro.core.particles import ParticleSet, RankMajor
from repro.md.systems import PAPER_BOX_EDGE, PAPER_N, ParticleSystem
from repro.simmpi.cart import CartGrid

__all__ = [
    "distribute",
    "distribute_rows",
    "rank_order",
    "clustered_system",
    "CLUSTERED_KINDS",
    "DISTRIBUTIONS",
]

DISTRIBUTIONS = ("single", "random", "grid")

#: the inhomogeneous system generators of :func:`clustered_system`
CLUSTERED_KINDS = ("plummer", "two-cluster", "exponential-slab")


def clustered_system(
    kind: str,
    n: int,
    box_edge: float | None = None,
    seed: int = 0,
) -> ParticleSystem:
    """Generate an inhomogeneous (clustered) charge-neutral particle system.

    Parameters
    ----------
    kind:
        ``"plummer"`` — a Plummer sphere centered in the box (scale radius
        ``box_edge / 12``, radii clipped to stay inside the box);
        ``"two-cluster"`` — two tight Gaussian blobs (σ = ``box_edge /
        16``) at opposite box octants holding half the particles, embedded
        in a uniform background holding the other half (the density
        *contrast* is what makes equal-count partitioning serialize the
        cluster owners);
        ``"exponential-slab"`` — exponential density decay along x (scale
        ``box_edge / 8``), uniform in y/z.
    n:
        number of ions (even, for exact charge neutrality).
    box_edge:
        cubic box edge; defaults to the paper's density convention
        ``248 * (n / 829440)^(1/3)`` so clustered and homogeneous systems
        of equal ``n`` occupy identical boxes.
    seed:
        RNG seed (deterministic generation).

    Charges alternate ±1 and are shuffled, so any contiguous split is
    near-neutral; initial velocities are zero.
    """
    if kind not in CLUSTERED_KINDS:
        raise ValueError(f"unknown clustered kind {kind!r}; pick from {CLUSTERED_KINDS}")
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    if box_edge is None:
        box_edge = PAPER_BOX_EDGE * (n / PAPER_N) ** (1.0 / 3.0)
    box = np.asarray([box_edge] * 3, dtype=np.float64)
    rng = np.random.default_rng(seed)
    center = box / 2.0

    if kind == "plummer":
        # Plummer profile: r = a / sqrt(u^(-2/3) - 1); clip the heavy tail
        # so every particle stays inside the periodic box
        a = box_edge / 12.0
        u = rng.uniform(1e-8, 1.0 - 1e-8, n)
        r = a / np.sqrt(np.power(u, -2.0 / 3.0) - 1.0)
        r = np.minimum(r, 0.45 * box_edge)
        direction = rng.normal(size=(n, 3))
        norm = np.linalg.norm(direction, axis=1, keepdims=True)
        norm[norm == 0] = 1.0
        pos = center + direction / norm * r[:, None]
    elif kind == "two-cluster":
        sigma = box_edge / 16.0
        centers = np.asarray(
            [[0.25, 0.25, 0.25], [0.75, 0.75, 0.75]], dtype=np.float64
        ) * box_edge
        n_cluster = n // 2
        half = n_cluster // 2
        which = np.repeat(np.arange(2), (half, n_cluster - half))
        blob = centers[which] + rng.normal(scale=sigma, size=(n_cluster, 3))
        background = rng.uniform(0.0, box_edge, (n - n_cluster, 3))
        pos = np.concatenate([blob, background])
    else:  # exponential-slab
        scale = box_edge / 8.0
        x = rng.exponential(scale, n) % box_edge
        yz = rng.uniform(0.0, box_edge, (n, 2))
        pos = np.column_stack([x, yz])
    pos = np.mod(pos, box_edge)

    q = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    perm = rng.permutation(n)
    pos = pos[perm]
    q = q[perm]
    vel = np.zeros((n, 3), dtype=np.float64)
    return ParticleSystem(pos=pos, q=q, vel=vel, box=box, offset=np.zeros(3))


def rank_order(owner: np.ndarray, nprocs: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, cuts)``: the rows grouped by owning rank — stably, so every
    rank keeps its rows in their original order — and where to cut them:
    ``np.split(column[order], cuts)[r]`` is ``column[owner == r]`` without one
    scan of ``owner`` per rank (``np.split(order, cuts)[r]`` the rows
    themselves)."""
    order = stable_order(owner)
    order = np.arange(owner.shape[0]) if order is None else order
    return order, np.cumsum(np.bincount(owner, minlength=nprocs))[:-1]


def distribute(
    system: ParticleSystem,
    nprocs: int,
    kind: str,
    seed: int = 0,
    capacity_factor: float = 3.0,
) -> Tuple[ParticleSet, RankMajor, np.ndarray]:
    """Distribute a particle system among ``nprocs`` ranks.

    Returns ``(particle_set, velocities, owner)``: the velocities rank-major
    like the set's own columns, and ``owner`` mapping each global particle
    index to its initial rank.
    """
    return distribute_rows(system, nprocs, kind, seed, capacity_factor)[:3]


def distribute_rows(
    system: ParticleSystem,
    nprocs: int,
    kind: str,
    seed: int = 0,
    capacity_factor: float = 3.0,
) -> Tuple[ParticleSet, RankMajor, np.ndarray, np.ndarray]:
    """:func:`distribute`, plus the global index of every rank-major row:
    ``(particle_set, velocities, owner, order)`` with ``order`` the first
    half of :func:`rank_order` (the rows grouped by rank, stably), computed
    once for both the columns and the caller's particle ids."""
    n = system.n
    if kind == "single":
        owner = np.zeros(n, dtype=np.int64)
    elif kind == "random":
        rng = np.random.default_rng(seed)
        owner = rng.integers(0, nprocs, n)
    elif kind == "grid":
        grid = CartGrid(nprocs, system.box, system.offset, periodic=True)
        owner = grid.rank_of_positions(system.pos)
    else:
        raise ValueError(f"unknown distribution {kind!r}; pick from {DISTRIBUTIONS}")

    order, cuts = rank_order(owner, nprocs)
    offsets = np.concatenate(([0], cuts, [n]))
    # ``np.take`` copies (n, 3) rows several times faster than ``column[order]``
    pos, q, vel = (
        RankMajor(np.take(column, order, axis=0), offsets)
        for column in (system.pos, system.q, system.vel)
    )
    # the "single" distribution needs capacity for the whole system on rank
    # 0 and for a balanced share everywhere else
    if kind == "single":
        capacities = np.full(nprocs, max(n, 1))
    else:
        per = max(1, -(-n // nprocs))
        capacities = np.maximum(int(np.ceil(capacity_factor * per)), np.diff(offsets))
    return ParticleSet(pos, q, capacities=capacities), vel, owner, order
