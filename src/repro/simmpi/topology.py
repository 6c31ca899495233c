"""Network topologies for the simulated machine.

Two families reproduce the paper's platforms:

* :class:`FatTreeTopology` — a switched, full-bisection-bandwidth network
  like JuRoPA's QDR InfiniBand fat tree.  All inter-node routes have the same
  small hop count, and the bisection scales with the machine, so collective
  all-to-all exchanges are efficient and *neighborhood* point-to-point
  communication enjoys no locality advantage (exactly the observation in
  Sect. IV-D of the paper: "the switched communication network does not
  provide performance benefits for communication between neighboring
  processes").
* :class:`TorusTopology` — a k-ary d-cube with wrap-around links like
  Juqueen's Blue Gene/Q 5-D torus.  Hop counts grow with Manhattan distance
  and the bisection grows only like ``P^{(d-1)/d}``, so all-to-all exchanges
  pay latency *and* contention at scale, while nearest-neighbor exchanges of
  a process grid embedded in the torus stay cheap.  This is what makes the
  paper's "method B with maximum movement" win on Juqueen beyond 4096
  processes (Fig. 9 right).

:class:`SwitchTopology` is a degenerate single-crossbar network used for
small unit tests.

Ranks are laid out consecutively on nodes of ``node_size`` ranks each;
intra-node communication has hop count 0 (shared memory).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

__all__ = ["Topology", "SwitchTopology", "FatTreeTopology", "TorusTopology"]


class Topology:
    """Abstract network topology over ``nprocs`` ranks.

    Subclasses implement :meth:`hops`, :meth:`diameter` and
    :meth:`bisection_links`; everything else (cost arithmetic) lives in
    :class:`repro.simmpi.costmodel.CostModel`.
    """

    #: human-readable identifier used in benchmark reports
    name: str = "abstract"

    def __init__(self, nprocs: int, node_size: int = 1) -> None:
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        if node_size < 1:
            raise ValueError(f"node_size must be >= 1, got {node_size}")
        self.nprocs = int(nprocs)
        self.node_size = int(node_size)
        self.nnodes = -(-self.nprocs // self.node_size)

    # -- geometry -----------------------------------------------------------

    def node_of(self, ranks: np.ndarray | int) -> np.ndarray | int:
        """Node index hosting each rank (consecutive placement)."""
        return np.asarray(ranks, dtype=np.int64) // self.node_size

    def hops(self, src: np.ndarray | int, dst: np.ndarray | int) -> np.ndarray:
        """Network hop count between ranks (0 for intra-node pairs)."""
        raise NotImplementedError

    def diameter(self) -> int:
        """Maximum hop count between any two ranks."""
        raise NotImplementedError

    def bisection_links(self) -> int:
        """Number of links crossing a worst-case equal bisection.

        Used by the cost model to charge contention on aggregate traffic:
        an all-to-all moves roughly half of its total volume across the
        bisection.
        """
        raise NotImplementedError

    # -- helpers ------------------------------------------------------------

    def _internode(self, src, dst) -> np.ndarray:
        """Boolean mask of pairs on different nodes (broadcasting)."""
        return np.asarray(self.node_of(src)) != np.asarray(self.node_of(dst))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(nprocs={self.nprocs}, node_size={self.node_size})"


class SwitchTopology(Topology):
    """Single crossbar switch: every inter-node route is exactly one hop."""

    name = "switch"

    def hops(self, src, dst):
        return self._internode(src, dst).astype(np.int64)

    def diameter(self) -> int:
        return 1 if self.nnodes > 1 else 0

    def bisection_links(self) -> int:
        # A crossbar has a dedicated port per node; bisection = half of them.
        return max(1, self.nnodes // 2)


class FatTreeTopology(Topology):
    """Multi-stage switched fat tree with full bisection bandwidth.

    Hop counts follow the tree: ranks under the same leaf switch are 2 hops
    apart, otherwise they climb to a core switch, giving ``2*levels`` hops.
    Because the tree is "fat", :meth:`bisection_links` grows linearly with
    the number of nodes, so contention never dominates — matching JuRoPA's
    behaviour in the paper where all-to-all beats neighborhood
    point-to-point.
    """

    name = "fat-tree"

    def __init__(self, nprocs: int, node_size: int = 8, radix: int = 24) -> None:
        super().__init__(nprocs, node_size)
        if radix < 2:
            raise ValueError(f"radix must be >= 2, got {radix}")
        self.radix = int(radix)
        # number of tree levels needed to span all nodes
        self.levels = max(1, math.ceil(math.log(max(self.nnodes, 2), self.radix)))

    def hops(self, src, dst):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        nsrc = self.node_of(src)
        ndst = self.node_of(dst)
        hops = np.zeros(np.broadcast(nsrc, ndst).shape, dtype=np.int64)
        diff = nsrc != ndst
        if not np.any(diff):
            return hops
        # climb until the first common ancestor switch: l levels up + l down
        a = np.broadcast_to(nsrc, hops.shape).copy()
        b = np.broadcast_to(ndst, hops.shape).copy()
        level = np.zeros_like(hops)
        active = diff.copy()
        while np.any(active):
            level[active] += 1
            a[active] //= self.radix
            b[active] //= self.radix
            active = active & (a != b)
        hops[diff] = 2 * level[diff]
        return hops

    def diameter(self) -> int:
        return 2 * self.levels if self.nnodes > 1 else 0

    def bisection_links(self) -> int:
        # full bisection: one link per node crossing the cut / 2
        return max(1, self.nnodes // 2)


class TorusTopology(Topology):
    """k-ary d-cube with wrap-around links (Blue Gene/Q-like).

    ``dims`` are the torus dimensions over *nodes*.  Ranks are placed
    ``node_size`` per node in row-major node order.  Hops are the wrapped
    Manhattan distance between node coordinates.
    """

    name = "torus"

    def __init__(
        self,
        nprocs: int,
        dims: Sequence[int] | None = None,
        node_size: int = 16,
    ) -> None:
        super().__init__(nprocs, node_size)
        if dims is None:
            dims = balanced_torus_dims(self.nnodes, ndims=3)
        self.dims: Tuple[int, ...] = tuple(int(d) for d in dims)
        if any(d < 1 for d in self.dims):
            raise ValueError(f"torus dims must be >= 1, got {self.dims}")
        cap = 1
        for d in self.dims:
            cap *= d
        if cap < self.nnodes:
            raise ValueError(
                f"torus dims {self.dims} hold {cap} nodes < required {self.nnodes}"
            )
        # precompute strides for node -> coords
        self._strides = np.empty(len(self.dims), dtype=np.int64)
        s = 1
        for i in range(len(self.dims) - 1, -1, -1):
            self._strides[i] = s
            s *= self.dims[i]
        #: every node's coordinates, so that a hop count is a gather
        self._coords = self.node_coords(np.arange(self.nnodes))
        self._dims = np.asarray(self.dims, dtype=np.int64)

    def node_coords(self, nodes: np.ndarray | int) -> np.ndarray:
        """Coordinates of each node in the torus, shape ``(..., ndims)``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        coords = np.empty(nodes.shape + (len(self.dims),), dtype=np.int64)
        for i, d in enumerate(self.dims):
            coords[..., i] = (nodes // self._strides[i]) % d
        return coords

    def hops(self, src, dst):
        delta = self._coords[self.node_of(src)] - self._coords[self.node_of(dst)]
        np.abs(delta, out=delta)
        return np.minimum(delta, self._dims - delta).sum(axis=-1)

    def diameter(self) -> int:
        return int(sum(d // 2 for d in self.dims))

    def bisection_links(self) -> int:
        # Cut the torus across its largest dimension: 2 wrap-around planes of
        # links, each containing (nnodes / kmax) links.
        kmax = max(self.dims)
        if kmax == 1:
            return 1
        plane = 1
        for d in self.dims:
            plane *= d
        plane //= kmax
        return max(1, 2 * plane)


def balanced_torus_dims(nnodes: int, ndims: int = 3) -> Tuple[int, ...]:
    """Choose near-cubic torus dimensions whose product covers ``nnodes``.

    The product of the returned dims is the smallest ``>= nnodes`` that can
    be written as a product of ``ndims`` near-equal factors of the form
    rounded from ``nnodes**(1/ndims)``.
    """
    if nnodes < 1:
        raise ValueError(f"nnodes must be >= 1, got {nnodes}")
    if ndims < 1:
        raise ValueError(f"ndims must be >= 1, got {ndims}")
    base = max(1, round(nnodes ** (1.0 / ndims)))
    for b in (base, base + 1):
        dims = [b] * ndims
        # shrink trailing dims while the product still covers nnodes
        for i in range(ndims - 1, -1, -1):
            while dims[i] > 1:
                trial = dims.copy()
                trial[i] -= 1
                if math.prod(trial) >= nnodes:
                    dims = trial
                else:
                    break
        if math.prod(dims) >= nnodes:
            return tuple(sorted(dims, reverse=True))
    # fallback: grow the first dim
    dims = [base] * ndims
    while math.prod(dims) < nnodes:
        dims[0] += 1
    return tuple(sorted(dims, reverse=True))
