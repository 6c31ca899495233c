"""Simulated distributed-memory message-passing machine.

This subpackage provides the substrate on which every parallel algorithm in
:mod:`repro` runs.  It replaces a real MPI installation (the paper ran on the
JuRoPA InfiniBand cluster and the Juqueen Blue Gene/Q) with a deterministic
single-host simulation:

* :class:`~repro.simmpi.machine.Machine` hosts ``P`` virtual ranks.  Each rank
  owns real NumPy arrays; communication primitives *actually move the data*
  between per-rank arrays, so all algorithms are testable for correctness.
* Every primitive simultaneously advances per-rank **virtual clocks** using a
  LogGP-style cost model parameterised by a network topology
  (:class:`~repro.simmpi.topology.FatTreeTopology` for a JuRoPA-like switched
  cluster, :class:`~repro.simmpi.topology.TorusTopology` for a Blue Gene/Q-like
  torus).  Benchmarks report these modeled times.
* :class:`~repro.simmpi.tracing.Trace` records per-phase message counts,
  byte volumes and elapsed virtual time, which is what the paper's figures
  plot (sort / restore / resort / total runtimes).

The communication API mirrors the semantics of the MPI operations used by the
ScaFaCoS library: ``alltoallv`` (fine-grained data redistribution),
point-to-point ``sendrecv`` rounds (merge-exchange sorting, neighborhood
exchange), ``allgatherv`` (splitter selection), ``allreduce`` (max-movement
determination) and so on.

Each collective can optionally run through a *staged algorithm engine*
(:mod:`repro.simmpi.algos` — pairwise/Bruck alltoallv, ring/recursive-doubling
allgatherv, tree/recursive-halving allreduce, binomial rooted trees) that
routes the same payloads through explicit point-to-point rounds with per-hop
topology charging; recv payloads are bitwise-identical to the direct model by
contract, only the modeled clocks and message counts differ.
"""

from repro.simmpi.algos import ALGO_CHOICES, CollectiveAlgos, parse_algos
from repro.simmpi.chaos import Perturbation
from repro.simmpi.costmodel import CostModel, SystemProfile, JUROPA, JUQUEEN, LOCAL
from repro.simmpi.machine import Machine
from repro.simmpi.topology import (
    FatTreeTopology,
    SwitchTopology,
    Topology,
    TorusTopology,
)
from repro.simmpi.tracing import Trace
from repro.simmpi.cart import CartGrid, dims_create

__all__ = [
    "ALGO_CHOICES",
    "CartGrid",
    "CollectiveAlgos",
    "CostModel",
    "FatTreeTopology",
    "JUQUEEN",
    "JUROPA",
    "LOCAL",
    "Machine",
    "Perturbation",
    "SwitchTopology",
    "SystemProfile",
    "Topology",
    "TorusTopology",
    "Trace",
    "dims_create",
    "parse_algos",
]
