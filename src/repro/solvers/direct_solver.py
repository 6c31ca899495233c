"""Parallel direct-summation solver (allgather + local O(n^2/P) work).

The reference baseline: each rank gathers all particle positions and
charges, then computes the interactions of its local particles against
everything.  No reordering or redistribution takes place, so the particle
order and distribution never change (``resort`` requests are reported as
unavailable — the query-function path of Sect. III-B).

Periodic boundaries use the Ewald reference for correctness on small
systems; open boundaries use the plain direct sum.  Practical only for
test-scale particle counts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import kernels
from repro.core.particles import ParticleSet
from repro.simmpi.collectives import allgatherv
from repro.simmpi.machine import Machine
from repro.solvers.base import RunReport, Solver
from repro.solvers.direct import direct_sum
from repro.solvers.ewald_ref import ewald_sum

__all__ = ["DirectSolver"]


class DirectSolver(Solver):
    """O(n^2) direct summation over an allgathered particle system."""

    name = "direct"

    def __init__(self, machine: Machine, ewald_accuracy: float = 1e-10) -> None:
        super().__init__(machine)
        self.ewald_accuracy = float(ewald_accuracy)

    def tune(self, particles: ParticleSet, accuracy: float = 1e-3) -> None:
        self.require_common()
        self.machine.barrier(phase="tune")
        self._tuned = True

    def run(
        self,
        particles: ParticleSet,
        *,
        resort: bool = False,
        max_move: Optional[float] = None,
    ) -> RunReport:
        self.require_common()
        self.require_finite(particles)
        machine = self.machine
        counts = particles.counts()

        gathered_pos = allgatherv(machine, particles.pos, phase="gather")[0]
        gathered_q = allgatherv(machine, particles.q, phase="gather")[0]
        n = gathered_pos.shape[0]

        if self.periodic:
            pot_all, field_all = ewald_sum(
                gathered_pos, gathered_q, self.box, accuracy=self.ewald_accuracy
            )
        else:
            pot_all, field_all = direct_sum(gathered_pos, gathered_q)

        per_rank_pairs = counts.astype(np.float64) * n
        machine.compute(kernels.PAIR_INTERACTION * per_rank_pairs, phase="near")
        # gathered in rank order: the results are rank-major as they are
        particles.block["pot"] = pot_all
        particles.block["field"] = field_all

        # no reordering happened; method B has nothing to resort
        return RunReport(
            changed=False,
            old_counts=counts,
            new_counts=counts,
            strategy="direct",
            comm="alltoall",
        )
