"""Ablations beyond the paper's figures: the design choices DESIGN.md calls
out, each isolated.

* sorting-method crossover as a function of input disorder,
* all-to-all vs neighborhood communication vs payload size,
* the cost of the resort-index creation (method B's extra step),
* the congestion model's effect on irregular all-to-alls.
"""

import numpy as np
import pytest

from repro.core.fine_grained import fine_grained_redistribute
from repro.core.particles import ColumnBlock
from repro.core.resort import initial_numbering, invert_indices
from repro.simmpi.costmodel import JUQUEEN, JUROPA
from repro.simmpi.machine import Machine
from repro.sorting.merge_sort import merge_exchange_sort
from repro.sorting.partition_sort import partition_sort


def make_key_blocks(keys_per_rank):
    return [
        ColumnBlock(
            key=np.asarray(k, dtype=np.uint64),
            pos=np.zeros((len(k), 3)),
            q=np.zeros(len(k)),
        )
        for k in keys_per_rank
    ]


def disordered_keys(rng, P, per, disorder, local_jitter=True, span_frac=0.25):
    """Globally sorted keys with a fraction ``disorder`` perturbed.

    ``local_jitter`` displaces keys by ``span_frac`` of one rank's key range
    (particles drifting into nearby boxes — the merge-friendly regime);
    otherwise keys are re-drawn uniformly (teleports, which blow up merge
    windows).
    """
    n = P * per
    base = np.sort(rng.integers(0, 2 ** 40, n).astype(np.uint64))
    n_moved = int(disorder * n)
    if n_moved:
        idx = rng.choice(n, n_moved, replace=False)
        if local_jitter:
            span = max(1, int((2 ** 40 / n) * per * span_frac))
            base[idx] = base[idx] + rng.integers(0, span, n_moved).astype(np.uint64)
        else:
            base[idx] = rng.integers(0, 2 ** 40, n_moved).astype(np.uint64)
    return [base[r * per:(r + 1) * per] for r in range(P)]


class TestSortingCrossover:
    """The mechanics behind the max-movement heuristic: on almost-sorted
    data the merge-based sort moves a small fraction of the bytes the
    partition-based sort's collective path handles (its advantage on
    latency-bound torus networks), while on disordered data the partition
    sort is outright faster — consistent with the paper's observation that
    the merge sort gives no win on the *fat-tree* JuRoPA but large wins on
    the torus Juqueen."""

    def run_both(self, disorder, local_jitter, profile=JUROPA, P=32, per=500):
        rng = np.random.default_rng(3)
        keys = disordered_keys(rng, P, per, disorder, local_jitter=local_jitter)
        m1 = Machine(P, profile=profile)
        merge_exchange_sort(m1, make_key_blocks(keys), "key", "s", verify=False)
        m2 = Machine(P, profile=profile)
        partition_sort(m2, make_key_blocks(keys), "key", "s")
        return m1, m2

    def test_almost_sorted_merge_wins(self):
        m_merge, m_part = self.run_both(0.002, local_jitter=True)
        assert m_merge.elapsed() < m_part.elapsed()

    def test_almost_sorted_merge_wins_big_on_torus(self):
        m_merge, m_part = self.run_both(
            0.002, local_jitter=True, profile=JUQUEEN, P=512, per=100
        )
        assert m_merge.elapsed() < m_part.elapsed() / 5

    def test_disordered_partition_faster(self):
        m_merge, m_part = self.run_both(0.6, local_jitter=False)
        assert m_part.elapsed() < m_merge.elapsed()

    def test_merge_cost_scales_with_disorder(self):
        times = []
        for disorder in (0.001, 0.05, 0.4):
            m, _ = self.run_both(disorder, local_jitter=True)
            times.append(m.elapsed())
        assert times[0] < times[1] < times[2]

    def test_benchmark_merge_almost_sorted(self, benchmark):
        rng = np.random.default_rng(3)
        keys = disordered_keys(rng, 16, 400, 0.002, local_jitter=True)

        def run():
            m = Machine(16, profile=JUROPA)
            merge_exchange_sort(m, make_key_blocks(keys), "key", "s", verify=False)
            return m.elapsed()

        benchmark(run)


class TestNeighborhoodVsAlltoall:
    """The count-exchange saving of neighborhood communication grows with
    the process count (the Fig. 9 mechanism)."""

    def modeled_times(self, P, profile):
        def neighbor_targets(rank, block):
            return np.full(block.n, (rank + 1) % P, dtype=np.int64)

        times = {}
        for comm in ("alltoall", "neighborhood"):
            m = Machine(P, profile=profile)
            blocks = [ColumnBlock(x=np.zeros(8)) for _ in range(P)]
            fine_grained_redistribute(m, blocks, neighbor_targets, "x", comm=comm)
            times[comm] = m.elapsed()
        return times

    @pytest.mark.parametrize("P", [64, 1024])
    def test_neighborhood_cheaper(self, P):
        t = self.modeled_times(P, JUQUEEN)
        assert t["neighborhood"] < t["alltoall"]

    def test_saving_grows_with_p(self):
        small = self.modeled_times(64, JUQUEEN)
        big = self.modeled_times(2048, JUQUEEN)
        saving_small = small["alltoall"] - small["neighborhood"]
        saving_big = big["alltoall"] - big["neighborhood"]
        assert saving_big > 3 * saving_small


class TestResortIndexCreation:
    """Method B's 'additional communication step': inverting the index
    permutation costs about one more fine-grained redistribution."""

    def test_creation_cost_comparable_to_one_redistribution(self, rng):
        P = 32
        per = 200
        m = Machine(P, profile=JUROPA)
        counts = [per] * P
        numbering = np.concatenate(initial_numbering(counts))
        perm = rng.permutation(P * per)
        origloc = [numbering[perm[r * per:(r + 1) * per]] for r in range(P)]
        invert_indices(m, origloc, counts, "inv")
        t_invert = m.trace.phase("inv").time

        m2 = Machine(P, profile=JUROPA)
        blocks = [ColumnBlock(x=np.zeros((per, 2))) for _ in range(P)]
        fine_grained_redistribute(
            m2, blocks, lambda r, b: rng.integers(0, P, b.n), "fw"
        )
        t_redist = m2.trace.phase("fw").time
        assert 0.2 * t_redist < t_invert < 5 * t_redist

    def test_benchmark_invert(self, benchmark, rng):
        P, per = 16, 200
        counts = [per] * P
        numbering = np.concatenate(initial_numbering(counts))
        perm = rng.permutation(P * per)
        origloc = [numbering[perm[r * per:(r + 1) * per]] for r in range(P)]

        def run():
            m = Machine(P)
            return invert_indices(m, origloc, counts, "inv")

        benchmark(run)


class TestCongestionModel:
    """Irregular many-target all-to-alls degrade superlinearly on the
    fat-tree profile but only mildly on the torus profile."""

    def fan_time(self, profile, targets):
        P = 256
        m = Machine(P, profile=profile)
        sends = [{} for _ in range(P)]
        for t in range(1, targets + 1):
            sends[0][t] = np.zeros(8)
        from repro.simmpi.collectives import alltoallv

        t0 = m.elapsed()
        alltoallv(m, sends, "x", count_exchange="sparse")
        return m.elapsed() - t0

    def test_fat_tree_superlinear(self):
        assert self.fan_time(JUROPA, 128) > 10 * self.fan_time(JUROPA, 8)

    def test_torus_milder(self):
        ratio_torus = self.fan_time(JUQUEEN, 128) / self.fan_time(JUQUEEN, 8)
        ratio_tree = self.fan_time(JUROPA, 128) / self.fan_time(JUROPA, 8)
        assert ratio_torus < ratio_tree
