"""The plan-based resort engine: fused exchanges, caching, unified API."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.handle import fcs_init
from repro.core.plan import ResortPlan
from repro.core.resort import pack_resort_index
from repro.simmpi.chaos import Perturbation
from repro.simmpi.machine import Machine
from repro.solvers.base import Solver
from repro.solvers.fmm.solver import FMMSolver
from repro.verify.audit import enable_auditing
from conftest import random_particle_set


def random_redistribution(nprocs, total, seed):
    """A random resort problem: indices, old/new counts, per-rank row ids.

    Every global row gets a random target rank and a random position within
    that rank — the ground truth against which any execution path can be
    checked exactly.
    """
    rng = np.random.default_rng(seed)
    src = np.sort(rng.integers(0, nprocs, total))
    old_counts = np.bincount(src, minlength=nprocs)
    dst = rng.integers(0, nprocs, total)
    new_counts = np.bincount(dst, minlength=nprocs)
    # assign positions: a random permutation within each destination rank
    pos = np.empty(total, dtype=np.int64)
    for r in range(nprocs):
        where = np.flatnonzero(dst == r)
        pos[where] = rng.permutation(where.size)
    indices = []
    offsets = np.concatenate(([0], np.cumsum(old_counts)))
    for r in range(nprocs):
        sl = slice(offsets[r], offsets[r + 1])
        indices.append(pack_resort_index(dst[sl], pos[sl]))
    return indices, old_counts, new_counts, dst, pos, offsets


def expected_layout(values, dst, pos, new_counts, offsets, nprocs):
    """Directly scatter per-row ``values`` into the target layout."""
    out = []
    for r in range(nprocs):
        rows = np.flatnonzero(dst == r)
        block = np.empty((int(new_counts[r]),) + values.shape[1:], values.dtype)
        block[pos[rows]] = values[rows]
        out.append(block)
    return out


class TestFusedExchange:
    @settings(max_examples=25, deadline=None)
    @given(
        nprocs=st.integers(min_value=1, max_value=6),
        total=st.integers(min_value=0, max_value=80),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_fused_mixed_dtypes_match_ground_truth(self, nprocs, total, seed):
        """One fused exchange of mixed-dtype columns lands every row exactly
        where the resort indices say, byte for byte."""
        indices, old_counts, new_counts, dst, pos, offsets = random_redistribution(
            nprocs, total, seed
        )
        machine = Machine(nprocs)
        plan = ResortPlan(machine, indices, old_counts, new_counts)

        rng = np.random.default_rng(seed + 1)
        floats = rng.normal(size=(total, 3))
        ints = rng.integers(-(2**40), 2**40, total)
        bytes_ = rng.integers(0, 256, (total, 5)).astype(np.uint8)
        f32 = rng.normal(size=total).astype(np.float32)

        def split(values):
            return [values[offsets[r]:offsets[r + 1]] for r in range(nprocs)]

        out = plan.execute([split(floats), split(ints), split(bytes_), split(f32)])
        for values, got in zip((floats, ints, bytes_, f32), out):
            want = expected_layout(values, dst, pos, new_counts, offsets, nprocs)
            assert all(g.dtype == values.dtype for g in got)
            for r in range(nprocs):
                np.testing.assert_array_equal(got[r], want[r])

    @settings(max_examples=15, deadline=None)
    @given(
        nprocs=st.integers(min_value=1, max_value=6),
        total=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_fused_equals_sequential_per_column(self, nprocs, total, seed):
        """Fusing k columns into one exchange is byte-for-byte identical to
        k sequential single-column executions of the same plan."""
        indices, old_counts, new_counts, _, _, offsets = random_redistribution(
            nprocs, total, seed
        )
        machine = Machine(nprocs)
        plan = ResortPlan(machine, indices, old_counts, new_counts)

        rng = np.random.default_rng(seed + 2)
        cols = [
            [rng.normal(size=(int(c), 2)) for c in old_counts],
            [rng.integers(0, 2**31, int(c)) for c in old_counts],
        ]
        fused = plan.execute(cols)
        sequential = [plan.execute([col])[0] for col in cols]
        for got, want in zip(fused, sequential):
            for r in range(nprocs):
                np.testing.assert_array_equal(got[r], want[r])

    def test_fused_exchange_message_count(self):
        """A fused execute costs one exchange round: its traced resort-phase
        message count equals one single-column execute's, regardless of how
        many columns ride along."""
        indices, old_counts, new_counts, _, _, _ = random_redistribution(4, 60, 9)
        m1, m2 = Machine(4), Machine(4)
        plan1 = ResortPlan(m1, indices, old_counts, new_counts)
        plan2 = ResortPlan(m2, indices, old_counts, new_counts)
        one = [[np.zeros(int(c)) for c in old_counts]]
        three = one + [
            [np.zeros((int(c), 3)) for c in old_counts],
            [np.zeros(int(c), dtype=np.int64) for c in old_counts],
        ]
        plan1.execute(one)
        plan2.execute(three)
        assert m1.trace.phase("resort").messages == m2.trace.phase("resort").messages

    def test_validation_errors(self):
        indices, old_counts, new_counts, _, _, _ = random_redistribution(3, 20, 5)
        machine = Machine(3)
        with pytest.raises(ValueError, match="original particles"):
            ResortPlan(machine, indices, np.asarray(old_counts) + 1, new_counts)
        # duplicate a target position within one destination (counts still
        # balance, but the targets no longer form a permutation)
        dup = pack_resort_index(
            np.zeros(4, dtype=np.int64), np.array([0, 0, 2, 3], dtype=np.int64)
        )
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError, match="not a permutation"):
            ResortPlan(Machine(3), [dup, empty, empty], [4, 0, 0], [4, 0, 0])
        plan = ResortPlan(Machine(3), indices, old_counts, new_counts)
        with pytest.raises(ValueError, match="original particle count"):
            plan.execute([[np.zeros(int(c) + 1) for c in old_counts]])
        with pytest.raises(ValueError, match="at least one data column"):
            plan.execute([])
        mixed = [np.zeros(int(c), dtype=np.float64) for c in old_counts]
        mixed[-1] = mixed[-1].astype(np.float32)
        with pytest.raises(ValueError, match="dtype"):
            plan.execute([mixed])


class TestPlanCache:
    def test_matches_and_invalidation(self):
        indices, old_counts, new_counts, _, _, _ = random_redistribution(4, 40, 3)
        plan = ResortPlan(Machine(4), indices, old_counts, new_counts)
        # identity fast path and equal-content copies both hit
        assert plan.matches(indices)
        assert plan.matches([idx.copy() for idx in indices])
        assert plan.matches(indices, old_counts, new_counts, comm="alltoall")
        # any change to the distribution invalidates
        assert not plan.matches(indices, comm="neighborhood")
        changed = [idx.copy() for idx in indices]
        nonempty = next(r for r in range(4) if changed[r].size)
        changed[nonempty] = changed[nonempty][::-1].copy()
        if not np.array_equal(changed[nonempty], indices[nonempty]):
            assert not plan.matches(changed)

    def test_stored_route_does_not_alias_caller_arrays(self):
        """Rows that stay where they are list their pairs in ``(source,
        target)`` order, so the route keeps the very row numbering it was
        built from — which must be the plan's own array, not one the caller
        can still write."""
        old_counts = [4, 0, 5]
        indices = [
            pack_resort_index(np.full(c, r), np.arange(c)) for r, c in enumerate(old_counts)
        ]
        plan = ResortPlan(Machine(3), indices, old_counts, old_counts)
        data = [np.arange(c, dtype=np.float64) + 10 * r for r, c in enumerate(old_counts)]
        (before,) = plan.execute([data])
        for idx in indices:
            assert not np.shares_memory(plan._route.row_index, idx)
            idx[:] = 0
        (after,) = plan.execute([data])
        for b, a, d in zip(before, after, data):
            np.testing.assert_array_equal(b, d)
            np.testing.assert_array_equal(a, d)

    def test_fcs_caches_across_calls_and_steps(self, small_system):
        machine = Machine(4)
        pset, _ = random_particle_set(small_system, 4, seed=2)
        fcs = fcs_init("fmm", machine, order=3, depth=3, lattice_shells=2)
        fcs.set_common(box=small_system.box, offset=small_system.offset, periodic=True)
        fcs.set_resort(True)
        fcs.tune(pset)
        fcs.run(pset)
        plan = fcs.resort_plan()
        assert fcs.resort_plan() is plan  # repeated request within a step
        # the method-B run replaced the application layout with the solver
        # layout, so the *next* run resorts from there: new indices, one
        # recompile — after which unmoved particles keep producing the same
        # indices and the plan survives the time steps
        fcs.run(pset)
        second = fcs.resort_plan()
        fcs.run(pset)
        assert fcs.resort_plan() is second
        stats = fcs.plan_stats
        assert stats.compiles == 2
        assert stats.cache_hits == 2
        assert stats.hit_rate == pytest.approx(0.5)
        assert machine.trace.counter("resort_plan.compiles") == 2
        assert machine.trace.counter("resort_plan.cache_hits") == 2

    def test_stale_explicit_plan_rejected(self, small_system):
        machine = Machine(4)
        pset, _ = random_particle_set(small_system, 4, seed=2)
        fcs = fcs_init("fmm", machine, order=3, depth=3, lattice_shells=2)
        fcs.set_common(box=small_system.box, offset=small_system.offset, periodic=True)
        fcs.set_resort(True)
        fcs.tune(pset)
        report = fcs.run(pset)
        # a plan compiled for a *different* redistribution of the same shape
        old_counts = [int(c) for c in report.old_counts]
        other_indices, oc, nc, _, _, _ = random_redistribution(
            4, int(sum(old_counts)), 77
        )
        if [int(c) for c in oc] != old_counts or not ResortPlan(
            Machine(4), other_indices, oc, nc
        ).matches(report.resort_indices, report.old_counts, report.new_counts):
            stale = ResortPlan(Machine(4), other_indices, oc, nc)
            data = [np.zeros((n, 3)) for n in old_counts]
            with pytest.raises((ValueError, RuntimeError), match="stale resort plan"):
                fcs.resort(data, plan=stale)

    def test_recompiles_when_distribution_changes(self, small_system):
        machine = Machine(4)
        pset, _ = random_particle_set(small_system, 4, seed=2)
        fcs = fcs_init("fmm", machine, order=3, depth=3, lattice_shells=2)
        fcs.set_common(box=small_system.box, offset=small_system.offset, periodic=True)
        fcs.set_resort(True)
        fcs.tune(pset)
        fcs.run(pset)
        first = fcs.resort_plan()
        # move the particles so the space-filling-curve partition changes
        rng = np.random.default_rng(11)
        moved = pset.block["pos"] + rng.uniform(2.0, 6.0, pset.block["pos"].shape)
        pset.block["pos"] = np.mod(moved, small_system.box)
        fcs.run(pset)
        second = fcs.resort_plan()
        if not first.matches(
            fcs.last_report.resort_indices,
            fcs.last_report.old_counts,
            fcs.last_report.new_counts,
        ):
            assert second is not first
            assert fcs.plan_stats.compiles == 2


class TestAuditedPlan:
    def test_plan_ledger_balances_against_audited_exchange(self):
        indices, old_counts, new_counts, _, _, _ = random_redistribution(4, 64, 13)
        machine = Machine(4)
        auditor = enable_auditing(machine)
        plan = ResortPlan(machine, indices, old_counts, new_counts)
        cols = [
            [np.random.default_rng(r).normal(size=(int(c), 3)) for r, c in enumerate(old_counts)],
            [np.arange(int(c), dtype=np.int64) for c in old_counts],
        ]
        plan.execute(cols)
        plan.execute(cols)
        counter = machine.trace.counter
        assert counter("resort_plan.compiles") == 1
        assert counter("resort_plan.executions") == 2
        assert counter("resort_plan.fused_columns") == 4
        planned = auditor.plan_ledger["resort"]
        audited = auditor.ledger["resort"]
        # the audited exchange is recomputed independently from the raw send
        # tables; the plan's self-reported traffic must never exceed it
        assert planned.messages <= audited.messages
        assert planned.bytes <= audited.bytes
        assert planned.bytes == plan.stats.bytes_moved
        # and the compile exchange is accounted under its own phase
        assert "resort_plan" in auditor.ledger

    def test_auditor_validates_plan_exchanges(self):
        """The fused exchange still passes the auditor's full alltoallv
        checks (count symmetry, completeness) even though the count
        exchange itself is skipped."""
        indices, old_counts, new_counts, _, _, _ = random_redistribution(6, 90, 21)
        machine = Machine(6)
        enable_auditing(machine, strict=True)
        plan = ResortPlan(machine, indices, old_counts, new_counts)
        out = plan.execute([[np.full(int(c), r, dtype=np.int32) for r, c in enumerate(old_counts)]])
        assert sum(a.shape[0] for a in out[0]) == int(sum(old_counts))


def redistribution_with_empty_ranks(nprocs, total, seed):
    """A resort problem confined to half the ranks: the rest hold zero
    particles before *and* after — the empty-rank edge case a straggler
    perturbation must not be able to smear into the data plane."""
    rng = np.random.default_rng(seed)
    active = np.sort(rng.choice(nprocs, size=max(1, nprocs // 2), replace=False))
    src = np.sort(rng.choice(active, size=total))
    old_counts = np.bincount(src, minlength=nprocs)
    dst = rng.choice(active, size=total)
    new_counts = np.bincount(dst, minlength=nprocs)
    pos = np.empty(total, dtype=np.int64)
    for r in range(nprocs):
        where = np.flatnonzero(dst == r)
        pos[where] = rng.permutation(where.size)
    offsets = np.concatenate(([0], np.cumsum(old_counts)))
    indices = [
        pack_resort_index(dst[offsets[r]:offsets[r + 1]], pos[offsets[r]:offsets[r + 1]])
        for r in range(nprocs)
    ]
    return indices, old_counts, new_counts, dst, pos, offsets


class TestPerturbedPlan:
    """ResortPlan with empty ranks while a straggler perturbation is active.

    A perturbation skews clocks, never data: the compiled plan's cached
    counts, the delivered layout and the plan/audit ledgers must be
    identical with and without the perturbation.
    """

    NPROCS = 6
    PERTURBATION = Perturbation(
        seed=11,
        compute_jitter=0.25,
        straggler_fraction=0.5,
        straggler_slowdown=6.0,
    )

    def _run(self, perturbation):
        indices, old_counts, new_counts, dst, pos, offsets = (
            redistribution_with_empty_ranks(self.NPROCS, 48, seed=33)
        )
        machine = Machine(self.NPROCS, perturbation=perturbation)
        auditor = enable_auditing(machine)
        plan = ResortPlan(machine, indices, old_counts, new_counts)
        rng = np.random.default_rng(7)
        total = int(sum(old_counts))
        floats = rng.normal(size=(total, 3))
        ints = rng.integers(0, 2**31, total)
        cols = [
            [v[offsets[r]:offsets[r + 1]] for r in range(self.NPROCS)]
            for v in (floats, ints)
        ]
        out = plan.execute(cols)
        return machine, auditor, plan, out, (floats, ints, dst, pos, offsets, new_counts)

    def test_empty_ranks_balance_under_straggler_perturbation(self):
        machine, auditor, plan, out, ground = self._run(self.PERTURBATION)
        floats, ints, dst, pos, offsets, new_counts = ground
        assert int((np.asarray(plan.old_counts) == 0).sum()) >= self.NPROCS // 2
        assert int((np.asarray(plan.new_counts) == 0).sum()) >= self.NPROCS // 2
        for values, got in zip((floats, ints), out):
            want = expected_layout(
                values, dst, pos, new_counts, offsets, self.NPROCS
            )
            for r in range(self.NPROCS):
                np.testing.assert_array_equal(got[r], want[r])
        # plan ledger balances against the independently audited exchange
        planned = auditor.plan_ledger["resort"]
        audited = auditor.ledger["resort"]
        assert planned.messages <= audited.messages
        assert planned.bytes <= audited.bytes
        assert planned.bytes == plan.stats.bytes_moved

    def test_perturbation_moves_clocks_not_data(self):
        plain = self._run(None)
        perturbed = self._run(self.PERTURBATION)
        # cached counts and delivered layouts are byte-identical
        assert perturbed[2].old_counts == plain[2].old_counts
        assert perturbed[2].new_counts == plain[2].new_counts
        for col_plain, col_pert in zip(plain[3], perturbed[3]):
            for a, b in zip(col_plain, col_pert):
                np.testing.assert_array_equal(a, b)
        # ledgers are data-plane: identical across the perturbation
        for phase in ("resort", "resort_plan"):
            lp, lq = plain[1].ledger[phase], perturbed[1].ledger[phase]
            assert (lp.messages, lp.bytes) == (lq.messages, lq.bytes)
        # but the straggler really did slow the virtual machine down
        assert perturbed[0].elapsed() > plain[0].elapsed()


class TestSimulationIntegration:
    """The per-column traffic pattern survives only here, as the oracle the
    fused exchange is held to (it used to be a ``SimulationConfig`` knob)."""

    def _run(self, fuse, steps=3):
        from repro.md.simulation import Simulation, SimulationConfig
        from repro.md.systems import silica_melt_system
        from repro.verify import InvariantChecker

        class PerColumnSimulation(Simulation):
            def _resort_application_data(self, report):
                plan = self.fcs.resort_plan()
                self.vel = self.fcs.resort(self.vel, plan=plan)
                self.acc = self.fcs.resort(self.acc, plan=plan)
                self.ids = self.fcs.resort(self.ids, plan=plan)

        machine = Machine(4)
        sim = (Simulation if fuse else PerColumnSimulation)(
            machine,
            silica_melt_system(48, seed=5),
            SimulationConfig(
                solver="fmm", method="B", distribution="random", seed=5,
                solver_kwargs={"order": 3, "depth": 3, "lattice_shells": 2},
            ),
        )
        auditor = enable_auditing(machine)
        checker = InvariantChecker(sim)
        sim.run(steps)
        checker.assert_ok()
        return sim, auditor

    def test_fused_and_per_column_trajectories_agree(self):
        fused, aud_fused = self._run(fuse=True)
        split, aud_split = self._run(fuse=False)
        a, b = fused.gather_state(), split.gather_state()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])
        # same plans either way; fusion only collapses the exchange count
        fused_count, split_count = fused.machine.trace.counter, split.machine.trace.counter
        assert fused_count("resort_plan.executions") < split_count("resort_plan.executions")
        assert fused_count("resort_plan.fused_columns") == split_count("resort_plan.fused_columns")
        assert (
            2 * aud_fused.ledger["resort"].messages
            <= aud_split.ledger["resort"].messages
        )
        planned = aud_fused.plan_ledger["resort"]
        audited = aud_fused.ledger["resort"]
        assert planned.messages <= audited.messages
        assert planned.bytes <= audited.bytes


class TestHandleAPI:
    def test_fcs_init_accepts_solver_instance(self, small_system):
        machine = Machine(4)
        solver = FMMSolver(machine, order=3, depth=3, lattice_shells=2)
        fcs = fcs_init(solver, machine)
        assert fcs.solver is solver
        assert fcs.method == "fmm"
        with pytest.raises(TypeError, match="already constructed"):
            fcs_init(solver, machine, order=5)
        with pytest.raises(ValueError, match="different machine"):
            fcs_init(solver, Machine(4))

    def test_set_common_is_fully_keyword_only(self, small_system):
        fcs = fcs_init("fmm", Machine(4))
        with pytest.raises(TypeError):
            fcs.set_common(small_system.box)
        with pytest.raises(TypeError):
            fcs.set_common(small_system.box, offset=small_system.offset)
        with pytest.raises(TypeError):
            Solver(Machine(2)).set_common(small_system.box)

    def test_set_common_validates_arguments(self, small_system):
        fcs = fcs_init("fmm", Machine(4))
        with pytest.raises(ValueError, match="3-vectors"):
            fcs.set_common(box=(1.0, 2.0))
        with pytest.raises(ValueError, match="positive"):
            fcs.set_common(box=(1.0, -2.0, 3.0))
        with pytest.raises(ValueError, match="finite"):
            fcs.set_common(box=(1.0, float("nan"), 3.0))
        with pytest.raises(ValueError, match="finite"):
            fcs.set_common(box=small_system.box, offset=(0.0, float("inf"), 0.0))

    def test_resort_rejects_data_pair_without_plan(self, small_system):
        fcs = fcs_init("fmm", Machine(4))
        with pytest.raises(TypeError, match="ResortPlan"):
            fcs.resort([np.zeros(3)], [np.zeros(3)])

    def test_runreport_comm_is_structured(self, small_system):
        from repro.solvers.base import RunReport

        with pytest.raises(ValueError, match="comm must be one of"):
            RunReport(changed=False, comm="grid+neighborhood")
        machine = Machine(4)
        pset, _ = random_particle_set(small_system, 4, seed=2)
        fcs = fcs_init("p2nfft", machine, cutoff=4.0)
        fcs.set_common(box=small_system.box, periodic=True)
        fcs.set_resort(True)
        fcs.tune(pset)
        fcs.set_max_particle_move(0.01)
        report = fcs.run(pset)
        assert report.comm in ("alltoall", "neighborhood")
        if report.strategy.endswith("neighborhood"):
            assert report.comm == "neighborhood"
