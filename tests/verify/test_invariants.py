"""Invariant registry: positive runs, corruption detection, registration."""

import numpy as np
import pytest

from repro.core.particles import RankMajor
from repro.core.resort import pack_resort_index
from repro.verify import (
    InvariantChecker,
    InvariantViolation,
    all_invariants,
    check_resort_permutation,
    get_invariant,
    run_invariants,
)
from repro.verify.dst import run_dst
from repro.verify.invariants import _REGISTRY, SKIPPED, invariant


class TestRegistry:
    def test_at_least_eight_invariants(self):
        assert len(all_invariants()) >= 8

    def test_catalog_is_fifteen_checks_that_can_fail(self):
        """Each accounting invariant compares two independently derived
        quantities (docs/verification.md, "Evidence"); the two that were true
        by construction are gone, and restart equivalence is ``play``'s
        per-step ``schedule-independence`` check, not an invariant of its
        own."""
        names = [i.name for i in all_invariants()]
        assert len(names) == 15
        assert {"trace-accounting", "plan-accounting", "collective-algo-accounting"} <= set(names)
        assert not any("quiescent" in n or n.startswith("span-") for n in names)

    def test_names_unique_and_described(self):
        invs = all_invariants()
        assert len({i.name for i in invs}) == len(invs)
        assert all(i.description for i in invs)

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown invariant"):
            get_invariant("no-such-check")

    def test_duplicate_registration_rejected(self):
        name = all_invariants()[0].name
        with pytest.raises(ValueError, match="already registered"):
            invariant(name, "dup")(lambda c: None)

    def test_custom_registration(self):
        @invariant("test-only-check", "a throwaway check")
        def _check(checker):
            return None

        try:
            assert get_invariant("test-only-check").check is _check
        finally:
            del _REGISTRY["test-only-check"]


class TestLiveSimulation:
    def test_all_pass_on_healthy_run(self, sim_factory):
        sim, checker, auditor = sim_factory(track_energy=True)
        sim.run(2)
        results = checker.assert_ok()
        passed = [r.name for r in results if r.status == "passed"]
        assert len(passed) >= 8
        assert not any(r.failed for r in results)

    def test_selected_names_only(self, sim_factory):
        sim, checker, _ = sim_factory()
        sim.run(1)
        results = checker.run(["particle-count", "charge-conservation"])
        assert [r.name for r in results] == [
            "particle-count",
            "charge-conservation",
        ]

    def test_lost_particle_detected(self, sim_factory):
        sim, checker, _ = sim_factory()
        sim.run(1)
        # drop one particle from a nonempty rank behind the library's back
        r = next(i for i, p in enumerate(sim.particles.pos) if p.shape[0])
        # (a per-rank view takes no item: install the shortened layout)
        offsets = sim.particles.offsets.copy()
        keep = np.delete(np.arange(offsets[-1]), offsets[r + 1] - 1)
        offsets[r + 1:] -= 1
        sim.particles.install(sim.particles.block.take(keep), offsets)
        sim.store = RankMajor(sim.store.data.take(keep), offsets)
        results = {res.name: res for res in checker.run()}
        assert results["particle-count"].failed

    def test_charge_corruption_detected(self, sim_factory):
        sim, checker, _ = sim_factory()
        sim.run(1)
        r = next(i for i, q in enumerate(sim.particles.q) if q.shape[0])
        sim.particles.q[r][:] += 0.5  # through the view
        results = {res.name: res for res in checker.run()}
        assert results["charge-conservation"].failed

    def test_duplicated_identity_detected(self, sim_factory):
        sim, checker, _ = sim_factory()
        sim.run(1)
        r = next(i for i, ids in enumerate(sim.ids) if ids.shape[0] >= 2)
        ids = sim.ids[r]  # a view: writing it writes the store
        ids[0] = ids[1]
        results = {res.name: res for res in checker.run()}
        assert results["identity-permutation"].failed

    def test_nan_potential_detected(self, sim_factory):
        sim, checker, _ = sim_factory()
        sim.run(1)
        r = next(i for i, p in enumerate(sim.particles.pot) if p.shape[0])
        sim.particles.pot[r][0] = np.nan
        results = {res.name: res for res in checker.run()}
        assert results["results-finite"].failed

    def test_assert_ok_raises_with_detail(self, sim_factory):
        sim, checker, _ = sim_factory()
        sim.run(1)
        r = next(i for i, q in enumerate(sim.particles.q) if q.shape[0])
        sim.particles.q[r][:] += 0.5  # through the view
        with pytest.raises(InvariantViolation, match="charge"):
            checker.assert_ok()

    def test_energy_drift_skipped_without_tracking(self, sim_factory):
        sim, checker, _ = sim_factory(track_energy=False)
        sim.run(1)
        results = {res.name: res for res in checker.run()}
        assert results["energy-drift"].status == "skipped"

    def test_trace_accounting_detects_ledger_mismatch(self, sim_factory):
        sim, checker, auditor = sim_factory()
        sim.run(1)
        assert "sort" in auditor.ledger
        auditor.ledger["sort"].messages += 7  # simulate a lost message
        results = {res.name: res for res in checker.run()}
        assert results["trace-accounting"].failed

    def test_one_shot_helper(self, sim_factory):
        sim, _, _ = sim_factory()
        sim.run(1)
        results = run_invariants(sim)
        assert any(r.status == "passed" for r in results)


class TestPlanAccounting:
    """``plan-accounting`` on direct, pairwise- and Bruck-staged runs: the
    plan's claim is bounded by the audited messages and bytes, by the bytes
    alone where Bruck forwarded aggregated blocks."""

    @pytest.mark.parametrize("nprocs, n", [(4, 64), (8, 512)])
    @pytest.mark.parametrize("solver", ["fmm", "p2nfft"])
    def test_bruck_staged_method_b_dst_cell(self, solver, nprocs, n):
        """Used to die on every such cell: ``plan engine reports 12
        messages, audited exchanges carried only 8`` — fewer messages than
        the plan's direct route is what Bruck forwarding does."""
        report = run_dst(
            [solver], ["B"], seeds=1, steps=3, nprocs=nprocs, n_particles=n,
            algos=["bruck"], probe_rounds=0,
        )
        assert report.ok, report.failures

    def run_plan(self, sim_factory, algos):
        sim, checker, auditor = sim_factory(n=64, collective_algos=algos)
        sim.run(2)

        def check():
            return checker.run(["plan-accounting"])[0]

        assert check().status == "passed"
        return auditor.plan_ledger["resort"], auditor.ledger["resort"], check

    @pytest.mark.parametrize("algos", [None, "pairwise"])
    def test_one_message_or_byte_too_many_is_caught(self, sim_factory, algos):
        """Direct and pairwise carry exactly the plan's route."""
        planned, audited, check = self.run_plan(sim_factory, algos)
        assert (planned.messages, planned.bytes) == (audited.messages, audited.bytes)
        planned.messages += 1
        assert "messages" in check().detail
        planned.messages -= 1
        planned.bytes += 1
        assert "bytes" in check().detail

    def test_one_byte_too_many_is_caught_on_a_bruck_run(self, sim_factory):
        planned, audited, check = self.run_plan(sim_factory, "bruck")
        assert planned.messages > audited.messages and planned.bytes < audited.bytes
        planned.bytes = audited.bytes
        assert check().status == "passed"
        planned.bytes += 1
        assert "bytes" in check().detail


class TestResortPermutationCheck:
    """The acceptance-criterion negative test: corrupting a resort index
    must flip the permutation invariant to failed."""

    @staticmethod
    def _valid_indices(nprocs=3):
        # identity redistribution: rank r keeps its 2 particles in place
        idx = [
            pack_resort_index(
                np.full(2, r, dtype=np.int64), np.arange(2, dtype=np.int64)
            )
            for r in range(nprocs)
        ]
        return idx, [2] * nprocs, nprocs

    def test_valid_passes(self):
        idx, counts, nprocs = self._valid_indices()
        assert check_resort_permutation(idx, counts, nprocs) is None

    def test_corrupted_duplicate_target_fails(self):
        idx, counts, nprocs = self._valid_indices()
        corrupted = idx[0].copy()
        corrupted[1] = corrupted[0]  # two particles claim one slot
        idx[0] = corrupted
        msg = check_resort_permutation(idx, counts, nprocs)
        assert msg is not None and "not a permutation" in msg

    def test_corrupted_rank_out_of_range_fails(self):
        idx, counts, nprocs = self._valid_indices()
        corrupted = idx[0].copy()
        corrupted[0] = pack_resort_index(
            np.array([nprocs + 5]), np.array([0])
        )[0]
        idx[0] = corrupted
        msg = check_resort_permutation(idx, counts, nprocs)
        assert msg is not None and "out of range" in msg

    def test_corrupted_position_overflow_fails(self):
        idx, counts, nprocs = self._valid_indices()
        corrupted = idx[0].copy()
        corrupted[0] = pack_resort_index(np.array([0]), np.array([99]))[0]
        idx[0] = corrupted
        msg = check_resort_permutation(idx, counts, nprocs)
        assert msg is not None and "exceeds" in msg

    def test_ghost_index_fails(self):
        idx, counts, nprocs = self._valid_indices()
        corrupted = idx[0].copy()
        corrupted[0] = -1
        idx[0] = corrupted
        msg = check_resort_permutation(idx, counts, nprocs)
        assert msg is not None and "ghost" in msg

    def test_live_corruption_detected(self, sim_factory):
        """End-to-end: corrupt the solver-produced resort indices of a live
        method-B run; the resort-permutation invariant must fail."""
        sim, checker, _ = sim_factory(solver="fmm", method="B")
        sim.run(1)
        report = sim.fcs.last_report
        assert report is not None and report.changed
        results = {r.name: r for r in checker.run()}
        assert results["resort-permutation"].status == "passed"
        r = next(
            i for i, idx in enumerate(report.resort_indices) if idx.shape[0] >= 2
        )
        report.resort_indices[r][1] = report.resort_indices[r][0]
        results = {r.name: r for r in checker.run()}
        assert results["resort-permutation"].failed
