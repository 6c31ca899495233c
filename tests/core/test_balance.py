"""Load-balancing subsystem: monitor hysteresis, conformance, invariants.

The distribution-conformance contract: enabling load balancing changes
*where* particles live, never *what* the simulation computes — balanced
and unbalanced runs of the same seeded system agree on the full
trajectory (to summation-order tolerance), for every solver, whether or
not the solver supports rebalancing at all.
"""

import hashlib

import numpy as np
import pytest

from row_oracles import used_by
from repro.core.balance import (
    BalanceEvent,
    ImbalanceMonitor,
    LOAD_BALANCE_MODES,
    load_imbalance,
)
from repro.md.distributions import CLUSTERED_KINDS, clustered_system
from repro.md.simulation import Simulation, SimulationConfig
from repro.simmpi.machine import Machine
from repro.verify import InvariantChecker
from repro.verify.differential import compare_states

#: skip-compute FMM configuration whose two-cluster λ exceeds the default
#: trigger at (n=4096, P=16): depth 3 keeps the near field dominant, order
#: 2 keeps the count-proportional far field small
GOLDEN_KWARGS = {
    "compute": "skip",
    "work_model": "density",
    "depth": 3,
    "order": 2,
    "lattice_shells": 2,
}


def make_sim(machine, system, **overrides):
    cfg = dict(
        solver="fmm",
        method="B",
        distribution="random",
        seed=1,
        dynamics="brownian",
        brownian_step=0.02,
        solver_kwargs=dict(GOLDEN_KWARGS),
        capacity_factor=4.0,
    )
    cfg.update(overrides)
    return Simulation(machine, system, SimulationConfig(**cfg))


# -- pure arithmetic -----------------------------------------------------------


class TestLoadImbalance:
    def test_perfect_balance(self):
        assert load_imbalance(np.full(8, 3.0)) == 1.0

    def test_full_serialization(self):
        work = np.zeros(8)
        work[3] = 5.0
        assert load_imbalance(work) == 8.0

    def test_no_work_is_balanced(self):
        assert load_imbalance(np.zeros(4)) == 1.0
        assert load_imbalance(np.zeros(0)) == 1.0


# -- the monitor ---------------------------------------------------------------


class TestImbalanceMonitor:
    def test_fires_once_then_holds_in_dead_band(self):
        mon = ImbalanceMonitor(trigger=1.5, rearm=1.15)
        assert mon.observe(np.asarray([3.0, 1.0]), step=0)  # λ = 1.5 -> fire
        # rebalance lands in the dead band (1.15, 1.5): no re-fire, ever
        for step in range(1, 5):
            assert not mon.observe(np.asarray([1.3, 0.7]), step=step)
        assert len(mon.events) == 1
        assert not mon.armed

    def test_rearms_below_rearm_threshold(self):
        mon = ImbalanceMonitor(trigger=1.5, rearm=1.15)
        assert mon.observe(np.asarray([3.0, 1.0]), step=0)
        assert not mon.observe(np.asarray([1.05, 0.95]), step=1)  # re-arms
        assert mon.armed
        assert mon.observe(np.asarray([3.0, 1.0]), step=2)  # fires again
        assert [e.step for e in mon.events] == [0, 2]

    def test_lambda_after_filled_by_next_observation(self):
        mon = ImbalanceMonitor(trigger=1.5, rearm=1.15)
        mon.observe(np.asarray([3.0, 1.0]), step=0)
        assert mon.events[-1].lambda_after is None
        mon.observe(np.asarray([1.1, 0.9]), step=1)
        assert mon.events[-1].lambda_after == pytest.approx(1.1)

    def test_min_interval_suppresses_rapid_fire(self):
        mon = ImbalanceMonitor(trigger=1.2, rearm=1.1, min_interval=3)
        assert mon.observe(np.asarray([2.0, 0.5]), step=0)
        mon.observe(np.asarray([1.0, 1.0]), step=1)  # re-arm
        assert not mon.observe(np.asarray([2.0, 0.5]), step=2)  # too soon
        mon.observe(np.asarray([1.0, 1.0]), step=3)
        assert mon.observe(np.asarray([2.0, 0.5]), step=4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ImbalanceMonitor(trigger=1.1, rearm=1.2)
        with pytest.raises(ValueError):
            ImbalanceMonitor(trigger=1.5, rearm=0.9)
        with pytest.raises(ValueError):
            ImbalanceMonitor(min_interval=0)


# -- config plumbing -----------------------------------------------------------


class TestConfigPlumbing:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(load_balance="always")
        for mode in LOAD_BALANCE_MODES:
            SimulationConfig(load_balance=mode)

    def test_monitor_only_attached_for_dynamic_rebalanceable(self):
        system = clustered_system("two-cluster", 128, seed=3)
        sim = make_sim(Machine(4), system, load_balance="dynamic",
                       solver_kwargs={"work_model": "density"})
        assert sim.balance_monitor is not None
        sim = make_sim(Machine(4), system, load_balance="off",
                       solver_kwargs={"work_model": "density"})
        assert sim.balance_monitor is None
        # p2nfft does not support repartitioning: dynamic degrades to off
        sim = make_sim(Machine(4), system, solver="p2nfft",
                       load_balance="dynamic", solver_kwargs={})
        assert sim.balance_monitor is None

    def test_static_rebalances_exactly_once(self):
        machine = Machine(16)
        sim = make_sim(
            machine, clustered_system("two-cluster", 4096, seed=1),
            load_balance="static",
        )
        sim.run(3)
        assert machine.trace.counter("balance.rebalances") == 1


# -- dynamic balancing end to end ----------------------------------------------


class TestDynamicBalancing:
    def test_fires_then_stops_under_hysteresis(self):
        """The two-cluster λ crosses the default trigger, one rebalance
        lands the system in the dead band, and the monitor stays quiet
        for the rest of the run."""
        machine = Machine(16)
        sim = make_sim(
            machine, clustered_system("two-cluster", 4096, seed=1),
            load_balance="dynamic",
        )
        checker = InvariantChecker(sim)
        sim.run(5)
        checker.assert_ok()
        lams = [r.lambda_factor for r in sim.records]
        assert lams[0] >= sim.config.balance_trigger
        assert all(l < sim.config.balance_trigger for l in lams[1:])
        assert machine.trace.counter("balance.rebalances") == 1
        assert len(sim.balance_monitor.events) == 1
        event = sim.balance_monitor.events[0]
        assert event.lambda_after is not None
        assert event.lambda_after <= event.lambda_before
        # the balanced (count-unequal) layout was actually adopted
        assert all(r.changed for r in sim.records)

    def test_balance_conservation_invariant_rejects_regression(self):
        """The balance-conservation invariant flags a rebalance that made
        λ worse (a synthetic regression injected into the monitor)."""
        machine = Machine(16)
        sim = make_sim(
            machine, clustered_system("two-cluster", 4096, seed=1),
            load_balance="dynamic",
        )
        checker = InvariantChecker(sim)
        sim.run(2)
        sim.balance_monitor.events.append(
            BalanceEvent(step=99, lambda_before=1.2, lambda_after=2.4)
        )
        results = checker.run(["balance-conservation"])
        assert any(r.failed for r in results)


# -- conformance: balancing never changes the physics --------------------------


class TestConformance:
    @pytest.mark.parametrize("solver", ["fmm", "p2nfft", "direct", "ewald"])
    @pytest.mark.parametrize("kind", CLUSTERED_KINDS)
    def test_balanced_equals_unbalanced(self, solver, kind):
        """Same seeded clustered system, real compute, off vs dynamic with
        an aggressive trigger: identical trajectories to summation-order
        tolerance.  Non-FMM solvers must degrade to a clean no-op."""
        states = {}
        rebalances = {}
        for lb in ("off", "dynamic"):
            machine = Machine(4)
            sim = make_sim(
                machine,
                clustered_system(kind, 96, seed=2),
                solver=solver,
                load_balance=lb,
                balance_trigger=1.02,
                balance_rearm=1.01,
                capacity_factor=6.0,
                solver_kwargs={"work_model": "density"} if solver == "fmm" else {},
            )
            checker = InvariantChecker(sim)
            sim.run(2)
            checker.assert_ok()
            states[lb] = sim.gather_state()
            rebalances[lb] = machine.trace.counter("balance.rebalances")
        assert compare_states(states["off"], states["dynamic"]) is None
        assert rebalances["off"] == 0
        if solver == "fmm":
            # the aggressive trigger guarantees the dynamic run actually
            # exercised a repartition — the comparison is not vacuous
            assert rebalances["dynamic"] >= 1
        else:
            assert rebalances["dynamic"] == 0

    @pytest.mark.parametrize("method", ["A", "B", "B+move"])
    def test_methods_agree_under_balancing(self, method):
        """A/B/B+move with dynamic balancing all match the unbalanced
        method-A reference (the differential-oracle contract, extended to
        the balanced configurations).  Force dynamics: cross-method
        comparisons need layout-independent physics (the Brownian
        surrogate draws its jitter in storage order)."""
        machine = Machine(4)
        ref = make_sim(
            machine, clustered_system("two-cluster", 96, seed=2),
            method="A", load_balance="off", dynamics="force",
            solver_kwargs={"work_model": "density"},
        )
        ref.run(2)
        reference = ref.gather_state()

        machine = Machine(4)
        sim = make_sim(
            machine, clustered_system("two-cluster", 96, seed=2),
            method=method, load_balance="dynamic", dynamics="force",
            balance_trigger=1.02, balance_rearm=1.01, capacity_factor=6.0,
            solver_kwargs={"work_model": "density"},
        )
        sim.run(2)
        assert compare_states(reference, sim.gather_state()) is None


# -- golden snapshot -----------------------------------------------------------


def state_fingerprint(state):
    h = hashlib.sha256()
    for key in ("ids", "pos", "vel", "q", "pot"):
        h.update(np.ascontiguousarray(state[key]).tobytes())
    return h.hexdigest()[:16]


def run_golden():
    machine = Machine(16)
    sim = make_sim(
        machine, clustered_system("two-cluster", 4096, seed=1),
        load_balance="dynamic",
    )
    sim.run(4)
    return {
        "lambda_hex": [r.lambda_factor.hex() for r in sim.records],
        "rebalance_steps": [e.step for e in sim.balance_monitor.events],
        "state": state_fingerprint(sim.gather_state()),
        "ledger": (machine.trace.total_messages(), sum(s.bytes for _, s in machine.trace.items())),
    }


class TestGoldenSnapshot:
    """Pins the λ time series and rebalance schedule of the seeded
    two-cluster run, bitwise, with the vectorized kernels and with their
    scalar oracles (``oracle_kernels``).  A diff here means
    the weighted-splitter arithmetic (or the monitor) changed behavior —
    rebless only with a changelog entry explaining why.
    """

    GOLDEN = {
        "lambda_hex": [
            "0x1.a6ec4a283d496p+0",
            "0x1.33508fcbb5704p+0",
            "0x1.33330b18cb16cp+0",
            "0x1.331dccece2237p+0",
            "0x1.382a27f923802p+0",
        ],
        "rebalance_steps": [0],
        "state": "5e5b56f2793d7957",
        "ledger": (2979, 8529064),
    }

    def test_vectorized_matches_golden(self):
        assert run_golden() == self.GOLDEN

    def test_oracle_kernels_matches_golden(self, oracle_kernels):
        assert run_golden() == self.GOLDEN
        # the weighted splitter arithmetic under test feeds this kernel
        assert oracle_kernels == {"partition_destinations"} | used_by(
            "fmm", dynamics="brownian", compute="skip"
        )

    def test_per_rank_store_matches_golden(self, oracle_store):
        """The rank-by-rank bodies the flat particle store replaced
        (``tests/store_oracles.py``): the weighted sort and its merge tail,
        the FMM's keygen and the hand-back of ``Solver.run``."""
        assert run_golden() == self.GOLDEN
        assert {"partition_sort_ranks", "make_blocks_ranks", "solver_run_ranks"} <= oracle_store
