"""SimulationConfig rejects unknown and conflicting knobs with actionable
errors (API v2, docs/architecture.md)."""

import pytest

from repro.md.simulation import SimulationConfig


class TestUnknownKnobs:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method must be one of"):
            SimulationConfig(method="C")

    def test_unknown_dynamics(self):
        with pytest.raises(ValueError, match="dynamics"):
            SimulationConfig(dynamics="newtonian")

    def test_unknown_load_balance(self):
        with pytest.raises(ValueError, match="load_balance"):
            SimulationConfig(load_balance="sometimes")

    def test_unknown_distribution(self):
        with pytest.raises(ValueError, match="distribution"):
            SimulationConfig(distribution="gridd")

    def test_solver_kwargs_must_be_dict(self):
        with pytest.raises(ValueError, match="solver_kwargs"):
            SimulationConfig(solver_kwargs=[("order", 3)])


class TestRangeKnobs:
    @pytest.mark.parametrize("knob", ["dt", "accuracy", "mass"])
    def test_positive_required(self, knob):
        with pytest.raises(ValueError, match=knob):
            SimulationConfig(**{knob: 0.0})

    def test_negative_brownian_step(self):
        with pytest.raises(ValueError, match="brownian_step"):
            SimulationConfig(brownian_step=-0.1)

    def test_adapt_every(self):
        with pytest.raises(ValueError, match="adapt_every"):
            SimulationConfig(adapt_every=0)

    def test_capacity_factor(self):
        with pytest.raises(ValueError, match="capacity_factor"):
            SimulationConfig(capacity_factor=0.5)


class TestConflictingKnobs:
    def test_inverted_balance_hysteresis(self):
        with pytest.raises(ValueError, match="conflicting balance knobs"):
            SimulationConfig(balance_trigger=1.1, balance_rearm=1.5)

    def test_rearm_below_one(self):
        with pytest.raises(ValueError, match="conflicting balance knobs"):
            SimulationConfig(balance_trigger=1.5, balance_rearm=0.9)

    def test_legal_combinations_accepted(self):
        # deliberately unchecked: dynamic balancing with method A or a
        # non-rebalanceable solver (DST/conformance exercise these)
        SimulationConfig(load_balance="dynamic", method="A")
        SimulationConfig(load_balance="dynamic", solver="direct")
        SimulationConfig(solver="not-a-solver")  # registry validates later
        SimulationConfig(balance_trigger=1.5, balance_rearm=1.5)
