"""Chaos harness: Perturbation sampling and machine wiring."""

import numpy as np
import pytest

from repro.simmpi.chaos import Perturbation
from repro.simmpi.collectives import alltoallv
from repro.simmpi.costmodel import CostModel
from repro.simmpi.machine import Machine


class TestPerturbationConfig:
    def test_default_is_null(self):
        p = Perturbation()
        assert p.is_null
        assert p.describe() == "null(seed=0)"

    def test_sample_zero_is_null(self):
        assert Perturbation.sample(0).is_null

    def test_sample_nonzero_is_not_null_and_deterministic(self):
        a, b = Perturbation.sample(7), Perturbation.sample(7)
        assert not a.is_null
        assert a == b
        assert a != Perturbation.sample(8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"compute_jitter": -0.1},
            {"extra_latency": -1e-6},
            {"clock_skew": -1.0},
            {"straggler_fraction": 1.5},
            {"degraded_link_fraction": -0.5},
            {"bandwidth_degradation": 1.0},
            {"straggler_slowdown": 0.5},
            {"degraded_link_slowdown": 0.0},
        ],
    )
    def test_validation_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            Perturbation(**kwargs)

    def test_describe_mentions_active_knobs(self):
        p = Perturbation(seed=3, compute_jitter=0.2, extra_latency=1e-5)
        text = p.describe()
        assert "seed=3" in text
        assert "jitter=" in text
        assert "lat+" in text

    @pytest.mark.parametrize(
        "make", [Perturbation.sample, lambda seed: Perturbation(seed=seed)],
        ids=["sample", "constructor"],
    )
    def test_negative_seed_is_refused_naming_it(self, make):
        # was a raw numpy "expected non-negative integer" from the RNG draw
        with pytest.raises(ValueError, match="chaos seed must be non-negative, got -1"):
            make(-1)


class TestPerturbationDraws:
    def test_null_draws_are_none(self):
        p = Perturbation()
        assert p.compute_factors(8) is None
        assert p.comm_factors(8) is None
        assert p.initial_clocks(8) is None

    def test_draws_are_seed_deterministic(self):
        p = Perturbation.sample(5)
        np.testing.assert_array_equal(p.compute_factors(8), p.compute_factors(8))
        np.testing.assert_array_equal(p.comm_factors(8), p.comm_factors(8))
        np.testing.assert_array_equal(p.initial_clocks(8), p.initial_clocks(8))

    def test_factors_are_positive_slowdowns(self):
        p = Perturbation(
            seed=2,
            straggler_fraction=1.0,
            straggler_slowdown=4.0,
            degraded_link_fraction=1.0,
            degraded_link_slowdown=2.0,
        )
        np.testing.assert_array_equal(p.compute_factors(6), np.full(6, 4.0))
        np.testing.assert_array_equal(p.comm_factors(6), np.full(6, 2.0))

    def test_clock_skew_bounds(self):
        p = Perturbation(seed=9, clock_skew=1e-3)
        clocks = p.initial_clocks(16)
        assert clocks.shape == (16,)
        assert np.all(clocks >= 0.0) and np.all(clocks < 1e-3)


class TestCostModelPerturbed:
    def test_neutral_returns_same_object(self):
        model = CostModel()
        assert model.perturbed() is model
        assert model.perturbed(extra_overhead=0.0, bandwidth_factor=1.0) is model

    def test_non_neutral_scales(self):
        model = CostModel()
        slow = model.perturbed(extra_overhead=1e-5, bandwidth_factor=0.5)
        assert slow.overhead == model.overhead + 1e-5
        assert slow.bandwidth == model.bandwidth * 0.5

    def test_effective_model_null_is_identity(self):
        model = CostModel()
        assert Perturbation().effective_model(model) is model


class TestMachinePerturb:
    def test_null_perturb_leaves_machine_untouched(self):
        plain, nulled = Machine(4), Machine(4)
        nulled.perturb(Perturbation())
        assert nulled.model is plain.model or nulled.model == plain.model
        assert nulled.comm_factors is None
        np.testing.assert_array_equal(nulled.clocks, plain.clocks)

    def test_perturb_applies_skew_and_factors(self):
        p = Perturbation.sample(4)
        m = Machine(4, perturbation=p)
        assert m.perturbation is p
        assert m.clocks.max() > 0 or p.clock_skew == 0
        assert m.comm_factor() >= 1.0

    def test_double_perturb_rejected(self):
        m = Machine(4)
        m.perturb(Perturbation.sample(1))
        with pytest.raises(RuntimeError):
            m.perturb(Perturbation.sample(2))

    def test_perturb_after_activity_rejected(self):
        m = Machine(4)
        m.compute(np.ones(4) * 1e-6, phase="warm")
        with pytest.raises(RuntimeError):
            m.perturb(Perturbation.sample(1))

    def test_comm_factor_is_max_over_endpoints(self):
        p = Perturbation(
            seed=12, degraded_link_fraction=0.5, degraded_link_slowdown=3.0
        )
        m = Machine(8, perturbation=p)
        factors = m.comm_factors
        assert factors is not None
        for a in range(8):
            for b in range(8):
                assert m.comm_factor(a, b) == max(factors[a], factors[b])
        assert m.comm_factor() == factors.max()

    def test_perturbation_slows_clocks_but_not_data(self):
        """The whole contract in one alltoallv: same bytes, slower clocks."""
        rng = np.random.default_rng(0)
        sends = [
            {
                dst: rng.standard_normal(3 + src + dst)
                for dst in range(4)
                if dst != src
            }
            for src in range(4)
        ]
        p = Perturbation(
            seed=3,
            straggler_fraction=0.5,
            straggler_slowdown=8.0,
            extra_latency=1e-4,
            bandwidth_degradation=0.5,
        )
        plain, chaotic = Machine(4), Machine(4, perturbation=p)
        out_plain = alltoallv(plain, sends, phase="test")
        out_chaos = alltoallv(chaotic, sends, phase="test")
        for recv_plain, recv_chaos in zip(out_plain, out_chaos):
            assert len(recv_plain) == len(recv_chaos)
            for (sa, pa), (sb, pb) in zip(recv_plain, recv_chaos):
                assert sa == sb
                np.testing.assert_array_equal(pa, pb)
        assert chaotic.elapsed() > plain.elapsed()
