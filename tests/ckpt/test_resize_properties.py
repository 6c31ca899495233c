"""Property tests for the elastic P→Q rank resize.

The target layout is the canonical (globally id-ordered) decomposition, so
resize must be a pure function of the *physical* state: round-trips are
bitwise, source scatterings are irrelevant, empty ranks are legal, and
uniform work weights degrade to the historical ``floor(i*n/P)`` counting
bounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt import compile_resize_plan, resize_checkpoint
from repro.ckpt.checkpoint import COLUMNS, Checkpoint, _config_fields
from repro.core.balance import count_split_bounds
from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.simmpi.machine import Machine

BOX = np.array([10.0, 10.0, 10.0])


# Deliberately not a conftest.py fixture: a tests/ckpt/conftest.py would
# claim the bare ``conftest`` module name ahead of tests/conftest.py (the
# tests dirs have no __init__.py), breaking ``from conftest import ...``
# in the solver/core suites.
@pytest.fixture
def sim_factory():
    """Build a small simulation (no auditor — tests attach what they need)."""

    def build(solver="fmm", method="B", nprocs=4, n=24, seed=2, **cfg_kwargs):
        machine = Machine(nprocs)
        return Simulation(
            machine,
            silica_melt_system(n, seed=seed),
            SimulationConfig(
                solver=solver,
                method=method,
                seed=seed,
                track_energy=True,
                **cfg_kwargs,
            ),
        )

    return build


def scatter_ids(n, nprocs, seed):
    """A random per-rank scattering of global ids 0..n-1 (no rank order)."""
    rng = np.random.default_rng(seed)
    owner = rng.integers(0, nprocs, n)
    ids = []
    for r in range(nprocs):
        mine = np.flatnonzero(owner == r).astype(np.int64)
        ids.append(rng.permutation(mine))
    return ids


def random_columns(ids, seed):
    """Deterministic random physics columns matching a per-rank id layout."""
    rng = np.random.default_rng(seed)
    n = int(sum(len(i) for i in ids))
    glob = {
        "pos": rng.uniform(-5, 5, (n, 3)),
        "q": rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n),
        "pot": rng.normal(size=n),
        "field": rng.normal(size=(n, 3)),
        "vel": rng.normal(size=(n, 3)),
        "acc": rng.normal(size=(n, 3)),
    }
    return {
        name: [np.ascontiguousarray(arr[i]) for i in ids]
        for name, arr in glob.items()
    }


def build_ckpt(ids, seed):
    """A minimal valid checkpoint of random columns over a per-rank id
    layout: only the particle columns and the box are physical inputs, all
    bookkeeping starts from a fresh simulation's defaults."""
    cols = random_columns(ids, seed)
    cols["ids"] = [np.ascontiguousarray(i, dtype=np.int64) for i in ids]
    nprocs = len(ids)
    counts = [len(i) for i in ids]
    config = _config_fields(SimulationConfig())
    per_rank = max(1, -(-sum(counts) // nprocs))
    cap = int(np.ceil(float(config["capacity_factor"]) * per_rank))
    return Checkpoint(
        nprocs=nprocs,
        config=config,
        system={"box": BOX.copy(), "offset": np.zeros(3)},
        capacities=[max(cap, c) for c in counts],
        machine={"clocks": np.zeros(nprocs), "trace": {}},
        **cols,
    )


def canonical_ids(n, nprocs):
    bounds = count_split_bounds(n, nprocs)
    return [
        np.arange(bounds[r], bounds[r + 1], dtype=np.int64)
        for r in range(nprocs)
    ]


def assert_columns_bitwise(a: Checkpoint, b: Checkpoint):
    assert a.nprocs == b.nprocs
    for name in COLUMNS:
        for r, (x, y) in enumerate(zip(a.columns(name), b.columns(name))):
            assert x.dtype == y.dtype
            assert x.shape == y.shape
            assert x.tobytes() == y.tobytes(), f"{name} differs on rank {r}"


class TestResizeProperties:
    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(1, 40),
        p=st.integers(1, 6),
        q=st.integers(1, 8),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_round_trip_is_bitwise_identity(self, n, p, q, seed):
        source = build_ckpt(canonical_ids(n, p), seed)
        via_q, _ = resize_checkpoint(source, q)
        back, _ = resize_checkpoint(via_q, p)
        assert_columns_bitwise(back, source)

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(1, 40),
        p1=st.integers(1, 6),
        p2=st.integers(1, 6),
        q=st.integers(1, 8),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_permutation_safe(self, n, p1, p2, q, seed):
        """Any two scatterings of the same particles resize identically."""
        a = build_ckpt(scatter_ids(n, p1, seed + 1), seed)
        b = build_ckpt(scatter_ids(n, p2, seed + 2), seed)
        ra, _ = resize_checkpoint(a, q)
        rb, _ = resize_checkpoint(b, q)
        assert_columns_bitwise(ra, rb)

    @settings(deadline=None, max_examples=30)
    @given(
        n=st.integers(1, 6),
        p=st.integers(1, 3),
        extra=st.integers(1, 10),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_empty_rank_safe(self, n, p, extra, seed):
        """Q > n leaves ranks empty exactly where the floor bounds say."""
        q = n + extra
        source = build_ckpt(scatter_ids(n, p, seed), seed)
        resized, plan = resize_checkpoint(source, q)
        expected = np.diff(count_split_bounds(n, q))
        assert [len(i) for i in resized.ids] == list(expected)
        assert sum(len(i) for i in resized.ids) == n
        got = resized.gathered()
        want = source.gathered()
        for name in got:
            assert got[name].tobytes() == want[name].tobytes()

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(1, 40),
        p=st.integers(1, 6),
        q=st.integers(1, 8),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_uniform_weights_reproduce_floor_bounds(self, n, p, q, seed):
        source = build_ckpt(scatter_ids(n, p, seed), seed)
        weighted = compile_resize_plan(source, q, weights=np.ones(n))
        counting = compile_resize_plan(source, q)
        assert np.array_equal(weighted.bounds, counting.bounds)
        assert np.array_equal(
            counting.bounds,
            [n * i // q for i in range(q + 1)],
        )

    @settings(deadline=None, max_examples=30)
    @given(
        n=st.integers(1, 30),
        p=st.integers(1, 6),
        q=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_gathered_view_invariant(self, n, p, q, seed):
        source = build_ckpt(scatter_ids(n, p, seed), seed)
        resized, _ = resize_checkpoint(source, q)
        got, want = resized.gathered(), source.gathered()
        assert set(got) == set(want)
        for name in got:
            assert got[name].tobytes() == want[name].tobytes()


class TestResizeValidation:
    def test_rejects_non_permutation_ids(self):
        ckpt = build_ckpt([np.array([0, 0], dtype=np.int64)], 0)
        with pytest.raises(ValueError, match="permutation"):
            compile_resize_plan(ckpt, 2)

    def test_rejects_bad_weights_shape(self):
        ckpt = build_ckpt(canonical_ids(6, 2), 0)
        with pytest.raises(ValueError, match="weights"):
            compile_resize_plan(ckpt, 2, weights=np.ones(5))

    def test_rejects_nonpositive_rank_count(self):
        ckpt = build_ckpt(canonical_ids(4, 2), 0)
        with pytest.raises(ValueError, match="new_nprocs"):
            compile_resize_plan(ckpt, 0)


class TestAcceptance4_6_4:
    def test_resize_round_trip_restores_every_column_bitwise(
        self, sim_factory
    ):
        """The PR acceptance criterion: a live 4-rank checkpoint goes
        4→6→4 and every column comes back bitwise — in canonical form per
        rank, and bitwise against the donor on the id-gathered view."""
        sim = sim_factory(solver="fmm", method="B", nprocs=4, n=24)
        try:
            sim.run(2)
            from repro.ckpt import capture_checkpoint

            donor = capture_checkpoint(sim)
        finally:
            sim.fcs.destroy()

        via6, plan_up = resize_checkpoint(donor, 6)
        back4, plan_down = resize_checkpoint(via6, 4)
        canon4, _ = resize_checkpoint(donor, 4)
        assert plan_up.moved_bytes > 0 and plan_down.moved_bytes > 0
        assert_columns_bitwise(back4, canon4)
        got, want = back4.gathered(), donor.gathered()
        for name in got:
            assert got[name].tobytes() == want[name].tobytes()

    def test_resized_checkpoint_restores_and_runs(self, sim_factory):
        from repro.ckpt import capture_checkpoint, restore_simulation
        from repro.simmpi.machine import Machine
        from repro.verify.audit import enable_auditing
        from repro.verify.invariants import InvariantChecker

        sim = sim_factory(solver="fmm", method="B", nprocs=4, n=24)
        try:
            sim.run(2)
            ckpt = capture_checkpoint(sim)
        finally:
            sim.fcs.destroy()
        via6, _ = resize_checkpoint(ckpt, 6)
        machine = Machine(6)
        auditor = enable_auditing(machine)
        resumed = restore_simulation(via6, machine=machine)
        try:
            checker = InvariantChecker(resumed)
            resumed.run(2)
            checker.assert_ok()
        finally:
            resumed.fcs.destroy()
