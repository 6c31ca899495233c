"""The flat, rank-major step path held to the rank-by-rank bodies it replaced.

``tests/store_oracles.py`` keeps the per-rank ``position_update``,
``velocity_update``, ``accelerations``, brownian rotate, ``local_sort``,
``partition_sort`` (merge tail included), ``FMMSolver._make_blocks`` and
``Solver.run`` hand-back.  Every property here runs oracle and production
code on the same input and demands the same values **bit for bit** — never
``allclose`` —, the same charges (clock vector, every trace row, the
auditor's whole state) and, where a random stream is consumed, the same
generator state afterwards.  Layouts come from
:func:`strategies.rank_layouts`: empty ranks, fewer rows than
ranks, every row on one rank, no rows.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from redistribution_oracles import assert_same_arrays, observed
from store_oracles import (
    accelerations_ranks,
    local_sort_ranks,
    make_blocks_ranks,
    partition_sort_ranks,
    position_update_ranks,
    require_finite_ranks,
    rotate_directions_ranks,
    solver_run_ranks,
    velocity_update_ranks,
)
from repro.bench.harness import make_system
from repro.core.handle import fcs_init
from repro.core.particles import ColumnBlock, ParticleSet, RankMajor
from repro.md.integrator import accelerations, position_update, velocity_update
from repro.md.simulation import Simulation, SimulationConfig
from repro.simmpi.machine import Machine
from repro.solvers.base import Solver
from repro.sorting.merge_sort import local_sort, order_within_ranks
from repro.sorting.partition_sort import partition_sort
from repro.verify.audit import enable_auditing
from strategies import rank_layouts

FEW = dict(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def audited(nprocs):
    machine = Machine(nprocs)
    enable_auditing(machine)
    return machine


def cut(flat, counts):
    """A rank-major array as the list of per-rank arrays the oracles take."""
    return np.split(flat, np.cumsum(counts)[:-1])


def assert_same_blocks(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.names() == w.names()
        assert_same_arrays(g.payload(), w.payload())


# ------------------------------------------------------------------- integrator


class TestIntegratorAgainstRanks:
    @settings(**FEW)
    @given(rank_layouts(), st.sampled_from([None, "box", "box+offset"]), st.floats(1e-4, 0.5))
    def test_position_update(self, layout, wrap, dt):
        counts, seed = layout
        rng = np.random.default_rng(seed)
        n = int(counts.sum())
        pos, vel, acc = rng.uniform(-3, 9, (n, 3)), rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        box = None if wrap is None else np.array([6.0, 7.5, 5.25])
        offset = np.array([-1.0, 0.5, 2.0]) if wrap == "box+offset" else None
        want_machine, got_machine = audited(len(counts)), audited(len(counts))
        want, want_move = position_update_ranks(
            want_machine, cut(pos, counts), cut(vel, counts), cut(acc, counts), dt, box, offset
        )
        before = pos.copy(), vel.copy(), acc.copy()
        offsets = np.concatenate(([0], np.cumsum(counts)))
        got, got_move = position_update(
            got_machine, RankMajor(pos, offsets), RankMajor(vel, offsets),
            RankMajor(acc, offsets), dt, box, offset,
        )
        assert_same_arrays(list(got), want)
        assert got_move.hex() == want_move.hex()
        assert observed(got_machine) == observed(want_machine)
        # the per-rank list form is normalised at entry to the same pass ...
        listed, listed_move = position_update(
            audited(len(counts)), cut(pos, counts), cut(vel, counts), cut(acc, counts),
            dt, box, offset,
        )
        assert_same_arrays(list(listed), want)
        assert listed_move.hex() == want_move.hex()
        # ... and no input column is written
        assert_same_arrays((pos, vel, acc), before)

    @settings(**FEW)
    @given(rank_layouts(), st.floats(1e-4, 0.5))
    def test_velocity_update(self, layout, dt):
        counts, seed = layout
        rng = np.random.default_rng(seed)
        n = int(counts.sum())
        vel, a0, a1 = (rng.normal(size=(n, 3)) for _ in range(3))
        before = vel.copy(), a0.copy(), a1.copy()
        want_machine, got_machine = audited(len(counts)), audited(len(counts))
        want = velocity_update_ranks(
            want_machine, cut(vel, counts), cut(a0, counts), cut(a1, counts), dt
        )
        offsets = np.concatenate(([0], np.cumsum(counts)))
        got = velocity_update(
            got_machine, RankMajor(vel, offsets), RankMajor(a0, offsets), RankMajor(a1, offsets), dt
        )
        assert_same_arrays(list(got), want)
        assert observed(got_machine) == observed(want_machine)
        assert_same_arrays((vel, a0, a1), before)

    @settings(**FEW)
    @given(rank_layouts(), st.floats(0.25, 4.0))
    def test_accelerations(self, layout, mass):
        counts, seed = layout
        rng = np.random.default_rng(seed)
        n = int(counts.sum())
        q, field = rng.choice([-1.0, 1.0, 0.5], n), rng.normal(size=(n, 3))
        want = accelerations_ranks(cut(q, counts), cut(field, counts), mass)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        got = accelerations(RankMajor(q, offsets), RankMajor(field, offsets), mass)
        assert_same_arrays(list(got), want)
        assert_same_arrays(list(accelerations(cut(q, counts), cut(field, counts), mass)), want)


class TestBrownianRotateAgainstRanks:
    @settings(**FEW)
    @given(rank_layouts(), st.sampled_from([1e-9, 1e-3, 2.5]))
    def test_one_draw_is_the_draws_of_every_rank(self, layout, speed):
        """Same rotated velocities and the same generator state afterwards:
        a ``Generator`` fills in order, so one ``(n, 3)`` draw is the P
        ``(n_r, 3)`` draws — empty ranks draw nothing either way."""
        counts, seed = layout
        n = int(counts.sum())
        vel = np.random.default_rng(seed).normal(size=(n, 3))
        vel[::5] = 0.0  # zero rows take the ``norm == 0`` branch when the jitter is too
        sim = Simulation.__new__(Simulation)
        sim._rng = np.random.default_rng(seed + 7919)
        oracle_rng = np.random.default_rng(seed + 7919)
        want = rotate_directions_ranks(oracle_rng, cut(vel, counts), speed)
        got = sim._rotate_directions(vel.copy(), speed)
        assert_same_arrays(cut(got, counts), want)
        assert sim._rng.bit_generator.state == oracle_rng.bit_generator.state


# ----------------------------------------------------------------------- sorting


def keyed_blocks(counts, seed, key_bits, weights=False):
    """Per-rank blocks with a ``key``, an id, a vector and a byte column."""
    rng = np.random.default_rng(seed)
    blocks, base = [], 0
    for c in counts.tolist():
        columns = dict(
            key=rng.integers(0, 1 << key_bits, c, dtype=np.uint64, endpoint=False),
            ident=np.arange(base, base + c, dtype=np.int64),
            vec=rng.random((c, 3)),
            flag=rng.integers(0, 255, c).astype(np.uint8),
        )
        if weights:
            columns["weight"] = rng.random(c) + 0.1
        blocks.append(ColumnBlock(**columns))
        base += c
    return blocks


#: narrow keys (many ties: stability shows), Morton-sized keys, and keys so
#: wide that no rank fits above them (the two-key fallback)
KEY_BITS = st.sampled_from([2, 18, 64])


class TestSortsAgainstRanks:
    @settings(**FEW)
    @given(rank_layouts(), KEY_BITS, st.booleans())
    def test_local_sort(self, layout, key_bits, nearly_sorted):
        counts, seed = layout
        blocks = keyed_blocks(counts, seed, key_bits)
        if nearly_sorted:  # the steady state: sorted runs with a few strays
            for b in blocks:
                b["key"].sort()
                b["key"][::7] = b["key"][::7][::-1].copy()
        want_machine, got_machine = audited(len(counts)), audited(len(counts))
        want = local_sort_ranks(want_machine, blocks, "key", "sort")
        got = local_sort(got_machine, blocks, "key", "sort")
        assert_same_blocks(got, want)
        assert observed(got_machine) == observed(want_machine)
        assert_same_blocks(local_sort(audited(len(counts)), RankMajor.of(blocks), "key", "sort"), want)

    @settings(**FEW)
    @given(rank_layouts(), st.sampled_from([np.int64, np.int32, np.float64, np.uint64]))
    def test_order_within_ranks_takes_any_key(self, layout, dtype):
        """Signed and float keys — negative ones too — and ``uint64`` keys
        whose bits and the rank's total exactly 64 order like a stable sort
        of every rank on its own."""
        counts, seed = layout
        ints = np.random.default_rng(seed).integers(-4, 5, int(counts.sum()))
        keys = ints.astype(dtype)
        if dtype is np.uint64:  # the rank's bits and the keys' total exactly 64
            keys = (ints + 4).astype(dtype) | np.uint64(1 << (63 - (len(counts) - 1).bit_length()))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        want = np.concatenate(
            [np.argsort(k, kind="stable") + o for k, o in zip(cut(keys, counts), offsets)]
            + [np.empty(0, dtype=np.int64)]
        )
        got = order_within_ranks(keys, offsets)
        np.testing.assert_array_equal(np.arange(keys.size) if got is None else got, want)

    @settings(**FEW)
    @given(rank_layouts(), KEY_BITS, st.sampled_from(["counts", "targets", "weights"]), st.booleans())
    def test_partition_sort(self, layout, key_bits, mode, presorted):
        """Rows, order and charges of the whole sort, the per-rank merge tail
        included: ``n log k`` per destination with rows, nothing for an
        empty or one-row rank."""
        counts, seed = layout
        blocks = keyed_blocks(counts, seed, key_bits, weights=mode == "weights")
        if presorted:
            blocks = [b.take(np.argsort(b["key"], kind="stable")) for b in blocks]
        kwargs = dict(presorted=presorted)
        if mode == "weights":
            kwargs["balance_key"] = "weight"
        elif mode == "targets":
            kwargs["target_counts"] = np.random.default_rng(seed + 1).permutation(counts).tolist()
        want_machine, got_machine = audited(len(counts)), audited(len(counts))
        want = partition_sort_ranks(want_machine, blocks, "key", "sort", **kwargs)
        got = partition_sort(got_machine, blocks, "key", "sort", **kwargs)
        assert_same_blocks(got, want)
        assert observed(got_machine) == observed(want_machine)


# ----------------------------------------------------------------------- solvers


def solver_case(solver, counts, seed, capacities=None):
    """A tuned handle and a particle set laid out by ``counts``."""
    system = make_system(128, 1 + seed % 3)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    n = int(offsets[-1])
    particles = ParticleSet(
        RankMajor(system.pos[:n].copy(), offsets), RankMajor(system.q[:n].copy(), offsets),
        capacities=capacities, capacity_factor=8.0,
    )
    machine = audited(len(counts))
    fcs = fcs_init(solver, machine, compute="skip")
    fcs.set_common(box=system.box, offset=system.offset, periodic=True)
    # tuned on the whole system (an empty set cannot be tuned), run on the slice
    everything = np.concatenate(([0], np.full(len(counts), system.n)))
    fcs.tune(ParticleSet(RankMajor(system.pos, everything), RankMajor(system.q, everything)))
    return machine, fcs, particles


class TestSolverGlueAgainstRanks:
    @settings(**FEW)
    @given(rank_layouts(max_rows=80, max_nprocs=8))
    def test_fmm_make_blocks(self, layout):
        counts, seed = layout
        want_machine, fcs, particles = solver_case("fmm", counts, seed)
        want = make_blocks_ranks(fcs.solver, particles)
        got_machine, fcs, particles = solver_case("fmm", counts, seed)
        got = fcs.solver._make_blocks(particles)
        assert_same_blocks(got, want)
        assert observed(got_machine) == observed(want_machine)

    @settings(**FEW)
    @given(
        rank_layouts(max_rows=80, max_nprocs=8),
        st.sampled_from(["fmm", "p2nfft", "ewald"]),
        st.sampled_from(["A", "B", "B-does-not-fit"]),
    )
    def test_run_hand_back(self, layout, solver, method):
        """Both returns of ``Solver.run`` — the changed layout with resort
        indices, and the restore — against the per-rank glue: the same
        report, the same store, the same charges."""
        counts, seed = layout
        capacities = counts.tolist() if method == "B-does-not-fit" else None

        def run(glue):
            machine, fcs, particles = solver_case(solver, counts, seed, capacities)
            report = glue(fcs.solver, particles, resort=method != "A")
            return machine, particles, report

        want_machine, want_set, want = run(solver_run_ranks)
        got_machine, got_set, got = run(Solver.run)
        assert (got.changed, got.strategy, got.comm) == (want.changed, want.strategy, want.comm)
        assert got.changed or method != "B" or not want_set.fits(got.new_counts)
        assert_same_arrays(
            (got.old_counts, got.new_counts, got_set.offsets),
            (want.old_counts, want.new_counts, want_set.offsets),
        )
        assert (got.resort_indices is None) == (want.resort_indices is None)
        if got.changed:
            assert_same_arrays(list(got.resort_indices), list(want.resort_indices))
        assert_same_blocks([got_set.block], [want_set.block])
        assert observed(got_machine) == observed(want_machine)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["pos", "q"])
    def test_require_finite_names_the_same_rank(self, bad, column):
        counts = np.array([3, 0, 4, 2])
        for row in (0, 3, 6, 8):
            _machine, _fcs, particles = solver_case("p2nfft", counts, 0)
            particles.block[column][row] = bad
            with pytest.raises(ValueError) as want:
                require_finite_ranks(particles)
            with pytest.raises(ValueError) as got:
                Solver.require_finite(particles)
            assert str(got.value) == str(want.value)
        _machine, _fcs, particles = solver_case("p2nfft", counts, 0)
        Solver.require_finite(particles)


# ------------------------------------------------------------------- whole runs


@pytest.mark.parametrize("method", ["A", "B", "B+move"])
@pytest.mark.parametrize("solver,dynamics", [
    ("fmm", "brownian"), ("p2nfft", "brownian"), ("ewald", "brownian"), ("fmm", "force"),
])
def test_whole_runs_agree_with_the_oracles_rebound_in(request, solver, dynamics, method):
    """A trajectory on the flat path, then the same one with every oracle of
    the ``oracle_store`` fixture standing in: the same state, step records,
    charges — and the same generator state, so the brownian rotate consumed
    the application's stream exactly as its rank-by-rank loop does."""
    from repro.verify import state_fingerprint

    def run():
        config = SimulationConfig(
            solver=solver, method=method, dynamics=dynamics, seed=3, distribution="random",
            brownian_step=0.4,
            solver_kwargs={"compute": "skip"} if dynamics == "brownian" else {},
        )
        machine = audited(6)
        sim = Simulation(machine, make_system(240, 2), config)
        sim.run(3)
        return (
            state_fingerprint(sim), sim._rng.bit_generator.state, observed(machine),
            [(r.changed, r.strategy, float(r.max_move).hex()) for r in sim.records],
        )

    flat = run()
    called = request.getfixturevalue("oracle_store")
    assert run() == flat
    expected = {"position_update_ranks", "accelerations_ranks", "solver_run_ranks"}
    expected |= {"rotate_directions_ranks"} if dynamics == "brownian" else {"velocity_update_ranks"}
    if solver == "fmm":
        expected |= {"make_blocks_ranks"}
        # the partition sort (its local sort inside) or the merge sort's local sort
        assert called & {"partition_sort_ranks", "local_sort_ranks"}
    assert expected <= called
