"""Resort indices: packing, inversion-with-communication, application."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.particles import ColumnBlock
from repro.core.resort import (
    POSITION_LIMIT,
    RANK_LIMIT,
    apply_resort,
    initial_numbering,
    invert_indices,
    pack_resort_index,
    unpack_resort_index,
)
from repro.simmpi.machine import Machine
from strategies import permutations, rank_position_arrays

u31 = st.integers(min_value=0, max_value=2 ** 31 - 1)


@given(u31, u31)
@settings(max_examples=150, deadline=None)
def test_pack_unpack_roundtrip(rank, position):
    packed = pack_resort_index(np.array([rank]), np.array([position]))
    r, p = unpack_resort_index(packed)
    assert (r[0], p[0]) == (rank, position)


@given(rank_position_arrays())
@settings(max_examples=200, deadline=None)
def test_pack_unpack_roundtrip_full_range(pair):
    """Array round-trip over the full packing range, including the extremes
    (rank 2**31 - 1, position 2**32 - 1) where sign-bit bugs live."""
    ranks, positions = pair
    packed = pack_resort_index(ranks, positions)
    assert packed.dtype == np.int64
    # packed values must stay non-negative: the sign bit is the ghost marker
    assert not np.any(packed < 0)
    r, p = unpack_resort_index(packed)
    np.testing.assert_array_equal(r, ranks)
    np.testing.assert_array_equal(p, positions)


@given(rank_position_arrays())
@settings(max_examples=100, deadline=None)
def test_pack_is_injective(pair):
    ranks, positions = pair
    packed = pack_resort_index(ranks, positions)
    pairs = set(zip(ranks.tolist(), positions.tolist()))
    assert len(set(packed.tolist())) == len(pairs)


def test_pack_range_checks():
    with pytest.raises(ValueError):
        pack_resort_index(np.array([-1]), np.array([0]))
    with pytest.raises(ValueError):
        pack_resort_index(np.array([0]), np.array([1 << 33]))


def test_pack_limits():
    """Ranks get 31 bits, positions 32: the boundary values round-trip and
    the first out-of-range values raise instead of silently overflowing
    into the ghost-index sign bit (the former behaviour accepted ranks up
    to 2**32 - 1 and produced negative packed values for ranks >= 2**31)."""
    top = pack_resort_index(
        np.array([RANK_LIMIT - 1]), np.array([POSITION_LIMIT - 1])
    )
    assert top[0] == np.iinfo(np.int64).max  # all non-sign bits set
    r, p = unpack_resort_index(top)
    assert (r[0], p[0]) == (RANK_LIMIT - 1, POSITION_LIMIT - 1)
    with pytest.raises(ValueError, match="ranks out of range"):
        pack_resort_index(np.array([RANK_LIMIT]), np.array([0]))
    with pytest.raises(ValueError, match="positions out of range"):
        pack_resort_index(np.array([0]), np.array([POSITION_LIMIT]))


def test_unpack_ghost_rejected():
    with pytest.raises(ValueError):
        unpack_resort_index(np.array([-1]))


def test_initial_numbering():
    nums = initial_numbering([2, 0, 3])
    r0, p0 = unpack_resort_index(nums[0])
    np.testing.assert_array_equal(r0, [0, 0])
    np.testing.assert_array_equal(p0, [0, 1])
    assert nums[1].shape == (0,)
    r2, p2 = unpack_resort_index(nums[2])
    np.testing.assert_array_equal(r2, [2, 2, 2])
    np.testing.assert_array_equal(p2, [0, 1, 2])


def scatter_particles(machine, counts, rng):
    """Simulate a solver reordering: a random global permutation of the
    initially numbered particles, returning (origloc per rank, where each
    original particle currently lives)."""
    P = machine.nprocs
    total = int(sum(counts))
    numbering = np.concatenate(initial_numbering(counts)) if total else np.empty(0, dtype=np.int64)
    perm = rng.permutation(total)
    # new distribution: random counts
    new_counts = np.bincount(rng.integers(0, P, total), minlength=P)
    bounds = np.concatenate(([0], np.cumsum(new_counts)))
    origloc = [numbering[perm[bounds[r]:bounds[r + 1]]] for r in range(P)]
    return origloc, [int(c) for c in new_counts]


class TestInvert:
    def test_roundtrip(self, machine4, rng):
        counts = [5, 3, 0, 7]
        origloc, new_counts = scatter_particles(machine4, counts, rng)
        resort = invert_indices(machine4, origloc, counts, "x")
        # applying the resort indices to the original ids must land each
        # id exactly where origloc says it now lives
        ids = [np.arange(100 * r, 100 * r + c, dtype=np.int64) for r, c in enumerate(counts)]
        out = apply_resort(
            machine4, resort, [ColumnBlock(ident=i) for i in ids], new_counts, "x"
        )
        for r in range(4):
            got = out[r]["ident"]
            r_src, p_src = unpack_resort_index(origloc[r])
            expected = 100 * r_src + p_src
            np.testing.assert_array_equal(got, expected)

    def test_identity_permutation(self, machine4):
        counts = [3, 3, 3, 3]
        origloc = initial_numbering(counts)
        resort = invert_indices(machine4, origloc, counts, "x")
        for r in range(4):
            rr, pp = unpack_resort_index(resort[r])
            np.testing.assert_array_equal(rr, r)
            np.testing.assert_array_equal(pp, np.arange(3))

    def test_count_mismatch_raises(self, machine4):
        origloc = initial_numbering([2, 2, 2, 2])
        with pytest.raises(ValueError):
            invert_indices(machine4, origloc, [1, 2, 2, 2], "x")

    @given(permutations(max_size=64), st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_inversion_property(self, perm, nprocs):
        """For any global permutation and rank count: inverting the
        original-location numbering yields resort indices that are (a) a
        permutation of all target slots and (b) the exact inverse map."""
        machine = Machine(nprocs)
        total = perm.shape[0]
        # split the permuted global sequence into arbitrary per-rank chunks
        cuts = np.linspace(0, total, nprocs + 1).astype(np.int64)
        new_counts = np.diff(cuts).tolist()
        # original distribution: uneven chunks derived from the permutation
        # itself (deterministic per example), padded when perm is short
        offs = perm[: nprocs - 1] % (total + 1)
        offs = np.concatenate(
            (offs, np.zeros(nprocs - 1 - offs.size, dtype=np.int64))
        )
        orig_counts = np.diff(
            np.concatenate(([0], np.sort(offs), [total]))
        ).tolist()
        numbering = np.concatenate(initial_numbering(orig_counts)) if total else np.empty(0, np.int64)
        origloc = [numbering[perm[cuts[r]:cuts[r + 1]]] for r in range(nprocs)]
        resort = invert_indices(machine, origloc, orig_counts, "x")
        # (a) every target slot hit exactly once
        from repro.verify.invariants import check_resort_permutation

        assert check_resort_permutation(resort, new_counts, nprocs) is None
        # (b) exact inverse: following a particle's resort index must land
        # on the slot whose origloc points back at the particle
        for r in range(nprocs):
            r_cur, p_cur = (
                unpack_resort_index(resort[r]) if resort[r].size else (np.empty(0, np.int64),) * 2
            )
            for i in range(resort[r].shape[0]):
                back = origloc[r_cur[i]][p_cur[i]]
                br, bp = unpack_resort_index(np.array([back]))
                assert (br[0], bp[0]) == (r, i)


class TestApplyResort:
    def test_multi_column(self, machine4, rng):
        counts = [4, 4, 4, 4]
        origloc, new_counts = scatter_particles(machine4, counts, rng)
        resort = invert_indices(machine4, origloc, counts, "x")
        vel = [rng.uniform(size=(c, 3)) for c in counts]
        acc = [rng.uniform(size=(c, 3)) for c in counts]
        out = apply_resort(
            machine4,
            resort,
            [ColumnBlock(vel=v, acc=a) for v, a in zip(vel, acc)],
            new_counts,
            "x",
        )
        # verify against origloc: row i of rank r must hold the data of
        # the original particle origloc[r][i]
        for r in range(4):
            r_src, p_src = unpack_resort_index(origloc[r])
            for i in range(new_counts[r]):
                np.testing.assert_allclose(out[r]["vel"][i], vel[r_src[i]][p_src[i]])
                np.testing.assert_allclose(out[r]["acc"][i], acc[r_src[i]][p_src[i]])

    def test_shape_mismatch(self, machine4):
        resort = initial_numbering([2, 2, 2, 2])
        data = [ColumnBlock(x=np.zeros(3))] * 4
        with pytest.raises(ValueError):
            apply_resort(machine4, resort, data, [2, 2, 2, 2], "x")

    def test_non_permutation_detected(self, machine4):
        # two particles claiming the same target position
        bad = [pack_resort_index(np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64))]
        bad += [np.empty(0, dtype=np.int64)] * 3
        data = [ColumnBlock(x=np.zeros(2))] + [ColumnBlock(x=np.zeros(0))] * 3
        with pytest.raises(ValueError):
            apply_resort(machine4, bad, data, [2, 0, 0, 0], "x")

    def test_charges_resort_phase(self, machine4, rng):
        counts = [4, 4, 4, 4]
        origloc, new_counts = scatter_particles(machine4, counts, rng)
        resort = invert_indices(machine4, origloc, counts, "idx")
        apply_resort(
            machine4, resort, [ColumnBlock(x=np.zeros(c)) for c in counts], new_counts, "resort"
        )
        assert machine4.trace.phase("resort").time > 0


class TestEmptyRanks:
    """Regression: resort-index plumbing with empty origin/target ranks.

    Ranks can be empty on either side of a redistribution (the paper's
    "all particles on a single process" distribution empties every other
    rank); the inversion and application paths must handle zero-length
    index arrays without special-casing."""

    def test_invert_with_empty_origin_ranks(self, machine4):
        # all particles originally on rank 2, now spread across all ranks
        counts = [0, 0, 6, 0]
        numbering = np.concatenate(initial_numbering(counts))
        origloc = [numbering[i::4] for i in range(4)]
        new_counts = [len(o) for o in origloc]
        resort = invert_indices(machine4, origloc, counts, "x")
        for r, c in enumerate(counts):
            assert resort[r].shape == (c,)
        from repro.verify.invariants import check_resort_permutation

        assert check_resort_permutation(resort, new_counts, 4) is None

    def test_apply_into_empty_target_ranks(self, machine4):
        # everything collapses onto rank 0 (all-to-one), other targets empty
        counts = [2, 2, 2, 2]
        resort = [
            pack_resort_index(
                np.zeros(2, dtype=np.int64),
                np.arange(2 * r, 2 * r + 2, dtype=np.int64),
            )
            for r in range(4)
        ]
        data = [ColumnBlock(x=np.arange(2, dtype=np.float64) + 10 * r) for r in range(4)]
        out = apply_resort(machine4, resort, data, [8, 0, 0, 0], "x")
        np.testing.assert_array_equal(
            out[0]["x"], [0.0, 1.0, 10.0, 11.0, 20.0, 21.0, 30.0, 31.0]
        )
        for r in (1, 2, 3):
            assert out[r]["x"].shape == (0,)

    def test_simulation_single_distribution_method_b(self):
        """End-to-end: method B with every particle on one rank — the
        resort path must repeatedly move data off/onto empty ranks."""
        from repro.md.simulation import Simulation, SimulationConfig
        from repro.md.systems import silica_melt_system
        from repro.verify import InvariantChecker, enable_auditing

        machine = Machine(8)
        sim = Simulation(
            machine,
            silica_melt_system(24, seed=5),
            SimulationConfig(solver="fmm", method="B", distribution="single", seed=5),
        )
        enable_auditing(machine)
        sim.run(2)
        InvariantChecker(sim).assert_ok()
