"""Deterministic workload assertions for the hot primitives.

These used to be pytest-benchmark wall timings; wall-clock tracking now
lives in ``perfbench/`` (``python3 perfbench/run.py``), which times every
layer from outside.  What stays here is what a unit test can assert exactly:
every workload below pins its **op counts** (messages, bytes, pairs, rows
moved) against independent recomputation and its outputs against oracles
or bitwise determinism — so a behavioral regression of a hot primitive
fails loudly, machine speed notwithstanding.
"""

import pathlib
import sys

import numpy as np
import pytest
from scipy.special import erfc

from repro.core.fine_grained import fine_grained_redistribute
from repro.core.particles import ColumnBlock
from repro.core.plan import ResortPlan
from repro.core.resort import pack_resort_index
from repro.md.systems import silica_melt_system
from repro.simmpi.collectives import alltoallv
from repro.simmpi.machine import Machine
from repro.solvers.fmm.tree import FMMTree
from repro.solvers.p2nfft.linked_cell import LinkedCellNearField
from repro.solvers.p2nfft.mesh import MeshSolver
from repro.verify.audit import enable_auditing
from repro.zorder.morton import morton_keys_of_positions

# the FMM's sequential evaluation is a test instrument, kept next to the tests
sys.path.append(str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from instruments import fmm_evaluate  # noqa: E402


@pytest.fixture(scope="module")
def system():
    return silica_melt_system(8192, seed=1)


@pytest.fixture(scope="module")
def small_system():
    """Small enough for O(n^2) brute-force oracles."""
    return silica_melt_system(512, seed=1)


def test_morton_keys(system):
    """Keys match a from-scratch scalar bit-interleave on a sample."""
    depth = 5
    keys = morton_keys_of_positions(system.pos, system.offset, system.box, depth, True)
    assert keys.dtype == np.uint64
    assert keys.shape == (system.n,)
    assert int(keys.max()) < 1 << (3 * depth)
    ncells = 1 << depth
    sample = np.random.default_rng(0).choice(system.n, 200, replace=False)
    for i in sample:
        cell = np.floor(
            (system.pos[i] - system.offset) / system.box * ncells
        ).astype(np.int64) % ncells
        expect = 0
        for bit in range(depth):
            for axis in range(3):
                expect |= ((int(cell[axis]) >> bit) & 1) << (3 * bit + axis)
        assert int(keys[i]) == expect


def test_alltoallv_dense():
    """The dense exchange delivers every payload and the audited data plane
    matches the analytic message/byte counts exactly."""
    P = 256
    rng = np.random.default_rng(0)
    payloads = [
        {int(d): rng.uniform(size=32) for d in rng.choice(P, 20, replace=False)}
        for _ in range(P)
    ]
    machine = Machine(P)
    auditor = enable_auditing(machine)
    recv = alltoallv(machine, payloads, "x")

    # analytic data plane: one message of 32 doubles per (src, dst != src)
    expect_msgs = sum(1 for r in range(P) for d in payloads[r] if d != r)
    led = auditor.ledger["x"]
    assert led.messages == expect_msgs
    assert led.bytes == expect_msgs * 32 * 8
    # delivery: every sent array arrives at its destination, bitwise
    delivered = [dict(pairs) for pairs in recv]
    for src in range(P):
        for dst, arr in payloads[src].items():
            assert np.array_equal(delivered[dst][src], arr)
    assert sum(len(d) for d in delivered) == sum(len(p) for p in payloads)


def test_fine_grained_redistribution(system):
    """Every row lands on its target rank, in (source rank, source order)."""
    P = 64
    owner = np.random.default_rng(1).integers(0, P, system.n)
    blocks = [
        ColumnBlock(pos=system.pos[owner == r], q=system.q[owner == r])
        for r in range(P)
    ]
    targets = [
        np.random.default_rng(r).integers(0, P, b.n) for r, b in enumerate(blocks)
    ]
    machine = Machine(P)
    auditor = enable_auditing(machine)
    out = fine_grained_redistribute(machine, blocks, lambda r, b: targets[r], "x")

    for dst in range(P):
        exp_pos = np.concatenate(
            [blocks[src]["pos"][targets[src] == dst] for src in range(P)]
        )
        exp_q = np.concatenate(
            [blocks[src]["q"][targets[src] == dst] for src in range(P)]
        )
        assert np.array_equal(out[dst]["pos"], exp_pos.reshape(-1, 3))
        assert np.array_equal(out[dst]["q"], exp_q)
    assert sum(b.n for b in out) == system.n
    # audited inter-rank rows: every row whose target differs from its owner
    moved = sum(int((t != r).sum()) for r, t in enumerate(targets))
    led = auditor.ledger["x"]
    assert led.messages == sum(
        1 for r in range(P) for d in np.unique(targets[r]) if d != r
    )
    assert led.bytes == moved * (3 * 8 + 8)


def _resort_problem(P, total, seed):
    """Random resort indices + counts for the plan-engine tests."""
    rng = np.random.default_rng(seed)
    src = np.sort(rng.integers(0, P, total))
    old_counts = np.bincount(src, minlength=P)
    dst = rng.integers(0, P, total)
    new_counts = np.bincount(dst, minlength=P)
    pos = np.empty(total, dtype=np.int64)
    for r in range(P):
        where = np.flatnonzero(dst == r)
        pos[where] = rng.permutation(where.size)
    offsets = np.concatenate(([0], np.cumsum(old_counts)))
    indices = [
        pack_resort_index(dst[offsets[r]:offsets[r + 1]], pos[offsets[r]:offsets[r + 1]])
        for r in range(P)
    ]
    return indices, old_counts, new_counts, src, dst, pos


def test_resort_plan_compile():
    """The compiled schedule realizes exactly the (rank, position) mapping
    the packed resort indices describe."""
    P, total = 64, 16384
    indices, old_counts, new_counts, src, dst, pos = _resort_problem(P, total, 7)
    plan = ResortPlan(Machine(P), indices, old_counts, new_counts)
    assert plan.stats.compiles == 1

    offsets = np.concatenate(([0], np.cumsum(old_counts)))
    ids = [
        np.arange(offsets[r], offsets[r + 1], dtype=np.int64) for r in range(P)
    ]
    (out_ids,) = plan.execute([ids])
    expect = [np.empty(int(c), dtype=np.int64) for c in new_counts]
    for i in range(total):
        expect[dst[i]][pos[i]] = i
    for r in range(P):
        assert np.array_equal(out_ids[r], expect[r])


def test_resort_plan_execute_fused():
    """One fused execute of the MD step's column set (vel, acc, ids) moves
    exactly the analytic inter-rank byte volume."""
    P, total = 64, 16384
    indices, old_counts, new_counts, src, dst, pos = _resort_problem(P, total, 7)
    plan = ResortPlan(Machine(P), indices, old_counts, new_counts)
    rng = np.random.default_rng(8)
    cols = [
        [rng.normal(size=(int(c), 3)) for c in old_counts],
        [rng.normal(size=(int(c), 3)) for c in old_counts],
        [np.arange(int(c), dtype=np.int64) for c in old_counts],
    ]
    base_bytes = plan.stats.bytes_moved
    out = plan.execute(cols)
    assert plan.stats.executions == 1
    assert plan.stats.fused_columns == 3
    record_bytes = 3 * 8 + 3 * 8 + 8
    moved = int((dst != src).sum())
    assert plan.stats.bytes_moved - base_bytes == moved * record_bytes
    # row content: the ids column must land where the plan's mapping says
    offsets = np.concatenate(([0], np.cumsum(old_counts)))
    flat_ids = np.concatenate(cols[2])
    expect = [np.empty(int(c), dtype=np.int64) for c in new_counts]
    for i in range(total):
        expect[dst[i]][pos[i]] = flat_ids[i]
    for r in range(P):
        assert np.array_equal(out[2][r], expect[r])


def test_fmm_evaluate(system):
    """Far-field workload counts are deterministic and self-consistent."""
    tree = FMMTree(
        4, 4, system.box, system.offset, periodic=True, lattice_shells=2
    )
    pot, field, stats = fmm_evaluate(tree, system.pos, system.q)
    pot2, field2, stats2 = fmm_evaluate(tree, system.pos, system.q)
    assert pot.shape == (system.n,) and field.shape == (system.n, 3)
    assert np.isfinite(pot).all() and np.isfinite(field).all()
    # bitwise deterministic, including every workload counter
    assert np.array_equal(pot, pot2) and np.array_equal(field, field2)
    assert stats == stats2
    assert stats.p2m_particles == system.n and stats.l2p_particles == system.n
    assert stats.ncoef > 0 and stats.m2l_ops > 0


def test_linked_cell_near_field(small_system):
    """Potentials, fields and the charged pair count match an O(n^2)
    minimum-image brute force within the cutoff."""
    s = small_system
    rc, alpha = 4.8, 0.6
    lc = LinkedCellNearField(s.box, s.offset, rc, alpha=alpha)
    pot, field, pair_count = lc.compute(s.pos, s.pos, s.q)

    d = s.pos[:, None, :] - s.pos[None, :, :]
    d -= np.round(d / s.box) * s.box
    r2 = (d * d).sum(axis=2)
    mask = (r2 > 0.0) & (r2 <= rc * rc)
    assert pair_count == int(mask.sum())
    r = np.sqrt(np.where(mask, r2, 1.0))
    e = erfc(alpha * r)
    pot_exp = np.where(mask, s.q[None, :] * e / r, 0.0).sum(axis=1)
    r2s = np.where(mask, r2, 1.0)
    g = (2.0 * alpha / np.sqrt(np.pi)) * np.exp(-(alpha * alpha) * r2s)
    fs = np.where(mask, s.q[None, :] * (e / r + g) / r2s, 0.0)
    field_exp = (fs[:, :, None] * d).sum(axis=1)
    np.testing.assert_allclose(pot, pot_exp, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(field, field_exp, rtol=1e-10, atol=1e-12)


def test_mesh_kspace(small_system):
    """The k-space solve is bitwise deterministic and momentum-conserving."""
    s = small_system
    mesh = MeshSolver(32, s.box, s.offset, alpha=0.6)
    pot, field = mesh.kspace(s.pos, s.q, s.pos)
    pot2, field2 = mesh.kspace(s.pos, s.q, s.pos)
    assert pot.shape == (s.n,) and field.shape == (s.n, 3)
    assert np.isfinite(pot).all() and np.isfinite(field).all()
    assert np.array_equal(pot, pot2) and np.array_equal(field, field2)
    # neutral system: net k-space force vanishes up to interpolation error
    assert abs(float(s.q.sum())) < 1e-12
    net = (s.q[:, None] * field).sum(axis=0)
    assert np.abs(net).max() < 1e-3 * np.abs(s.q[:, None] * field).sum() / s.n
