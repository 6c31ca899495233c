"""Tune-time tables are built once per parameter set and shared read-only
(``repro.solvers.common.tables``; docs/architecture.md "Tune-time tables").

* the tables own their arrays: they do not alias the caller's ``box`` /
  ``offset``, and every array reachable from a shared ``FMMTree`` /
  ``MeshSolver`` refuses writes — also over whole force-computing runs;
* the scheduled tree passes equal the parent bodies
  (``tests/kernel_oracles.py``) bit for bit, and the schedule of a level
  does not grow with the level's box count;
* a cache hit is the object a cold build would have produced, bit for bit,
  and any one changed key component is a different object;
* the cache is bounded and makes room *before* it builds;
* work counts: one lattice operator and one influence function per
  parameter set, however many simulations tune to it;
* a restart cannot tell a warm cache from a cold one.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kernel_oracles
from repro.ckpt import capture_checkpoint, restore_simulation
from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.simmpi.machine import Machine
from repro.solvers.common.tables import shared_tables
from repro.solvers.fmm.tree import FarFieldStats, FMMTree, fmm_tree
from repro.solvers.p2nfft.mesh import MeshSolver, mesh_solver
from repro.verify import state_fingerprint

BOX = (9.0, 10.0, 11.0)
OFFSET = (0.5, -1.0, 0.0)
TREE = dict(depth=3, p=2, box=BOX, offset=OFFSET, periodic=True, lattice_shells=1,
            build_operators=True)
MESH = dict(M=8, box=BOX, offset=OFFSET, alpha=0.7)


def reachable_arrays(root):
    """``{path: array}`` of every array reachable from ``root`` through
    attributes, lists, tuples and dicts, and the arrays they are views of."""
    found, seen, pending = {}, set(), [("", root)]
    while pending:
        path, value = pending.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            found[path] = value
            if value.base is not None:
                pending.append((path + ".base", value.base))
        elif isinstance(value, dict):
            pending.extend((f"{path}[{k!r}]", v) for k, v in value.items())
        elif isinstance(value, (list, tuple)):
            pending.extend((f"{path}[{i}]", v) for i, v in enumerate(value))
        elif hasattr(value, "__dict__") and not isinstance(value, type):
            pending.extend((f"{path}.{k}", v) for k, v in vars(value).items())
    return found


def table_bytes(root):
    return {path: (a.dtype.str, a.shape, a.tobytes()) for path, a in reachable_arrays(root).items()}


# ------------------------------------------------------------- ownership


def test_tables_do_not_alias_caller_arrays():
    """An in-place change of the caller's box (a solver's ``set_common``
    array is the application's) must not rescale tables built for the old
    one."""
    box, offset = np.array(BOX), np.array(OFFSET)
    tree = FMMTree(3, 2, box, offset, periodic=True, lattice_shells=1)
    mesh = MeshSolver(8, box, offset, alpha=0.7)
    width, centers, h = tree.box_width(2).copy(), tree.box_centers(1, np.arange(8)), mesh.h.copy()
    box *= 2.0
    offset += 1.0
    np.testing.assert_array_equal(tree.box_width(2), width)
    np.testing.assert_array_equal(tree.box_centers(1, np.arange(8)), centers)
    np.testing.assert_array_equal(mesh.box, BOX)
    np.testing.assert_array_equal(mesh.offset, OFFSET)
    np.testing.assert_array_equal(mesh.h, h)


@pytest.mark.parametrize(
    "tables",
    [
        lambda: fmm_tree(**TREE),
        lambda: fmm_tree(**{**TREE, "depth": 2, "periodic": False}),
        lambda: fmm_tree(**{**TREE, "build_operators": False}),
        lambda: mesh_solver(**MESH),
    ],
    ids=["tree-periodic", "tree-open", "tree-geometry-only", "mesh"],
)
def test_every_reachable_array_refuses_writes(tables):
    arrays = reachable_arrays(tables())
    assert len(arrays) > 5
    for path, array in arrays.items():
        assert not array.flags.writeable, path
        if array.size:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


@pytest.mark.parametrize(
    "solver, periodic", [("fmm", True), ("fmm", False), ("p2nfft", True)]
)
def test_force_runs_leave_shared_tables_untouched(solver, periodic):
    """The sweep over the call sites: two simulations share one set of
    tables over init + 2 force steps; a write would raise, and the tables
    read the same afterwards."""
    system = silica_melt_system(96, seed=5)
    config = SimulationConfig(solver=solver, method="B", seed=5, dynamics="force")
    sims = []
    for _ in range(2):
        sim = Simulation(Machine(2), system, config)
        sim.fcs.set_common(box=system.box, offset=system.offset, periodic=periodic)
        sims.append(sim)
    sims[0].initialize()
    shared = sims[0].fcs.solver.tree if solver == "fmm" else sims[0].fcs.solver.mesh
    before = table_bytes(shared)
    sims[0].run(2)
    sims[1].run(2)
    holder = sims[1].fcs.solver
    assert (holder.tree if solver == "fmm" else holder.mesh) is shared
    assert table_bytes(shared) == before
    assert state_fingerprint(sims[0]) == state_fingerprint(sims[1])


# ------------------------------------------------- the far-field schedule


@settings(max_examples=10, deadline=None)
@given(
    periodic=st.booleans(),
    depth=st.integers(2, 4),
    p=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_scheduled_passes_equal_their_oracles(periodic, depth, p, seed):
    """``upward`` / ``interactions`` / ``downward`` on the precomputed
    schedule against the bodies that derive the geometry per call: same
    moments, locals and operation counts, bit for bit."""
    depth = max(depth, 3) if periodic else depth
    tree = fmm_tree(depth, p, BOX, OFFSET, periodic, lattice_shells=1, build_operators=True)
    M_leaf = np.random.default_rng(seed).standard_normal((tree.nboxes_leaf, tree.ncoef))
    stats, ref_stats = FarFieldStats(), FarFieldStats()
    M = tree.upward(M_leaf, stats)
    M_ref = kernel_oracles.upward(tree, M_leaf, ref_stats)
    L = tree.interactions(M, stats)
    L_ref = kernel_oracles.interactions(tree, M_ref, ref_stats)
    for got, ref in zip(M + L, M_ref + L_ref):
        assert (got is None and ref is None) or got.tobytes() == ref.tobytes()
    L_leaf, L_leaf_ref = tree.downward(L, stats), kernel_oracles.downward(tree, L_ref, ref_stats)
    assert L_leaf.tobytes() == L_leaf_ref.tobytes()
    assert stats == ref_stats


@pytest.mark.parametrize("periodic", [True, False])
def test_a_level_adds_a_constant_to_what_a_tree_retains(periodic):
    """The schedule addresses box sets per axis (three vectors of at most
    ``nside`` entries a step), so a level adds its 316 kernels and about
    1 500 small tuples, whatever its box count.  One index vector per
    displacement grows eightfold a level instead: 60 MB (open: 100 MB)
    retained at depth 5, 0.46 GB (0.84 GB) at depth 6."""

    def retained(depth):
        gc.collect()
        tracemalloc.start()
        tree = FMMTree(depth, 2, BOX, OFFSET, periodic, lattice_shells=1)
        gc.collect()
        current, _peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del tree
        return current

    at_depth_4, at_depth_5 = retained(4), retained(5)
    assert at_depth_5 < 5e6  # measured: 3.1 MB
    assert at_depth_5 - at_depth_4 < 1.5e6  # measured: 0.8 MB


# ------------------------------------------------------- keyed by value


@settings(max_examples=5, deadline=None)
@given(
    p=st.integers(2, 4),
    periodic=st.booleans(),
    box=st.tuples(*[st.floats(5.0, 20.0)] * 3),
    offset=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
)
def test_tree_hit_is_the_cold_build_and_every_key_component_counts(p, periodic, box, offset):
    params = dict(TREE, p=p, periodic=periodic, box=box, offset=offset)
    tree = fmm_tree(**params)
    # by value: lists, tuples and fresh arrays of the same numbers hit
    assert fmm_tree(**{**params, "box": np.array(box), "offset": list(offset)}) is tree
    assert table_bytes(tree) == table_bytes(FMMTree(**params))
    changed = {
        "depth": 4, "p": p + 1, "periodic": not periodic, "lattice_shells": 2,
        "build_operators": False,
        "box": (box[0], box[1], np.nextafter(box[2], np.inf)),
        "offset": (offset[0] + 0.25, offset[1], offset[2]),
    }
    assert set(changed) == set(params)
    for name, value in changed.items():
        assert fmm_tree(**{**params, name: value}) is not tree, name


@settings(max_examples=5, deadline=None)
@given(
    M=st.sampled_from([4, 6, 8]),
    alpha=st.floats(0.3, 1.5),
    box=st.tuples(*[st.floats(5.0, 20.0)] * 3),
    offset=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
)
def test_mesh_hit_is_the_cold_build_and_every_key_component_counts(M, alpha, box, offset):
    params = dict(M=M, alpha=alpha, box=box, offset=offset)
    mesh = mesh_solver(**params)
    assert mesh_solver(**{**params, "box": list(box), "offset": np.array(offset)}) is mesh
    assert table_bytes(mesh) == table_bytes(MeshSolver(**params))
    changed = {
        "M": M + 2, "alpha": np.nextafter(alpha, np.inf),
        "box": (np.nextafter(box[0], np.inf), box[1], box[2]),
        "offset": (offset[0], offset[1], offset[2] - 0.5),
    }
    assert set(changed) == set(params)
    for name, value in changed.items():
        assert mesh_solver(**{**params, name: value}) is not mesh, name


def test_alias_terms_are_part_of_the_mesh_key(monkeypatch):
    mesh = mesh_solver(**MESH)
    monkeypatch.setattr(MeshSolver, "_ALIAS", 1)
    coarser = mesh_solver(**MESH)
    assert coarser is not mesh
    assert coarser.influence.tobytes() != mesh.influence.tobytes()


# ------------------------------------------------------------ bounded LRU


def test_cache_is_bounded_and_makes_room_before_building():
    retained_while_building = []

    @shared_tables(maxsize=2, key=lambda name: name)
    def build(name):
        retained_while_building.append(build.cache_info().currsize)
        return object()

    a, b = build("a"), build("b")
    assert build("a") is a  # "b" is now the least recently used
    c = build("c")
    assert retained_while_building == [0, 1, 1]  # never maxsize tables + a build
    assert build("a") is a and build("c") is c
    assert build("b") is not b
    assert build.cache_info() == (3, 4, 2, 2)  # hits, misses, maxsize, currsize
    build.cache_clear()
    assert build.cache_info() == (0, 0, 2, 0)
    assert build("a") is not a


@pytest.mark.parametrize("builder", [fmm_tree, mesh_solver])
def test_builders_retain_a_few_tables_only(builder):
    assert 1 <= builder.cache_info().maxsize <= 4


# ---------------------------------------------- work counts and restarts


@pytest.fixture
def build_counts(monkeypatch):
    """Spy on the two expensive builds; starts from empty caches."""
    counts = {"lattice": 0, "influence": 0}

    def counting(cls, method, name):
        original = getattr(cls, method)

        def spy(self):
            counts[name] += 1
            return original(self)

        monkeypatch.setattr(cls, method, spy)

    counting(FMMTree, "_build_lattice_operator", "lattice")
    counting(MeshSolver, "_build_influence", "influence")
    fmm_tree.cache_clear()
    mesh_solver.cache_clear()
    return counts


def test_two_initializations_build_each_table_once(build_counts):
    system = silica_melt_system(96, seed=2)
    for solver in ("fmm", "p2nfft", "fmm", "p2nfft"):
        config = SimulationConfig(
            solver=solver, method="B", seed=2, dynamics="force",
            solver_kwargs={"lattice_shells": 1} if solver == "fmm" else {},
        )
        Simulation(Machine(2), system, config).initialize()
    assert build_counts == {"lattice": 1, "influence": 1}
    assert fmm_tree.cache_info()[:2] == (1, 1)
    assert mesh_solver.cache_info()[:2] == (1, 1)


@pytest.mark.parametrize("solver", ["fmm", "p2nfft"])
def test_restart_cannot_tell_a_warm_cache_from_a_cold_one(solver, build_counts):
    system = silica_melt_system(96, seed=4)
    config = SimulationConfig(solver=solver, method="B", seed=4, dynamics="force")
    donor = Simulation(Machine(2), system, config)
    donor.run(2)
    ckpt = capture_checkpoint(donor)

    def resumed():
        sim = restore_simulation(ckpt, machine=Machine(2))
        sim.run(1)
        return (
            state_fingerprint(sim),
            [c.hex() for c in sim.machine.clocks.tolist()],
            sim.machine.trace.items(),
        )

    built = dict(build_counts)
    warm = resumed()
    assert build_counts == built  # the restore's tune hit
    fmm_tree.cache_clear()
    mesh_solver.cache_clear()
    cold = resumed()
    assert sum(build_counts.values()) == sum(built.values()) + 1
    assert warm == cold
