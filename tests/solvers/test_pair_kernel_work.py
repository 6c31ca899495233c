"""Deterministic work and structure pins of the near-field pair kernel.

The kernel's gain is host time, which a test cannot hold.  What it can hold
repeats exactly on every run: how much memory one near-field call has live
at once (the former bodies, ``tests/near_field_oracles.py``, built every
candidate pair's index arrays; the sweep holds a run table and one slot of
it, the linked cell one kernel call's pairs), how many sweep steps and
kernel calls one FMM near field makes, how many candidates the linked
cell's cutoff bound drops, and the shape of the code that makes these
true.
"""

import ast
import inspect
import tracemalloc

import numpy as np

import kernel_oracles
import near_field_oracles
from repro.bench.harness import make_system
from repro.core.handle import fcs_init
from repro.core.particles import ParticleSet
from repro.md.simulation import Simulation, SimulationConfig
from repro.simmpi.machine import Machine
from repro.solvers.common import pairs
from repro.solvers.fmm.tree import FMMTree
from repro.solvers.p2nfft.linked_cell import LinkedCellNearField
from repro.zorder import morton


def _peak_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _counting(counts, fn):
    counts[fn.__name__] = 0

    def counted(*args, **kwargs):
        counts[fn.__name__] += 1
        return fn(*args, **kwargs)
    return counted


def _fmm_rank_call():
    """One rank of ``physics_force_p8``: 1 024 targets in one octant of a
    depth-3 tree, every particle a source."""
    system = make_system(8192, 1)
    tree = FMMTree(3, 2, system.box, system.offset, True, build_operators=False)
    keys = tree.morton_keys(system.pos)
    order = np.argsort(keys, kind="stable")
    spos, sq, skeys = system.pos[order], system.q[order], keys[order]
    return tree, (spos[:1024], skeys[:1024], spos, sq, skeys)


def test_linked_cell_call_peaks_below_the_candidate_list():
    """~400 k linked-cell candidates, 15 % within the cutoff: one call's peak
    is well below what building every candidate pair took (about half)."""
    rng = np.random.default_rng(5)
    pos = rng.uniform(0.0, 6.0, (1800, 3))
    q = rng.uniform(-1.0, 1.0, 1800)
    near = LinkedCellNearField(np.full(3, 6.0), np.zeros(3), 1.0, 0.8)
    now = _peak_bytes(near.compute, pos, pos, q)
    before = _peak_bytes(near_field_oracles.linked_cell_compute, near, pos, pos, q)
    assert before > 16 * 380_000  # the candidates' two index arrays at least
    assert now < 0.75 * before


def test_fmm_call_peaks_below_the_pair_lists():
    """The same rank's near field: a run table of 27 rows per target and
    one slot of it at a time, not two index arrays of every pair (about
    two thirds)."""
    tree, args = _fmm_rank_call()
    now = _peak_bytes(tree.near_field_morton, *args)
    before = _peak_bytes(near_field_oracles.near_field_morton_offsets, tree, *args)
    assert before > 16 * 27 * 10_000
    assert now < 0.75 * before


def test_fmm_near_field_is_one_run_table_swept_by_slot(rebind):
    """One key encode and one kernel call for all 27 neighbour offsets, no
    pair index arrays, and a sweep of at most as many steps as the fullest
    leaf has particles (one ``pair_displacements`` per step)."""
    tree, args = _fmm_rank_call()
    counts = {}
    for fn in (morton.morton_encode3, pairs.ragged_cross, pairs.coulomb_pairs,
               pairs.pair_displacements):
        rebind(fn, _counting(counts, fn))
    _pot, _field, evaluated = tree.near_field_morton(*args)
    assert evaluated > 27 * 10_000
    occupancy = np.unique(args[4], return_counts=True)[1].max()
    steps = counts.pop("pair_displacements")
    assert 0 < steps <= occupancy
    assert counts == {"morton_encode3": 1, "ragged_cross": 0, "coulomb_pairs": 1}


def test_fmm_near_field_rejects_the_self_pairs_only(rebind):
    """A periodic depth-3 FMM near field on 8 ranks: one kernel call per
    rank over a table of 27 runs per owned particle, and of all the pairs
    those runs hold only each target with itself is rejected."""
    system = make_system(4096, 2)
    owner = np.random.default_rng(2).integers(0, 8, system.n)
    particles = ParticleSet(
        [system.pos[owner == r] for r in range(8)], [system.q[owner == r] for r in range(8)],
        capacity_factor=4.0,
    )
    fcs = fcs_init("fmm", Machine(8), depth=3, order=2, lattice_shells=1)
    fcs.set_common(box=system.box, offset=system.offset, periodic=True)
    fcs.tune(particles)
    calls = []
    coulomb = pairs.coulomb_pairs

    def recorded(tpos, *args, lengths=None, **kwargs):
        result = coulomb(tpos, *args, lengths=lengths, **kwargs)
        calls.append((tpos.shape[0], lengths, result[2]))
        return result

    rebind(coulomb, recorded)
    fcs.run(particles)
    assert len(calls) == 8
    assert all(lengths.shape == (27 * n,) for n, lengths, _ in calls)
    assert sum(int(lengths.sum()) - evaluated for _, lengths, evaluated in calls) == system.n


def test_linked_cell_drops_a_third_of_the_candidates_on_physics_force_p8(rebind, monkeypatch):
    """The p2nfft cell of ``physics_force_p8`` (8 192 particles, 8 ranks,
    method B on the grid distribution): the runs the cutoff bound drops
    hold at least 30 % of the candidate pairs, and every pair the kernel
    accepted is still evaluated."""
    system = make_system(8192, 1)
    config = SimulationConfig(
        solver="p2nfft", method="B", distribution="grid", seed=1, dynamics="force"
    )
    kernel, compute = pairs.erfc_pairs, LinkedCellNearField.compute
    candidates, evaluated, all_pairs = [0], [0], [0]

    def counted_kernel(*args, **kwargs):
        result = kernel(*args, **kwargs)
        candidates[0] += args[3].shape[0]
        evaluated[0] += result[2]
        return result

    def counted_compute(self, tpos, spos, sq):
        # what the same call evaluated before the bound
        t_cells, s_cells = self.cell_ids(tpos), np.sort(self.cell_ids(spos))
        cells, first = np.unique(np.sort(t_cells), return_index=True)
        last = np.append(first[1:], t_cells.shape[0])
        dims = self.dims
        ti, _ = kernel_oracles.candidate_pairs(
            self, first, last, s_cells, cells // (dims[1] * dims[2]),
            (cells // dims[2]) % dims[1], cells % dims[2], spos.shape[0],
        )
        all_pairs[0] += ti.shape[0]
        return compute(self, tpos, spos, sq)

    rebind(kernel, counted_kernel)
    monkeypatch.setattr(LinkedCellNearField, "compute", counted_compute)
    Simulation(Machine(8), system, config).run(1)
    assert evaluated[0] > 0
    assert candidates[0] <= 0.7 * all_pairs[0]


# ------------------------------------------------------------ structure pins

def _functions(module):
    tree = ast.parse(inspect.getsource(module))
    return [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]


def test_pairs_has_no_scatter_add_and_no_row_sum():
    tree = ast.parse(inspect.getsource(pairs))
    attributes = [ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    assert not [a for a in attributes if a.endswith("add.at")]
    row_sums = [
        ast.unparse(n)
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and getattr(n.func, "attr", None) == "sum"
        and any(k.arg == "axis" for k in n.keywords)
    ]
    assert not row_sums


def test_one_function_subtracts_source_from_target():
    """One displacement / minimum-image implementation for both kernels."""
    subtracting = []
    for fn in _functions(pairs):
        for n in ast.walk(fn):
            if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Sub):
                subtrahend = n.right if isinstance(n, ast.BinOp) else n.value
                names = {m.id for m in ast.walk(subtrahend) if isinstance(m, ast.Name)}
                if names & {"spos", "scols"}:
                    subtracting.append(fn.name)
    assert subtracting == ["pair_displacements"]


def test_the_two_kernels_only_choose_a_radial_function():
    by_name = {fn.name: fn for fn in _functions(pairs)}
    for name in ("coulomb_pairs", "erfc_pairs"):
        nodes = list(ast.walk(by_name[name]))
        assert not [n for n in nodes if isinstance(n, (ast.For, ast.While, ast.comprehension))]
        calls = [getattr(n.func, "id", None) for n in nodes if isinstance(n, ast.Call)]
        assert calls.count("_pair_sums") == 1

