"""Deterministic work and structure pins of the near-field pair kernel.

The kernel's gain is host time, which a test cannot hold.  What it can hold
repeats exactly on every run: how much memory one call has live at once (the
former kernel kept several ``(npairs, 3)`` temporaries over *all* candidate
pairs, the core keeps one block plus the accepted rows), how many table
builds one FMM near-field evaluation makes (one, not one per neighbour
offset), and the shape of the code that makes both true.
"""

import ast
import inspect
import tracemalloc

import numpy as np

import near_field_oracles
from repro.bench.harness import make_system
from repro.core.handle import fcs_init
from repro.core.particles import ParticleSet
from repro.simmpi.machine import Machine
from repro.solvers.common import pairs
from repro.solvers.fmm.tree import FMMTree
from repro.solvers.p2nfft import neighborlist
from repro.solvers.p2nfft.linked_cell import LinkedCellNearField
from repro.zorder import morton


def _peak_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_erfc_call_holds_one_block_not_every_candidate(rebind):
    """~400 k linked-cell candidates, 15 % within the cutoff: the core's peak
    is below half of what the (npairs, 3) formulation holds."""
    rng = np.random.default_rng(5)
    box = np.full(3, 6.0)
    pos = rng.uniform(0.0, 6.0, (1800, 3))
    q = rng.uniform(-1.0, 1.0, 1800)
    captured = []
    kernel = pairs.erfc_pairs
    rebind(kernel, lambda *args, **kwargs: captured.append((args, kwargs)) or kernel(*args, **kwargs))
    LinkedCellNearField(box, np.zeros(3), 1.0, 0.8).compute(pos, pos, q)
    (args, kwargs), = captured
    candidates = args[3].shape[0]
    assert 380_000 < candidates < 420_000

    core = _peak_bytes(kernel, *args, **kwargs)
    oracle = _peak_bytes(near_field_oracles.erfc_pairs, *args, **kwargs)
    assert oracle > 2 * 24 * candidates  # several (npairs, 3) arrays at once
    assert core < 0.5 * oracle


def test_fmm_near_field_builds_its_tables_once(rebind):
    """One rank of ``physics_force_p8`` (1 024 targets in one octant at depth
    3, every particle a source): one key encode and one cross product for all
    27 neighbour offsets, one kernel call per offset."""
    system = make_system(8192, 1)
    tree = FMMTree(3, 2, system.box, system.offset, True, build_operators=False)
    keys = tree.morton_keys(system.pos)
    order = np.argsort(keys, kind="stable")
    spos, sq, skeys = system.pos[order], system.q[order], keys[order]
    counts = {}

    def counting(fn):
        counts[fn.__name__] = 0

        def counted(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return counted

    for fn in (morton.morton_encode3, pairs.ragged_cross, pairs.coulomb_pairs):
        rebind(fn, counting(fn))
    _pot, _field, evaluated = tree.near_field_morton(spos[:1024], skeys[:1024], spos, sq, skeys)
    assert evaluated > 27 * 10_000
    assert counts == {"morton_encode3": 1, "ragged_cross": 1, "coulomb_pairs": 27}


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
    """One displacement / minimum-image implementation for both kernels (and
    for the Verlet list, which imports it)."""
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


def test_verlet_list_builds_no_cross_products_of_its_own():
    tree = ast.parse(inspect.getsource(neighborlist))
    spelled = [
        n for n in ast.walk(tree)
        if getattr(n, "id", None) == "ragged_cross" or getattr(n, "attr", None) == "ragged_cross"
        or (isinstance(n, ast.alias) and n.name == "ragged_cross")
    ]
    assert not spelled


def test_fmm_near_field_compacts_the_self_box_only(rebind):
    """A periodic depth-3 FMM near field on 8 ranks: of each rank's 27
    offset blocks only the self box rejects pairs — each target with itself
    — so one block per rank is compacted, and the others are kept as the
    kernel computed them."""
    system = make_system(4096, 2)
    owner = np.random.default_rng(2).integers(0, 8, system.n)
    particles = ParticleSet(
        [system.pos[owner == r] for r in range(8)], [system.q[owner == r] for r in range(8)],
        capacity_factor=4.0,
    )
    fcs = fcs_init("fmm", Machine(8), depth=3, order=2, lattice_shells=1)
    fcs.set_common(box=system.box, offset=system.offset, periodic=True)
    fcs.tune(particles)
    rejected, kernel_calls = [], []
    accepted, coulomb = pairs._accepted, pairs.coulomb_pairs
    rebind(accepted, lambda mask, block: rejected.append(int((~mask).sum())) or accepted(mask, block))
    rebind(coulomb, lambda *a, **k: kernel_calls.append(1) or coulomb(*a, **k))
    fcs.run(particles)
    assert len(kernel_calls) == 8 * 27
    assert len(rejected) == 8
    assert sum(rejected) == system.n
