"""Shared fixtures: small machines, particle systems, distributions.

The Hypothesis strategies shared across the property-test suites live in
``tests/strategies.py``; they are re-exported here for discoverability.
"""

import functools
import os
import sys

import numpy as np
import pytest
from hypothesis import settings

import kernel_oracles
import near_field_oracles
import row_oracles
import store_oracles
from repro.core.geometry import wrap_into_box
from repro.core.particles import ParticleSet, RankMajor
from repro.md import integrator
from repro.md.simulation import Simulation
from repro.md.systems import silica_melt_system
from repro.simmpi.cart import CartGrid
from repro.simmpi.machine import Machine
from repro.solvers.base import Solver
from repro.solvers.common import pairs
from repro.solvers.common.pairs import ragged_cross
from repro.solvers.fmm.expansions import derivative_tensors
from repro.solvers.fmm.solver import FMMSolver
from repro.solvers.fmm.tree import fmm_tree
from repro.solvers.p2nfft import solver as p2nfft_solver
from repro.sorting.merge_sort import local_sort
from repro.zorder.morton import morton_keys_of_positions
from repro.sorting.partition_sort import (
    partition_destinations,
    partition_sort,
    split_by_destination,
)
from strategies import (  # noqa: F401  (re-exported for tests)
    count_tables,
    multiplicity_maps,
    permutations,
    position_arrays,
    rank_arrays,
    rank_layouts,
    rank_position_arrays,
)

# In CI, print the reproduction blob (`@reproduce_failure(...)`) of every
# failing Hypothesis example so the seed survives the ephemeral runner; the
# DST runner prints its own one-line repro command the same way.
settings.register_profile("ci", print_blob=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def machine4():
    return Machine(4)


@pytest.fixture
def machine8():
    return Machine(8)


@pytest.fixture(scope="session")
def small_system():
    """400 ions at paper density (box ~19.5)."""
    return silica_melt_system(400, seed=3)


@pytest.fixture(scope="session")
def medium_system():
    """2000 ions at paper density (box ~33.3)."""
    return silica_melt_system(2000, seed=1)


def random_particle_set(system, nprocs, seed=0, capacity_factor=4.0):
    """Distribute a system uniformly at random among ranks."""
    rng = np.random.default_rng(seed)
    owner = rng.integers(0, nprocs, system.n)
    pos = [system.pos[owner == r].copy() for r in range(nprocs)]
    q = [system.q[owner == r].copy() for r in range(nprocs)]
    return ParticleSet(pos, q, capacity_factor=capacity_factor), owner


@pytest.fixture
def rebind(monkeypatch):
    """``rebind(original, replacement)``: replace a module function in every
    ``repro`` namespace holding it (callers use ``from x import f``)."""

    def rebind(original, replacement):
        for name, module in list(sys.modules.items()):
            if module is not None and (name == "repro" or name.startswith("repro.")):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, replacement)

    return rebind


@pytest.fixture
def counted():
    """``counted(oracle)``: the oracle, recording its name in the set
    ``counted.called`` whenever it runs — so a test that swaps oracles in can
    assert that the ones its run depends on really stood in."""

    def counted(oracle):
        @functools.wraps(oracle)
        def kernel(*args, **kwargs):
            counted.called.add(oracle.__name__)
            return oracle(*args, **kwargs)

        return kernel

    counted.called = set()
    return counted


@pytest.fixture
def oracle_kernels(rebind, monkeypatch, counted):
    """Swap the five vectorized kernels for their scalar oracles
    (``tests/kernel_oracles.py``) and the row passes for the full-length
    bodies they replaced (``tests/row_oracles.py``) for the rest of the
    test; returns the set of oracle names called so far.
    ``derivative_tensors`` runs only while an FMM tree is built, so the run
    starts without shared trees, and the trees the oracle built do not
    outlive it."""
    fmm_tree.cache_clear()
    for kernel in (ragged_cross, derivative_tensors, partition_destinations, split_by_destination):
        rebind(kernel, counted(getattr(kernel_oracles, kernel.__name__)))
    for kernel in (wrap_into_box, p2nfft_solver._cell_columns, morton_keys_of_positions):
        rebind(kernel, counted(getattr(row_oracles, kernel.__name__)))
    # the FMM hands it run tables: each run a target of its own, then folded
    rebind(pairs._pair_sums, counted(near_field_oracles.over_runs(row_oracles._pair_sums)))
    monkeypatch.setattr(CartGrid, "cell_of_positions", counted(row_oracles.cell_of_positions))
    for method in ("_random_directions", "_rotate_directions"):
        monkeypatch.setattr(Simulation, method, counted(getattr(row_oracles, method)))
    yield counted.called
    fmm_tree.cache_clear()


#: what the ``oracle_store`` fixture swaps in, by name (``counted.called``)
STORE_ORACLES = {
    "accelerations_ranks", "position_update_ranks", "velocity_update_ranks",
    "rotate_directions_ranks", "local_sort_ranks", "partition_sort_ranks",
    "make_blocks_ranks", "solver_run_ranks",
}


@pytest.fixture
def oracle_store(rebind, monkeypatch, counted):
    """Swap the flat, rank-major step path for the rank-by-rank bodies it
    replaced (``tests/store_oracles.py``) for the rest of the test: the
    integrator, the brownian rotate, ``local_sort``, ``partition_sort`` with
    its per-rank merge tail, the FMM's key generation and the hand-back of
    ``Solver.run``.  Each oracle is given the per-rank lists it was written
    for and its result goes back rank-major; returns the set of oracle names
    called so far."""
    oracle = {name: counted(getattr(store_oracles, name)) for name in STORE_ORACLES}

    def listed(name):
        """The ``*_ranks`` oracle on per-rank lists cut from its rank-major
        arguments, its per-rank result rank-major again."""
        def stand_in(*args, **kwargs):
            args = [list(a) if isinstance(a, RankMajor) else a for a in args]
            out = oracle[name](*args, **kwargs)
            if isinstance(out, tuple):  # position_update: (positions, max_move)
                return RankMajor.of(out[0]), out[1]
            return RankMajor.of(out)
        return stand_in

    for flat in (integrator.accelerations, integrator.position_update, integrator.velocity_update):
        rebind(flat, listed(f"{flat.__name__}_ranks"))
    rebind(local_sort, listed("local_sort_ranks"))
    rebind(partition_sort, listed("partition_sort_ranks"))

    def rotate(self, vel, speed):
        ranks = list(RankMajor(vel, self.store.offsets))
        return np.concatenate(oracle["rotate_directions_ranks"](self._rng, ranks, speed))

    monkeypatch.setattr(Simulation, "_rotate_directions", rotate)
    monkeypatch.setattr(
        FMMSolver, "_make_blocks",
        lambda self, particles: RankMajor.of(oracle["make_blocks_ranks"](self, particles)),
    )
    monkeypatch.setattr(Solver, "run", oracle["solver_run_ranks"])
    return counted.called


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
