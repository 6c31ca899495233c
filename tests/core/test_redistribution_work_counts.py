"""A deterministic guard that a redistribution stays O(P) Python work.

One solver step at the ``many_ranks`` sizes moves tens to hundreds of
thousands of messages.  Before the exchange descriptor every one of them
cost a ``ColumnBlock`` view and a ``payload_nbytes`` call (226 k and 222 k for
the P2NFFT step below), and the FMM halo encoded Morton keys once per
direction per rank (3 456 calls).  The counts here are exact for the
current code and repeat on every run; host clocks are not involved.
"""

import ast
import inspect
import sys

import numpy as np
import pytest

from repro.bench.harness import make_system
from repro.core import fine_grained
from repro.core.handle import fcs_init
from repro.core.particles import ColumnBlock, ParticleSet
from repro.simmpi import collectives
from repro.simmpi.machine import Machine
from repro.solvers.fmm import solver as fmm_solver
from repro.zorder import morton

N = 32768


def _rebind(monkeypatch, original, replacement):
    """Replace a module function in every ``repro`` namespace holding it
    (callers use ``from x import f``)."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def work(monkeypatch):
    """Counts of ``ColumnBlock`` constructions and ``morton_encode3`` /
    ``payload_nbytes`` calls.  The FMM's ``partition_sort`` is not counted:
    its exchange still builds one payload per message (the next consumer of
    the descriptor on the ROADMAP), and its cost is not what this guards."""
    counts = {"ColumnBlock": 0, "morton_encode3": 0, "payload_nbytes": 0}
    active = [True]

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += active[0]
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(ColumnBlock, "__init__", counting("ColumnBlock", ColumnBlock.__init__))
    for module, name in ((morton, "morton_encode3"), (collectives, "payload_nbytes")):
        original = getattr(module, name)
        _rebind(monkeypatch, original, counting(name, original))

    sort = fmm_solver.partition_sort

    def uncounted_sort(*args, **kwargs):
        active[0] = False
        try:
            return sort(*args, **kwargs)
        finally:
            active[0] = True

    monkeypatch.setattr(fmm_solver, "partition_sort", uncounted_sort)
    return counts


def _one_step(solver, nprocs):
    """One method-B ``fcs_run`` from a random distribution (every rank
    sends to many others, so messages outnumber ranks by far)."""
    system = make_system(N, 1)
    owner = np.random.default_rng(1).integers(0, nprocs, system.n)
    particles = ParticleSet(
        [system.pos[owner == r] for r in range(nprocs)],
        [system.q[owner == r] for r in range(nprocs)],
        capacity_factor=4.0,
    )
    machine = Machine(nprocs)
    fcs = fcs_init(solver, machine, compute="skip")
    fcs.set_common(box=system.box, offset=system.offset, periodic=True)
    fcs.set_resort(True)
    fcs.tune(particles)
    return machine, fcs, particles


def test_p2nfft_step_is_linear_in_ranks(work):
    P = 512
    machine, fcs, particles = _one_step("p2nfft", P)
    for name in work:
        work[name] = 0
    report = fcs.run(particles)
    assert report.changed
    assert machine.trace.totals().messages > 300 * P
    # _place: P input blocks, the concatenation, the delivered buffer, P
    # views of it, P owned blocks; invert_indices: P + 1 + 1 + P
    assert work["ColumnBlock"] <= 5 * P + 4
    assert work["payload_nbytes"] == 0
    assert work["morton_encode3"] == 0


def test_fmm_step_is_linear_in_ranks(work):
    P = 128
    machine, fcs, particles = _one_step("fmm", P)
    for name in work:
        work[name] = 0
    report = fcs.run(particles)
    assert report.changed
    assert machine.trace.totals().messages > 200 * P
    # keygen: P blocks; halo: P column-dropped views + 1 + 1 + P;
    # invert_indices: P + 1 + 1 + P
    assert work["ColumnBlock"] <= 5 * P + 4
    assert work["payload_nbytes"] == 0
    # one key generation per rank and one encode for the whole halo
    assert work["morton_encode3"] <= P + 1


def test_fine_grained_has_no_loop_over_messages():
    """The module loops over ranks and columns only, and hands the whole
    exchange to the collective in a single call."""
    tree = ast.parse(inspect.getsource(fine_grained))
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.While)]
    iterated = {
        ast.unparse(node.iter)
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.comprehension))
    }
    assert iterated <= {
        "blocks",
        "enumerate(blocks)",
        "enumerate(pairs)",
        "pairs",
        "range(P)",
        "template.payload()",
        "zip(block.names(), block.payload(), layout)",
    }
    calls = [
        getattr(node.func, "attr", getattr(node.func, "id", None))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]
    assert calls.count("transport") == 1
    assert calls.count("alltoallv") == calls.count("neighborhood_alltoallv") == 0
    names = [n.id for n in ast.walk(tree) if isinstance(n, ast.Name)]
    assert names.count("alltoallv") == names.count("neighborhood_alltoallv") == 1
