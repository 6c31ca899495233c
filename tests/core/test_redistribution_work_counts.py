"""A deterministic guard that a redistribution is array work, not Python
work per message or per rank.

One solver step at the ``many_ranks`` sizes moves tens to hundreds of
thousands of messages.  Before the exchange descriptor every one of them
cost a ``ColumnBlock`` view and a ``payload_nbytes`` call (226 k and 222 k for
the P2NFFT step below; 14 k more in the FMM sort), the FMM halo encoded
Morton keys once per direction per rank (3 456 calls), and the resort-index
scatters and the plan unpacked indices once per rank; before the flat,
rank-major store (``RankMajor``: one block + ``offsets``) a step still built
``4P + 7`` / ``7P + 8`` blocks and one Morton encode per rank.  The counts
here are exact for the current code, the same at every rank count, and
repeat on every run; host clocks are not involved.  The structure pins at
the end keep it that way by construction: one composite-key sort, one place
that builds an ``Exchange``, no ``for`` over the ranks in the step path's
glue, one caller of ``ColumnBlock.concat`` (the entry normaliser).

Before a round became three arrays the same held only on the bare path:
staged (``bruck``) or hosted by the process backend, every exchange was taken
apart into per-message payloads again — ``payload_nbytes`` once per message
per round, one shared-memory encode and decode per message.  The pins at
the end of the first half say what is true now: rounds, arenas and delivery
calls per exchange do not depend on how many messages it has.
"""

import ast
import gc
import inspect
import pathlib
import tracemalloc

import numpy as np
import pytest

from repro.backend import shm
from repro.backend.process import ProcessBackend
from repro.bench.harness import make_system
from repro.core import fine_grained, resort
from repro.core.handle import fcs_init
from repro.core.particles import ColumnBlock, ParticleSet, RankMajor
from repro.simmpi import collectives, p2p
from repro.simmpi.cart import CartGrid
from repro.simmpi.machine import Machine
from repro.solvers.p2nfft import solver as p2nfft_solver
from repro.solvers.p2nfft.solver import GridSolver
from repro.sorting.batcher import merge_exchange_rounds
from repro.sorting.merge_sort import merge_exchange_sort
from repro.verify.trajectory import CellSpec, run_cell
from repro.zorder import morton

N = 32768


@pytest.fixture
def work(monkeypatch, rebind):
    """Counts of ``ColumnBlock`` constructions and of the calls that used to
    come once per message or once per rank."""
    counts = {"ColumnBlock": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(ColumnBlock, "__init__", counting("ColumnBlock", ColumnBlock.__init__))
    for module, name in (
        (morton, "morton_encode3"),
        (collectives, "payload_nbytes"),
        (resort, "unpack_resort_index"),
        (resort, "inverse_permutation"),
    ):
        counts[name] = 0
        original = getattr(module, name)
        rebind(original, counting(name, original))
    return counts


def _one_step(solver, nprocs, machine=None):
    """One method-B ``fcs_run`` from a random distribution (every rank
    sends to many others, so messages outnumber ranks by far)."""
    system = make_system(N, 1)
    owner = np.random.default_rng(1).integers(0, nprocs, system.n)
    particles = ParticleSet(
        [system.pos[owner == r] for r in range(nprocs)],
        [system.q[owner == r] for r in range(nprocs)],
        capacity_factor=4.0,
    )
    machine = machine or Machine(nprocs)
    fcs = fcs_init(solver, machine, compute="skip")
    fcs.set_common(box=system.box, offset=system.offset, periodic=True)
    fcs.set_resort(True)
    fcs.tune(particles)
    return machine, fcs, particles


#: ``ColumnBlock`` constructions of one method-B ``fcs_run``, whatever P is.
#: P2NFFT — _place: the input rows, the delivered buffer (the owned rows:
#: skipping the arithmetic, no ghost is delivered to be cut away);
#: run: the new layout, and the store's own block of it on install;
#: invert_indices: its rows, the (empty) delivered buffer of its counted
#: exchange, its index-free view, the placed buffer.  FMM — keygen rows, the
#: sort's (empty) delivered buffer and its one gather into place, the halo's
#: column-dropped view and (empty) delivered buffer, then the same six.
#: (P2NFFT was 9 while every ghost was delivered; FMM 12 while the sort
#: gathered, delivered and merged its rows.)
BLOCKS_PER_RUN = {"p2nfft": 8, "fmm": 11}


@pytest.mark.parametrize("P", [128, 512])
def test_p2nfft_step_is_constant_in_ranks(work, P):
    """(Was ``test_p2nfft_step_is_linear_in_ranks``, ``<= 4P + 7`` at P = 512.)"""
    machine, fcs, particles = _one_step("p2nfft", P)
    for name in work:
        work[name] = 0
    report = fcs.run(particles)
    assert report.changed
    assert machine.trace.totals().messages > 100 * P
    assert work["ColumnBlock"] <= BLOCKS_PER_RUN["p2nfft"]
    assert work["payload_nbytes"] == 0
    assert work["morton_encode3"] == 0
    # invert_indices: the targets and slots, once, before the exchange (the
    # slots were unpacked again after it while the rows were delivered)
    assert work["unpack_resort_index"] == 1
    assert work["inverse_permutation"] == 0

    # fcs.resort of three columns: one compile, then pure data movement —
    # per-rank lists are concatenated at entry, no per-rank object is built
    columns = [
        [np.zeros((c, 3)) for c in report.old_counts],
        [np.zeros((c, 3)) for c in report.old_counts],
        [np.arange(c) for c in report.old_counts],
    ]
    for calls in (1, 0):
        for name in work:
            work[name] = 0
        messages = machine.trace.totals().messages
        out = fcs.resort(columns)
        assert machine.trace.totals().messages - messages > 20 * P
        assert work == {**dict.fromkeys(work, 0), "unpack_resort_index": calls}
        assert all(isinstance(col, RankMajor) and len(col) == P for col in out)


@pytest.mark.parametrize("P", [128, 512])
def test_fmm_step_is_constant_in_ranks(work, P):
    """(Was ``test_fmm_step_is_linear_in_ranks``, ``<= 7P + 8`` at P = 128.)"""
    machine, fcs, particles = _one_step("fmm", P)
    for name in work:
        work[name] = 0
    report = fcs.run(particles)
    assert report.changed
    assert machine.trace.totals().messages > 100 * P
    assert work["ColumnBlock"] <= BLOCKS_PER_RUN["fmm"]
    assert work["payload_nbytes"] == 0
    # one key generation over the positions of all ranks and one encode for
    # the whole halo
    assert work["morton_encode3"] <= 2
    assert work["unpack_resort_index"] == 1
    assert work["inverse_permutation"] == 0


def test_merge_exchange_round_is_array_work(work):
    """The merges of a comparator round are one sort and one scatter per
    column over the rows of all its windows, written into the local sort's
    own gather: one block for the rows handed in as a per-rank list, one for
    the gather, however many pairs overlap (pair by pair it built a dozen
    blocks per window, rank by rank ``2P + 1``)."""
    P, per = 64, 64
    rng = np.random.default_rng(2)
    keys = rng.integers(0, 10**6, P * per).astype(np.uint64)
    blocks = [
        ColumnBlock(key=keys[r * per:(r + 1) * per], vec=rng.random((per, 3))) for r in range(P)
    ]
    machine = Machine(P)
    for name in work:
        work[name] = 0
    _sorted, ok = merge_exchange_sort(machine, blocks, "key", "sort")
    assert ok
    # two control messages per comparator, two more wherever a window moved
    comparators = sum(len(r) for r in merge_exchange_rounds(P))
    assert machine.trace.phase("sort").messages > 3 * comparators
    assert work["ColumnBlock"] == 2


@pytest.mark.parametrize("solver", ["p2nfft", "ewald"])
def test_grid_placement_decides_ownership_once(solver, monkeypatch, rebind):
    """One ``fcs_run`` of a grid solver turns n positions into cells — not
    the n + delivered (ghosts included, 11.5 n at P = 512) it took to
    re-derive ownership from every delivered row —, takes the owned blocks
    from the transport with no gather of its own (skip compute; was one),
    or cuts them out of one gather when every copy is delivered (full
    compute), whatever P is, and never reaches a stable ``argsort`` from
    the route builder."""
    seen = {"cell_rows": [], "takes": 0, "place_takes": [], "route_depth": 0, "argsorts": 0}

    cell_of_positions = CartGrid.cell_of_positions
    monkeypatch.setattr(
        CartGrid, "cell_of_positions",
        lambda self, pos: seen["cell_rows"].append(len(pos)) or cell_of_positions(self, pos),
    )

    take = ColumnBlock.take

    def counted_take(self, idx):
        seen["takes"] += 1
        return take(self, idx)

    monkeypatch.setattr(ColumnBlock, "take", counted_take)
    place = GridSolver._place

    def counted_place(self, *args):
        before = seen["takes"]
        try:
            return place(self, *args)
        finally:
            seen["place_takes"].append(seen["takes"] - before)

    monkeypatch.setattr(GridSolver, "_place", counted_place)

    exchange_route = fine_grained.exchange_route

    def entered_route(*args):
        seen["route_depth"] += 1
        try:
            return exchange_route(*args)
        finally:
            seen["route_depth"] -= 1

    rebind(exchange_route, entered_route)
    argsort = np.argsort

    def counted_argsort(*args, **kwargs):
        seen["argsorts"] += seen["route_depth"]
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted_argsort)

    for P in (8, 64):
        machine, fcs, particles = _one_step(solver, P)
        seen.update(cell_rows=[], place_takes=[])
        report = fcs.run(particles)
        assert report.changed
        assert machine.trace.totals().messages > 10 * P
        assert seen["cell_rows"] == [N]
        assert seen["place_takes"] == [0]
        fcs.solver._set_compute_mode("full")
        fcs.solver._place(particles, None)
        fcs.solver._set_compute_mode("skip")
        assert seen["place_takes"] == [0, 1]
        fcs.resort([[np.zeros((c, 3)) for c in report.old_counts]])
    assert seen["argsorts"] == 0


def test_grid_placement_leaves_nothing_to_the_cycle_collector():
    """Its n-row work columns go when ``_place`` returns, not at the next
    collection: a recursive closure over them once kept ~45 MB per call
    alive on ``payload_p16`` (``peak_rss_mb`` +16 %)."""
    machine, fcs, particles = _one_step("p2nfft", 8)
    gc.collect()
    gc.disable()
    try:
        fcs.solver._place(particles, None)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_grid_placement_picks_owned_copies_without_reading_the_delivery(monkeypatch):
    """At P = 512 the placement routes 10.5 copies per particle.  Delivering
    them all (full compute), once the exchange has returned ``_place``
    allocates the owned rows (position, charge, origin: 5 · 8n bytes) —
    under 8 · 8n, where re-deriving ownership from the origin every
    delivered copy carries took 52 · 8n.  Skipping the force arithmetic the
    transport delivers those owned rows alone, n of them, and ``_place``
    allocates nothing n-sized after it.  The particles start on their
    owners (the layout of the step before), so the route has ~27 messages a
    rank."""
    machine, fcs, particles = _one_step("p2nfft", 512)
    fcs.run(particles)
    n = particles.total()
    after = {}
    deliver = p2nfft_solver.redistribute_flat

    def delivered(*args, **kwargs):
        local_all = deliver(*args, **kwargs)
        after["delivered"] = local_all.data.n
        tracemalloc.reset_peak()
        after["base"] = tracemalloc.get_traced_memory()[0]
        return local_all

    monkeypatch.setattr(p2nfft_solver, "redistribute_flat", delivered)
    placed = {}
    for compute in ("full", "skip"):
        fcs.solver._set_compute_mode(compute)
        tracemalloc.start()
        try:
            placed[compute] = fcs.solver._place(particles, None)[0]
            after[compute] = after["delivered"], tracemalloc.get_traced_memory()[1] - after["base"]
        finally:
            tracemalloc.stop()
    (delivered_full, grown_full), (delivered_skip, grown_skip) = after["full"], after["skip"]
    assert delivered_full > 10 * n and grown_full < 8 * 8 * n
    assert delivered_skip == n and grown_skip < n  # not a byte per particle
    np.testing.assert_array_equal(placed["skip"].offsets, placed["full"].offsets)
    for name in placed["full"].data.names():
        np.testing.assert_array_equal(placed["skip"].data[name], placed["full"].data[name])


def test_grid_tables_are_built_once_per_grid(monkeypatch):
    """The ghost rule's shifted-rank tables are built at the first
    placement of a tuned grid and read at every later one: a 4-step
    skip-compute P2NFFT run builds as many as a 1-step run (26 at
    ring 1 on a (4, 4, 4) grid; every placement built them again)."""
    built = []
    shifted_ranks = CartGrid.shifted_ranks
    monkeypatch.setattr(
        CartGrid, "shifted_ranks",
        lambda self, shift: built.append(shift) or shifted_ranks(self, shift),
    )
    counts = []
    for steps in (1, 4):
        built.clear()
        run_cell(CellSpec("p2nfft", "B", 64, 4096, seed=1, physics=False,
                          drift=((steps, 0.1, 1.0),)))
        counts.append(len(built))
    assert counts[0] == counts[1] == 26


def test_counted_placement_keeps_nothing_per_merge_entry(monkeypatch):
    """The counted placement merges its (source, target, count) entries
    into messages and places each message's owner rows by message: the
    route tail gets no per-entry row array (a zero-filled one, its prefix
    sum and the gather of it once took most of a drift step's call), only
    the row groups' keys and sizes.  From a random layout at P = 512 the
    entries (342 k) outnumber the messages (192 k), which outnumber the
    groups."""
    machine, fcs, particles = _one_step("p2nfft", 512)
    calls = []
    sorted_route = p2nfft_solver.sorted_route

    def spy(key, base, row_index, rows=None, sent=None, listed=None):
        route = sorted_route(key, base, row_index, rows=rows, sent=sent, listed=listed)
        calls.append((key.shape[0], rows, listed, route))
        return route

    monkeypatch.setattr(p2nfft_solver, "sorted_route", spy)
    fcs.run(particles)
    [(entries, rows, (group_key, size), route)] = calls
    assert rows is None
    assert group_key.shape == size.shape and size.sum() == particles.total()
    assert entries > route.msg_src.shape[0] > group_key.shape[0]


def test_fine_grained_has_no_loop_over_messages():
    """The module loops over ranks only where a caller handed in a per-rank
    distribution *function* (it is called rank by rank, on views), and hands
    the whole exchange to the collective in a single call."""
    tree = ast.parse(inspect.getsource(fine_grained))
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.While)]
    assert _iterated(tree) == {"enumerate(blocks)", "enumerate(pairs)", "pairs"}
    calls = _calls(tree)
    assert calls.count("transport") == 1
    assert calls.count("alltoallv") == calls.count("neighborhood_alltoallv") == 0
    names = [n.id for n in ast.walk(tree) if isinstance(n, ast.Name)]
    assert names.count("alltoallv") == names.count("neighborhood_alltoallv") == 1


# ------------------------------------------- staged and hosted: still arrays


@pytest.mark.parametrize("variant", ["bruck", "process:2"])
def test_staged_or_hosted_exchange_is_constant_in_messages(work, monkeypatch, rebind, variant):
    """Method-B steps at P = 64, staged or on the process backend: the first
    exchanges every pair (thousands of messages), the one after a small
    displacement a few hundred — and either costs no ``payload_nbytes`` call
    and at most ⌈log₂P⌉ round charges; an exchange that lists its rows (the
    placement) one backend delivery and two arenas, one charged from its
    message counts (the index inversion) none."""
    P = 64
    seen = []  # per exchange: (messages, lists rows, rounds, arenas, deliveries)
    tally = {"rounds": 0, "arenas": 0, "deliveries": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)
        return counted

    rebind(p2p.charge_round, counting("rounds", p2p.charge_round))
    monkeypatch.setattr(shm.ShmArena, "__init__", counting("arenas", shm.ShmArena.__init__))
    monkeypatch.setattr(ProcessBackend, "deliver", counting("deliveries", ProcessBackend.deliver))
    alltoallv = collectives.alltoallv

    def watched(machine, sends, *args, **kwargs):
        assert isinstance(sends, collectives.Exchange)  # a descriptor stays a descriptor
        before = dict(tally)
        out = alltoallv(machine, sends, *args, **kwargs)
        seen.append((
            int((sends.msg_src != sends.msg_dst).sum()), bool(sends.row_index.size),
            *(tally[key] - before[key] for key in ("rounds", "arenas", "deliveries")),
        ))
        return out

    machine = Machine(P)
    backend = None
    if variant == "bruck":
        machine.set_collective_algos("bruck")
    else:
        backend = ProcessBackend(workers=2)
        machine.attach_backend(backend)
    try:
        _machine, fcs, particles = _one_step("p2nfft", P, machine)
        rebind(alltoallv, watched)
        for name in work:
            work[name] = 0
        assert fcs.run(particles).changed
        system = make_system(N, 1)
        jitter = np.random.default_rng(2)
        for r in range(P):  # a twentieth of a subdomain: neighbors only
            step = jitter.normal(scale=0.0125 * system.box.min(), size=particles.pos[r].shape)
            particles.pos[r][:] = (particles.pos[r] - system.offset + step) % system.box + system.offset
        assert fcs.run(particles).changed
    finally:
        if backend is not None:
            backend.close()
    sizes = [messages for messages, *_ in seen]
    assert min(sizes) < 500 and max(sizes) > 4000, sizes
    assert {listed for _m, listed, *_ in seen} == {True, False}
    assert work["payload_nbytes"] == 0
    if variant == "bruck":
        assert all(1 <= rounds <= 6 for _m, _l, rounds, _a, _d in seen), seen
        assert tally["deliveries"] == 0
    else:
        assert all(
            (arenas, deliveries) == ((2, 1) if listed else (0, 0))
            for _m, listed, _r, arenas, deliveries in seen
        ), seen


# -------------------------------------------------------- one engine, pinned

SRC = pathlib.Path(fine_grained.__file__).resolve().parents[1]


def _functions(path):
    tree = ast.parse(path.read_text())
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _calls(node):
    return [
        getattr(n.func, "attr", getattr(n.func, "id", None))
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
    ]


def _times_p(node):
    """Whether the expression multiplies something by the rank count."""
    return any(
        isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
        and {ast.unparse(n.left), ast.unparse(n.right)} & {"P", "np.int64(P)"}
        for n in ast.walk(node)
    )


def test_one_composite_key_sort():
    """Exactly one function under ``core`` and ``sorting`` orders rows by a
    ``src * P + dst`` key: the route builder."""
    sorters = []
    for path in sorted((SRC / "core").glob("*.py")) + sorted((SRC / "sorting").glob("*.py")):
        for fn in _functions(path):
            keys = set()
            for n in ast.walk(fn):
                if isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Mult):
                    if getattr(n.value, "id", None) == "P":
                        keys.add(ast.unparse(n.target))
                elif isinstance(n, ast.Assign) and _times_p(n.value):
                    keys.update(ast.unparse(t) for t in n.targets)
            for n in ast.walk(fn):
                if not isinstance(n, ast.Call):
                    continue
                name = getattr(n.func, "attr", getattr(n.func, "id", None))
                if name in ("argsort", "stable_order"):
                    if ast.unparse(n.args[0]) in keys or _times_p(n.args[0]):
                        sorters.append(f"{path.name}:{fn.name}")
    assert sorters == ["fine_grained.py:exchange_route"]


#: the modules whose stable key sorts all go through ``stable_order``
STABLE_ORDER_MODULES = (
    "core/fine_grained.py",
    "sorting/merge_sort.py",
    "sorting/partition_sort.py",
    "md/distributions.py",
    "solvers/p2nfft/linked_cell.py",
    "solvers/fmm/solver.py",
)


def _stable_sorts(node):
    """Line numbers of the ``lexsort`` and ``argsort(..., kind="stable")``
    calls under ``node``."""
    lines = []
    for n in ast.walk(node):
        if not isinstance(n, ast.Call):
            continue
        name = getattr(n.func, "attr", getattr(n.func, "id", None))
        stable = any(k.arg == "kind" and getattr(k.value, "value", None) == "stable" for k in n.keywords)
        if name == "lexsort" or (name == "argsort" and stable):
            lines.append(n.lineno)
    return lines


def test_stable_key_sorts_go_through_stable_order():
    """The local sorts, the partition sort, rank grouping, the Batcher merge
    windows, the linked cell's cell orders and the FMM near field's merge
    sort packed values: no stable ``argsort`` or ``lexsort`` is left in their
    modules but ``stable_order``'s own fallback (found, so the search
    works)."""
    left, fallbacks = [], []
    for module in STABLE_ORDER_MODULES:
        path = SRC / module
        own = [line for fn in _functions(path) if fn.name == "stable_order" for line in _stable_sorts(fn)]
        fallbacks += [f"{module}:{line}" for line in own]
        left += [f"{module}:{line}" for line in _stable_sorts(ast.parse(path.read_text())) if line not in own]
    assert left == []
    assert len(fallbacks) == 1 and fallbacks[0].startswith("core/fine_grained.py:")


def test_exchange_is_built_in_one_place():
    """``Exchange(...)`` is constructed nowhere under ``src/`` outside
    ``simmpi/`` and ``core/fine_grained.py``; a plan binds columns to a
    stored route with ``dataclasses.replace``."""
    builders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path.parent.name != "simmpi" and "Exchange" in _calls(ast.parse(path.read_text()))
    ]
    assert builders == ["core/fine_grained.py"]
    # ... and only the engine and the plan hand anything to a transport, so
    # no ``list[dict]`` send table is built outside ``simmpi/`` either
    transports = {"alltoallv", "neighborhood_alltoallv"}
    callers = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path.parent.name != "simmpi"
        and transports & {n.id for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Name)}
    ]
    assert callers == ["core/fine_grained.py", "core/plan.py"]


@pytest.mark.parametrize("module", ["core/resort.py", "core/restore.py", "sorting/partition_sort.py"])
def test_callers_own_no_transport(module):
    """The scatters and the sort name no ``alltoallv`` form and loop over no
    ranks: what they iterate is a block's column names, or the target counts
    a caller handed in."""
    source = (SRC / module).read_text()
    tree = ast.parse(source)
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    imported = {
        alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for alias in n.names
    }
    assert not {"alltoallv", "neighborhood_alltoallv", "Exchange"} & (names | imported)
    engine = {
        "deliver_to_slots": set(),
        "invert_indices": set(),
        "apply_resort": {"data.data"},
        "restore_results": set(),
        "partition_sort": {"target_counts"},
    }
    for fn in _functions(SRC / module):
        if fn.name in engine:
            assert _iterated(fn) <= engine[fn.name], (fn.name, _iterated(fn))


def _iterated(node):
    """What the ``for`` statements and comprehensions under ``node`` run over."""
    return {
        ast.unparse(n.iter) for n in ast.walk(node) if isinstance(n, (ast.For, ast.comprehension))
    }


def test_step_glue_has_no_loop_over_ranks():
    """A time step is array work over ``(block, offsets)``: the integrator
    module holds no loop at all, nor do the solvers' shared ``run`` hand-back
    and its finiteness check, the method-A restore or the index inversion."""
    assert not _iterated(ast.parse((SRC / "md/integrator.py").read_text()))
    loop_free = {
        "solvers/base.py": {"run", "require_finite"},
        "core/restore.py": {"restore_results"},
        "core/resort.py": {"invert_indices", "deliver_to_slots", "initial_numbering"},
    }
    for module, names in loop_free.items():
        found = {fn.name: _iterated(fn) for fn in _functions(SRC / module) if fn.name in names}
        assert found == dict.fromkeys(names, set()), module


def test_verify_sorted_is_one_array_round():
    """The merge sort's boundary check built P − 1 one-key arrays and walked
    the received lists rank by rank; it is one ``charge_round`` over the
    non-empty neighbors, one comparison and the ``allreduce`` of the flags —
    no loop over ranks, no payload object."""
    (fn,) = [f for f in _functions(SRC / "sorting/merge_sort.py") if f.name == "_verify_sorted"]
    assert _iterated(fn) == set()
    calls = _calls(fn)
    assert calls.count("charge_round") == calls.count("allreduce") == 1
    assert "send_round" not in calls and "asarray" not in calls


def test_concat_is_the_entry_normaliser_only():
    """``ColumnBlock.concat`` — the copy that used to stand in front of every
    exchange — has one caller under ``core`` and ``solvers``: ``RankMajor.of``,
    which turns a per-rank list handed in at the public boundary into the flat
    form, once.  On the flat path nothing is concatenated."""
    callers = []
    for package in ("core", "solvers"):
        for path in sorted((SRC / package).rglob("*.py")):
            for fn in _functions(path):
                if "concat" in _calls(fn):
                    callers.append(f"{path.relative_to(SRC)}:{fn.name}")
    assert callers == ["core/particles.py:of"]


def test_plan_is_a_stored_route():
    """``core/plan.py`` hands an exchange to a transport exactly twice
    (compile, execute), builds no route of its own — one counted route, no
    listed one (it delivered its rows and placed them again) — and times
    nothing."""
    tree = ast.parse((SRC / "core/plan.py").read_text())
    calls = _calls(tree)
    assert calls.count("transport") == 2
    assert calls.count("alltoallv") == calls.count("neighborhood_alltoallv") == 0
    assert calls.count("counted_route") == 1
    assert calls.count("exchange_route") == 0
    assert "argsort" not in calls
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "instrument" not in names and "time" not in names
