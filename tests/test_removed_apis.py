"""Removed APIs stay removed.

Every simplification PR deleted names outright instead of deprecating them;
this is the guard that none of them is spelled again — in source text
(``FORBIDDEN``: a regex, the trees it may not appear in, the files exempt)
or as an attribute of the object that used to carry it (``REMOVED``).
"""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
EVERYWHERE = ("src", "tests", "benchmarks", "examples")

#: ``(pattern, trees searched, path prefixes allowed to match)``
FORBIDDEN = [
    (r"\.resort_(floats|ints|bytes)\(", ("src", "tests", "benchmarks"), ()),
    (r"resume_simulation|observe_collective|PhaseTimer|targets_only", EVERYWHERE, ()),
    # checkpoint sections are serialized by their owners (state_dict/load_state)
    (r"restore_auditor_state|restore_trace_state|plain_records_to_step_records",
     ("src", "benchmarks", "examples"), ()),
    # a staged collective is a schedule run by the one executor in simmpi/algos.py
    (r"_begin_staged|_charge_count_exchange|_alltoallv_bruck|_allreduce_rhd", EVERYWHERE, ()),
    # the auditor checks peers against one sorted key array, not per-rank sets
    (r"\._neighbors\b", EVERYWHERE, ()),
    # the retired config field is spelled only by the test that writes a
    # format-1 file to see it refused
    (r"fuse_resort", EVERYWHERE, ("tests/ckpt/test_roundtrip.py",)),
    # a resort plan is a stored exchange route: its per-rank schedule tables,
    # byte records and twin implementations live on as test oracles only
    (r"_execute_reference|_execute_vectorized|_compile_schedules|_byte_rows|_gather_order"
     r"|_scatter_perm", ("src", "benchmarks", "examples"), ()),
    # the host clock is read from outside (perfbench/) and a kernel's scalar
    # oracle lives under tests/: no in-tree timer registry, no dispatch switch
    (r"prefer_reference|reference_mode|kernel_timer|instrument\.(collect|record|stats|snapshot)"
     r"|merge_kernel_stats|_reference\(", ("src", "benchmarks", "examples"), ()),
    # the attached path keeps only checks that can fail: no self-completing
    # send/recv matching, no fold of the spans back into the trace
    (r"post_send|complete_recv|assert_quiescent|pending_sends\(|phase_sums"
     r"|comm-quiescent|span-accounting", EVERYWHERE, ()),
    # a round is three arrays: no Exchange is taken apart into per-message
    # payloads again and no staged engine forwards payload columns (the old
    # bodies: tests/round_oracles.py)
    (r"\.as_sends\(|_payload_cols|_rebuild_payload|observe_send_round|observe_sendrecv",
     ("src", "benchmarks", "examples"), ()),
    # capabilities no entry point reached: no in-process engine (no backend
    # attached is the in-process data plane), no Verlet list, no movement
    # tracker; candidate_pairs lives on as a test oracle only
    (r"InProcessBackend|VerletNeighborList|neighborlist|MovementTracker|occupancy_weights"
     r"|export_metrics|register_solver|self_energy|candidate_pairs",
     ("src", "benchmarks", "examples", "perfbench"), ()),
    # checkpoint format 2 holds each fact once: the auditor's copies of the
    # trace's resort_plan.* counters and of sum(algo_counts), the constant
    # pending_sends, the dead alloc_bytes, the one-value balance_phases knob
    # and the per-run work copy on RunReport are gone (the staged-algos
    # golden still derives the call total; the format-1 refusal test writes
    # the old keys)
    (r"n_plan_(compiles|executions|fused_columns)|n_algo_calls|pending_sends|alloc_bytes"
     r"|balance_phases|report\.rank_work", EVERYWHERE,
     ("tests/simmpi/test_algos_golden.py", "tests/simmpi/algos_golden.json",
      "tests/ckpt/test_roundtrip.py")),
    # one loop plays every checked run: restart equivalence is ``play`` with a
    # kill, held to the uninterrupted run at every step; no Simulation
    # monkeypatching opt-in, no restart invariant armed for the last step
    (r"auto_verify|repro\.verify\.testing|expected_restart|ckpt-restart-equivalence",
     EVERYWHERE, ()),
    # a machine is ``Machine(nprocs, profile=, perturbation=)``; tests/backend
    # has a fixture of that name
    (r"make_machine", ("src", "benchmarks", "examples"), ()),
    # no figure, solver, checkpoint or CLI ran a rank program: the SPMD
    # runtime, the DST probe that only tested it and its mailbox example are gone
    (r"run_spmd|SPMDContext|SPMDDeadlock|MailboxScheduler|run_order_invariance_probe"
     r"|probe_rounds|spmd-probe|spmd_halo_exchange", EVERYWHERE, ()),
    # restart equivalence is the DST cell at chaos seed 0 with a kill: no
    # second sweep, report type or solver/method grid of its own
    (r"repro\.ckpt\.equivalence|run_restart_equivalence|run_equivalence_suite"
     r"|EquivalenceCell|EQUIVALENCE_(SOLVERS|METHODS)", EVERYWHERE + ("perfbench",), ()),
    # test instruments live next to their tests (tests/strategies.py,
    # tests/instruments.py), not in the package
    (r"repro\.verify\.strategies", EVERYWHERE + ("perfbench",), ()),
]

#: ``(module, attribute path)`` that must not resolve
REMOVED = [
    ("repro.core.handle", "FCS.resort_floats"),
    ("repro.core.handle", "FCS.resort_ints"),
    ("repro.core.handle", "FCS.resort_bytes"),
    ("repro.md.simulation", "SimulationConfig.fuse_resort"),
    ("repro.md.io", "resume_simulation"),
    ("repro.verify.audit", "CommAuditor.observe_collective"),
    ("repro.simmpi", "PhaseTimer"),
    ("repro.simmpi.tracing", "PhaseTimer"),
    ("repro.core.fine_grained", "targets_only"),
    ("repro.solvers.ewald_solver", "EwaldSolver._real_space"),
    ("repro.ckpt.checkpoint", "restore_auditor_state"),
    ("repro.ckpt.checkpoint", "restore_trace_state"),
    ("repro.ckpt.checkpoint", "plain_records_to_step_records"),
    ("repro.core.plan", "ResortPlan._execute_reference"),
    ("repro.core.plan", "ResortPlan._execute_vectorized"),
    ("repro.core.plan", "ResortPlan._compile_schedules"),
    ("repro.core.plan", "ResortPlan._compile_schedules_reference"),
    ("repro.core.plan", "_byte_rows"),
    # the pair kernels are two radial functions over one core that
    # accumulates with bincount (the old bodies: tests/near_field_oracles.py)
    ("repro.solvers.common.pairs", "_accumulate"),
    # repro.perf.instrument is the wall-phase hook and nothing else
    *[("repro.perf.instrument", name) for name in (
        "KernelStats", "collect", "collecting", "record", "kernel_timer", "stats", "snapshot",
        "reset", "export_metrics", "reference_mode", "prefer_reference")],
    ("repro.perf", "harness"),
    # the scalar oracles of five kernels moved to tests/kernel_oracles.py
    ("repro.solvers.common.pairs", "ragged_cross_reference"),
    ("repro.solvers.p2nfft.linked_cell", "LinkedCellNearField.candidate_pairs_reference"),
    ("repro.solvers.fmm.expansions", "derivative_tensors_reference"),
    ("repro.sorting.partition_sort", "partition_destinations_reference"),
    ("repro.sorting.partition_sort", "split_by_destination_reference"),
    ("repro.obs", "merge_kernel_stats"),
    *[("repro.verify.audit", f"CommAuditor.{name}") for name in (
        "post_send", "complete_recv", "pending_sends", "assert_quiescent", "ledger_snapshot")],
    # nothing read an ``audit.*`` series
    ("repro.verify.audit", "export_metrics"),
    ("repro.obs.spans", "ObsRecorder.phase_sums"),
    ("repro.simmpi.collectives", "Exchange.as_sends"),
    ("repro.simmpi.collectives", "Exchange.collect"),
    # a skip-compute exchange lists the rows it delivers and counts the rest
    # (``Exchange.sent``); no receive positions pick from a full listing
    ("repro.simmpi.collectives", "Exchange.keep"),
    ("repro.simmpi.algos", "_payload_cols"),
    ("repro.simmpi.algos", "_rebuild_payload"),
    ("repro.verify.audit", "CommAuditor.observe_send_round"),
    ("repro.verify.audit", "CommAuditor.observe_sendrecv"),
    # the position update measures the movement bound; this per-rank loop
    # billed every rank for every rank's rows and had no caller
    ("repro.core.movement", "max_movement"),
    # a comparator round is audited as the (src, dst, nbytes) arrays it is
    ("repro.verify.audit", "CommAuditor.observe_exchange_pairs"),
    # nothing under src/ asks for a neighbor set: tests/cart_neighbors.py
    # builds it from CartGrid.shifted_ranks
    ("repro.simmpi.cart", "CartGrid.neighbor_ranks"),
    ("repro.simmpi.cart", "CartGrid.neighbor_table"),
    # no entry point reached these (tests/ aside)
    ("repro.backend", "InProcessBackend"),
    ("repro.backend", "inprocess"),
    ("repro.backend", "export_metrics"),
    ("repro.solvers.p2nfft", "neighborlist"),
    ("repro.solvers.p2nfft.linked_cell", "LinkedCellNearField.candidate_pairs"),
    ("repro.core.movement", "MovementTracker"),
    ("repro.core.balance", "occupancy_weights"),
    ("repro.core.handle", "register_solver"),
    ("repro.solvers.p2nfft.mesh", "MeshSolver.self_energy"),
    # a figure cell is a CellSpec that repro.verify.trajectory.build_run builds
    ("repro.bench.figures", "fig7_cell"),
    ("repro.bench.figures", "_simulate"),
    ("repro.bench.harness", "make_machine"),
    ("repro.verify", "auto_verify"),
    # checkpoint format 2: one copy of each fact
    ("repro.md.simulation", "SimulationConfig.balance_phases"),
    ("repro.simmpi.tracing", "PhaseStats.alloc_bytes"),
    ("repro.solvers.base", "RunReport.rank_work"),
    # the SPMD runtime and what acted only through it
    ("repro.simmpi", "spmd"),
    ("repro.simmpi.chaos", "Perturbation.scheduler"),
    ("repro.simmpi.chaos", "Perturbation.reorder"),
    ("repro.backend.base", "ExecutionBackend.post_ticket"),
    ("repro.ckpt", "equivalence"),
    # every front end's run-description flags are declared once, in repro.run_args
    ("repro.md.simulation", "step_count"),
    ("repro.md.simulation", "rank_count"),
    ("repro.md.simulation", "particle_count"),
    ("repro.simmpi.chaos", "chaos_seed"),
    ("repro.verify.__main__", "_FRESH_SWEEP_ONLY"),
    ("repro.verify.__main__", "_seed_count"),
    # no entry point called these; their only callers were their own tests
    ("repro.simmpi.machine", "Machine.reset_clocks"),
    ("repro.simmpi.machine", "Machine.imbalance"),
    ("repro.core.particles", "ColumnBlock.empty_like"),
    ("repro.core.particles", "ColumnBlock.permute_inplace"),
    ("repro.core.particles", "ParticleSet.gather_positions"),
    ("repro.core.particles", "ParticleSet.gather_fields"),
    ("repro.core.particles", "ParticleSet.nlocal"),
    ("repro.solvers.fmm.expansions", "Expansion.m2p"),
    ("repro.solvers.fmm.expansions", "Expansion.p2m"),
    ("repro.zorder", "morton_decode2"),
    ("repro.zorder.morton", "morton_decode2"),
    ("repro.zorder.morton", "_compact2"),
    ("repro.sorting.batcher", "comparator_count"),
    ("repro.simmpi.tracing", "Trace.phases"),
    ("repro.simmpi.tracing", "Trace.total_bytes"),
    ("repro.simmpi.tracing", "Trace.rank_work"),
    ("repro.md.systems", "ParticleSystem.density"),
    ("repro.simmpi.cart", "CartGrid.subdomain_bounds"),
    ("repro.verify", "assert_invariants"),
    ("repro.verify.invariants", "assert_invariants"),
    ("repro.ckpt.checkpoint", "Checkpoint.initialized"),
    ("repro.ckpt.checkpoint", "Checkpoint.rng_state"),
    ("repro.core.handle", "FCS.metrics"),
    ("repro.core.plan", "ResortPlan.total_rows"),
    ("repro.obs.metrics", "from_trace"),
    # one accessor per phase read: ``Trace.phase`` returns a copy
    ("repro.simmpi.tracing", "Trace.get"),
    # test instruments, moved under tests/ next to their only users
    ("repro.ckpt.checkpoint", "Checkpoint.from_columns"),
    ("repro.verify", "check_count_symmetry"),
    ("repro.verify", "verify_exchange_schedule"),
    ("repro.verify.audit", "check_count_symmetry"),
    ("repro.verify.audit", "verify_exchange_schedule"),
    ("repro.obs", "read_ndjson"),
    ("repro.obs.export", "read_ndjson"),
    ("repro.md.observables", "total_momentum"),
    ("repro.md.observables", "max_drift"),
    ("repro.md.observables", "mean_drift"),
    ("repro.solvers.direct", "direct_energy"),
    ("repro.solvers.ewald_ref", "ewald_energy"),
    ("repro.solvers.fmm.tree", "FMMTree.evaluate"),
]


@pytest.mark.parametrize(
    "pattern, trees, allowed",
    FORBIDDEN,
    ids=["typed-resort", "retired-names", "ckpt-converters", "staged-helpers", "neighbor-sets",
         "fuse-resort", "plan-twins", "in-tree-timers", "vacuous-checks",
         "per-message-bridge", "unreached-capabilities", "ckpt-v1-copies",
         "one-checked-loop", "machine-factory", "spmd-runtime", "restart-kit",
         "instruments-in-tests"],
)
def test_removed_name_is_not_spelled(pattern, trees, allowed):
    regex = re.compile(pattern)
    hits = []
    for tree in trees:
        for path in sorted(p for p in (ROOT / tree).rglob("*") if p.is_file()):
            relative = path.relative_to(ROOT).as_posix()
            if (
                path == pathlib.Path(__file__).resolve()
                or "__pycache__" in path.parts
                or relative.startswith(allowed)
            ):
                continue
            for number, line in enumerate(path.read_text(errors="replace").splitlines(), 1):
                if regex.search(line):
                    hits.append(f"{relative}:{number}: {line.strip()}")
    assert not hits, "removed API spelled again:\n" + "\n".join(hits)


@pytest.mark.parametrize("module, attribute", REMOVED)
def test_removed_attribute_is_gone(module, attribute):
    owner = importlib.import_module(module)
    *parents, name = attribute.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    assert not hasattr(owner, name), f"removed API present again: {module}.{attribute}"


@pytest.mark.parametrize("kernel", ["coulomb_pairs", "erfc_pairs"])
def test_pair_kernels_take_no_shift(kernel):
    """``shift=`` (per-pair image shifts) never had a caller: both solvers
    use ``box=`` minimum image."""
    pairs = importlib.import_module("repro.solvers.common.pairs")
    assert "shift" not in inspect.signature(getattr(pairs, kernel)).parameters


def test_perf_package_is_the_wall_phase_hook():
    perf = importlib.import_module("repro.perf")
    hook = ["wall_anchor", "wall_phases", "wall_phases_enabled"]
    assert sorted(perf.__all__) == sorted(perf.instrument.__all__) == hook
    # no harness.py, no __main__.py: ``python -m repro.perf`` does not exist
    assert sorted(p.name for p in (ROOT / "src/repro/perf").glob("*.py")) == [
        "__init__.py", "instrument.py"]


#: the only modules under ``src/repro`` that read the host clock: the
#: wall-phase hook, and three that report how long their own work took
HOST_CLOCK_READERS = {
    "perf/instrument.py", "ckpt/restore.py", "backend/process.py", "bench/__main__.py"}


def test_host_clock_is_read_in_four_modules_and_kernels_do_not_import_perf():
    package = ROOT / "src/repro"
    readers, importers = set(), set()
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            imported = []
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [f"{node.module}.{alias.name}" for alias in node.names]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"
                and (node.attr == "time" or node.attr.startswith("perf_counter"))
            ):
                readers.add(relative)
            for name in imported:
                if name.startswith(("time.time", "time.perf_counter", "tracemalloc")):
                    readers.add(relative)
                if name.startswith("repro.perf"):
                    importers.add(relative.split("/")[0])
    assert readers <= HOST_CLOCK_READERS, sorted(readers - HOST_CLOCK_READERS)
    assert not importers & {"solvers", "sorting", "core", "zorder", "md"}, sorted(importers)
