"""The charge funnel: ``Machine.begin/commit/count`` is the only writer of
modeled charges and event counters.

* structural — the AST of ``src/repro`` calls the trace/listener write
  hooks from ``simmpi/machine.py`` only, so the per-site
  auditor/obs/wall branches cannot grow back;
* behavioural — zero-listener fast path, listener attach/detach mid-run,
  the mirrored tree-collective ledger, and host-wall attribution of the
  point-to-point primitives (which never reached ``record_wall`` before
  the funnel).
"""

import ast
import pathlib

import numpy as np

import repro
from repro.obs.spans import enable_observability
from repro.perf import instrument
from repro.simmpi import collectives
from repro.simmpi.machine import Machine
from repro.simmpi.p2p import exchange_pairs, send_round, sendrecv
from repro.simmpi.spmd import run_spmd
from repro.verify.audit import enable_auditing

SRC = pathlib.Path(repro.__file__).resolve().parent
FUNNEL = SRC / "simmpi" / "machine.py"

#: ``receiver.method(...)`` calls only the funnel may make; ``None`` matches
#: any receiver
WRITE_HOOKS = (
    ("trace", "record"),
    ("trace", "bump"),
    (None, "record_wall"),
    (None, "on_charge"),
    (None, "on_rank_charge"),
    (None, "on_mirrored_charge"),
    (None, "on_count"),
)


def _calls(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def _is_write_hook(call):
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    receiver = func.value
    receiver_name = (
        receiver.attr if isinstance(receiver, ast.Attribute)
        else receiver.id if isinstance(receiver, ast.Name)
        else None
    )
    return any(
        func.attr == method and owner in (None, receiver_name)
        for owner, method in WRITE_HOOKS
    )


class TestSingleWriter:
    def test_write_hooks_called_from_the_funnel_only(self):
        offenders = [
            f"{path.relative_to(SRC)}:{call.lineno} .{call.func.attr}("
            for path in sorted(SRC.rglob("*.py"))
            if path != FUNNEL
            for call in _calls(path)
            if _is_write_hook(call)
        ]
        assert offenders == []
        # and the funnel really is where they live
        assert {c.func.attr for c in _calls(FUNNEL) if _is_write_hook(c)} == {
            method for _owner, method in WRITE_HOOKS
        }

    def test_no_hasattr_on_an_auditor(self):
        offenders = [
            f"{path.relative_to(SRC)}:{call.lineno}"
            for path in sorted(SRC.rglob("*.py"))
            for call in _calls(path)
            if isinstance(call.func, ast.Name)
            and call.func.id == "hasattr"
            and "auditor" in ast.unparse(call.args[0])
        ]
        assert offenders == []

    def test_every_counter_the_auditor_dispatches_on_is_emitted(self):
        """``CommAuditor.on_count`` folds events by name; a name nobody
        passes to ``machine.count`` would silently freeze checkpointed
        auditor state (``algo_counts``)."""
        audit = ast.parse((SRC / "verify" / "audit.py").read_text())
        on_count = next(
            node for node in ast.walk(audit)
            if isinstance(node, ast.FunctionDef) and node.name == "on_count"
        )
        dispatched = {
            cmp.comparators[0].value
            for cmp in ast.walk(on_count)
            if isinstance(cmp, ast.Compare)
            and isinstance(cmp.left, ast.Name) and cmp.left.id == "name"
        }
        emitted = {
            call.args[0].value
            for path in sorted(SRC.rglob("*.py"))
            for call in _calls(path)
            if isinstance(call.func, ast.Attribute) and call.func.attr == "count"
            and call.args and isinstance(call.args[0], ast.Constant)
        }
        assert dispatched and dispatched <= emitted


class _CountingClocks(np.ndarray):
    """Clock vector that counts ``copy()`` calls."""

    copies = 0

    def copy(self, *args, **kwargs):
        type(self).copies += 1
        return np.asarray(self).copy(*args, **kwargs)


def _exercise(machine):
    """One charge through every funnel client."""
    a = np.arange(4.0)
    machine.compute(np.full(machine.nprocs, 1e-6), "w")
    machine.barrier("sync")
    collectives.allreduce(machine, [1.0] * machine.nprocs, phase="sync")
    collectives.alltoallv(machine, [{(r + 1) % machine.nprocs: a} for r in range(machine.nprocs)], "x")
    sendrecv(machine, 0, 1, a, "p")
    send_round(machine, [(0, 1, a), (2, 3, a)], "p")
    exchange_pairs(machine, np.array([[0, 1], [2, 3]]), np.full((2, 2), a.nbytes), "p")
    run_spmd(machine, lambda ctx: ctx.sendrecv((ctx.rank + 1) % ctx.nprocs, a,
                                               (ctx.rank - 1) % ctx.nprocs))
    machine.count("events", 3)
    machine.count("labeled", solver="fmm")


class TestZeroListenerFastPath:
    def test_no_clock_copy_and_trace_equals_listened_run(self):
        bare = Machine(4)
        bare.clocks = bare.clocks.view(_CountingClocks)
        _CountingClocks.copies = 0
        _exercise(bare)
        assert _CountingClocks.copies == 0

        listened = Machine(4)
        enable_auditing(listened)
        recorder = enable_observability(listened)
        _exercise(listened)
        assert recorder.span_count() > 0
        # listeners observe; they never change what the trace records
        assert np.array_equal(np.asarray(bare.clocks), listened.clocks)
        assert bare.trace.counters() == listened.trace.counters()
        # the trace keeps flat counters only; a labeled series is the
        # listeners' (its flat form would misstate ``labeled{solver}``)
        assert bare.trace.counters() == {"events": 3}
        for label in listened.trace.labels():
            a, b = bare.trace.phase(label), listened.trace.phase(label)
            assert (a.time, a.messages, a.bytes, a.calls) == (
                b.time, b.messages, b.bytes, b.calls
            )
        assert recorder.metrics.value("events") == 3
        assert recorder.metrics.value("labeled", solver="fmm") == 1

    def test_machine_stream_only_recorder_needs_no_clock_copy(self):
        machine = Machine(4)
        enable_observability(machine, per_rank=False)
        machine.clocks = machine.clocks.view(_CountingClocks)
        _CountingClocks.copies = 0
        _exercise(machine)
        assert _CountingClocks.copies == 0


class TestListenersMidRun:
    def test_attach_and_detach_between_charges(self):
        machine = Machine(4)
        a = np.arange(4.0)
        send_round(machine, [(0, 1, a)], "p")  # nobody listening
        recorder = enable_observability(machine)
        auditor = enable_auditing(machine)
        send_round(machine, [(0, 1, a)], "p")
        machine.barrier("sync")
        machine.count("events")
        spans = recorder.span_count()
        assert spans > 0 and not recorder.complete  # attached late
        assert auditor.ledger["p"].messages == 1
        machine.obs = None
        machine.auditor = None
        send_round(machine, [(0, 1, a)], "p")
        machine.barrier("sync")
        machine.count("events")
        assert recorder.span_count() == spans
        assert recorder.metrics.value("events") == 1
        assert auditor.ledger["p"].messages == 1
        assert auditor.ledger["sync"].messages == 6
        # the trace saw everything regardless
        assert machine.trace.phase("p").messages == 3
        assert machine.trace.counter("events") == 2


class TestMirroredLedger:
    def test_single_rank_tree_collectives_leave_zero_entries(self):
        """A P=1 tree collective moves no message but still opens its
        phase's ledger entry; local work and raw-table exchanges never
        reach the ledger through the funnel."""
        machine = Machine(1)
        auditor = enable_auditing(machine)
        one = [np.arange(3.0)]
        machine.barrier("barrier")
        collectives.allgatherv(machine, one, "allgatherv")
        collectives.allgather_scalars(machine, [1.0], "allgather")
        collectives.allreduce(machine, [1.0], phase="allreduce")
        collectives.bcast(machine, np.arange(3.0), phase="bcast")
        collectives.gatherv(machine, one, phase="gatherv")
        collectives.scatterv(machine, one, phase="scatterv")
        machine.compute(1e-6, "compute")
        machine.copy(8.0, "copy")
        sendrecv(machine, 0, 0, one[0], "self")
        assert {k: (v.messages, v.bytes) for k, v in auditor.ledger.items()} == {
            phase: (0, 0)
            for phase in ("barrier", "allgatherv", "allgather", "allreduce",
                          "bcast", "gatherv", "scatterv")
        }

    def test_mirrored_totals_equal_the_trace(self):
        machine = Machine(4)
        auditor = enable_auditing(machine)
        machine.barrier("sync")
        collectives.bcast(machine, np.arange(5.0), phase="sync")
        collectives.allreduce(machine, [np.arange(2.0)] * 4, phase="sync")
        stats = machine.trace.phase("sync")
        assert (stats.messages, stats.bytes) == (
            auditor.ledger["sync"].messages, auditor.ledger["sync"].bytes
        )
        assert stats.messages == 6 + 3 + 6


class TestWallAttribution:
    def test_exchange_pairs_owns_its_host_time(self):
        """Merge-exchange rounds never went through ``Machine.advance``, so
        their host time used to be billed to whichever phase charged next."""
        machine = Machine(4)
        payload = np.arange(1024.0)
        with instrument.wall_phases():
            for _ in range(3):
                exchange_pairs(
                    machine,
                    np.array([[0, 1], [2, 3]]),
                    np.full((2, 2), payload.nbytes),
                    "only-exchange-pairs",
                )
        assert machine.trace.phase("only-exchange-pairs").wall_ns > 0
