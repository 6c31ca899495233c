"""One owner per checkpointed field.

Every stateful component serializes itself (``state_dict()`` →
checkpoint-plain data, ``load_state()``/``from_state()`` its inverse) and
``repro.ckpt`` only composes those sections:

* structural — the AST of ``src/repro/ckpt/`` and ``verify/dst.py`` touches
  no underscore-prefixed attribute of another object, the hand-written
  converters are gone, and the auditor's ledger/counter names are spelled
  in ``verify/audit.py`` only;
* behavioural — each owner's state survives ``encode_value`` → JSON →
  ``decode_value`` → ``load_state`` bit-exactly with no adapter in between,
  loaders read absent keys as a fresh object's state, and a held checkpoint
  is immune to the donor running on.
"""

import ast
import json
import pathlib

import pytest

import repro
import repro.ckpt.checkpoint
import repro.ckpt.restore
from repro.ckpt import capture_checkpoint, restore_simulation
from repro.ckpt.format import decode_value, dumps, encode_value
from repro.core.balance import ImbalanceMonitor
from repro.core.handle import fcs_init
from repro.md.distributions import clustered_system
from repro.md.simulation import Simulation, SimulationConfig, StepRecord
from repro.md.systems import silica_melt_system
from repro.simmpi.machine import Machine
from repro.simmpi.tracing import Trace
from repro.solvers.base import RunReport
from repro.verify.audit import COUNTERS, LEDGERS, CommAuditor, enable_auditing
from repro.verify.dst import ledger_fingerprint
from repro.verify.invariants import state_fingerprint

SRC = pathlib.Path(repro.__file__).resolve().parent
COMPOSERS = sorted((SRC / "ckpt").glob("*.py")) + [SRC / "verify" / "dst.py"]

REMOVED = (
    "_phases_to_plain",
    "_plain_to_phases",
    "_record_to_plain",
    "_plain_to_record",
    "restore_trace_state",
    "restore_auditor_state",
    "plain_records_to_step_records",
)

#: auditor attributes ``verify/invariants.py`` genuinely reads: the
#: accounting invariants cross-check the live ledger tables against the
#: trace and against each other
INVARIANT_READS = {"plan_ledger", "algo_ledger", "algo_round_ledger"}


def _rel(path):
    return str(path.relative_to(SRC))


class TestStructure:
    def test_composers_touch_no_private_attribute_of_another_object(self):
        """``sim._rng``, ``fcs._plan``, ``solver._load_balance`` ... — state
        is reached through its owner's ``state_dict``/``load_state``."""
        offenders = []
        for path in COMPOSERS:
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and not (
                        isinstance(node.value, ast.Name)
                        and node.value.id in ("self", "cls")
                    )
                ):
                    offenders.append(f"{_rel(path)}:{node.lineno} .{node.attr}")
        assert offenders == []

    def test_hand_written_converters_are_gone(self):
        for module in (repro.ckpt.checkpoint, repro.ckpt.restore, repro.ckpt):
            assert [n for n in REMOVED if hasattr(module, n)] == []
        offenders = [
            f"{_rel(path)}: {name}"
            for path in sorted(SRC.rglob("*.py"))
            for name in REMOVED
            if name in path.read_text()
        ]
        assert offenders == []

    def test_auditor_bookkeeping_is_named_in_audit_py_only(self):
        # the bare table name "ledger" is too generic a word to grep for
        # (``_Reference.ledger`` in dst.py is a fingerprint string)
        names = (set(LEDGERS) - {"ledger"}) | set(COUNTERS)
        offenders = [
            f"{_rel(path)}: {name}"
            for path in COMPOSERS
            for name in sorted(names)
            if name in path.read_text()
        ]
        assert offenders == []
        invariants = (SRC / "verify" / "invariants.py").read_text()
        assert {name for name in names if name in invariants} == INVARIANT_READS

    def test_ledger_fingerprint_reads_no_attribute_by_name(self):
        tree = ast.parse((SRC / "verify" / "dst.py").read_text())
        (fn,) = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "ledger_fingerprint"
        ]
        calls = [
            node.func.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        ]
        assert "getattr" not in calls

    def test_columns_are_enumerated_once(self):
        """Column loops run over ``COLUMNS``: the only other places the
        seven names stand together are the ``Checkpoint`` fields."""
        text = (SRC / "ckpt" / "checkpoint.py").read_text()
        assert text.count('"pos", "q", "pot", "field", "vel", "acc", "ids"') == 1
        for path in sorted((SRC / "ckpt").glob("*.py")):
            tree = ast.parse(path.read_text())
            keywords = [
                {kw.arg for kw in node.keywords}
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
            ]
            dict_keys = [
                {k.value for k in node.keys if isinstance(k, ast.Constant)}
                for node in ast.walk(tree)
                if isinstance(node, ast.Dict)
            ]
            for names in keywords + dict_keys:
                assert not {"pot", "field", "acc"} <= names, _rel(path)


def through_the_codec(state):
    """What a checkpoint file does to a section: encode, JSON, decode."""
    return decode_value(json.loads(dumps(encode_value(state))))


def bits(state):
    return dumps(encode_value(state))


@pytest.fixture
def donor():
    """A run whose every owner holds non-trivial state."""
    machine = Machine(2)
    config = SimulationConfig(
        solver="fmm",
        method="B+move",
        seed=0,
        track_energy=True,
        solver_kwargs={"work_model": "density"},
        collective_algos="bruck",
        load_balance="dynamic",
        balance_trigger=1.02,
        balance_rearm=1.01,
        capacity_factor=6.0,
    )
    sim = Simulation(machine, clustered_system("two-cluster", 24, seed=0), config)
    sim.initialize()
    enable_auditing(machine)
    sim.run(2)
    yield sim
    sim.fcs.destroy()


class TestOwnersRoundTrip:
    def test_trace(self, donor):
        state = donor.machine.trace.state_dict()
        twin = Trace()
        twin.load_state(through_the_codec(state))
        assert bits(twin.state_dict()) == bits(state)
        assert twin.items() == donor.machine.trace.items()

    def test_auditor(self, donor):
        auditor = donor.machine.auditor
        state = auditor.state_dict()
        assert set(LEDGERS) | set(COUNTERS) <= set(state)
        assert state["algo_round_ledger"] and state["trace_baseline"]
        twin = CommAuditor(auditor.nprocs)
        twin.load_state(through_the_codec(state))
        assert bits(twin.state_dict()) == bits(state)
        assert ledger_fingerprint(twin) == ledger_fingerprint(auditor)
        for name in LEDGERS:
            assert getattr(twin, name) == getattr(auditor, name)

    def test_monitor(self, donor):
        state = donor.balance_monitor.state_dict()
        assert state["events"]
        twin = ImbalanceMonitor.from_state(through_the_codec(state))
        assert bits(twin.state_dict()) == bits(state)

    def test_run_report_and_step_records(self, donor):
        report = donor.fcs.last_report
        assert report.changed
        twin = RunReport.from_state(through_the_codec(report.state_dict()))
        assert bits(twin.state_dict()) == bits(report.state_dict())
        for record in donor.records:
            twin = StepRecord.from_state(through_the_codec(record.state_dict()))
            assert twin == record

    def test_solver(self):
        solver = fcs_init("fmm", Machine(2)).solver
        solver.set_load_balance("dynamic")
        solver.request_rebalance()
        state = solver.state_dict()
        assert state == {"load_balance": "dynamic", "rebalance_pending": True}
        twin = fcs_init("fmm", Machine(2)).solver
        twin.load_state(through_the_codec(state))
        assert twin.state_dict() == state

    def test_handle_and_simulation_through_a_restore(self, donor):
        """``FCS`` and ``Simulation`` need a live machine to load into:
        the restore is their round trip."""
        restored = restore_simulation(capture_checkpoint(donor))
        try:
            assert bits(restored.fcs.state_dict()) == bits(donor.fcs.state_dict())
            assert restored.fcs.state_dict()["has_plan"]
            assert bits(restored.state_dict()) == bits(donor.state_dict())
            assert state_fingerprint(restored) == state_fingerprint(donor)
        finally:
            restored.fcs.destroy()


class TestLoadersTolerateAbsentKeys:
    def test_empty_state_is_a_fresh_object(self):
        trace, auditor = Trace(), CommAuditor(2)
        fresh = bits(trace.state_dict()), bits(auditor.state_dict())
        trace.record("sort", time=1.0, messages=2, nbytes=3)
        auditor.observe_plan_execution("resort", 1, 8)
        trace.load_state({})
        auditor.load_state({})
        assert (bits(trace.state_dict()), bits(auditor.state_dict())) == fresh
        handle = fcs_init("direct", Machine(2))
        before = handle.state_dict(), handle.solver.state_dict()
        handle.load_state({})
        handle.solver.load_state({})
        assert (handle.state_dict(), handle.solver.state_dict()) == before

    def test_checkpoint_predating_algo_ledgers_and_host_phase_fields(self):
        """A record set without the ``algo_*`` auditor keys (as written
        before the staged collective engines) restores with fresh algo
        ledgers and continues identically; the host phase field
        ``wall_ns`` is not written at all."""

        def build():
            machine = Machine(2)
            sim = Simulation(
                machine,
                silica_melt_system(16, seed=0),
                SimulationConfig(solver="fmm", method="B", seed=0),
            )
            enable_auditing(machine)
            return sim

        def strip(value):
            if isinstance(value, dict):
                return {k: strip(v) for k, v in value.items() if not k.startswith("algo_")}
            return [strip(v) for v in value] if isinstance(value, list) else value

        straight, first = build(), build()
        try:
            straight.run(4)
            first.run(2)
            ckpt = capture_checkpoint(first)
            assert "algo_ledger" in ckpt.auditor
            assert "wall_ns" not in ckpt.machine["trace"]["phases"]["sort"]
            old = type(ckpt).from_records(
                [strip(json.loads(line)) for line in ckpt.to_lines()]
            )
            assert "algo_ledger" not in old.auditor
            machine = Machine(2)
            auditor = enable_auditing(machine)
            resumed = restore_simulation(old, machine=machine)
            try:
                resumed.run(2)
                assert state_fingerprint(resumed) == state_fingerprint(straight)
                assert ledger_fingerprint(auditor) == ledger_fingerprint(
                    straight.machine.auditor
                )
            finally:
                resumed.fcs.destroy()
        finally:
            straight.fcs.destroy()
            first.fcs.destroy()


def test_held_checkpoint_is_immune_to_the_donor_running_on(donor):
    ckpt = capture_checkpoint(donor)
    before = ckpt.to_lines()
    donor.run(1)
    assert ckpt.to_lines() == before
    restored = restore_simulation(ckpt)
    try:
        restored.run(1)  # nor does a restore alias the checkpoint
    finally:
        restored.fcs.destroy()
    assert ckpt.to_lines() == before
