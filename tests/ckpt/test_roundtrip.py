"""Checkpoint capture / NDJSON serialization / restore round-trips."""

import io
import json

import numpy as np
import pytest

from repro.ckpt import (
    CKPT_VERSION,
    capture_checkpoint,
    decode_value,
    encode_value,
    load_checkpoint,
    restore_simulation,
    save_checkpoint,
    write_checkpoint,
)
from repro.ckpt.checkpoint import COLUMNS, Checkpoint
from repro.ckpt.format import dumps, read_lines
from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.obs.spans import enable_observability
from repro.simmpi.machine import Machine
from repro.verify.audit import enable_auditing
from repro.verify.invariants import InvariantChecker, state_fingerprint


# Deliberately not a conftest.py fixture: a tests/ckpt/conftest.py would
# claim the bare ``conftest`` module name ahead of tests/conftest.py (the
# tests dirs have no __init__.py), breaking ``from conftest import ...``
# in the solver/core suites.
@pytest.fixture
def sim_factory():
    """Build a small simulation (no auditor — tests attach what they need)."""

    def build(solver="fmm", method="B", nprocs=4, n=24, seed=2, **cfg_kwargs):
        machine = Machine(nprocs)
        return Simulation(
            machine,
            silica_melt_system(n, seed=seed),
            SimulationConfig(
                solver=solver,
                method=method,
                seed=seed,
                track_energy=True,
                **cfg_kwargs,
            ),
        )

    return build


def write_v1_file(ckpt, path, **config):
    """Write ``ckpt`` as format 1 wrote it: unsealed records, version 1 in
    the header, the auditor keys version 2 dropped, and ``config`` added to
    the config record."""
    records = []
    for line in ckpt.to_lines():
        rec = json.loads(line)
        del rec["crc"]
        if rec["kind"] == "meta":
            rec["version"] = 1
        elif rec["kind"] == "config":
            rec["data"].update(config)
        elif rec["kind"] == "auditor":
            rec["data"] = {"pending_sends": [], "n_plan_compiles": 1}
        records.append(dumps(rec))
    path.write_text("".join(line + "\n" for line in records))
    return path


class TestCodec:
    @pytest.mark.parametrize(
        "value",
        [0.1, -0.0, 5e-324, float(np.nextafter(1.0, 2.0)), 1e300],
    )
    def test_float_bit_exact(self, value):
        out = decode_value(encode_value(value))
        assert isinstance(out, float)
        assert np.float64(out).tobytes() == np.float64(value).tobytes()

    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(6, dtype=np.int64).reshape(2, 3),
            np.linspace(0, 1, 7),
            np.zeros((0, 3)),
            np.array([np.pi]) * 1e-300,
        ],
    )
    def test_ndarray_bit_exact(self, arr):
        out = decode_value(encode_value(arr))
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert out.tobytes() == np.ascontiguousarray(arr).tobytes()

    def test_nested_containers(self):
        value = {"a": [1, 2.5, None, True], "b": {"c": np.arange(3)}}
        out = decode_value(encode_value(value))
        assert out["a"][:1] + out["a"][2:] == [1, None, True]
        assert np.array_equal(out["b"]["c"], np.arange(3))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            encode_value(object())


class TestCaptureRoundtrip:
    def test_lines_roundtrip_bitwise(self, sim_factory):
        sim = sim_factory()
        try:
            sim.run(2)
            ckpt = capture_checkpoint(sim)
        finally:
            sim.fcs.destroy()
        back = Checkpoint.from_records(
            [r for r in read_lines(io.StringIO("\n".join(ckpt.to_lines())))]
        )
        for name in COLUMNS:
            for a, b in zip(ckpt.columns(name), back.columns(name)):
                assert a.tobytes() == b.tobytes(), name
        assert back.step_index == ckpt.step_index
        assert back.sim["rng_state"] == ckpt.sim["rng_state"]
        # the full serialized forms agree byte for byte
        assert back.to_lines() == ckpt.to_lines()

    def test_save_is_deterministic(self, sim_factory, tmp_path):
        sim = sim_factory(solver="direct", method="A", nprocs=2, n=12)
        try:
            sim.run(1)
            n1 = save_checkpoint(sim, str(tmp_path / "a.ndjson"))
            n2 = save_checkpoint(sim, str(tmp_path / "b.ndjson"))
        finally:
            sim.fcs.destroy()
        assert n1 == n2 > 0
        assert (tmp_path / "a.ndjson").read_bytes() == (
            tmp_path / "b.ndjson"
        ).read_bytes()

    def test_capture_charges_nothing(self, sim_factory):
        sim = sim_factory(nprocs=2, n=12)
        try:
            sim.run(1)
            before = (
                sim.machine.elapsed(),
                sim.machine.trace.total_messages(),
            )
            capture_checkpoint(sim)
            after = (
                sim.machine.elapsed(),
                sim.machine.trace.total_messages(),
            )
        finally:
            sim.fcs.destroy()
        assert before == after

    def test_restore_matches_donor_state(self, sim_factory, tmp_path):
        sim = sim_factory(solver="ewald", method="B+move")
        try:
            sim.run(2)
            donor_fp = state_fingerprint(sim)
            path = str(tmp_path / "c.ndjson")
            write_checkpoint(capture_checkpoint(sim), path)
        finally:
            sim.fcs.destroy()
        restored = restore_simulation(load_checkpoint(path))
        try:
            assert state_fingerprint(restored) == donor_fp
            assert restored.machine.trace.total_messages() > 0
            InvariantChecker(restored).assert_ok()
        finally:
            restored.fcs.destroy()

    def test_restored_records_keep_the_phase_table_api(self, sim_factory):
        """A restored step record reads like the live one it stands for:
        ``phases`` is the ``PhaseTable`` that ``Trace.delta_since`` returns."""
        sim = sim_factory(nprocs=2, n=12)
        try:
            sim.run(1)
            restored = restore_simulation(capture_checkpoint(sim))
        finally:
            sim.fcs.destroy()
        try:
            live, back = sim.records[1].phases, restored.records[1].phases
            assert type(back) is type(live)
            assert back.time("sort") == live.time("sort") > 0.0
            assert back.totals() == live.totals()
        finally:
            restored.fcs.destroy()

    def test_load_rejects_foreign_file(self, tmp_path):
        bad = tmp_path / "bad.ndjson"
        bad.write_text(dumps({"kind": "meta", "format": "other"}) + "\n")
        with pytest.raises(ValueError):
            load_checkpoint(str(bad))

    def test_load_rejects_future_version(self, tmp_path, sim_factory):
        sim = sim_factory(nprocs=2, n=12)
        try:
            sim.run(1)
            ckpt = capture_checkpoint(sim)
        finally:
            sim.fcs.destroy()
        ckpt.version = CKPT_VERSION + 1
        path = tmp_path / "future.ndjson"
        write_checkpoint(ckpt, str(path))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(str(path))

    def test_retired_fuse_resort_field(self, sim_factory, tmp_path):
        """Only format-1 files carry the retired field: a capture does not
        write it, and a format-1 file carrying either value is refused by
        its version before the field is read."""
        sim = sim_factory(nprocs=2, n=12)
        try:
            sim.run(1)
            ckpt = capture_checkpoint(sim)
        finally:
            sim.fcs.destroy()
        assert "fuse_resort" not in ckpt.config
        for value in (True, False):
            path = write_v1_file(ckpt, tmp_path / f"v1_{value}.ckpt.ndjson", fuse_resort=value)
            with pytest.raises(ValueError, match="format version 1 is not the supported"):
                load_checkpoint(str(path))

    def test_v1_file_is_refused(self, sim_factory, tmp_path):
        """Format 1 has no upgrade path: a file of it (unsealed records that
        carry the fields version 2 dropped) is refused by version, not
        reported as damaged and not loaded."""
        sim = sim_factory(nprocs=2, n=12)
        try:
            sim.run(1)
            ckpt = capture_checkpoint(sim)
        finally:
            sim.fcs.destroy()
        path = write_v1_file(ckpt, tmp_path / "v1.ckpt.ndjson")
        with pytest.raises(ValueError) as caught:
            load_checkpoint(str(path))
        assert type(caught.value) is ValueError
        assert str(caught.value) == (
            f"{path}: checkpoint format version 1 is not the supported version "
            f"{CKPT_VERSION}; files of another version are refused"
        )
        assert CKPT_VERSION == 2

    def test_restore_notes_describe_the_restoring_machine(self, sim_factory, tmp_path):
        """A trace note is a fact about one execution: a perturbed donor's
        note does not survive a restore onto an unperturbed machine, and a
        perturbed restore notes its own schedule (trace and NDJSON header
        agree)."""
        from repro.obs.export import to_ndjson
        from repro.simmpi.chaos import Perturbation

        donor_chaos, own_chaos = Perturbation.sample(3), Perturbation.sample(5)
        sim = sim_factory(nprocs=4, n=24, perturbation=donor_chaos)
        try:
            sim.run(2)
            assert sim.machine.trace.notes() == {"perturbation": donor_chaos.describe()}
            path = str(tmp_path / "chaos.ckpt.ndjson")
            save_checkpoint(sim, path)
        finally:
            sim.fcs.destroy()
        for perturbation, notes in (
            (None, {}),
            (own_chaos, {"perturbation": own_chaos.describe()}),
        ):
            ckpt = load_checkpoint(path)
            machine = Machine(4)
            recorder = enable_observability(machine)
            restored = restore_simulation(ckpt, machine=machine, perturbation=perturbation)
            try:
                assert machine.perturbation is perturbation
                assert machine.trace.notes() == notes
                restored.run(1)
                assert machine.trace.notes() == notes
                header = json.loads(to_ndjson(recorder)[0])
                assert header["notes"] == notes
            finally:
                restored.fcs.destroy()

    def test_trace_counter_keys_are_the_historical_set(self, sim_factory):
        """The ``counters`` payload of ``Trace.state_dict()`` is checkpoint
        format: events that only ever were labeled recorder series
        (``solver.runs``, ``comm.algo.*``) or recorder-only
        (``balance.triggers``) never become trace keys — listeners or not."""
        sim = sim_factory(
            load_balance="dynamic", balance_trigger=1.001, balance_rearm=1.0,
            collective_algos="bruck",
        )
        enable_auditing(sim.machine)
        recorder = enable_observability(sim.machine)
        try:
            sim.run(3)
            counters = sim.machine.trace.state_dict()["counters"]
        finally:
            sim.fcs.destroy()
        assert recorder.metrics.value("solver.runs", solver="fmm") > 0
        assert recorder.metrics.value("balance.triggers") > 0
        assert recorder.metrics.value(
            "comm.algo.calls", collective="alltoallv", algo="bruck"
        ) > 0
        assert set(counters) <= {
            "resort_plan.compiles", "resort_plan.executions",
            "resort_plan.fused_columns", "resort_plan.bytes_moved",
            "resort_plan.cache_hits", "balance.rebalances",
        }
        assert counters["resort_plan.executions"] > 0


class TestAutoCheckpoint:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            SimulationConfig(checkpoint_every=-1)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            SimulationConfig(checkpoint_every=2)

    def test_periodic_files_and_free_observation(self, sim_factory, tmp_path):
        sim = sim_factory(
            solver="direct",
            method="B",
            nprocs=2,
            n=12,
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
        )
        plain = sim_factory(solver="direct", method="B", nprocs=2, n=12)
        try:
            sim.run(4)
            plain.run(4)
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "step-000000.ckpt.ndjson",
                "step-000002.ckpt.ndjson",
                "step-000004.ckpt.ndjson",
            ]
            # checkpointing is an out-of-band observation: the checkpointed
            # run's machine story is bitwise the uncheckpointed one's
            assert sim.machine.elapsed() == plain.machine.elapsed()
            assert state_fingerprint(sim) == state_fingerprint(plain)
        finally:
            sim.fcs.destroy()
            plain.fcs.destroy()

    def test_resume_from_auto_checkpoint_continues_identically(
        self, sim_factory, tmp_path
    ):
        sim = sim_factory(
            nprocs=2,
            n=12,
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
        )
        try:
            sim.run(4)
            straight_fp = state_fingerprint(sim)
        finally:
            sim.fcs.destroy()
        resumed = restore_simulation(
            load_checkpoint(str(tmp_path / "step-000002.ckpt.ndjson"))
        )
        try:
            resumed.run(2)
            assert state_fingerprint(resumed) == straight_fp
        finally:
            resumed.fcs.destroy()
