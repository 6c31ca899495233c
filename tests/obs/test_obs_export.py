"""Exporter tests: Chrome trace structure, NDJSON round-trip, chaos tagging."""

import json

import numpy as np

from instruments import read_ndjson
from repro.obs.export import (
    to_chrome_trace,
    to_ndjson,
    write_chrome_trace,
    write_ndjson,
)
from repro.obs.spans import MACHINE_RANK, enable_observability
from repro.simmpi.machine import Machine
from repro.simmpi.p2p import sendrecv


def small_run(nprocs=4, perturbation=None):
    machine = (
        Machine(nprocs, perturbation=perturbation)
        if perturbation is not None
        else Machine(nprocs)
    )
    rec = enable_observability(machine)
    with rec.span("section", op="test"):
        machine.advance(np.arange(1, nprocs + 1, dtype=float) * 1e-3, "w")
        sendrecv(machine, 0, 1, np.zeros(32), "comm")
    rec.mark("event", tag="x")
    return machine, rec


class TestChromeTrace:
    def test_structure(self):
        machine, rec = small_run()
        trace = to_chrome_trace(rec, meta={"scenario": "unit"})
        events = trace["traceEvents"]
        assert trace["otherData"] == {"scenario": "unit"}
        phs = {e["ph"] for e in events}
        assert phs == {"M", "X", "i"}
        # machine stream on tid 0, rank r on tid r + 1
        charge = [e for e in events if e.get("cat") == "charge"][0]
        assert charge["tid"] == 0
        rank_spans = [e for e in events if e.get("cat") == "rank"]
        assert {e["tid"] for e in rank_spans} <= {r + 1 for r in range(4)}
        # microsecond timestamps
        assert charge["dur"] >= 0

    def test_written_file_is_json(self, tmp_path):
        _, rec = small_run()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, rec, meta={"k": "v"})
        loaded = json.loads(path.read_text())
        assert loaded["otherData"] == {"k": "v"}
        assert len(loaded["traceEvents"]) == rec.span_count() + 2 + 4

    def test_deterministic(self, tmp_path):
        _, rec1 = small_run()
        _, rec2 = small_run()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_chrome_trace(p1, rec1)
        write_chrome_trace(p2, rec2)
        assert p1.read_bytes() == p2.read_bytes()


class TestNdjson:
    def test_round_trip_bit_exact(self):
        _, rec = small_run()
        meta, spans, metrics = read_ndjson(to_ndjson(rec))
        assert spans == list(rec.spans())  # named-tuple equality, field by field
        assert meta["complete"] is True
        assert meta["nprocs"] == 4
        assert len(metrics) == len(rec.metrics.samples())

    def test_file_round_trip(self, tmp_path):
        _, rec = small_run()
        path = tmp_path / "spans.ndjson"
        write_ndjson(path, rec, meta={"scenario": "unit"})
        with open(path) as fh:
            meta, spans, _ = read_ndjson(fh)
        assert meta["scenario"] == "unit"
        assert spans == list(rec.spans())

    def test_deterministic(self):
        _, rec1 = small_run()
        _, rec2 = small_run()
        assert to_ndjson(rec1) == to_ndjson(rec2)

    def test_chaos_tagged_round_trip(self, tmp_path):
        """A perturbed run's snapshot carries the chaos tag and survives the
        round trip bit-for-bit (the DST export contract)."""
        from repro.simmpi.chaos import Perturbation

        perturbation = Perturbation.sample(17)
        machine, rec = small_run(perturbation=perturbation)
        path = tmp_path / "chaos.ndjson"
        write_ndjson(path, rec, meta={"chaos_seed": 17})
        with open(path) as fh:
            meta, spans, _ = read_ndjson(fh)
        assert meta["chaos_seed"] == 17
        assert "perturbation" in meta["notes"]
        assert spans == list(rec.spans())
        # the perturbed floats survive exactly
        charge = [s for s in spans if s.kind == "charge"]
        want = [s for s in rec.spans(MACHINE_RANK) if s.kind == "charge"]
        assert [s.time for s in charge] == [s.time for s in want]


class TestDstExport:
    def test_run_dst_writes_tagged_snapshots(self, tmp_path):
        from repro.verify.dst import run_dst

        report = run_dst(
            ["direct"], ["B"], seeds=1, steps=1, nprocs=4, n_particles=16,
            obs_export_dir=str(tmp_path),
        )
        assert report.ok
        ref = tmp_path / "direct-B-homogeneous-seed0.ndjson"
        chaos = tmp_path / "direct-B-homogeneous-seed1.ndjson"
        assert ref.exists() and chaos.exists()
        with open(ref) as fh:
            meta, spans, _ = read_ndjson(fh)
        assert meta["chaos_seed"] == 0
        assert meta["cell"] == "direct/B/homogeneous"
        assert meta["complete"] is True and spans
        with open(chaos) as fh:
            meta, _, _ = read_ndjson(fh)
        assert meta["chaos_seed"] == 1
        assert "seed=1" in meta["perturbation"]
