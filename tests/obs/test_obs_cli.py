"""``python -m repro.obs`` driven in-process (what the CI ``obs-smoke`` job
ran as a subprocess): exit 0, both artifacts written, the NDJSON snapshot
round-trips through ``read_ndjson``."""

import json

import pytest

from repro.obs.cli import main
from repro.obs.export import read_ndjson


@pytest.mark.parametrize("extra", [[], ["--chaos-seed", "17"]], ids=["quick", "chaos-seed-17"])
def test_quick_scenario_writes_both_artifacts(tmp_path, capsys, extra):
    assert main(["--quick", *extra, "--out-dir", str(tmp_path)]) == 0
    report = capsys.readouterr().out
    assert "== phase attribution" in report and "parity" not in report

    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert events

    lines = (tmp_path / "spans.ndjson").read_text().splitlines()
    meta, spans, metrics = read_ndjson(lines)
    assert len(lines) == 1 + len(spans) + len(metrics)
    assert meta["complete"] is True and meta["nprocs"] == 8
    assert {"sim.initialize", "sim.step", "fcs.run"} <= {s.phase for s in spans}
    assert any(s.kind == "charge" and s.messages for s in spans)
    assert any(m["name"] == "comm.bytes" for m in metrics)
    if extra:
        assert meta["chaos_seed"] == 17 and meta["perturbation"]
    else:
        assert "chaos_seed" not in meta
