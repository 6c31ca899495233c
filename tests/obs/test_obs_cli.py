"""``python -m repro.obs`` driven in-process (what the CI ``obs-smoke`` job
ran as a subprocess): exit 0, both artifacts written, the NDJSON snapshot
round-trips through ``read_ndjson``, and both files carry their pinned
bytes."""

import hashlib
import json

import pytest

from instruments import read_ndjson
from repro.obs.cli import main


#: sha256 of ``(spans.ndjson, trace.json)`` per scenario: the recorded
#: stream is deterministic, so any change to what the scenario builds, charges
#: or records moves these
DIGESTS = {
    "quick": (
        "756ce31d008bbb9efff2a758df107a745118343bfd101dd6396d5efe2a30f2e1",
        "fd567c11bd30170d73f689e5d53f7faddac108d8af2930d5c27a645cadd9851a",
    ),
    "chaos-seed-17": (
        "91723026ac0084abc8db6e322d686aa89a78f55fd2205e3c8195093caeb8f193",
        "45cd7c49e1894f1150b75c53d83a3d7a3480fa68a4d90f7e953605ee08f168c2",
    ),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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

    scenario = "chaos-seed-17" if extra else "quick"
    assert (sha256(tmp_path / "spans.ndjson"), sha256(tmp_path / "trace.json")) == DIGESTS[scenario]


def test_negative_chaos_seed_exits_2_naming_the_flag(tmp_path, capsys):
    # was: the run started and died in the RNG with a numpy traceback
    with pytest.raises(SystemExit) as exc:
        main(["--quick", "--chaos-seed", "-1", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "argument --chaos-seed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
