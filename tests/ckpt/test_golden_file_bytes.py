"""The on-disk checkpoint format is pinned, not just the round trip.

``tests/ckpt/test_golden_restart.py`` pins state/ledger/breakdown digests,
which a silent key rename inside a record would pass (writer and reader
rename together) while breaking every file already on disk.  This pins one
sha256 over the **file bytes** of a small checkpoint that exercises every
record non-trivially: fmm, ``B+move``, 2 ranks, audited, staged ``bruck``
collectives (non-empty algo ledgers), dynamic load balancing on a
two-cluster system (a monitor with a fired event, a cached plan and a
changed last report), an auditor attached mid-run (non-empty trace
baseline) and a thermostat record.
"""

import hashlib
import json

from repro.ckpt import capture_checkpoint, load_checkpoint, write_checkpoint
from repro.md.distributions import clustered_system
from repro.md.simulation import Simulation, SimulationConfig
from repro.md.thermostat import BerendsenThermostat
from repro.simmpi.machine import Machine
from repro.verify.audit import enable_auditing

#: sha256 of the file written for :func:`every_section_checkpoint`, recorded
#: with format version 2 (per-record checksums; the copies, dead fields and
#: execution facts of version 1 dropped — every remaining field decodes as
#: it did in version 1).  It moves only with a deliberate format change
#: (``CKPT_VERSION`` bump) or a physics/cost-model change that also moves
#: the goldens of ``test_golden_restart.py``.
GOLDEN_FILE_SHA256 = "f1353936a5c8c2af67a5dc7151c632864e98b7a9c7899c4e9230b33102d2dd4b"


def every_section_checkpoint():
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
    try:
        sim.initialize()
        enable_auditing(machine)  # mid-run: a non-empty trace baseline
        sim.run(3)
        return capture_checkpoint(
            sim, thermostat=BerendsenThermostat(1.5, 0.5, config.dt)
        )
    finally:
        sim.fcs.destroy()


def test_file_bytes_match_the_golden_digest(tmp_path):
    path = tmp_path / "golden.ckpt.ndjson"
    nbytes = write_checkpoint(every_section_checkpoint(), str(path))
    raw = path.read_bytes()
    assert nbytes == len(raw)

    # the cell really exercises every record (else the pin proves little)
    data = {}
    for line in raw.decode().splitlines():
        rec = json.loads(line)
        data[rec["kind"]] = rec.get("data")
    assert data["monitor"]["events"] and data["thermostat"]
    assert data["fcs"]["has_plan"] and data["fcs"]["report"]["changed"]
    assert data["auditor"]["algo_ledger"] and data["auditor"]["algo_round_ledger"]
    assert data["auditor"]["plan_ledger"] and data["auditor"]["trace_baseline"]
    assert data["machine"]["trace"]["rank_work"] and len(data["records"]) == 4

    assert hashlib.sha256(raw).hexdigest() == GOLDEN_FILE_SHA256
    # and the reader is the writer's inverse on exactly these bytes
    assert load_checkpoint(str(path)).to_lines() == raw.decode().splitlines()
