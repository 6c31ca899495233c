#!/usr/bin/env python
"""Checkpoint/restart + elastic-resize benchmark.

Measures the host-side (wall-clock) cost of the :mod:`repro.ckpt`
subsystem on a seeded FMM/method-B trajectory:

* ``capture_ns`` / ``save_ns`` / ``load_ns`` / ``restore_ns`` — one full
  in-memory capture, NDJSON serialization to disk, parse-back, and live
  restore (median over ``--repeat`` runs);
* ``save_bytes`` — the on-disk NDJSON size;
* per-resize ``moved_bytes`` for a P→Q→P round trip — the modeled
  inter-rank payload of the fused seven-column exchange (also exported by
  the obs counter ``resize.moved_bytes``);
* a restart-equivalence spot check (run 2N ≡ run N + save + restore +
  run N: the DST cell at chaos seed 0 killed halfway) so the numbers always
  describe a *correct* checkpoint path.

Writes ``BENCH_ckpt.json``.

Run:  PYTHONPATH=src python benchmarks/bench_ckpt.py [--steps N] [--n N]
      [--nprocs P] [--repeat R] [--out BENCH_ckpt.json]
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

from repro.ckpt import (
    capture_checkpoint,
    load_checkpoint,
    resize_checkpoint,
    restore_simulation,
    write_checkpoint,
)
from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.simmpi.machine import Machine
from repro.verify.dst import run_dst


def build(nprocs, n, steps, seed):
    sim = Simulation(
        Machine(nprocs),
        silica_melt_system(n, seed=seed),
        SimulationConfig(solver="fmm", method="B", seed=seed, track_energy=True),
    )
    sim.run(steps)
    return sim


def timed(fn, repeat):
    samples = []
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter_ns()
        result = fn()
        samples.append(time.perf_counter_ns() - t0)
    return result, int(statistics.median(samples))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=3)
    parser.add_argument("--n", type=int, default=96)
    parser.add_argument("--nprocs", type=int, default=4)
    parser.add_argument("--resize-to", type=int, default=6)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_ckpt.json")
    args = parser.parse_args(argv)

    sim = build(args.nprocs, args.n, args.steps, args.seed)
    try:
        ckpt, capture_ns = timed(lambda: capture_checkpoint(sim), args.repeat)
    finally:
        sim.fcs.destroy()

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.ckpt.ndjson")
        save_bytes, save_ns = timed(
            lambda: write_checkpoint(ckpt, path), args.repeat
        )
        loaded, load_ns = timed(lambda: load_checkpoint(path), args.repeat)

    def restore_once():
        restored = restore_simulation(loaded)
        restored.fcs.destroy()
        return restored

    _, restore_ns = timed(restore_once, args.repeat)

    up, up_plan = resize_checkpoint(ckpt, args.resize_to)
    down, down_plan = resize_checkpoint(up, args.nprocs)

    report = run_dst(["fmm"], ["B"], seed_list=[0], kill_at=2, steps=4, nprocs=2, n_particles=16)
    if not report.ok:
        print(f"restart-equivalence spot check FAILED: {report.failures[0].detail}")
        return 1

    payload = {
        "schema": "repro.ckpt/bench-v1",
        "config": {
            "solver": "fmm",
            "method": "B",
            "steps": args.steps,
            "n_particles": args.n,
            "nprocs": args.nprocs,
            "resize_to": args.resize_to,
            "repeat": args.repeat,
        },
        "host_ns": {
            "capture": capture_ns,
            "save": save_ns,
            "load": load_ns,
            "restore": restore_ns,
        },
        "save_bytes": save_bytes,
        "resize": {
            "up": {
                "from": args.nprocs,
                "to": args.resize_to,
                "moved_bytes": up_plan.moved_bytes,
            },
            "down": {
                "from": args.resize_to,
                "to": args.nprocs,
                "moved_bytes": down_plan.moved_bytes,
            },
        },
        "equivalence_ok": report.ok,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(
        f"ckpt bench: capture {capture_ns / 1e6:.2f} ms, "
        f"save {save_ns / 1e6:.2f} ms ({save_bytes} bytes), "
        f"load {load_ns / 1e6:.2f} ms, restore {restore_ns / 1e6:.2f} ms, "
        f"resize {args.nprocs}->{args.resize_to}->{args.nprocs} moved "
        f"{up_plan.moved_bytes}+{down_plan.moved_bytes} bytes; "
        f"equivalence ok -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
