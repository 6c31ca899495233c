#!/usr/bin/env python
"""Collective-algorithm crossover benchmark (repro.simmpi.algos).

Sweeps the alltoallv algorithms (``direct`` closed-form, staged
``pairwise``, staged ``bruck``) over a message-size × rank-count grid on
both machine models — the JuRoPA-like fat tree and the Blue Gene/Q-like
torus — and records the modeled elapsed seconds per dense exchange, plus
companion sweeps of the allgatherv and allreduce engines.  Writes
``BENCH_collectives.json``.

The acceptance regimes this evidences (gated on every topology × P cell):

* **small messages**: Bruck's ⌈log₂P⌉ staged-forwarding rounds beat both
  the direct model and pairwise — latency dominates, and log rounds buy
  off the per-message overhead of P−1 peers;
* **large messages**: pairwise wins — Bruck's log-factor forwarding volume
  and the direct model's congested fan both lose to P−1 clean pairwise
  rounds at bandwidth;
* the ``auto`` selector picks the winning regime at both grid extremes.

Run:  PYTHONPATH=src python benchmarks/bench_collectives.py
      [--out BENCH_collectives.json]
"""

import argparse
import json
import sys

import numpy as np

from repro.simmpi import JUQUEEN, JUROPA, Machine
from repro.simmpi.algos import resolve
from repro.simmpi.collectives import allgatherv, allreduce, alltoallv, message_triples

TOPOLOGIES = {"fattree": JUROPA, "torus": JUQUEEN}
RANK_COUNTS = (32, 64)
#: per-pair payload bytes: spans the latency-dominated to the
#: bandwidth-dominated regime on both machine models
SIZES = (64, 512, 4096, 16384, 65536)
ALLTOALLV_ALGOS = ("direct", "pairwise", "bruck")


def dense_sends(P, size):
    # payloads are read-only in flight: one shared block keeps the dense
    # P=64 x 64KiB cell at one array instead of P*(P-1) of them
    block = np.zeros(max(0, size // 8))
    return [{j: block for j in range(P) if j != i} for i in range(P)]


def modeled_alltoallv(profile, P, size, algo):
    machine = Machine(P, profile=profile)
    if algo != "direct":
        machine.set_collective_algos(f"alltoallv={algo}")
    alltoallv(machine, dense_sends(P, size), "sort")
    return machine.elapsed()


def modeled_allgatherv(profile, P, size, algo):
    machine = Machine(P, profile=profile)
    if algo != "direct":
        machine.set_collective_algos(f"allgatherv={algo}")
    arrays = [np.zeros(max(1, size // 8)) for _ in range(P)]
    allgatherv(machine, arrays, "gather")
    return machine.elapsed()


def modeled_allreduce(profile, P, size, algo):
    machine = Machine(P, profile=profile)
    if algo != "direct":
        machine.set_collective_algos(f"allreduce={algo}")
    values = [np.zeros(max(1, size // 8)) for _ in range(P)]
    allreduce(machine, values, phase="tune")
    return machine.elapsed()


def sweep():
    grid = {}
    for topo, profile in TOPOLOGIES.items():
        cells = []
        for P in RANK_COUNTS:
            for size in SIZES:
                times = {
                    algo: modeled_alltoallv(profile, P, size, algo)
                    for algo in ALLTOALLV_ALGOS
                }
                auto = resolve(
                    Machine(P, profile=profile),
                    "alltoallv",
                    "auto",
                    triples=message_triples(dense_sends(P, size)),
                )
                cells.append(
                    {
                        "nprocs": P,
                        "message_bytes": size,
                        "modeled_s": {a: round(t, 9) for a, t in times.items()},
                        "winner": min(times, key=times.get),
                        "auto_choice": auto,
                    }
                )
        grid[topo] = cells
    return grid


def companion_sweeps():
    out = {}
    for topo, profile in TOPOLOGIES.items():
        out[topo] = {
            "allgatherv": [
                {
                    "nprocs": P,
                    "message_bytes": size,
                    "modeled_s": {
                        algo: round(modeled_allgatherv(profile, P, size, algo), 9)
                        for algo in ("direct", "ring", "recursive-doubling")
                    },
                }
                for P in RANK_COUNTS
                for size in (512, 65536)
            ],
            "allreduce": [
                {
                    "nprocs": P,
                    "message_bytes": size,
                    "modeled_s": {
                        algo: round(modeled_allreduce(profile, P, size, algo), 9)
                        for algo in (
                            "direct",
                            "binomial-tree",
                            "recursive-halving-doubling",
                        )
                    },
                }
                for P in RANK_COUNTS
                for size in (512, 65536)
            ],
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_collectives.json")
    args = parser.parse_args(argv)

    grid = sweep()
    result = {
        "benchmark": "collective_algorithm_crossovers",
        "config": {
            "rank_counts": list(RANK_COUNTS),
            "message_bytes": list(SIZES),
            "alltoallv_algos": list(ALLTOALLV_ALGOS),
            "topologies": list(TOPOLOGIES),
        },
        "alltoallv": grid,
        "companions": companion_sweeps(),
    }

    failures = []
    for topo, cells in grid.items():
        for P in RANK_COUNTS:
            rows = [c for c in cells if c["nprocs"] == P]
            small = min(rows, key=lambda c: c["message_bytes"])
            large = max(rows, key=lambda c: c["message_bytes"])
            if small["winner"] != "bruck":
                failures.append(
                    f"{topo} P={P}: smallest messages won by "
                    f"{small['winner']}, expected bruck"
                )
            if large["winner"] != "pairwise":
                failures.append(
                    f"{topo} P={P}: largest messages won by "
                    f"{large['winner']}, expected pairwise"
                )
            if small["auto_choice"] != "bruck":
                failures.append(
                    f"{topo} P={P}: auto picked {small['auto_choice']} "
                    "for the smallest messages, expected bruck"
                )
            if large["auto_choice"] == "bruck":
                failures.append(
                    f"{topo} P={P}: auto picked bruck for the largest "
                    "messages (the regime it loses)"
                )
    crossovers = {}
    for topo, cells in grid.items():
        for P in RANK_COUNTS:
            rows = sorted(
                (c for c in cells if c["nprocs"] == P),
                key=lambda c: c["message_bytes"],
            )
            flip = next(
                (c["message_bytes"] for c in rows if c["winner"] != "bruck"),
                None,
            )
            crossovers[f"{topo}/P{P}"] = flip
    result["bruck_crossover_bytes"] = crossovers
    result["ok"] = not failures

    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result["bruck_crossover_bytes"], indent=2))
    print(f"wrote {args.out}")

    if failures:
        print("\nBENCH FAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("both win regimes present on both topologies; auto agrees at the extremes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
