"""``python -m repro.obs`` — run a scenario with the recorder attached and
emit the trace artifacts.

Runs a fig7-style coupled simulation, one
:class:`~repro.verify.trajectory.CellSpec` (JUROPA profile, random initial
distribution, brownian drift, modeled compute skipped), writes

* ``trace.json`` — Chrome ``trace_event`` JSON; open in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``,
* ``spans.ndjson`` — the deterministic NDJSON span/metric snapshot,

and prints a per-rank timeline summary plus the per-phase attribution table
of the paper's figure decompositions (sort/restore/resort/total).

Chaos/DST runs are tagged: ``--chaos-seed N`` applies
``Perturbation.sample(N)`` to the machine and stamps the seed and the
perturbation description into both artifacts' metadata.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.export import write_chrome_trace, write_ndjson
from repro.obs.spans import enable_observability
from repro.run_args import add_run_args, positive_count, resolve_run_args
from repro.verify.trajectory import CellSpec, build_run

__all__ = ["main", "parse", "run_scenario"]

#: the scenario's run-description fields and their defaults
DEFAULTS = dict(solver="fmm", method="B", nprocs=16, particles=4096, steps=3, chaos_seed=None)
#: ``--quick``: the small smoke scenario
QUICK = dict(nprocs=8, particles=1024, steps=2)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="run an observed scenario and export span/metric artifacts",
    )
    add_run_args(parser, DEFAULTS, QUICK)
    parser.add_argument(
        "--capacity", type=positive_count, default=1 << 20,
        help="per-rank span ring capacity (default: 1Mi spans)",
    )
    parser.add_argument(
        "--no-per-rank", action="store_true",
        help="record only the machine-wide critical-path stream",
    )
    parser.add_argument(
        "--out-dir", default=".", metavar="DIR",
        help="directory for trace.json / spans.ndjson (default: .)",
    )
    return parser


def parse(argv: Optional[List[str]]) -> Tuple[argparse.Namespace, CellSpec]:
    """The scenario ``argv`` describes and its cell (exit 2 on a bad flag)."""
    parser = _parser()
    args = resolve_run_args(parser.parse_args(argv), DEFAULTS, QUICK)
    try:
        spec = CellSpec(
            args.solver, args.method, args.nprocs, args.particles, seed=1,
            placement="random", profile="JUROPA", physics=False,
            drift=((args.steps, 0.005, 1.0),),
        )
    except ValueError as exc:
        parser.error(f"argument --solver: {exc}")
    return args, spec


def run_scenario(args: argparse.Namespace, spec: CellSpec) -> int:
    from repro.bench.harness import step_breakdown

    run = build_run(spec, chaos_seed=args.chaos_seed, audit=False)
    machine, sim = run.machine, run.sim
    perturbation = machine.perturbation
    # building a simulation charges nothing: the recorder sees the whole run
    recorder = enable_observability(
        machine, capacity=args.capacity, per_rank=not args.no_per_rank
    )
    sim.run(args.steps)

    meta: Dict[str, Any] = {
        "scenario": "fig7-step",
        "solver": args.solver,
        "method": args.method,
        "nprocs": args.nprocs,
        "particles": args.particles,
        "steps": args.steps,
    }
    if perturbation is not None:
        meta["chaos_seed"] = args.chaos_seed
        meta["perturbation"] = perturbation.describe()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.json"
    ndjson_path = out_dir / "spans.ndjson"
    write_chrome_trace(trace_path, recorder, meta=meta)
    write_ndjson(ndjson_path, recorder, meta=meta)

    _report(machine, recorder, sim, step_breakdown)
    print(f"\nwrote {trace_path} ({recorder.span_count()} spans) and {ndjson_path}")
    print("open the trace in Perfetto: https://ui.perfetto.dev  (Open trace file)")
    return 0


def _report(machine, recorder, sim, step_breakdown) -> None:
    """Print the timeline/attribution tables."""
    trace = machine.trace

    print(f"== per-rank timeline ({machine.nprocs} ranks, "
          f"{machine.elapsed():.3e}s virtual) ==")
    busy = recorder.rank_busy()
    elapsed = machine.elapsed()
    if busy:
        for rank in sorted(busy):
            b = busy[rank]
            util = b / elapsed if elapsed > 0 else 0.0
            nspans = recorder.span_count(rank)
            print(f"  rank {rank:>3}: {nspans:>6} spans, busy {b:.3e}s "
                  f"({util:6.1%}), clock {machine.clocks[rank]:.3e}s")
    else:
        print("  (per-rank streams disabled)")

    print("\n== phase attribution (modeled seconds) ==")
    print(f"  {'phase':<14} {'calls':>6} {'time':>12} {'messages':>9} {'bytes':>12}")
    for label in sorted(trace.labels()):
        stats = trace.phase(label)
        print(f"  {label:<14} {stats.calls:>6} {stats.time:>12.4e} "
              f"{stats.messages:>9} {stats.bytes:>12}")

    print("\n== paper figure decomposition (per step) ==")
    print(f"  {'step':>4} {'sort':>12} {'restore':>12} {'resort':>12} "
          f"{'redist':>12} {'total':>12}")
    for rec in sim.records:
        b = step_breakdown(rec)
        print(f"  {rec.step:>4} {b['sort']:>12.4e} {b['restore']:>12.4e} "
              f"{b['resort']:>12.4e} {b['redist']:>12.4e} {b['total']:>12.4e}")

    print("\n== metrics ==")
    for sample in recorder.metrics.samples():
        label_str = ",".join(f"{k}={v}" for k, v in sorted(sample["labels"].items()))
        name = sample["name"] + (f"{{{label_str}}}" if label_str else "")
        if sample["type"] == "histogram":
            print(f"  {name:<40} count={sample['count']} sum={sample['sum']:.0f}")
        else:
            print(f"  {name:<40} {sample['value']}")


def main(argv: Optional[List[str]] = None) -> int:
    return run_scenario(*parse(argv))
