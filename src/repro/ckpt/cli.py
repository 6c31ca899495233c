"""Command-line interface for :mod:`repro.ckpt`.

Four subcommands::

    python -m repro.ckpt save    --solver fmm --method B --steps 3 \
        --nprocs 4 --particles 24 --out melt.ckpt.ndjson
    python -m repro.ckpt restore --path melt.ckpt.ndjson --steps 2
    python -m repro.ckpt resize  --path melt.ckpt.ndjson --nprocs 6 \
        --out melt-6.ckpt.ndjson
    python -m repro.ckpt verify  [--quick] [--via-file]

``save`` runs a fresh seeded trajectory and writes its checkpoint —
a self-contained way to produce a real checkpoint file for the other
subcommands (and for ``python -m repro.verify dst --resume-from``).
``restore`` rebuilds the simulation, optionally continues it, and prints
the component state fingerprints.  ``resize`` redistributes the file onto
a different rank count through the fused exchange and reports the moved
bytes.  ``verify`` runs the restart-equivalence suite (run 2N ≡ run N +
save + restore + run N) over the solver × method grid and exits non-zero
on any divergence — the checkpoint entry point of the CI ``verify`` job.
Each cell is the DST cell at chaos seed 0 killed halfway
(:func:`repro.verify.dst.run_dst` with ``seed_list=[0], kill_at=N,
steps=2N``).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from contextlib import nullcontext
from typing import List, Optional

from repro.md.simulation import particle_count, rank_count, step_count


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ckpt",
        description=(
            "deterministic checkpoint/restart and elastic rank-resize for "
            "the coupled particle simulation"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    save = sub.add_parser(
        "save", help="run a fresh seeded trajectory and write its checkpoint"
    )
    save.add_argument("--solver", default="fmm")
    save.add_argument("--method", default="B")
    save.add_argument("--steps", type=step_count, default=3)
    save.add_argument("--nprocs", type=rank_count, default=4)
    save.add_argument("--particles", type=particle_count, default=24)
    save.add_argument("--seed", type=int, default=0)
    save.add_argument("--out", required=True, metavar="PATH")

    restore = sub.add_parser(
        "restore",
        help="rebuild a simulation from a checkpoint and optionally continue",
    )
    restore.add_argument("--path", required=True, metavar="PATH")
    restore.add_argument(
        "--steps", type=step_count, default=0, help="continuation steps (default 0)"
    )

    resize = sub.add_parser(
        "resize", help="redistribute a checkpoint onto a different rank count"
    )
    resize.add_argument("--path", required=True, metavar="PATH")
    resize.add_argument("--nprocs", type=rank_count, required=True, metavar="Q")
    resize.add_argument("--out", required=True, metavar="PATH")

    verify = sub.add_parser(
        "verify",
        help="restart-equivalence suite: run 2N == run N + save/restore + run N",
    )
    verify.add_argument("--solvers", nargs="+", default=None, metavar="SOLVER")
    verify.add_argument("--methods", nargs="+", default=None, metavar="METHOD")
    verify.add_argument("--steps", type=step_count, default=2)
    verify.add_argument("--nprocs", type=rank_count, default=2)
    verify.add_argument("--particles", type=particle_count, default=16)
    verify.add_argument(
        "--quick",
        action="store_true",
        help="small grid: direct+fmm solvers, methods A and B+move",
    )
    verify.add_argument(
        "--via-file",
        action="store_true",
        help="route every checkpoint through an NDJSON file round-trip",
    )
    return parser


def _cmd_save(args) -> int:
    from repro.verify.trajectory import CellSpec, build_run

    spec = CellSpec(args.solver, args.method, args.nprocs, args.particles, seed=args.seed)
    sim = build_run(spec, audit=False).sim
    try:
        sim.run(args.steps)
        n_bytes = sim.save_checkpoint(args.out)
    finally:
        sim.fcs.destroy()
    print(
        f"saved {args.out}: {args.solver}/{args.method} step {args.steps}, "
        f"{args.particles} particles on {args.nprocs} ranks, {n_bytes} bytes"
    )
    return 0


def _cmd_restore(args) -> int:
    from repro.ckpt import load_checkpoint
    from repro.verify.trajectory import play, restore_run

    ckpt = load_checkpoint(args.path)
    fp = play(restore_run(ckpt), args.steps).steps[-1]
    print(
        f"restored {args.path}: step {ckpt.step_index} + {args.steps} "
        f"continuation step(s), {ckpt.n_particles} particles on "
        f"{ckpt.nprocs} ranks; invariants ok"
    )
    for component in sorted(fp):
        print(f"  {component}: {fp[component]}")
    return 0


def _cmd_resize(args) -> int:
    from repro.ckpt import load_checkpoint, resize_checkpoint
    from repro.ckpt.checkpoint import write_checkpoint

    ckpt = load_checkpoint(args.path)
    resized, plan = resize_checkpoint(ckpt, args.nprocs)
    n_bytes = write_checkpoint(resized, args.out)
    print(
        f"resized {args.path}: {plan.old_nprocs} -> {plan.new_nprocs} ranks, "
        f"{plan.n_particles} particles, {plan.moved_bytes} payload bytes "
        f"moved in one fused exchange; wrote {args.out} ({n_bytes} bytes)"
    )
    return 0


def _cmd_verify(args) -> int:
    from repro.verify.dst import DEFAULT_METHODS, DEFAULT_SOLVERS, run_dst

    if args.quick:
        solvers = args.solvers or ["direct", "fmm"]
        methods = args.methods or ["A", "B+move"]
    else:
        solvers = args.solvers or list(DEFAULT_SOLVERS)
        methods = args.methods or list(DEFAULT_METHODS)
    with tempfile.TemporaryDirectory() if args.via_file else nullcontext() as ckpt_dir:
        report = run_dst(
            solvers, methods, seed_list=[0], steps=2 * args.steps, kill_at=args.steps,
            nprocs=args.nprocs, n_particles=args.particles, ckpt_dir=ckpt_dir, progress=print,
        )
    for failure in report.failures:
        print(f"ckpt: {failure.solver}/{failure.method} FAILED — {failure.detail}")
    cells = len(solvers) * len(methods)
    print(f"restart-equivalence: {cells - len(report.failures)}/{cells} cells ok")
    return 1 if report.failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(sys.argv[1:] if argv is None else argv)
    handler = {
        "save": _cmd_save,
        "restore": _cmd_restore,
        "resize": _cmd_resize,
        "verify": _cmd_verify,
    }[args.command]
    return handler(args)
