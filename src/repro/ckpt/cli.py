"""``python -m repro.ckpt``: save, restore, resize and verify checkpoints.

``save`` runs a fresh seeded trajectory and writes its checkpoint (also the
input of ``python -m repro.verify dst --resume-from``); ``restore``
rebuilds and optionally continues one, printing the state fingerprints;
``resize`` redistributes one onto a different rank count through the fused
exchange; ``verify`` runs the restart-equivalence suite over the solver ×
method grid — each cell the DST cell at chaos seed 0 killed halfway
(:func:`repro.verify.dst.run_dst` with ``seed_list=[0], kill_at=N,
steps=2N``) — and exits 1 on any divergence.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from contextlib import nullcontext
from typing import List, Optional

from repro.ckpt import load_checkpoint, resize_checkpoint, write_checkpoint
from repro.run_args import REQUIRED, add_run_args, resolve_run_args
from repro.verify.dst import DEFAULT_METHODS, DEFAULT_SOLVERS, run_dst
from repro.verify.trajectory import CellSpec, build_run, play, restore_run

#: each subcommand's run-description fields and their defaults
DEFAULTS = {
    "save": dict(solver="fmm", method="B", steps=3, nprocs=4, particles=24, seed=0),
    "restore": dict(steps=0),
    "resize": dict(nprocs=REQUIRED),
    "verify": dict(
        solvers=DEFAULT_SOLVERS, methods=DEFAULT_METHODS, steps=2, nprocs=2, particles=16
    ),
}
#: ``verify --quick``: direct+fmm solvers, methods A and B+move
QUICK = {"verify": dict(solvers=("direct", "fmm"), methods=("A", "B+move"))}

_HELP = {
    "save": "run a fresh seeded trajectory and write its checkpoint",
    "restore": "rebuild a simulation from a checkpoint and optionally continue",
    "resize": "redistribute a checkpoint onto a different rank count",
    "verify": "restart-equivalence suite: run 2N == run N + save/restore + run N",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ckpt",
        description=(
            "deterministic checkpoint/restart and elastic rank-resize for "
            "the coupled particle simulation"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in DEFAULTS.items():
        cmd = sub.add_parser(command, help=_HELP[command])
        if command in ("restore", "resize"):
            cmd.add_argument("--path", required=True, metavar="PATH")
        add_run_args(cmd, defaults, QUICK.get(command))
        if command in ("save", "resize"):
            cmd.add_argument("--out", required=True, metavar="PATH")
        if command == "verify":
            cmd.add_argument(
                "--via-file", action="store_true",
                help="route every checkpoint through an NDJSON file round-trip",
            )
    return parser


def parse(argv: List[str]) -> argparse.Namespace:
    """The subcommand ``argv`` describes (exit 2 on a bad flag)."""
    args = _parser().parse_args(argv)
    return resolve_run_args(args, DEFAULTS[args.command], QUICK.get(args.command))


def _cmd_save(args) -> int:
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
    with tempfile.TemporaryDirectory() if args.via_file else nullcontext() as ckpt_dir:
        report = run_dst(
            args.solvers, args.methods, seed_list=[0], steps=2 * args.steps, kill_at=args.steps,
            nprocs=args.nprocs, n_particles=args.particles, ckpt_dir=ckpt_dir, progress=print,
        )
    for failure in report.failures:
        print(f"ckpt: {failure.solver}/{failure.method} FAILED — {failure.detail}")
    cells = len(args.solvers) * len(args.methods)
    print(f"restart-equivalence: {cells - len(report.failures)}/{cells} cells ok")
    return 1 if report.failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    run = {"save": _cmd_save, "restore": _cmd_restore, "resize": _cmd_resize, "verify": _cmd_verify}
    return run[args.command](args)
