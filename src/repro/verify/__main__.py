"""Command-line entry point for the differential verification sweep.

``python -m repro.verify --quick`` runs the A/B/B+move differential oracle
on a small grid (two solvers, two machine shapes) with a strict
communication auditor and the full invariant registry asserted after every
step — the CI smoke configuration.  ``python -m repro.verify`` (no flags)
runs the full grid including the P2NFFT solver.  Exit status 0 means every
cell passed; 1 means at least one differential disagreement or invariant
violation.

``python -m repro.verify dst --seeds N --steps K`` runs the deterministic
simulation test (:mod:`repro.verify.dst`): the full MD loop under N seeded
machine perturbations, asserting bitwise-identical physics and ledgers
across every seed.  Failing seeds are printed with a one-line repro
command.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.run_args import add_run_args, given_options, resolve_run_args, step_count, tolerance
from repro.verify.differential import SWEEP_DEFAULTS, sweep
from repro.verify.dst import (
    DEFAULT_DISTRIBUTIONS,
    DEFAULT_METHODS,
    DEFAULT_SOLVERS,
    DST_DEFAULTS,
    DST_DISTRIBUTIONS,
    run_dst,
    run_resume_sweep,
)
from repro.verify.invariants import all_invariants

#: the run-description fields of the differential sweep and their defaults
DEFAULTS = dict(
    {name: SWEEP_DEFAULTS[name] for name in ("solvers", "shapes", "steps", "particles", "seed")},
    backend=None,
)
#: ``--quick``: the CI smoke grid
QUICK = dict(solvers=("direct", "fmm"), steps=2, particles=32)

#: the fields of ``dst`` and their defaults
DST_RUN_DEFAULTS = dict(
    DST_DEFAULTS, solvers=DEFAULT_SOLVERS, methods=DEFAULT_METHODS, seed_list=None,
    backend=None, algos=None,
)
#: what a resumed checkpoint leaves open: how far to continue, under which
#: chaos seeds; it fixes every other option of a fresh sweep
RESUME_OPEN = ("--resume-from", "--steps", "--seeds", "--seed-list")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="differential verification: one seeded MD trajectory under methods A, B "
        "and B+move must agree, with every invariant and the communication contract held",
    )
    parser.add_argument("--list", action="store_true", dest="list_invariants",
                        help="list the registered invariants and exit")
    add_run_args(parser, DEFAULTS, QUICK)
    parser.add_argument("--rtol", type=tolerance, default=SWEEP_DEFAULTS["rtol"],
                        help="relative state-agreement tolerance")
    return parser


def parse(argv: List[str]) -> argparse.Namespace:
    """The differential sweep ``argv`` describes (exit 2 on a bad flag)."""
    return resolve_run_args(_parser().parse_args(argv), DEFAULTS, QUICK)


def _dst_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify dst",
        description="deterministic simulation testing: physics state and communication "
        "ledgers must be bitwise identical under every seeded machine perturbation",
    )
    add_run_args(parser, DST_RUN_DEFAULTS)
    parser.add_argument("--distributions", nargs="+", choices=DST_DISTRIBUTIONS, metavar="DIST",
                        help="workload axis: homogeneous (the default) and/or clustered "
                        "(two-cluster system under dynamic load balancing)")
    parser.add_argument("--obs-export-dir", metavar="DIR",
                        help="write one NDJSON span snapshot per trajectory into DIR")
    parser.add_argument("--kill-at", type=step_count, metavar="K",
                        help="kill every perturbed trajectory after step K and resume it "
                        "from a checkpoint, still held to the reference")
    parser.add_argument("--ckpt-dir", metavar="DIR",
                        help="with --kill-at: round-trip the kill checkpoint through DIR")
    parser.add_argument("--resume-from", metavar="CKPT",
                        help="resume this checkpoint under the chaos seeds; --steps counts "
                        "continuation steps, and the checkpoint fixes every other option")
    return parser


def parse_dst(argv: List[str]) -> argparse.Namespace:
    """The DST sweep ``argv`` describes (exit 2 on a bad flag or a flag
    the checkpoint of ``--resume-from`` fixes)."""
    parser = _dst_parser()
    args = parser.parse_args(argv)
    fixed = [opt for opt in given_options(parser, args) if opt not in RESUME_OPEN]
    if args.resume_from is not None and fixed:
        parser.error(
            f"argument --resume-from: not allowed with {', '.join(fixed)} "
            "(the checkpoint fixes what a fresh sweep would choose)"
        )
    resolve_run_args(args, DST_RUN_DEFAULTS)
    if args.kill_at is not None and args.kill_at > args.steps:
        parser.error(
            f"argument --kill-at: must be within 0..--steps ({args.steps}), "
            f"got {args.kill_at}"
        )
    return args


def main_dst(argv: List[str]) -> int:
    args = parse_dst(argv)
    if args.resume_from is not None:
        report = run_resume_sweep(
            args.resume_from, steps=args.steps, seeds=args.seeds, seed_list=args.seed_list,
            progress=print,
        )
    else:
        report = run_dst(
            args.solvers, args.methods, seeds=args.seeds, steps=args.steps, nprocs=args.nprocs,
            n_particles=args.particles, seed_list=args.seed_list, system_seed=args.system_seed,
            distributions=args.distributions or DEFAULT_DISTRIBUTIONS,
            obs_export_dir=args.obs_export_dir, kill_at=args.kill_at, ckpt_dir=args.ckpt_dir,
            backend=args.backend, algos=args.algos, progress=print,
        )
    print(report.summary())
    for failure in report.failures:
        who = "reference" if failure.seed is None else f"seed {failure.seed}"
        print(f"  [FAIL] {who} [{failure.solver}/{failure.method}]: {failure.detail}")
        repro = failure.repro_command(
            nprocs=report.nprocs, steps=report.steps, particles=report.particles
        )
        print(f"  reproduce: {repro}")
    return 1 if report.failures else 0


def main(argv: List[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "dst":
        return main_dst(list(argv[1:]))
    args = parse(argv)

    invariants = all_invariants()
    if args.list_invariants:
        width = max(len(inv.name) for inv in invariants)
        for inv in invariants:
            print(f"{inv.name:<{width}}  {inv.description}")
        print(f"\n{len(invariants)} invariants registered")
        return 0

    print(
        f"differential sweep: solvers={args.solvers} shapes={args.shapes} "
        f"steps={args.steps} particles={args.particles} seed={args.seed}"
    )
    reports = sweep(
        args.solvers, args.shapes, steps=args.steps, n_particles=args.particles,
        seed=args.seed, rtol=args.rtol, backend=args.backend,
    )
    for report in reports:
        print("  " + report.summary())
        for failure in report.failures:
            print(f"    {failure}")
    failed = sum(len(report.failures) for report in reports)
    checks = sum(t.invariants_passed for r in reports for t in r.trajectories.values())
    print(
        f"{len(reports)} cells, {checks} invariant checks passed "
        f"({len(invariants)} registered), {failed} failure(s)"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
