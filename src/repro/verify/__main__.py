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

from repro.simmpi.chaos import chaos_seed
from repro.verify.differential import DifferentialReport, sweep
from repro.verify.invariants import all_invariants


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description=(
            "differential verification: run the same seeded MD trajectory "
            "under redistribution methods A, B and B+move and assert state "
            "agreement, bounded method-B traffic, all registered invariants "
            "and communication-contract compliance"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small smoke grid: direct+fmm solvers, 4- and 8-rank machines",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_invariants",
        help="list the registered invariants and exit",
    )
    parser.add_argument(
        "--solvers",
        nargs="+",
        default=None,
        metavar="SOLVER",
        help="solvers to sweep (default: direct fmm p2nfft; --quick: direct fmm)",
    )
    parser.add_argument(
        "--shapes",
        nargs="+",
        type=int,
        default=None,
        metavar="NPROCS",
        help="machine shapes (rank counts) to sweep (default: 4 8)",
    )
    parser.add_argument(
        "--steps", type=int, default=None, help="MD steps per trajectory"
    )
    parser.add_argument(
        "--particles", type=int, default=None, help="particles in the test system"
    )
    parser.add_argument("--seed", type=int, default=0, help="system/trajectory seed")
    parser.add_argument(
        "--rtol", type=float, default=1e-6, help="relative state-agreement tolerance"
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="ENGINE",
        help=(
            "execution backend hosting the payload data plane "
            "('inprocess', 'process' or 'process:N'); results are "
            "backend-independent by contract"
        ),
    )
    return parser


def _seed_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"a chaos sweep needs at least one seed, got {count} (--seed-list 0 "
            "runs the null perturbation)"
        )
    return count


def _dst_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify dst",
        description=(
            "deterministic simulation testing: run the full MD loop under N "
            "seeded machine perturbations (compute jitter, stragglers, "
            "degraded links, extra latency, clock skew) "
            "and assert that physics state and communication ledgers are "
            "bitwise identical across every seed"
        ),
    )
    parser.add_argument(
        "--seeds",
        type=_seed_count,
        default=10,
        help="number of perturbation seeds to sweep (seeds 1..N; default 10)",
    )
    parser.add_argument(
        "--steps", type=int, default=5, help="MD steps per trajectory (default 5)"
    )
    parser.add_argument(
        "--solvers",
        nargs="+",
        default=None,
        metavar="SOLVER",
        help="solvers to sweep (default: direct ewald fmm p2nfft)",
    )
    parser.add_argument(
        "--methods",
        nargs="+",
        default=None,
        metavar="METHOD",
        help="redistribution methods to sweep (default: A B B+move)",
    )
    parser.add_argument(
        "--nprocs", type=int, default=4, help="machine rank count (default 4)"
    )
    parser.add_argument(
        "--particles", type=int, default=24, help="particles in the test system"
    )
    parser.add_argument(
        "--seed-list",
        nargs="+",
        type=chaos_seed,
        default=None,
        metavar="SEED",
        help="explicit perturbation seeds to run (reproduce a failure)",
    )
    parser.add_argument(
        "--system-seed", type=int, default=0, help="system/trajectory seed"
    )
    parser.add_argument(
        "--distributions",
        nargs="+",
        choices=["homogeneous", "clustered"],
        default=None,
        metavar="DIST",
        help=(
            "workload axis: 'homogeneous' (silica melt, the default) and/or "
            "'clustered' (two-cluster system with dynamic load balancing — "
            "chaos-tests the weighted repartition path)"
        ),
    )
    parser.add_argument(
        "--obs-export-dir",
        default=None,
        metavar="DIR",
        help=(
            "write one chaos-seed-tagged NDJSON span snapshot (repro.obs) "
            "per trajectory into DIR"
        ),
    )
    parser.add_argument(
        "--kill-at",
        type=int,
        default=None,
        metavar="K",
        help=(
            "kill every perturbed trajectory after its step-K fingerprint "
            "check and resume it from a repro.ckpt checkpoint; the resumed "
            "trajectory is still held to the uninterrupted reference"
        ),
    )
    parser.add_argument(
        "--ckpt-dir",
        default=None,
        metavar="DIR",
        help=(
            "with --kill-at: round-trip the kill checkpoint through an "
            "NDJSON file in DIR (default: in-memory)"
        ),
    )
    parser.add_argument(
        "--resume-from",
        default=None,
        metavar="CKPT",
        help=(
            "resume the given checkpoint file under the perturbation seeds "
            "instead of sweeping fresh trajectories (run_resume_sweep); "
            "--steps counts continuation steps"
        ),
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="ENGINE",
        help=(
            "execution backend for every trajectory ('inprocess', 'process' "
            "or 'process:N'); fingerprints and ledgers must not move"
        ),
    )
    parser.add_argument(
        "--algos",
        nargs="+",
        default=None,
        metavar="SPEC",
        help=(
            "collective-algorithm specs to sweep (repro.simmpi.algos "
            "grammar, e.g. 'bruck' or 'alltoallv=pairwise+allreduce="
            "binomial-tree'); each spec gets its own reference schedule; "
            "comma-separated tokens expand into multiple specs"
        ),
    )
    return parser


def main_dst(argv: List[str]) -> int:
    from repro.verify.dst import (
        DEFAULT_DISTRIBUTIONS,
        DEFAULT_METHODS,
        DEFAULT_SOLVERS,
        run_dst,
        run_resume_sweep,
    )

    args = _dst_parser().parse_args(argv)
    if args.resume_from is not None:
        report = run_resume_sweep(
            args.resume_from,
            steps=args.steps,
            seeds=args.seeds,
            seed_list=args.seed_list,
            progress=print,
        )
    else:
        algos = None
        if args.algos:
            # "--algos bruck,pairwise" sweeps two specs; '+' combines
            # collectives within one spec
            algos = [
                None if spec == "direct" else spec
                for token in args.algos
                for spec in token.split(",")
                if spec
            ]
        report = run_dst(
            args.solvers or list(DEFAULT_SOLVERS),
            args.methods or list(DEFAULT_METHODS),
            seeds=args.seeds,
            steps=args.steps,
            nprocs=args.nprocs,
            n_particles=args.particles,
            seed_list=args.seed_list,
            system_seed=args.system_seed,
            distributions=args.distributions or list(DEFAULT_DISTRIBUTIONS),
            obs_export_dir=args.obs_export_dir,
            kill_at=args.kill_at,
            ckpt_dir=args.ckpt_dir,
            backend=args.backend,
            algos=algos,
            progress=print,
        )
    print(report.summary())
    for failure in report.failures:
        print(f"  seed {failure.seed} [{failure.solver}/{failure.method}]: {failure.detail}")
        print(
            "  reproduce: "
            + failure.repro_command(
                nprocs=report.nprocs,
                steps=report.steps,
                particles=report.particles,
            )
        )
    return 1 if report.failures else 0


def main(argv: List[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "dst":
        return main_dst(list(argv[1:]))
    args = _parser().parse_args(argv)

    if args.list_invariants:
        invariants = all_invariants()
        width = max(len(inv.name) for inv in invariants)
        for inv in invariants:
            print(f"{inv.name:<{width}}  {inv.description}")
        print(f"\n{len(invariants)} invariants registered")
        return 0

    if args.quick:
        solvers = args.solvers or ["direct", "fmm"]
        steps = args.steps if args.steps is not None else 2
        particles = args.particles if args.particles is not None else 32
    else:
        solvers = args.solvers or ["direct", "fmm", "p2nfft"]
        steps = args.steps if args.steps is not None else 3
        particles = args.particles if args.particles is not None else 48
    shapes = args.shapes or [4, 8]

    print(
        f"differential sweep: solvers={solvers} shapes={shapes} "
        f"steps={steps} particles={particles} seed={args.seed}"
    )
    reports: List[DifferentialReport] = sweep(
        solvers=solvers,
        shapes=shapes,
        steps=steps,
        n_particles=particles,
        seed=args.seed,
        rtol=args.rtol,
        backend=args.backend,
    )
    failed = 0
    checks = 0
    for report in reports:
        print("  " + report.summary())
        for failure in report.failures:
            print(f"    {failure}")
        failed += len(report.failures)
        checks += sum(
            t.invariants_passed for t in report.trajectories.values()
        )
    n_inv = len(all_invariants())
    print(
        f"{len(reports)} cells, {checks} invariant checks passed "
        f"({n_inv} registered), {failed} failure(s)"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
