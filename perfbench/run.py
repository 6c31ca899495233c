"""Command line of the benchmark.

The driver runs ``python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0|1`` from the root of a checkout; ``PYTHONPATH=src python -m
perfbench`` is the same program.  With ``--workload`` it measures that
workload in this process and prints, as its last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without it, it runs every workload in a fresh subprocess each and prints
every metric by name.

This file is also what ``backend="process"`` workers re-import as their main
module, so everything but the path and thread set-up sits under ``main()``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import signal
import statistics
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)
# one compute thread: BLAS pools on a shared box add run-to-run variance and
# the program has no threaded kernels of its own
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20.0


def _print_result(result) -> None:
    kind = "per-layer (traced run)" if result.traced else "end-to-end"
    print(f"== {result.workload}  seed={result.seed}  {kind}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    notes = result.notes
    print(
        f"  fail_frac                            {notes['fail_frac']:>16.6g} 1"
        f"   ({result.failed} of {result.attempted} operations)"
    )
    print(
        f"  [step_ms_p50 over {notes['step_samples']:.0f} reduced step samples; step_ms_tail "
        f"is p{notes['tail_percentile']:.0f} of {notes['tail_samples']:.0f} pooled step "
        f"samples ({notes['tail_beyond']:.0f} beyond); {notes['passes']:.0f} plain"
        f" + {notes['traced_passes']:.0f} traced passes; uncalibrated: median pass "
        f"{notes['raw_wall_s_median_pass']:.3f} s, pass spread "
        f"{100 * notes['raw_wall_s_pass_spread']:.1f} %, box at {notes['speed_median']:.2f}x "
        f"nominal; import {notes['import_s']:.3f} s, "
        f"make_system {notes['system_s']:.3f} s; process workers "
        f"{notes['process_workers']:.0f}"
        + (f"; {notes['spans']:.0f} spans" if "spans" in notes else "")
        + "]"
    )
    for failure in result.failures:
        print(f"  FAILED {failure}")


def _result_line(result) -> str:
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in result.metrics.items()
            },
        }
    )


def _run_one(args) -> int:
    from perfbench.runner import run_workload
    from perfbench.workloads import build_workloads

    workload = build_workloads(args.scale)[args.workload]
    result = run_workload(
        workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        scale=args.scale,
    )
    _print_result(result)
    print(_result_line(result), flush=True)
    return 0


def _spawn(workload: str, seed: int, args, trace: int) -> dict:
    """One workload in a fresh interpreter; returns its parsed result line."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--scale", args.scale,
    ]
    done = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=_ROOT)
    try:
        stdout = done.communicate()[0]
    except BaseException:
        done.terminate()  # not kill: the run stops its own workers on SIGTERM
        done.wait()
        raise
    lines = stdout.rstrip("\n").split("\n")
    if not args.selfcheck:
        print("\n".join(lines[:-1]), flush=True)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: workload {workload} exited with {done.returncode}")
    return json.loads(lines[-1])


def _run_all(args) -> int:
    from perfbench.workloads import WORKLOAD_NAMES

    results = {name: _spawn(name, args.seed, args, args.trace) for name in WORKLOAD_NAMES}
    print(json.dumps({"workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def _selfcheck(args) -> int:
    """Two sets of runs back to back; every end-to-end metric of the second
    set must sit within its bound of the first."""
    from perfbench.metrics import END_TO_END
    from perfbench.runner import OUT_DIR
    from perfbench.workloads import WORKLOAD_NAMES

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    seeds = range(args.seed, args.seed + args.runs)
    report, ok = {}, True
    for workload in names:
        sets = [[_spawn(workload, seed, args, 0) for seed in seeds] for _ in range(2)]
        ok &= all(run["correct"] for runs in sets for run in runs)
        report[workload] = {}
        for name, _unit, better, bound in END_TO_END:
            values = [[run["metrics"][name]["value"] for run in runs] for runs in sets]
            first, second = (statistics.median(v) for v in values)
            worse = (second - first) / first * (1.0 if better == "lower" else -1.0)
            row = {"first": first, "second": second, "worse_by": worse, "bound": bound}
            if args.runs >= 4:
                q1, _q2, q3 = statistics.quantiles(values[0], n=4)
                row["spread"] = (q3 - q1) / first
            within = worse <= bound
            ok &= within
            report[workload][name] = row
            spread = f"  spread {100 * row['spread']:6.2f} %" if "spread" in row else ""
            print(
                f"{workload:<18} {name:<22} {first:>14.6g} -> {second:>14.6g}  "
                f"worse by {100 * worse:+7.2f} % (bound {100 * bound:.0f} %){spread}"
                f"{'' if within else '  EXCEEDED'}",
                flush=True,
            )
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "selfcheck.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


def _stop_tracker() -> None:
    """Stop ``multiprocessing``'s resource tracker and wait until it has ended.

    ``backend="process"`` workers are closed and joined by the cell that
    spawned them, but ``multiprocessing`` also starts a resource-tracker
    process with the first worker and leaves it to notice the interpreter's
    exit on its own, so it outlives the run by a moment.  Registered with
    ``atexit`` before the program is imported, this runs after the program's
    own exit hooks (which close any engine still open and may talk to the
    tracker) and leaves nothing behind.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it; no-op if never started


def _terminated(signum, _frame) -> None:
    sys.exit(128 + signum)  # unwind through the cells' clean-up and the exit hooks


def main(argv=None) -> int:
    # only the benchmark's own process gets here: workers import this file as
    # ``__mp_main__`` and share the parent's tracker, which they must not stop
    atexit.register(_stop_tracker)
    signal.signal(signal.SIGTERM, _terminated)

    from perfbench.workloads import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="drives make_system and SimulationConfig.seed")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measure for about this long (never fewer than 3 passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run that yields the per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own tests; never reported")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two sets back to back, compared against the bounds")
    parser.add_argument("--runs", type=int, default=1,
                        help="--selfcheck: runs per set, seeds seed..seed+runs-1 "
                             "(10 reproduces the driver's acceptance test)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        print(f"perfbench: no program to measure under {_ROOT}/src", file=sys.stderr)
        return 2
    if args.selfcheck:
        return _selfcheck(args)
    if args.workload:
        return _run_one(args)
    return _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
