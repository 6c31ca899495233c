"""Command-line benchmark runner: ``python -m repro.bench <figure> [...]``.

Examples
--------
``python -m repro.bench fig6``
``python -m repro.bench fig7 --preset quick``
``python -m repro.bench fig8 --steps 120``
``python -m repro.bench fig9 --preset full``
``python -m repro.bench all``
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.figures import fig6, fig7, fig8, fig9, phases
from repro.bench.harness import PRESETS
from repro.run_args import add_run_args, resolve_run_args


#: the figures' run-description field: ``--steps`` left out runs the preset's
DEFAULTS = dict(steps=None)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's evaluation figures (modeled runtimes).",
    )
    parser.add_argument(
        "figure",
        choices=["fig6", "fig7", "fig8", "fig9", "phases", "all"],
        help="which figure to regenerate ('phases' prints a per-phase step breakdown)",
    )
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="default",
        help="problem scale (quick / default / full)",
    )
    add_run_args(parser, DEFAULTS)
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="additionally export the series as CSV files into DIR",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render ASCII charts of the main series",
    )
    return parser


def parse(argv=None) -> argparse.Namespace:
    """The figure run ``argv`` describes (exit 2 on a bad flag)."""
    parser = _parser()
    args = resolve_run_args(parser.parse_args(argv), DEFAULTS)
    if args.steps is not None and args.figure not in ("fig8", "all"):
        parser.error(f"--steps applies to fig8 only, not {args.figure}")
    if args.steps is not None and args.steps < 1:
        parser.error(f"argument --steps: fig8 needs at least one step, got {args.steps}")
    return args


def main(argv=None) -> int:
    args = parse(argv)

    runners = {
        "fig6": lambda: fig6(args.preset),
        "fig7": lambda: fig7(args.preset),
        "fig8": lambda: fig8(args.preset, steps=args.steps),
        "fig9": lambda: fig9(args.preset),
        "phases": lambda: phases(args.preset),
    }
    if args.figure == "all":
        names = ["fig6", "fig7", "fig8", "fig9"]
    else:
        names = [args.figure]
    for name in names:
        t0 = time.time()
        results = runners[name]()
        if args.csv and name.startswith("fig"):
            from repro.bench.export import figure_to_csv

            for path in figure_to_csv(name, results, args.csv):
                print(f"[wrote {path}]")
        if args.chart:
            _charts(name, results)
        print(f"\n[{name} done in {time.time() - t0:.1f}s wall]")
    return 0


def _charts(name: str, results) -> None:
    from repro.bench.export import ascii_chart

    if name not in ("fig7", "fig8", "fig9"):
        return
    for solver, r in results.items():
        if name == "fig7":
            series = {
                "sort+restore A": [a + b for a, b in zip(r["A"]["sort"], r["A"]["restore"])],
                "sort+resort B": [a + b for a, b in zip(r["B"]["sort"], r["B"]["resort"])],
            }
        elif name == "fig8":
            series = {"A": r["A"]["redist"], "B": r["B"]["redist"]}
        else:
            series = {"A": r["A"], "B": r["B"], "B+move": r["B+move"]}
        what = "projected totals" if name == "fig9" else "per-step redistribution"
        print(f"\n{solver} ({what}, log scale):")
        print(ascii_chart(series))


if __name__ == "__main__":
    sys.exit(main())
