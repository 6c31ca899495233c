"""Per-figure experiment definitions (the paper's evaluation, Sect. IV).

Each ``figN`` function is a list of
:class:`~repro.verify.trajectory.CellSpec` cells, run by
:func:`~repro.verify.trajectory.run_cells`, plus a table: it prints the
paper-style table/series and returns the structured results for assertions
by the benchmark suite.  All times are modeled (virtual-clock) seconds from the
simulated machine; shapes — who wins, by what factor, where crossovers
fall — are the reproduction target, not absolute values (DESIGN.md §5).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.harness import BenchScale, PRESETS, step_breakdown
from repro.bench.report import format_series, format_table, print_header
from repro.md.distributions import CLUSTERED_KINDS
from repro.verify.trajectory import CellResult, CellSpec, run_cells

__all__ = ["fig6", "fig7", "fig8", "fig9", "phases"]


def _cell(scale: BenchScale, solver: str, method: str, placement: str, **fields) -> CellSpec:
    """A figure cell: compute skipped, the preset's size and seed, JuRoPA
    unless ``fields`` say otherwise."""
    fields = {"nprocs": scale.nprocs, "n": scale.n, "profile": "JUROPA", **fields}
    return CellSpec(
        solver, method, seed=scale.seed, placement=placement, physics=False, **fields
    )


def _run(cells: Dict, backend=None) -> Dict[object, CellResult]:
    """Run the ``{key: CellSpec}`` cells; their results by the same keys."""
    return dict(zip(cells, run_cells(list(cells.values()), backend)))


def _series(records, keys: Sequence[str]) -> Dict[str, List[float]]:
    """The :func:`step_breakdown` entries ``keys`` of ``records``, per step."""
    breakdowns = [step_breakdown(rec) for rec in records]
    return {k: [b[k] for b in breakdowns] for k in keys}


# ------------------------------------------------------------------------- phases


def phases(preset: str = "default", quiet: bool = False) -> Dict:
    """Per-phase breakdown of one steady-state time step (not in the paper).

    Shows where each solver/method combination spends its modeled time:
    keygen, sort, halo/ghosts, near field, far field (fft/mesh), restore,
    resort-index creation and the application's resort.
    """
    scale = PRESETS[preset]
    cells = {
        (solver, method): _cell(scale, solver, method, "grid", drift=((3, 0.01, 1),))
        for solver in ("fmm", "p2nfft")
        for method in ("A", "B", "B+move")
    }
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for (solver, method), cell in _run(cells).items():
        results.setdefault(solver, {})[method] = {
            label: stats.time for label, stats in cell.records[-1].phases.items_sorted()
        }
    if not quiet:
        all_labels = sorted(
            {l for s in results.values() for m in s.values() for l in m}
        )
        print_header(
            f"Per-phase breakdown of one steady-state step "
            f"({scale.nprocs} procs, n={scale.n}; modeled seconds)"
        )
        rows = [
            [solver, method] + [times.get(l, 0.0) for l in all_labels]
            for solver in results
            for method, times in results[solver].items()
        ]
        print(format_table(["solver", "method"] + all_labels, rows, "{:.2e}"))
    return results


# --------------------------------------------------------------------------- fig 6


def fig6(preset: str = "default", quiet: bool = False) -> Dict:
    """Influence of the initial particle distribution (Fig. 6).

    Method A, one solver execution (the initial interactions), three
    initial distributions.  Expected shape: *single process* slowest by a
    wide margin (one rank serializes all communication; the FMM computes
    sequentially since its sort preserves part sizes), *random* in the
    middle, *process grid* cheapest with sort/restore at least an order of
    magnitude below random.

    Beyond the paper, three **clustered presets** (rows
    ``clustered:plummer`` / ``clustered:two-cluster`` /
    ``clustered:exponential-slab``) run grid-distributed inhomogeneous
    systems of the same size: the spatial clustering concentrates the
    particles on few ranks, so their totals sit far above the homogeneous
    grid row — the workload the load-balancing subsystem
    (:mod:`repro.core.balance`) exists for.
    """
    scale = PRESETS[preset]
    cells = {}
    for solver in ("fmm", "p2nfft"):
        for dist in ("single", "random", "grid"):
            cells[solver, dist] = _cell(scale, solver, "A", dist)
        for kind in CLUSTERED_KINDS:
            cells[solver, f"clustered:{kind}"] = _cell(
                scale, solver, "A", "grid", system=kind
            )
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for (solver, row), cell in _run(cells).items():
        results.setdefault(solver, {})[row] = step_breakdown(cell.records[0])
    if not quiet:
        print_header(
            f"Fig. 6 — initial particle distribution (method A, {scale.nprocs} procs, "
            f"n={scale.n}, JuRoPA profile; modeled seconds)"
        )
        rows = [
            [solver, dist, b["total"], b["sort"], b["restore"]]
            for solver in results
            for dist, b in results[solver].items()
        ]
        print(format_table(["solver", "distribution", "total", "sort", "restore"], rows))
    return results


# --------------------------------------------------------------------------- fig 7


def fig7(preset: str = "default", quiet: bool = False, backend=None) -> Dict:
    """Method A vs B over the initial run and the first time steps (Fig. 7).

    Random initial distribution.  Expected shape: method A's sort/restore
    stay at their initial-run level every step; method B's sort/resort
    collapse by orders of magnitude from step 1 on, pulling the total down
    (the paper reports ~45 % of A's total for the FMM, ~20 % for the
    P2NFFT).

    ``backend``: an optional :class:`~repro.backend.ExecutionBackend` (or
    spec string) to run the four independent (solver, method) cells on
    worker processes; modeled results are identical either way.
    """
    scale = PRESETS[preset]
    steps = scale.steps_fig7
    cells = {
        (solver, method): _cell(
            scale, solver, method, "random", drift=((steps, 0.005, 1),)
        )
        for solver in ("fmm", "p2nfft")
        for method in ("A", "B")
    }
    results: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    for (solver, method), cell in _run(cells, backend).items():
        results.setdefault(solver, {})[method] = _series(
            cell.records, ("sort", "restore", "resort", "total")
        )
    if not quiet:
        for solver in results:
            print_header(
                f"Fig. 7 — time steps with the {solver.upper()} solver "
                f"({scale.nprocs} procs, n={scale.n}, random initial distribution; modeled seconds)"
            )
            xs = ["initial"] + [str(i) for i in range(1, steps + 1)]
            merged = {
                "sort/A": results[solver]["A"]["sort"],
                "restore/A": results[solver]["A"]["restore"],
                "total/A": results[solver]["A"]["total"],
                "sort/B": results[solver]["B"]["sort"],
                "resort/B": results[solver]["B"]["resort"],
                "total/B": results[solver]["B"]["total"],
            }
            print(format_series("step", xs, merged))
    return results


# --------------------------------------------------------------------------- fig 8


def fig8(
    preset: str = "default",
    steps: Optional[int] = None,
    quiet: bool = False,
) -> Dict:
    """Long runs from the process-grid initial distribution (Fig. 8).

    Expected shape: with method A the per-step redistribution cost starts
    near zero (solver decomposition ~ initial decomposition) and *grows*
    as the particles drift away from their initial subdomains, reaching a
    large fraction of the step total; with method B it stays flat and
    small.
    """
    scale = PRESETS[preset]
    if steps is None:
        steps = scale.steps_fig8
    elif steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    # the melt's diffusive drift is modeled with the brownian surrogate
    # (DESIGN.md §5): ~6 subdomain widths of cumulative drift over the run,
    # so by the end the initial decomposition is deeply mixed — the regime
    # of the paper's late-run measurements, where method A's cost growth
    # appears
    cells = {
        (solver, method): _cell(
            scale, solver, method, "grid", dt=scale.dt_fig8, drift=((steps, 6.0, steps),)
        )
        for solver in ("fmm", "p2nfft")
        for method in ("A", "B")
    }
    results: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    for (solver, method), cell in _run(cells).items():
        records = cell.records[1:]
        results.setdefault(solver, {})[method] = {
            **_series(records, ("redist", "total")),
            "max_move": [rec.max_move for rec in records],
        }
    if not quiet:
        stride = max(1, steps // 20)
        for solver in results:
            print_header(
                f"Fig. 8 — {steps} time steps with the {solver.upper()} solver "
                f"({scale.nprocs} procs, n={scale.n}, grid initial distribution; modeled seconds)"
            )
            xs = list(range(1, steps + 1, stride))
            merged = {
                "sort+restore/A": results[solver]["A"]["redist"][::stride],
                "total/A": results[solver]["A"]["total"][::stride],
                "sort+resort/B": results[solver]["B"]["redist"][::stride],
                "total/B": results[solver]["B"]["total"][::stride],
            }
            print(format_series("step", xs, merged))
    return results


# --------------------------------------------------------------------------- fig 9


def fig9(
    preset: str = "default",
    quiet: bool = False,
    solvers: Sequence[str] = ("fmm", "p2nfft"),
) -> Dict:
    """Strong scaling of methods A, B, B+max-movement (Fig. 9).

    FMM on the JuRoPA (fat-tree) profile, P2NFFT on the Juqueen (torus)
    profile.  Reported is the projected total simulation runtime
    (average per-step solver total x the paper's 1000 steps).  Expected
    shapes: FMM — B below A throughout with the largest gap at mid scale,
    B+movement slightly slower than B on the fat tree; P2NFFT/torus — B
    *slower* than A at high process counts (the extra resort communication
    step), while B+movement keeps scaling and ends well below A.
    ``results[solver]["fallback"]`` holds, per method and process count,
    the share of B steps whose solver kept the input layout (method B fell
    back to A's redistribution).
    """
    scale = PRESETS[preset]
    configs = {
        "fmm": ("JUROPA", scale.fig9_fmm_procs),
        "p2nfft": ("JUQUEEN", scale.fig9_p2nfft_procs),
    }
    # warmup: drift the particles ~1.5 subdomain widths away from the
    # initial decomposition (the average displacement over the paper's
    # 1000-step runs, which is what method A keeps paying for), then
    # measure steady-state steps with small per-step movement
    warmup = 4
    drift = ((warmup, 1.5, warmup), (scale.steps_fig9, 0.02, 1))
    methods = ("A", "B", "B+move")
    results: Dict[str, Dict] = {}
    for solver in solvers:
        profile, proc_list = configs[solver]
        cells = {
            (nprocs, method): _cell(
                scale, solver, method, "grid",
                nprocs=nprocs, n=scale.fig9_n, profile=profile, drift=drift,
            )
            for nprocs in proc_list
            for method in methods
        }
        per_method: Dict[str, List[float]] = {m: [] for m in methods}
        fallback: Dict[str, List[float]] = {m: [] for m in methods}
        for (nprocs, method), cell in _run(cells).items():
            per_step = [step_breakdown(r)["total"] for r in cell.records[1 + warmup :]]
            per_method[method].append(float(np.mean(per_step)) * 1000.0)
            fallback[method].append(cell.fallback)
        results[solver] = {"procs": list(proc_list), **per_method, "fallback": fallback}
    if not quiet:
        for solver in results:
            profile, _ = configs[solver]
            print_header(
                f"Fig. 9 — total parallel runtimes with the {solver.upper()} solver "
                f"({profile.lower()} profile, n={scale.fig9_n}; projected 1000-step modeled seconds)"
            )
            r = results[solver]
            series = {"method A": r["A"], "method B": r["B"], "B + max movement": r["B+move"]}
            print(format_series("procs", r["procs"], series))
            fell_back = [
                f"{method} P={p} {share:.0%}"
                for method, shares in r["fallback"].items()
                for p, share in zip(r["procs"], shares)
                if share
            ]
            if fell_back:
                print("share of B steps that fell back to A: " + ", ".join(fell_back))
    return results
