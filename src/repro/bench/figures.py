"""Per-figure experiment definitions (the paper's evaluation, Sect. IV).

Each ``figN`` function runs the scaled experiment, prints the paper-style
table/series and returns the structured results for assertions by the
benchmark suite.  All times are modeled (virtual-clock) seconds from the
simulated machine; shapes — who wins, by what factor, where crossovers
fall — are the reproduction target, not absolute values (DESIGN.md §5).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.harness import (
    BenchScale,
    PRESETS,
    make_clustered_system,
    make_machine,
    make_system,
    step_breakdown,
)
from repro.bench.report import format_series, format_table, print_header
from repro.md.distributions import CLUSTERED_KINDS
from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import ParticleSystem
from repro.simmpi.costmodel import JUQUEEN, JUROPA, SystemProfile

__all__ = ["fig6", "fig7", "fig7_cell", "fig8", "fig9", "phases"]


def _simulate(
    scale: BenchScale,
    *,
    n: int,
    nprocs: int,
    profile: SystemProfile,
    solver: str,
    method: str,
    distribution: str,
    steps: int,
    dt: float = 0.01,
    accuracy: float = 1e-3,
    dynamics: str = "force",
    brownian_step: float = 0.0,
    skip_compute: bool = False,
    system: Optional[ParticleSystem] = None,
    load_balance: str = "off",
    solver_kwargs: Optional[dict] = None,
) -> Simulation:
    machine = make_machine(nprocs, profile)
    if system is None:
        system = make_system(n, scale.seed)
    kwargs = dict(solver_kwargs or {})
    if skip_compute:
        kwargs.setdefault("compute", "skip")
    cfg = SimulationConfig(
        solver=solver,
        method=method,
        dt=dt,
        accuracy=accuracy,
        distribution=distribution,
        seed=scale.seed,
        dynamics=dynamics,
        brownian_step=brownian_step,
        solver_kwargs=kwargs,
        load_balance=load_balance,
    )
    sim = Simulation(machine, system, cfg)
    sim.run(steps)
    return sim


# ------------------------------------------------------------------------- phases


def phases(preset: str = "default", quiet: bool = False) -> Dict:
    """Per-phase breakdown of one steady-state time step (not in the paper).

    Shows where each solver/method combination spends its modeled time:
    keygen, sort, halo/ghosts, near field, far field (fft/mesh), restore,
    resort-index creation and the application's resort.
    """
    scale = PRESETS[preset]
    system = make_system(scale.n, scale.seed)
    subdomain = float(system.box.min()) / round(scale.nprocs ** (1.0 / 3.0))
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for solver in ("fmm", "p2nfft"):
        results[solver] = {}
        for method in ("A", "B", "B+move"):
            sim = _simulate(
                scale,
                n=scale.n,
                nprocs=scale.nprocs,
                profile=JUROPA,
                solver=solver,
                method=method,
                distribution="grid",
                steps=3,
                dynamics="brownian",
                brownian_step=0.01 * subdomain,
                skip_compute=True,
            )
            rec = sim.records[-1]
            results[solver][method] = {
                label: stats.time for label, stats in rec.phases.items_sorted()
            }
    if not quiet:
        all_labels = sorted(
            {l for s in results.values() for m in s.values() for l in m}
        )
        print_header(
            f"Per-phase breakdown of one steady-state step "
            f"({scale.nprocs} procs, n={scale.n}; modeled seconds)"
        )
        rows = []
        for solver in results:
            for method in results[solver]:
                row = [solver, method] + [
                    results[solver][method].get(l, 0.0) for l in all_labels
                ]
                rows.append(row)
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
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for solver in ("fmm", "p2nfft"):
        results[solver] = {}
        for dist in ("single", "random", "grid"):
            sim = _simulate(
                scale,
                n=scale.n,
                nprocs=scale.nprocs,
                profile=JUROPA,
                solver=solver,
                method="A",
                distribution=dist,
                steps=0,
                skip_compute=True,
            )
            b = step_breakdown(sim.records[0])
            results[solver][dist] = b
        for kind in CLUSTERED_KINDS:
            sim = _simulate(
                scale,
                n=scale.n,
                nprocs=scale.nprocs,
                profile=JUROPA,
                solver=solver,
                method="A",
                distribution="grid",
                steps=0,
                skip_compute=True,
                system=make_clustered_system(kind, scale.n, scale.seed),
                solver_kwargs=(
                    {"work_model": "density"} if solver == "fmm" else None
                ),
            )
            results[solver][f"clustered:{kind}"] = step_breakdown(sim.records[0])
    if not quiet:
        print_header(
            f"Fig. 6 — initial particle distribution (method A, {scale.nprocs} procs, "
            f"n={scale.n}, JuRoPA profile; modeled seconds)"
        )
        rows = []
        for solver in results:
            for dist in results[solver]:
                b = results[solver][dist]
                rows.append([solver, dist, b["total"], b["sort"], b["restore"]])
        print(format_table(["solver", "distribution", "total", "sort", "restore"], rows))
    return results


# --------------------------------------------------------------------------- fig 7


def fig7_cell(preset: str, solver: str, method: str) -> Dict[str, List[float]]:
    """One independent Fig. 7 cell: the per-step phase series of one
    (solver, method) combination.

    Top-level so :func:`fig7` can fan the four cells out over an execution
    backend's worker processes (each cell is a full simulation with its own
    machine); results are deterministic, so a fan-out returns bitwise the
    sequential series.
    """
    scale = PRESETS[preset]
    steps = scale.steps_fig7
    system = make_system(scale.n, scale.seed)
    subdomain = float(system.box.min()) / round(scale.nprocs ** (1.0 / 3.0))
    sim = _simulate(
        scale,
        n=scale.n,
        nprocs=scale.nprocs,
        profile=JUROPA,
        solver=solver,
        method=method,
        distribution="random",
        steps=steps,
        dynamics="brownian",
        brownian_step=0.005 * subdomain,
        skip_compute=True,
    )
    series: Dict[str, List[float]] = {"sort": [], "restore": [], "resort": [], "total": []}
    for rec in sim.records:
        b = step_breakdown(rec)
        for k in series:
            series[k].append(b[k])
    return series


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
    cells = [(solver, method) for solver in ("fmm", "p2nfft") for method in ("A", "B")]
    from repro.backend import resolve_backend

    engine = resolve_backend(backend)
    if engine is not None and engine.workers:
        all_series = engine.map_tasks(
            "repro.bench.figures.fig7_cell",
            [(preset, solver, method) for solver, method in cells],
        )
    else:
        all_series = [fig7_cell(preset, solver, method) for solver, method in cells]
    results: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    for (solver, method), series in zip(cells, all_series):
        results.setdefault(solver, {})[method] = series
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
    steps = steps or scale.steps_fig8
    # the melt's diffusive drift is modeled with the brownian surrogate
    # (DESIGN.md §5): per-step displacement such that particles cross a few
    # subdomain widths over the run — the regime where Fig. 8's method A
    # cost growth appears
    system = make_system(scale.n, scale.seed)
    subdomain = float(system.box.min()) / round(scale.nprocs ** (1.0 / 3.0))
    # ~6 subdomain widths of cumulative drift over the run: by the end the
    # initial decomposition is deeply mixed, the regime of the paper's
    # late-run measurements
    brownian_step = 6.0 * subdomain / steps
    results: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    for solver in ("fmm", "p2nfft"):
        results[solver] = {}
        for method in ("A", "B"):
            sim = _simulate(
                scale,
                n=scale.n,
                nprocs=scale.nprocs,
                profile=JUROPA,
                solver=solver,
                method=method,
                distribution="grid",
                steps=steps,
                dt=scale.dt_fig8,
                dynamics="brownian",
                brownian_step=brownian_step,
                skip_compute=True,
            )
            series: Dict[str, List[float]] = {"redist": [], "total": [], "max_move": []}
            for rec in sim.records[1:]:
                b = step_breakdown(rec)
                series["redist"].append(b["redist"])
                series["total"].append(b["total"])
                series["max_move"].append(rec.max_move)
            results[solver][method] = series
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
    """
    scale = PRESETS[preset]
    steps = scale.steps_fig9
    configs = {
        "fmm": (JUROPA, scale.fig9_fmm_procs),
        "p2nfft": (JUQUEEN, scale.fig9_p2nfft_procs),
    }
    system = make_system(scale.fig9_n, scale.seed)
    warmup = 4
    results: Dict[str, Dict] = {}
    for solver in solvers:
        profile, proc_list = configs[solver]
        per_method: Dict[str, List[float]] = {"A": [], "B": [], "B+move": []}
        for nprocs in proc_list:
            subdomain = float(system.box.min()) / round(nprocs ** (1.0 / 3.0))
            for method in ("A", "B", "B+move"):
                # warmup: drift the particles ~1.5 subdomain widths away
                # from the initial decomposition (the average displacement
                # over the paper's 1000-step runs, which is what method A
                # keeps paying for), then measure steady-state steps with
                # small per-step movement
                sim = _simulate(
                    scale,
                    n=scale.fig9_n,
                    nprocs=nprocs,
                    profile=profile,
                    solver=solver,
                    method=method,
                    distribution="grid",
                    steps=0,
                    dynamics="brownian",
                    brownian_step=1.5 * subdomain / warmup,
                    skip_compute=True,
                )
                for _ in range(warmup):
                    sim.step()
                sim.config.brownian_step = 0.02 * subdomain
                measured = [sim.step() for _ in range(steps)]
                per_step = [step_breakdown(r)["total"] for r in measured]
                per_method[method].append(float(np.mean(per_step)) * 1000.0)
        results[solver] = {"procs": list(proc_list), **per_method}
    if not quiet:
        for solver in results:
            profile, _ = configs[solver]
            print_header(
                f"Fig. 9 — total parallel runtimes with the {solver.upper()} solver "
                f"({profile.name} profile, n={scale.fig9_n}; projected 1000-step modeled seconds)"
            )
            r = results[solver]
            print(
                format_series(
                    "procs",
                    r["procs"],
                    {
                        "method A": r["A"],
                        "method B": r["B"],
                        "B + max movement": r["B+move"],
                    },
                )
            )
    return results
