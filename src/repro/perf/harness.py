"""Wall-clock benchmark harness: vectorized kernels vs their scalar oracles.

Every kernel vectorized in this repository keeps its original
implementation alive under a ``*_reference`` name (routed to by
:func:`repro.perf.instrument.reference_mode`).  This harness benchmarks
both paths on inputs shaped like the ``default`` benchmark preset's real
call sites (``--quick`` switches to the ``quick`` preset's shapes), then
runs the Fig. 7 experiment end-to-end for a whole-pipeline wall time and a
small wall-phase-attributed simulation for the modeled-vs-host per-phase
profile.

Results go to ``BENCH_wallclock.json``.  The regression gate compares the
*speedup ratios* (reference wall / vectorized wall) against the committed
``benchmarks/baseline_wallclock.json``: ratios are machine-portable where
absolute nanoseconds are not, so CI can fail on a >25 % relative
regression of any kernel without pinning hardware.

Wall-clock numbers NEVER feed back into the simulation: the modeled
virtual clock, the trace byte/message counters and every state fingerprint
are bitwise identical with and without instrumentation, and identical
between the vectorized and reference paths (enforced by ``tests/perf/``).
"""

from __future__ import annotations

import dataclasses
import json
import platform
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.perf import instrument

__all__ = [
    "KernelResult",
    "KERNEL_BENCHES",
    "run_kernel_benches",
    "run_fig7_wall",
    "run_phase_profile",
    "build_report",
    "check_against_baseline",
    "GATE_TOLERANCE",
]

#: maximum tolerated relative regression of a kernel's speedup ratio
GATE_TOLERANCE = 0.25


@dataclasses.dataclass
class KernelResult:
    """One kernel's vectorized-vs-reference wall measurement."""

    name: str
    ops: int
    vec_ns: int
    ref_ns: int

    @property
    def speedup(self) -> float:
        return self.ref_ns / self.vec_ns if self.vec_ns else float("inf")

    @property
    def vec_ns_per_op(self) -> float:
        return self.vec_ns / self.ops if self.ops else float(self.vec_ns)

    @property
    def ref_ns_per_op(self) -> float:
        return self.ref_ns / self.ops if self.ops else float(self.ref_ns)

    def to_json(self) -> Dict:
        return {
            "ops": self.ops,
            "vec_ns": self.vec_ns,
            "ref_ns": self.ref_ns,
            "vec_ns_per_op": self.vec_ns_per_op,
            "ref_ns_per_op": self.ref_ns_per_op,
            "speedup": self.speedup,
        }


def _best_of(fn: Callable[[], None], repeats: int) -> int:
    """Minimum wall nanoseconds of ``repeats`` runs (first run warms up)."""
    fn()
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        ns = time.perf_counter_ns() - t0
        if best is None or ns < best:
            best = ns
    return int(best)


def _measure(
    name: str,
    ops: int,
    vec: Callable[[], object],
    repeats: int,
) -> KernelResult:
    def run_ref() -> None:
        with instrument.reference_mode():
            vec()

    vec_ns = _best_of(vec, repeats)
    ref_ns = _best_of(run_ref, repeats)
    return KernelResult(name=name, ops=ops, vec_ns=vec_ns, ref_ns=ref_ns)


# --------------------------------------------------------------------- shapes
#
# Each bench constructs deterministic inputs mirroring the kernel's real
# call shape at the requested preset scale, asserts vec == reference once,
# and returns (ops, thunk).  Shapes were probed from actual runs: e.g. a
# default-preset P2NFFT near field hands ``candidate_pairs`` ~54 occupied
# target cells, ~1.6k targets and ~5.5k sources per rank (rc from
# ``optimize_cutoff`` at the silica density).


def _preset_scale(quick: bool) -> Tuple[int, int]:
    """(n, nprocs) of the benched preset."""
    from repro.bench.harness import PRESETS

    scale = PRESETS["quick" if quick else "default"]
    return scale.n, scale.nprocs


def _bench_ragged_cross(quick: bool) -> Tuple[int, Callable[[], object]]:
    """Segment tables shaped like one rank's linked-cell neighborhood scan:
    27 offsets x occupied cells, ~(n / P / cells) particles per cell."""
    from repro.solvers.common.pairs import ragged_cross

    rng = np.random.default_rng(2024)
    ncells, mean = (16, 6.0) if quick else (54, 30.0)
    nseg = 27 * ncells
    nt = rng.poisson(mean, nseg).astype(np.int64)
    ns = rng.poisson(mean, nseg).astype(np.int64)
    t_starts = np.concatenate(([0], np.cumsum(nt)[:-1]))
    s_starts = np.concatenate(([0], np.cumsum(ns)[:-1]))
    t_ends = t_starts + nt
    s_ends = s_starts + ns
    ti, si = ragged_cross(t_starts, t_ends, s_starts, s_ends)
    with instrument.reference_mode():
        rti, rsi = ragged_cross(t_starts, t_ends, s_starts, s_ends)
    assert np.array_equal(ti, rti) and np.array_equal(si, rsi)
    return int(ti.shape[0]), lambda: ragged_cross(t_starts, t_ends, s_starts, s_ends)


def _bench_linked_cell(quick: bool) -> Tuple[int, Callable[[], object]]:
    """One rank's near-field binning at the preset's silica scale: targets
    in a ``(n/P)``-particle subdomain, sources adding the rc ghost shell."""
    from repro.solvers.p2nfft.linked_cell import LinkedCellNearField
    from repro.solvers.p2nfft.tuning import optimize_cutoff, suggest_cutoff

    n, P = _preset_scale(quick)
    edge = 248.0 * (n / 829_440.0) ** (1.0 / 3.0)
    box = np.full(3, edge)
    try:
        rc = optimize_cutoff(box, n, 1e-3)
    except ValueError:
        rc = suggest_cutoff(box, n)
    lc = LinkedCellNearField(box, np.zeros(3), rc, 1.0)

    rng = np.random.default_rng(11)
    sub = edge / round(P ** (1.0 / 3.0))
    nt = max(n // P, 1)
    halo = sub + 2.0 * rc
    ns_count = max(int(round(nt * (halo / sub) ** 3)), nt)
    tpos = rng.random((nt, 3)) * sub
    spos = rng.random((ns_count, 3)) * halo - rc

    t_cells = lc.cell_ids(tpos)
    s_cells = lc.cell_ids(spos)
    t_sorted = t_cells[np.argsort(t_cells, kind="stable")]
    s_sorted = s_cells[np.argsort(s_cells, kind="stable")]
    cells, t_first = np.unique(t_sorted, return_index=True)
    t_last = np.concatenate((t_first[1:], [t_sorted.shape[0]]))
    cz = cells % lc.dims[2]
    cy = (cells // lc.dims[2]) % lc.dims[1]
    cx = cells // (lc.dims[1] * lc.dims[2])
    args = (t_first, t_last, s_sorted, cx, cy, cz, ns_count)

    ti, si = lc.candidate_pairs(*args)
    with instrument.reference_mode():
        rti, rsi = lc.candidate_pairs(*args)
    assert np.array_equal(ti, rti) and np.array_equal(si, rsi)
    return int(ti.shape[0]), lambda: lc.candidate_pairs(*args)


def _bench_derivative_tensors(quick: bool) -> Tuple[int, Callable[[], object]]:
    """The default FMM M2L table build: 316 lattice displacements at
    ``order = 2p`` (the tuner picks p = 5 at accuracy 1e-3)."""
    from repro.solvers.fmm.expansions import derivative_tensors, multi_index_set

    order = 10
    m = 64 if quick else 316
    rng = np.random.default_rng(7)
    # interaction-list displacements: lattice offsets at separation >= 2
    pts = rng.uniform(-4.0, 4.0, (m, 3))
    pts[np.abs(pts).max(axis=1) < 2.0] += np.sign(pts[np.abs(pts).max(axis=1) < 2.0]) * 2.0
    a = derivative_tensors(pts, order)
    with instrument.reference_mode():
        b = derivative_tensors(pts, order)
    assert np.array_equal(a, b)
    ops = m * multi_index_set(order).ncoef
    return int(ops), lambda: derivative_tensors(pts, order)


def _bench_partition_destinations(quick: bool) -> Tuple[int, Callable[[], object]]:
    """Destination assignment of the global sample-sort order."""
    from repro.sorting.partition_sort import partition_destinations

    n, P = _preset_scale(quick)
    rng = np.random.default_rng(23)
    order = rng.permutation(n).astype(np.int64)
    counts = rng.multinomial(n, np.ones(P) / P).astype(np.int64)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    a = partition_destinations(order, bounds)
    with instrument.reference_mode():
        b = partition_destinations(order, bounds)
    assert np.array_equal(a, b)
    return int(n), lambda: partition_destinations(order, bounds)


def _bench_partition_split(quick: bool) -> Tuple[int, Callable[[], object]]:
    """One rank's partition split: preset-scale local block scattered to
    up to P destinations."""
    from repro.core.particles import ColumnBlock
    from repro.sorting.partition_sort import split_by_destination

    n, P = _preset_scale(quick)
    rows = max(n // P, 1)
    rng = np.random.default_rng(29)
    block = ColumnBlock(
        key=rng.integers(0, 1 << 60, rows).astype(np.uint64),
        pos=rng.standard_normal((rows, 3)),
        q=rng.standard_normal(rows),
        index=rng.integers(0, 1 << 40, rows),
    )
    d = rng.integers(0, P, rows)
    a = split_by_destination(block, d)
    with instrument.reference_mode():
        b = split_by_destination(block, d)
    assert list(a) == list(b)
    for dst in a:
        for pa, pb in zip(a[dst].payload(), b[dst].payload()):
            assert np.array_equal(pa, pb)
    return int(rows), lambda: split_by_destination(block, d)


#: name -> (input builder, repeats at default scale, repeats at quick scale)
KERNEL_BENCHES: Dict[str, Tuple[Callable[[bool], Tuple[int, Callable]], int, int]] = {
    "pairs.ragged_cross": (_bench_ragged_cross, 9, 15),
    "linked_cell.candidate_pairs": (_bench_linked_cell, 9, 15),
    "fmm.derivative_tensors": (_bench_derivative_tensors, 9, 15),
    "partition_sort.destinations": (_bench_partition_destinations, 9, 15),
    "partition_sort.split": (_bench_partition_split, 9, 15),
}


def run_kernel_benches(quick: bool = False, verbose: bool = True) -> Dict[str, KernelResult]:
    results: Dict[str, KernelResult] = {}
    for name, (builder, rep_default, rep_quick) in KERNEL_BENCHES.items():
        ops, thunk = builder(quick)
        res = _measure(name, ops, thunk, rep_quick if quick else rep_default)
        results[name] = res
        if verbose:
            print(
                f"  {name:32s} vec {res.vec_ns / 1e6:9.3f} ms   "
                f"ref {res.ref_ns / 1e6:9.3f} ms   speedup {res.speedup:5.2f}x"
            )
    return results


# ----------------------------------------------------------------- end-to-end


def run_fig7_wall(
    quick: bool = False, verbose: bool = True, backend: Optional[str] = None
) -> Dict:
    """Wall-time the Fig. 7 experiment end-to-end (modeled results unused).

    With ``backend`` (e.g. ``"process"`` / ``"process:4"``) the four
    independent (solver, method) cells additionally run fanned out over the
    engine's workers; the serial run is always measured as the speedup
    reference, the two results are asserted equal, and the report carries
    both timings plus ``host_cpus`` — a 1-core host cannot show a speedup
    no matter the worker count, and the report must say so honestly.
    """
    import os

    from repro.bench.figures import fig7

    preset = "quick" if quick else "default"
    t0 = time.perf_counter_ns()
    serial = fig7(preset, quiet=True)
    wall_ns = time.perf_counter_ns() - t0
    if verbose:
        print(f"  fig7 --preset {preset}: {wall_ns / 1e9:.2f} s wall (serial)")
    out = {
        "preset": preset,
        "wall_ns": int(wall_ns),
        "wall_s": wall_ns / 1e9,
        "host_cpus": os.cpu_count(),
    }
    if backend is not None:
        from repro.backend import resolve_backend

        engine = resolve_backend(backend)
        engine_desc = f"{engine.name}:{engine.workers}" if engine.workers else engine.name
        t0 = time.perf_counter_ns()
        parallel = fig7(preset, quiet=True, backend=engine)
        backend_ns = time.perf_counter_ns() - t0
        if parallel != serial:
            raise AssertionError(
                f"fig7 under backend {engine_desc} diverged from the serial run"
            )
        speedup = wall_ns / backend_ns if backend_ns else float("inf")
        out["backend"] = {
            "engine": engine.name,
            "workers": engine.workers,
            "wall_ns": int(backend_ns),
            "wall_s": backend_ns / 1e9,
            "speedup_vs_serial": speedup,
            "results_identical": True,
        }
        if verbose:
            print(
                f"  fig7 --preset {preset}: {backend_ns / 1e9:.2f} s wall "
                f"({engine_desc}; {speedup:.2f}x vs serial on "
                f"{out['host_cpus']} host cpu(s))"
            )
    return out


def run_phase_profile(
    quick: bool = False, verbose: bool = True, algos: Optional[str] = None
) -> Dict:
    """Modeled seconds vs host wall seconds per simulated phase.

    Runs a short method-B P2NFFT trajectory (the Fig. 7 configuration at
    reduced step count) under wall-phase attribution and kernel collection;
    the returned profile carries, per phase, the modeled virtual-clock
    seconds next to the attributed host nanoseconds and net allocated
    bytes — the tentpole observability deliverable.

    ``algos`` routes the trajectory's collectives through the named staged
    algorithm engines (:mod:`repro.simmpi.algos` spec grammar), shifting the
    modeled phase seconds; physics and host wall attribution semantics are
    unchanged.  The fig7 experiment never takes this knob — its serial-vs-
    backend identity assertion is baseline-gated.
    """
    from repro.bench.harness import PRESETS, make_machine, make_system
    from repro.md.simulation import Simulation, SimulationConfig
    from repro.simmpi.costmodel import JUROPA

    scale = PRESETS["quick"]  # profile stays CI-sized at every preset
    steps = 2
    machine = make_machine(scale.nprocs, JUROPA)
    system = make_system(scale.n, scale.seed)
    subdomain = float(system.box.min()) / round(scale.nprocs ** (1.0 / 3.0))
    cfg = SimulationConfig(
        solver="p2nfft",
        method="B",
        distribution="random",
        seed=scale.seed,
        dynamics="brownian",
        brownian_step=0.005 * subdomain,
        solver_kwargs={"compute": "skip"},
        collective_algos=algos,
    )
    with instrument.collect(trace_alloc=True) as registry:
        with instrument.wall_phases():
            sim = Simulation(machine, system, cfg)
            sim.run(steps)
        kernels = {k: dataclasses.asdict(v) for k, v in registry.items()}
    phases = {}
    for name, st in machine.trace.snapshot().items_sorted():
        phases[name] = {
            "modeled_s": st.time,
            "wall_ns": st.wall_ns,
            "wall_s": st.wall_ns / 1e9,
            "alloc_bytes": st.alloc_bytes,
            "calls": st.calls,
        }
    if verbose:
        total_modeled = sum(p["modeled_s"] for p in phases.values())
        total_wall = sum(p["wall_s"] for p in phases.values())
        print(
            f"  phase profile ({len(phases)} phases): modeled "
            f"{total_modeled:.4f} s vs host {total_wall:.2f} s"
        )
    return {
        "config": {
            "solver": "p2nfft",
            "method": "B",
            "n": scale.n,
            "nprocs": scale.nprocs,
            "steps": steps,
            "collective_algos": algos or "direct",
        },
        "phases": phases,
        "recorded_kernels": kernels,
    }


# -------------------------------------------------------------------- report


def build_report(
    quick: bool = False,
    *,
    with_fig7: bool = True,
    verbose: bool = True,
    backend: Optional[str] = None,
    algos: Optional[str] = None,
) -> Dict:
    preset = "quick" if quick else "default"
    if verbose:
        print(f"repro.perf: kernel benches at {preset}-preset shapes")
    kernels = run_kernel_benches(quick, verbose)
    report = {
        "schema": "repro.perf/wallclock-v1",
        "preset": preset,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "kernels": {k: v.to_json() for k, v in kernels.items()},
    }
    if with_fig7:
        report["fig7"] = run_fig7_wall(quick, verbose, backend=backend)
    report["phase_profile"] = run_phase_profile(quick, verbose, algos=algos)
    return report


def check_against_baseline(
    report: Dict, baseline: Dict, tolerance: float = GATE_TOLERANCE
) -> List[str]:
    """Speedup-ratio regression check; returns failure messages (empty = pass).

    A kernel fails when its measured speedup drops more than ``tolerance``
    (relative) below the committed baseline speedup for the same preset.
    Kernels present only on one side are reported as failures too, so the
    baseline can't silently drift out of sync with the bench set.
    """
    failures: List[str] = []
    entry = baseline.get("presets", {}).get(report["preset"])
    if entry is None:
        return [f"baseline has no entry for preset {report['preset']!r}"]
    base_kernels = entry.get("kernels", {})
    seen = set()
    for name, res in report["kernels"].items():
        base = base_kernels.get(name)
        if base is None:
            failures.append(f"{name}: missing from baseline (run --update-baseline)")
            continue
        seen.add(name)
        floor = base["speedup"] * (1.0 - tolerance)
        if res["speedup"] < floor:
            failures.append(
                f"{name}: speedup {res['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base['speedup']:.2f}x - {tolerance:.0%})"
            )
    for name in base_kernels:
        if name not in seen:
            failures.append(f"{name}: in baseline but no longer benched")
    return failures


def baseline_from_report(report: Dict, existing: Optional[Dict] = None) -> Dict:
    """Merge a report's speedups into (a copy of) the baseline structure."""
    base = {"schema": "repro.perf/baseline-v1", "presets": {}}
    if existing:
        base["presets"].update(existing.get("presets", {}))
    base["presets"][report["preset"]] = {
        "kernels": {
            name: {"speedup": round(res["speedup"], 3)}
            for name, res in report["kernels"].items()
        }
    }
    return base


def write_json(path: str, payload: Dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
