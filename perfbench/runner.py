"""Runs one workload: interleaved passes, per-call timing, min over passes.

The work of a cell is deterministic, so what the host adds is a speed factor
(taken out per call, see :mod:`perfbench.calibrate`) plus additive delays:
every ``(cell, call)`` sample is reduced to its minimum over the passes and
all host-time metrics are computed from the reduced samples.  The loop is
closed: the next ``step()`` is issued when the previous one returns, from
this one process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import importlib
import os
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from perfbench import calibrate, checks, metrics
from perfbench.trace import LayerStats, Tracer, layer_stats
from perfbench.workloads import Cell, Workload

__all__ = ["OUT_DIR", "Result", "run_workload"]

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: everything the benchmark imports from the program; importing them is the
#: first part of ``setup_s``
_PROGRAM_MODULES = (
    "repro.bench.harness",
    "repro.md.simulation",
    "repro.simmpi.machine",
    "repro.simmpi.costmodel",
    "repro.simmpi.chaos",
    "repro.verify",
    "repro.obs",
    "repro.ckpt",
    "repro.backend",
    "repro.perf.instrument",
    "repro.solvers.ewald_ref",
)

#: per scale: (n, nprocs) of the accuracy replica (see
#: ``checks.accuracy_checks``) and the fewest passes a run makes
_SCALES = {"full": ((512, 8), 3), "tiny": ((128, 2), 2)}


@dataclasses.dataclass
class Sample:
    """One timed call."""

    kind: str  # "init" | "step" | "restore"
    host_s: float  # calibrated host seconds
    n: int  # particles advanced: the cell's n for a step, else 0
    raw_s: float = 0.0  # host seconds as the clock read them
    modeled_s: float = 0.0
    redist_s: float = 0.0
    #: phase label -> (modeled seconds, messages, bytes, host wall ns)
    phases: Dict[str, Tuple[float, int, int, int]] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class CellRun:
    """One cell in one pass."""

    cell: Cell
    planned: int
    setup_s: float = 0.0
    samples: List[Sample] = dataclasses.field(default_factory=list)
    error: str = ""
    ops: List[checks.Op] = dataclasses.field(default_factory=list)
    fingerprint: Optional[Dict[str, str]] = None
    plan_hits: int = 0
    plan_compiles: int = 0
    obs_recorded: int = 0
    obs_evicted: int = 0


@dataclasses.dataclass
class Result:
    """What one run reports."""

    workload: str
    seed: int
    traced: bool
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    failures: List[str]
    notes: Dict[str, float]

    @property
    def correct(self) -> bool:
        return self.failed == 0


def process_workers() -> int:
    return min(2, os.cpu_count() or 1)


def _calls(cell: Cell) -> Iterator[Tuple[str, float]]:
    """The timed calls of a cell: ``(kind, displacement in subdomains)``."""
    yield "init", 0.0
    restore_at = cell.restore_step if cell.variant == "attached" else -1
    done = 0
    for steps, frac in cell.schedule:
        for _ in range(steps):
            if done == restore_at:
                yield "restore", 0.0
            yield "step", frac
            done += 1


class _CellDriver:
    """Builds one cell's simulation and issues its timed calls."""

    def __init__(self, cell: Cell, seed: int, tracer: Optional[Tracer], contexts: List[str]):
        self.cell = cell
        self.seed = seed
        self.tracer = tracer
        self.contexts = contexts
        self.sim = None
        self.workdir: Optional[str] = None
        #: machine-speed reading taken after the previous call of this cell
        self._reading: Optional[float] = None
        self.run = CellRun(cell, planned=sum(1 for _ in _calls(cell)))

    # -- construction (untimed: part of setup_s) ---------------------------------

    def _machine(self):
        from repro.obs import enable_observability
        from repro.simmpi import costmodel
        from repro.simmpi.machine import Machine
        from repro.verify import enable_auditing

        machine = Machine(self.cell.nprocs, profile=getattr(costmodel, self.cell.profile))
        if self.cell.variant == "attached":
            enable_auditing(machine)
            enable_observability(machine)
        return machine

    def build(self) -> None:
        from repro.bench.harness import make_system
        from repro.md.simulation import Simulation, SimulationConfig
        from repro.simmpi.chaos import Perturbation

        cell = self.cell
        system = make_system(cell.n, self.seed)
        self.subdomain = float(system.box.min()) / round(cell.nprocs ** (1.0 / 3.0))
        extra: Dict[str, object] = {}
        if cell.variant == "attached":
            os.makedirs(OUT_DIR, exist_ok=True)
            self.workdir = tempfile.mkdtemp(prefix="ckpt-", dir=OUT_DIR)
            extra.update(
                perturbation=Perturbation(seed=0),
                checkpoint_every=cell.restore_step,
                checkpoint_dir=self.workdir,
            )
        elif cell.variant == "staged":
            extra["collective_algos"] = "bruck"
        elif cell.variant == "process":
            extra["backend"] = f"process:{process_workers()}"
        config = SimulationConfig(
            solver=cell.solver,
            method=cell.method,
            distribution=cell.distribution,
            seed=self.seed,
            dynamics="force" if cell.physics else "brownian",
            track_energy=cell.physics,
            solver_kwargs={} if cell.physics else {"compute": "skip"},
            **extra,
        )
        self.sim = Simulation(self._machine(), system, config)
        ping = getattr(self.sim.machine.backend, "ping", None)
        if ping is not None:
            ping()  # workers spawn asynchronously; wait for them here, not in init

    # -- timed calls ---------------------------------------------------------------

    def _timed(self, kind: str, fn) -> Tuple[Sample, object]:
        label = f"{self.cell.name}:{kind}{len(self.run.samples)}"
        self.contexts.append(label)
        if self.tracer is None:
            scope = contextlib.nullcontext()
        else:
            self.tracer.context = len(self.contexts) - 1
            scope = self.tracer.span("perfbench", kind)
        # back-to-back calls share the reading between them
        before = self._reading or calibrate.reading()
        with scope:
            t0 = time.perf_counter()
            result = fn()
            raw_s = time.perf_counter() - t0
        self._reading = calibrate.reading()
        if self.tracer is not None:
            self.tracer.context = -1
        speed = 0.5 * (before + self._reading) / calibrate.NOMINAL_S
        sample = Sample(kind, raw_s / speed, self.cell.n if kind == "step" else 0, raw_s)
        self.run.samples.append(sample)
        return sample, result

    def _timed_run(self, kind: str, fn) -> None:
        """A timed ``initialize``/``step``: keeps the step record's modeled side."""
        from repro.bench.harness import SOLVER_PHASES

        sample, _result = self._timed(kind, fn)
        record = self.sim.records[-1]
        sample.modeled_s = record.phase_time(*SOLVER_PHASES)
        sample.redist_s = record.phase_time(*metrics.REDIST_PHASES)
        sample.phases = {
            label: (st.time, st.messages, st.bytes, st.wall_ns)
            for label, st in record.phases.items()
        }

    def _restore(self):
        from repro.ckpt import load_checkpoint, restore_simulation
        from repro.simmpi.chaos import Perturbation

        # auto-checkpoint names are zero-padded by step, so the last one sorts last
        path = os.path.join(self.workdir, sorted(os.listdir(self.workdir))[-1])
        return restore_simulation(
            load_checkpoint(path), machine=self._machine(), perturbation=Perturbation(seed=0)
        )

    def _retire(self) -> None:
        """Fold the live simulation's counters into the run and release it."""
        sim = self.sim
        stats = sim.fcs.plan_stats
        self.run.plan_hits += stats.cache_hits
        self.run.plan_compiles += stats.compiles
        obs = sim.machine.obs
        if obs is not None:
            self.run.obs_recorded += obs.span_count()
            self.run.obs_evicted += sum(obs.dropped.values())
        sim.fcs.destroy()

    def execute(self) -> None:
        attached = self.cell.variant == "attached"
        for kind, frac in _calls(self.cell):
            sim = self.sim
            if kind == "restore":
                _sample, restored = self._timed(kind, self._restore)
                self._retire()
                self.sim = restored
                continue
            if kind == "init":
                # run(0)/run(1) are initialize()/step() plus the auto-checkpoint
                call = (lambda: sim.run(0)) if attached else sim.initialize
            else:
                if not self.cell.physics:
                    sim.config.brownian_step = frac * self.subdomain
                call = (lambda: sim.run(1)) if attached else sim.step
            self._timed_run(kind, call)

    def close(self) -> None:
        if self.sim is not None:
            backend = self.sim.machine.backend
            self._retire()
            if self.cell.variant == "process" and backend is not None:
                # a fresh engine per pass keeps the spawn inside every pass's setup
                backend.close()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def run_cell(
    cell: Cell,
    seed: int,
    tracer: Optional[Tracer],
    contexts: List[str],
    check: bool = False,
    fingerprint: bool = False,
) -> CellRun:
    """Run one cell; a cell that raises forfeits its remaining calls.

    ``check`` runs the final-state checks, ``fingerprint`` keeps the final
    ``state_fingerprint`` (both untimed, first pass only)."""
    driver = _CellDriver(cell, seed, tracer, contexts)
    run = driver.run
    try:
        t0 = time.perf_counter()
        contexts.append(f"{cell.name}:setup")
        if tracer is not None:
            tracer.context = len(contexts) - 1
        driver.build()
        run.setup_s = time.perf_counter() - t0
        driver.execute()
        if check:
            run.ops = checks.final_state_checks(driver.sim, cell)
        if fingerprint:
            from repro.verify import state_fingerprint

            run.fingerprint = state_fingerprint(driver.sim)
    except Exception:  # boundary: the benchmark reports the failure and goes on
        run.error = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.context = -1
        driver.close()
    return run


def _run_pass(
    workload: Workload, seed: int, tracer: Optional[Tracer], contexts: List[str], check: bool
) -> List[CellRun]:
    # only a workload that runs one trajectory several ways compares end states
    fingerprint = check and any(cell.variant != "bare" for cell in workload.cells)
    runs = []
    for cell in workload.cells:
        gc.collect()  # keep collector pauses out of the timed calls
        runs.append(run_cell(cell, seed, tracer, contexts, check, fingerprint))
    return runs


def _traced_pass(workload: Workload, seed: int, contexts: List[str]) -> Tuple[List[CellRun], Tracer]:
    from repro.perf import instrument

    tracer = Tracer()
    tracer.install()
    try:
        with instrument.wall_phases():
            runs = _run_pass(workload, seed, tracer, contexts, check=False)
    finally:
        tracer.uninstall()
    return runs, tracer


def _pass_wall(runs: Sequence[CellRun], raw: bool = False) -> float:
    return sum(s.raw_s if raw else s.host_s for run in runs for s in run.samples)


def _reduce(passes: Sequence[Sequence[CellRun]]) -> List[List[Sample]]:
    """Per cell, the per-call samples with host time minimised over passes."""
    reduced = []
    for cell_runs in zip(*passes):
        calls = []
        for idx in range(max(len(run.samples) for run in cell_runs)):
            seen = [run.samples[idx] for run in cell_runs if idx < len(run.samples)]
            best = min(seen, key=lambda s: s.host_s)
            calls.append(dataclasses.replace(seen[0], host_s=best.host_s))
        reduced.append(calls)
    return reduced


def _variant_ratio(workload: Workload, reduced: List[List[Sample]], variant: str) -> float:
    """Σ reduced host time of ``variant`` cells over that of the bare cells."""
    total = {variant: 0.0, "bare": 0.0}
    for cell, calls in zip(workload.cells, reduced):
        if cell.variant in total:
            total[cell.variant] += sum(s.host_s for s in calls)
    return total[variant] / total["bare"] if total["bare"] and total[variant] else 0.0


def _per_layer(
    workload: Workload,
    plain_reduced: List[List[Sample]],
    traced_runs: Sequence[CellRun],
    tracer: Tracer,
    contexts: List[str],
    first_pass: Sequence[CellRun],
    rel_errs: Dict[str, float],
    best_plain_wall: float,
) -> Dict[str, float]:
    timed_ids = {i for i, label in enumerate(contexts) if not label.endswith(":setup")}
    timed: LayerStats = layer_stats(tracer.spans, timed_ids)
    everything: LayerStats = layer_stats(tracer.spans)
    values: Dict[str, float] = {}
    for name, _unit, _better in metrics.PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = timed.self_s.get(layer, 0.0)
        elif field == "calls":
            values[name] = float(timed.calls.get(layer, 0))
    # distribute() runs in Simulation.__init__, outside every timed call
    values["md.distributions.self_s"] = everything.self_s.get("md.distributions", 0.0)
    values["backend.process.deliver.calls"] = float(
        sum(1 for span in tracer.spans if span[1] == "ProcessBackend.deliver")
    )
    for counter in ("sorting.rows", "solvers.common.pairs.pairs", "ckpt.bytes"):
        values[counter] = float(tracer.counters.get(counter, 0))

    samples = [s for run in traced_runs for s in run.samples]
    msgs = sum(p[1] for s in samples for p in s.phases.values())
    values["simmpi.msgs"] = float(msgs)
    values["simmpi.bytes"] = float(sum(p[2] for s in samples for p in s.phases.values()))
    simmpi_self = sum(v for layer, v in timed.self_s.items() if layer.startswith("simmpi."))
    values["simmpi.host_us_per_msg"] = 1e6 * simmpi_self / msgs if msgs else 0.0
    for phase in metrics.PHASES:
        rows = [s.phases[phase] for s in samples if phase in s.phases]
        values[f"phase.{phase}.modeled_s"] = sum(r[0] for r in rows)
        values[f"phase.{phase}.msgs"] = float(sum(r[1] for r in rows))
        values[f"phase.{phase}.bytes"] = float(sum(r[2] for r in rows))
        values[f"phase.{phase}.host_s"] = 1e-9 * sum(r[3] for r in rows)

    hits = sum(run.plan_hits for run in first_pass)
    compiles = sum(run.plan_compiles for run in first_pass)
    values["core.plan.hit_rate"] = hits / (hits + compiles) if hits + compiles else 0.0
    values["obs.spans.recorded"] = float(sum(run.obs_recorded for run in first_pass))
    values["obs.spans.evicted"] = float(sum(run.obs_evicted for run in first_pass))
    values["solvers.fmm.rel_err"] = rel_errs.get("fmm", 0.0)
    values["solvers.p2nfft.rel_err"] = rel_errs.get("p2nfft", 0.0)
    attached = _variant_ratio(workload, plain_reduced, "attached")
    values["attached.overhead_frac"] = attached - 1.0 if attached else 0.0
    values["staged.slowdown"] = _variant_ratio(workload, plain_reduced, "staged")
    values["backend.process.slowdown"] = _variant_ratio(workload, plain_reduced, "process")

    # best whole pass against best whole pass: the reduced samples are
    # per-call minima, which no single pass reaches
    values["trace.overhead_frac"] = _pass_wall(traced_runs) / best_plain_wall - 1.0
    root = timed.root_s.get("perfbench", 0.0)
    named = sum(v for layer, v in timed.self_s.items() if layer != "perfbench")
    values["trace.coverage"] = named / root if root else 0.0
    values["trace.targets_missing"] = float(len(tracer.missing))
    return values


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    scale: str = "full",
) -> Result:
    """Measure ``workload`` for about ``seconds`` (never fewer than three
    passes at full scale) and report."""
    replica, min_passes = _SCALES[scale]
    t_import = time.perf_counter()
    for name in _PROGRAM_MODULES:
        importlib.import_module(name)
    import_s = time.perf_counter() - t_import

    from repro.bench.harness import make_system

    t_system = time.perf_counter()
    for n in sorted({cell.n for cell in workload.cells}):
        make_system(n, seed)
    system_s = time.perf_counter() - t_system

    contexts: List[str] = []
    plain: List[List[CellRun]] = []
    traced_passes: List[Tuple[List[CellRun], Tracer]] = []
    started = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        # a traced run interleaves: plain, traced, plain, traced, ...
        if traced and len(plain) > len(traced_passes):
            traced_passes.append(_traced_pass(workload, seed, contexts))
        else:
            plain.append(_run_pass(workload, seed, None, contexts, check=not plain))
        now = time.perf_counter()
        done = len(plain) + len(traced_passes)
        if done >= min_passes and len(plain) >= 2 and now - started + (now - t_pass) > seconds:
            break

    # -- operations: timed calls of every pass, then the checks ----------------------
    every_pass = plain + [runs for runs, _tracer in traced_passes]
    attempted = sum(run.planned for runs in every_pass for run in runs)
    failures = [
        f"{run.cell.name}: forfeited {run.planned - len(run.samples)} call(s)\n{run.error}"
        for runs in every_pass for run in runs if run.error
    ]
    failed = sum(run.planned - len(run.samples) for runs in every_pass for run in runs)
    ops = [op for run in plain[0] for op in run.ops]
    ops += checks.modeled_repeat_checks(
        [[(run.cell.name, [s.modeled_s for s in run.samples]) for run in runs]
         for runs in every_pass]
    )
    fingerprints: Dict[str, Dict[str, Dict[str, str]]] = {}
    for run in plain[0]:
        if run.fingerprint is not None:
            fingerprints.setdefault(run.cell.solver, {})[run.cell.variant] = run.fingerprint
    ops += checks.fingerprint_checks(fingerprints)
    rel_errs: Dict[str, float] = {}
    if any(cell.physics for cell in workload.cells):
        accuracy_ops, rel_errs = checks.accuracy_checks(*replica, seed)
        ops += accuracy_ops
    attempted += len(ops)
    failed += sum(1 for op in ops if not op.ok)
    failures += [f"check {op.name}: {op.detail}" for op in ops if not op.ok]

    # -- metrics ------------------------------------------------------------------------
    reduced = _reduce(plain)
    flat = [s for calls in reduced for s in calls]
    setup_s = import_s + system_s + statistics.median(
        sum(run.setup_s for run in runs) for runs in every_pass
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = [s for run in plain[0] for s in run.samples]
    e2e, notes = metrics.end_to_end(
        [(s.kind, s.host_s, s.n) for s in flat],
        pooled_steps=[
            s.host_s for runs in plain for run in runs for s in run.samples if s.kind == "step"
        ],
        modeled_s=sum(s.modeled_s for s in first),
        modeled_redist_s=sum(s.redist_s for s in first),
        setup_s=setup_s,
        peak_rss_mb=peak_rss_mb,
    )
    walls = [_pass_wall(runs, raw=True) for runs in plain]
    notes.update(
        passes=float(len(plain)),
        traced_passes=float(len(traced_passes)),
        raw_wall_s_median_pass=statistics.median(walls),
        raw_wall_s_pass_spread=(max(walls) - min(walls)) / min(walls),
        speed_median=statistics.median(
            s.raw_s / s.host_s for runs in plain for run in runs for s in run.samples
        ),
        import_s=import_s,
        system_s=system_s,
        process_workers=float(process_workers()),
        fail_frac=failed / attempted,
    )
    if traced:
        runs, tracer = min(traced_passes, key=lambda item: _pass_wall(item[0]))
        values = _per_layer(
            workload, reduced, runs, tracer, contexts, plain[0], rel_errs,
            best_plain_wall=min(_pass_wall(p) for p in plain),
        )
        units = {name: unit for name, unit, _better in metrics.PER_LAYER}
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(
            os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.json"), contexts
        )
        notes["spans"] = float(len(tracer.spans))
    else:
        values = e2e
        units = {name: unit for name, unit, _better, _bound in metrics.END_TO_END}
    return Result(
        workload=workload.name,
        seed=seed,
        traced=traced,
        metrics={name: (values[name], units[name]) for name in units},
        attempted=attempted,
        failed=failed,
        failures=failures,
        notes=notes,
    )
