"""Deterministic simulation testing (DST) of the redistribution stack.

FoundationDB-style chaos testing for the simulated MPI layer: the same
seeded MD trajectory is run once on an unperturbed machine (the *reference
schedule*) and then under ``N`` seeded machine perturbations
(:class:`~repro.simmpi.chaos.Perturbation` — compute jitter, stragglers,
degraded links, extra latency, clock skew).  The core property under
test:

    positions, forces, energies, resort outcomes and the communication
    auditor's ledgers are **bitwise identical** across every seed; only the
    virtual clocks and per-phase trace times may differ.

A perturbation can change *when* things happen but never *what* happens —
costs are charged out-of-band of the data plane.  Any coupling from modeled
time back into physics (a real bug class: e.g. an adaptive decision reading
``machine.elapsed()``) breaks the fingerprint and is caught here.  The
``adaptive`` redistribution method intentionally couples cost to behavior
and is therefore excluded from the sweep.

Every failure is reported with a one-line repro command, e.g.::

    python -m repro.verify dst --solvers fmm --methods B+move --steps 5 \
        --particles 24 --nprocs 4 --seed-list 17

Run from the command line via ``python -m repro.verify dst --seeds N
--steps K``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import shlex
from typing import Callable, List, Optional, Sequence, Tuple

from repro.ckpt import load_checkpoint
from repro.obs import write_ndjson
from repro.verify.audit import LEDGERS
from repro.verify.trajectory import (
    WORKLOADS,
    CellSpec,
    CheckedRun,
    build_run,
    play,
    restore_run,
)

__all__ = [
    "DEFAULT_DISTRIBUTIONS",
    "DEFAULT_METHODS",
    "DEFAULT_SOLVERS",
    "DST_DISTRIBUTIONS",
    "DstFailure",
    "DstReport",
    "ledger_fingerprint",
    "run_dst",
    "run_resume_sweep",
]

#: all four registered solvers (the DST default is the full matrix)
DEFAULT_SOLVERS = ("direct", "ewald", "fmm", "p2nfft")

#: redistribution methods under test; "adaptive" is excluded by design — it
#: reads modeled costs to pick its method, so its behavior legitimately
#: depends on the perturbation
DEFAULT_METHODS = ("A", "B", "B+move")

#: the workload axis (:data:`repro.verify.trajectory.WORKLOADS`)
DST_DISTRIBUTIONS = tuple(WORKLOADS)

#: default sweep stays on the homogeneous workload (cost); pass
#: ``--distributions clustered`` to exercise the balancing path
DEFAULT_DISTRIBUTIONS = ("homogeneous",)


def ledger_fingerprint(auditor) -> str:
    """Digest of the auditor's per-phase message/byte ledgers.

    The ledgers are recomputed from raw send tables (data plane only), so
    they must be identical across machine perturbations.  Reads the
    auditor's checkpointed form, so what is fingerprinted is what a restart
    restores; the staged collective-algorithm ledgers and counts are empty —
    hence hash-neutral — when every collective runs the direct algorithm.
    """
    state = auditor.state_dict()
    h = hashlib.sha256()
    for name, tag in LEDGERS.items():
        table = state[name]
        for phase in sorted(table):
            led = table[phase]
            h.update(f"{tag}{phase}:{led['messages']}:{led['bytes']};".encode())
    counts = state["algo_counts"]
    for key in sorted(counts):
        h.update(f"algo-count:{key}:{counts[key]};".encode())
    return h.hexdigest()


@dataclasses.dataclass
class DstFailure:
    """One divergence or invariant violation under one seed."""

    solver: str
    method: str
    seed: int
    detail: str
    distribution: str = "homogeneous"
    #: step at which the trajectory was killed and resumed from checkpoint
    #: (``None`` for uninterrupted trajectories)
    kill_at: Optional[int] = None
    #: checkpoint file the trajectory resumed from (``run_resume_sweep``)
    resume_from: Optional[str] = None
    #: collective-algorithm spec the cell ran under (``None`` = direct)
    algos: Optional[str] = None
    #: system/trajectory seed, execution backend and kill-checkpoint
    #: directory of the sweep the failure came from
    system_seed: int = 0
    backend: Optional[str] = None
    ckpt_dir: Optional[str] = None

    def repro_command(self, *, nprocs: int, steps: int, particles: int) -> str:
        """One-line command reproducing exactly this failing cell."""
        if self.resume_from is not None:
            return (
                f"python -m repro.verify dst --resume-from "
                f"{shlex.quote(self.resume_from)} "
                f"--steps {steps} --seed-list {self.seed}"
            )
        cell = f"--solvers {self.solver} --methods {self.method!r} --steps {steps}"
        options = {
            "--particles": particles,
            "--nprocs": nprocs,
            "--distributions": self.distribution,
            "--seed-list": self.seed,
            "--kill-at": self.kill_at,
            "--algos": self.algos,
            "--system-seed": self.system_seed or None,
            "--backend": self.backend,
            "--ckpt-dir": None if self.ckpt_dir is None else shlex.quote(self.ckpt_dir),
        }
        return f"python -m repro.verify dst {cell}" + "".join(
            f" {flag} {value}" for flag, value in options.items() if value is not None
        )


@dataclasses.dataclass
class DstReport:
    """Outcome of one DST sweep."""

    solvers: Tuple[str, ...]
    methods: Tuple[str, ...]
    nprocs: int
    steps: int
    particles: int
    seeds: List[int]
    trajectories: int
    failures: List[DstFailure]
    distributions: Tuple[str, ...] = DEFAULT_DISTRIBUTIONS
    #: collective-algorithm specs swept (``None`` entries mean direct)
    algos: Tuple[Optional[str], ...] = (None,)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else f"FAILED ({len(self.failures)})"
        algos = ""
        if any(spec is not None for spec in self.algos):
            algos = f" algos={[spec or 'direct' for spec in self.algos]}"
        return (
            f"[{status}] dst: {self.trajectories} trajectories, "
            f"solvers={list(self.solvers)} "
            f"methods={list(self.methods)} "
            f"distributions={list(self.distributions)}{algos} "
            f"seeds={len(self.seeds)} "
            f"steps={self.steps} nprocs={self.nprocs} "
            f"particles={self.particles}"
        )


# -- the sweeps ---------------------------------------------------------------


def _chosen_seeds(seeds: int, seed_list: Optional[Sequence[int]]) -> List[int]:
    """The chaos seeds a sweep runs: ``seed_list`` as given, else ``1..seeds``
    (a sweep over no seed would check nothing and report success)."""
    if seed_list is not None:
        return list(seed_list)
    if seeds < 1:
        raise ValueError(f"a chaos sweep needs seeds >= 1, got {seeds}")
    return list(range(1, seeds + 1))


def _sweep_seeds(
    checked_run: Callable[[Optional[int]], CheckedRun],
    steps: int,
    seeds: Sequence[int],
    template: DstFailure,
    export: Callable[[CheckedRun, int], None] = lambda run, seed: None,
    **kill,
) -> List[DstFailure]:
    """Play the reference run (chaos seed ``None``), then one run per seed
    held to it; each divergence becomes a copy of ``template``.
    ``export`` sees every run that passed (the reference as seed 0)."""
    run = checked_run(None)
    reference = play(run, steps)
    export(run, 0)
    failures: List[DstFailure] = []
    for seed in seeds:
        run = checked_run(seed)
        try:
            play(run, steps, reference=reference, **kill)
        except AssertionError as exc:
            detail = str(exc)
        else:
            export(run, seed)
            continue
        failures.append(dataclasses.replace(template, seed=seed, detail=detail))
    return failures


def run_dst(
    solvers: Sequence[str] = DEFAULT_SOLVERS,
    methods: Sequence[str] = DEFAULT_METHODS,
    *,
    seeds: int = 10,
    steps: int = 5,
    nprocs: int = 4,
    n_particles: int = 24,
    seed_list: Optional[Sequence[int]] = None,
    system_seed: int = 0,
    distributions: Sequence[str] = DEFAULT_DISTRIBUTIONS,
    obs_export_dir: Optional[str] = None,
    kill_at: Optional[int] = None,
    ckpt_dir: Optional[str] = None,
    backend: Optional[str] = None,
    algos: Optional[Sequence[Optional[str]]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> DstReport:
    """Sweep every (solver, method, distribution) cell under ``seeds``
    perturbation seeds.

    Each cell plays its unperturbed reference schedule, then one run per
    chaos seed held to it (:mod:`repro.verify.trajectory`).
    ``seed_list`` overrides the default ``1..seeds`` range (reproducing a
    recorded failure).  ``distributions`` and ``algos`` (spec strings of
    :func:`repro.simmpi.algos.parse_algos`, ``None`` = direct) add sweep
    axes, each cell with its own reference.  ``obs_export_dir`` writes one
    NDJSON span snapshot per passing run
    (``{solver}-{method}-{distribution}-seed{N}.ndjson``, the reference is
    ``seed0``).  ``kill_at=K`` resumes every perturbed run after its
    step-``K`` check, through a file under ``ckpt_dir`` when given.
    ``backend`` hosts the payload data plane on an execution engine;
    fingerprints and ledgers must not move.
    """
    say = progress if progress is not None else (lambda msg: None)
    chosen = _chosen_seeds(seeds, seed_list)
    algo_specs: List[Optional[str]] = list(algos) if algos else [None]
    failures: List[DstFailure] = []
    trajectories = 0

    for distribution in distributions:
        if distribution not in WORKLOADS:
            raise ValueError(
                f"unknown distribution {distribution!r}; pick from {DST_DISTRIBUTIONS}"
            )
        for solver, method, spec in itertools.product(solvers, methods, algo_specs):
            cell = f"{solver}/{method}/{distribution}"
            if spec is not None:
                cell += f"/{spec}"
            tag = "" if spec is None else "-" + spec.replace("+", "_").replace("=", "-")
            slug = method.replace("+", "_")

            cell_spec = CellSpec(
                solver, method, nprocs, n_particles, seed=system_seed,
                **WORKLOADS[distribution],
            )

            def checked_run(chaos_seed: Optional[int]) -> CheckedRun:
                return build_run(
                    cell_spec, chaos_seed=chaos_seed, backend=backend, algos=spec,
                    spans=obs_export_dir is not None,
                )

            def export(run: CheckedRun, seed: int) -> None:
                if obs_export_dir is None:
                    return
                os.makedirs(obs_export_dir, exist_ok=True)
                meta = {
                    "cell": f"{solver}/{method}/{distribution}",
                    "perturbation": run.machine.trace.notes().get("perturbation", "none"),
                    "chaos_seed": seed,
                }
                name = f"{solver}-{slug}-{distribution}{tag}-seed{seed}.ndjson"
                write_ndjson(os.path.join(obs_export_dir, name), run.recorder, meta=meta)

            say(f"dst: {cell} reference schedule ...")
            template = DstFailure(
                solver, method, 0, "", distribution=distribution, kill_at=kill_at,
                algos=spec, system_seed=system_seed, backend=backend, ckpt_dir=ckpt_dir,
            )
            found = _sweep_seeds(
                checked_run, steps, chosen, template, export,
                kill_at=kill_at, ckpt_dir=ckpt_dir,
            )
            failures.extend(found)
            trajectories += 1 + len(chosen)
            say(f"dst: {cell} {len(chosen)} seeds {'FAILED' if found else 'ok'}")

    return DstReport(
        solvers=tuple(solvers),
        methods=tuple(methods),
        nprocs=nprocs,
        steps=steps,
        particles=n_particles,
        seeds=chosen,
        trajectories=trajectories,
        failures=failures,
        distributions=tuple(distributions),
        algos=tuple(algo_specs),
    )


def run_resume_sweep(
    resume_from: str,
    *,
    steps: int = 3,
    seeds: int = 5,
    seed_list: Optional[Sequence[int]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> DstReport:
    """Resume one saved checkpoint under ``seeds`` perturbation seeds.

    Given a checkpoint file a dead job left behind (``checkpoint_every`` or
    a ``--ckpt-dir`` chaos run), does resuming it give one trajectory on
    any machine?  The unperturbed resume is the reference.
    """
    say = progress if progress is not None else (lambda msg: None)
    ckpt = load_checkpoint(resume_from)
    chosen = _chosen_seeds(seeds, seed_list)
    solver, method, distribution = (
        str(ckpt.config.get(key, "?")) for key in ("solver", "method", "distribution")
    )
    say(
        f"dst: resume {solver}/{method} from {resume_from} "
        f"(step {ckpt.step_index}) — reference schedule ..."
    )
    failures = _sweep_seeds(
        lambda chaos_seed: restore_run(ckpt, chaos_seed=chaos_seed),
        steps,
        chosen,
        DstFailure(
            solver, method, 0, "", distribution=distribution, resume_from=resume_from
        ),
    )
    say(
        f"dst: resume {solver}/{method} {len(chosen)} seeds "
        f"{'FAILED' if failures else 'ok'}"
    )
    return DstReport(
        solvers=(solver,),
        methods=(method,),
        nprocs=ckpt.nprocs,
        steps=steps,
        particles=ckpt.n_particles,
        seeds=chosen,
        trajectories=1 + len(chosen),
        failures=failures,
        distributions=(distribution,),
    )
