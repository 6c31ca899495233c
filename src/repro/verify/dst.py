"""Deterministic simulation testing (DST) of the redistribution stack.

FoundationDB-style chaos testing for the simulated MPI layer: the same
seeded MD trajectory is run once on an unperturbed machine (the *reference
schedule*) and then under ``N`` seeded machine perturbations
(:class:`~repro.simmpi.chaos.Perturbation` — compute jitter, stragglers,
degraded links, extra latency, clock skew, mailbox reordering).  The core
property under test:

    positions, forces, energies, resort outcomes and the communication
    auditor's ledgers are **bitwise identical** across every seed; only the
    virtual clocks and per-phase trace times may differ.

A perturbation can change *when* things happen but never *what* happens —
costs are charged out-of-band of the data plane.  Any coupling from modeled
time back into physics (a real bug class: e.g. an adaptive decision reading
``machine.elapsed()``) breaks the fingerprint and is caught here.  The
``adaptive`` redistribution method intentionally couples cost to behavior
and is therefore excluded from the sweep.

Alongside the MD sweep, an SPMD *order-invariance probe* runs a random
sparse-traffic program (wildcard receives, written order-invariantly)
under every seed's mailbox scheduler, asserting identical results and that
deadlock detection never fires.

Every failure is reported with a one-line repro command, e.g.::

    python -m repro.verify dst --solvers fmm --methods B+move --steps 5 \
        --particles 24 --nprocs 4 --seed-list 17

Run from the command line via ``python -m repro.verify dst --seeds N
--steps K``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.md.distributions import clustered_system
from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.simmpi.chaos import Perturbation
from repro.simmpi.machine import Machine
from repro.simmpi.spmd import SPMDDeadlock, run_spmd
from repro.verify.audit import LEDGERS, enable_auditing
from repro.verify.invariants import InvariantChecker, state_fingerprint

__all__ = [
    "DEFAULT_DISTRIBUTIONS",
    "DEFAULT_METHODS",
    "DEFAULT_SOLVERS",
    "DST_DISTRIBUTIONS",
    "DstFailure",
    "DstReport",
    "ledger_fingerprint",
    "run_dst",
    "run_order_invariance_probe",
    "run_resume_sweep",
]

#: all four registered solvers (the DST default is the full matrix)
DEFAULT_SOLVERS = ("direct", "ewald", "fmm", "p2nfft")

#: redistribution methods under test; "adaptive" is excluded by design — it
#: reads modeled costs to pick its method, so its behavior legitimately
#: depends on the perturbation
DEFAULT_METHODS = ("A", "B", "B+move")

#: the workload axis: ``"homogeneous"`` is the silica-melt analogue;
#: ``"clustered"`` is the two-cluster system run with *dynamic load
#: balancing* at an aggressive trigger — the balance decision reads only
#: nominal (pre-perturbation) rank work, so rebalances must fire at the
#: same steps and produce bitwise-identical physics under every schedule
DST_DISTRIBUTIONS = ("homogeneous", "clustered")

#: default sweep stays on the homogeneous workload (cost); pass
#: ``--distributions clustered`` to exercise the balancing path
DEFAULT_DISTRIBUTIONS = ("homogeneous",)

_PROBE_SALT = 0x0B5E_12E


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
    """One divergence, invariant violation or deadlock under one seed."""

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

    def repro_command(self, *, nprocs: int, steps: int, particles: int) -> str:
        """One-line command reproducing exactly this failing cell.

        Probe failures carry synthetic ``spmd-probe``/``round-N`` labels that
        are not a real (solver, method) cell; the probe runs in every sweep,
        so the repro pins the seed and minimizes the trajectory work around
        it instead of passing the labels through.
        """
        if self.resume_from is not None:
            return (
                f"python -m repro.verify dst --resume-from {self.resume_from} "
                f"--steps {steps} --seed-list {self.seed}"
            )
        if self.solver == "spmd-probe":
            return (
                f"python -m repro.verify dst --solvers direct --methods A "
                f"--steps 1 --particles {particles} --nprocs {nprocs} "
                f"--seed-list {self.seed}"
            )
        kill = f" --kill-at {self.kill_at}" if self.kill_at is not None else ""
        algos = f" --algos {self.algos}" if self.algos is not None else ""
        return (
            f"python -m repro.verify dst --solvers {self.solver} "
            f"--methods {self.method!r} --steps {steps} "
            f"--particles {particles} --nprocs {nprocs} "
            f"--distributions {self.distribution} "
            f"--seed-list {self.seed}{kill}{algos}"
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
    probes: int
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
            f"[{status}] dst: {self.trajectories} trajectories + "
            f"{self.probes} spmd probes, solvers={list(self.solvers)} "
            f"methods={list(self.methods)} "
            f"distributions={list(self.distributions)}{algos} "
            f"seeds={len(self.seeds)} "
            f"steps={self.steps} nprocs={self.nprocs} "
            f"particles={self.particles}"
        )


@dataclasses.dataclass
class _Reference:
    """Reference-schedule fingerprints of one (solver, method) cell."""

    checkpoints: List[Dict[str, str]]
    ledger: str


def _run_cell(
    solver: str,
    method: str,
    nprocs: int,
    *,
    steps: int,
    n_particles: int,
    system_seed: int,
    perturbation: Optional[Perturbation],
    reference: Optional[_Reference],
    solver_kwargs: Optional[dict] = None,
    distribution: str = "homogeneous",
    obs_export_path: Optional[str] = None,
    obs_meta: Optional[Dict[str, object]] = None,
    kill_at: Optional[int] = None,
    ckpt_dir: Optional[str] = None,
    backend: Optional[str] = None,
    algos: Optional[str] = None,
) -> _Reference:
    """Run one trajectory; check against ``reference`` when given.

    The reference run (``reference=None``) asserts the full invariant
    registry after every step and records the fingerprint at every
    checkpoint; perturbed runs assert ``schedule-independence`` against the
    recorded fingerprints (so a divergence is pinned to the first step it
    appears in, per component).

    ``distribution="clustered"`` swaps in the two-cluster system and turns
    on dynamic load balancing with an aggressive trigger, so the weighted
    repartition runs inside the perturbed schedule — the monitor reads
    only nominal work, hence the fingerprints must not move.

    ``obs_export_path`` attaches a span recorder (:mod:`repro.obs`) and, on
    success, writes the perturbation-tagged NDJSON snapshot there.  The
    recorder observes clocks out-of-band, so fingerprints are unaffected.

    ``kill_at=K`` kills *perturbed* trajectories right after the step-``K``
    fingerprint check: the simulation is checkpointed (through an NDJSON
    file round-trip when ``ckpt_dir`` is given), destroyed, and restored
    onto a fresh machine under the *same* perturbation — the resumed
    trajectory must then keep matching the uninterrupted reference
    schedule's fingerprints and final ledger.  This is the chaos-resume
    workflow: kill + restore is itself a schedule event and must not move
    the physics.  The reference run (``reference=None``) is never killed.
    """
    if distribution not in DST_DISTRIBUTIONS:
        raise ValueError(
            f"unknown distribution {distribution!r}; pick from {DST_DISTRIBUTIONS}"
        )
    if kill_at is not None and not 0 <= kill_at <= steps:
        raise ValueError(
            f"kill_at must be within 0..steps ({steps}), got {kill_at!r}"
        )
    machine = Machine(nprocs)
    if backend is not None:
        from repro.backend import resolve_backend

        machine.attach_backend(resolve_backend(backend))
    recorder = None
    if obs_export_path is not None:
        from repro.obs import enable_observability

        recorder = enable_observability(machine)
    balance_kwargs: Dict = {}
    if distribution == "clustered":
        system = clustered_system("two-cluster", n_particles, seed=system_seed)
        balance_kwargs = dict(
            load_balance="dynamic",
            balance_trigger=1.02,
            balance_rearm=1.01,
            capacity_factor=6.0,
        )
        if solver == "fmm":
            solver_kwargs = dict(solver_kwargs or {}, work_model="density")
    else:
        system = silica_melt_system(n_particles, seed=system_seed)
    config = SimulationConfig(
        solver=solver,
        method=method,
        seed=system_seed,
        track_energy=True,
        solver_kwargs=dict(solver_kwargs or {}),
        perturbation=perturbation,
        collective_algos=algos,
        **balance_kwargs,
    )
    sim = Simulation(machine, system, config)
    auditor = enable_auditing(machine)
    checker = InvariantChecker(sim)

    checkpoints: List[Dict[str, str]] = []

    def checkpoint(k: int) -> None:
        if reference is None:
            checkpoints.append(state_fingerprint(sim))
            checker.assert_ok()
        else:
            checker.expected_fingerprint = reference.checkpoints[k]
            checker.assert_ok(["schedule-independence"])

    def maybe_kill(k: int) -> None:
        """Kill + checkpoint-resume this (perturbed) trajectory at step k."""
        nonlocal sim, machine, auditor, checker, recorder
        if kill_at is None or k != kill_at or reference is None:
            return
        from repro.ckpt import (
            capture_checkpoint,
            load_checkpoint,
            restore_simulation,
            write_checkpoint,
        )

        if ckpt_dir is not None:
            os.makedirs(ckpt_dir, exist_ok=True)
            slug = method.replace("+", "_")
            path = os.path.join(
                ckpt_dir, f"{solver}-{slug}-kill{k}.ckpt.ndjson"
            )
            write_checkpoint(capture_checkpoint(sim), path)
            ckpt = load_checkpoint(path)
        else:
            ckpt = capture_checkpoint(sim)
        sim.fcs.destroy()
        machine = Machine(nprocs)
        if backend is not None:
            from repro.backend import resolve_backend

            machine.attach_backend(resolve_backend(backend))
        if recorder is not None:
            from repro.obs import enable_observability

            recorder = enable_observability(machine)
        auditor = enable_auditing(machine)
        sim = restore_simulation(ckpt, machine=machine, perturbation=perturbation)
        checker = InvariantChecker(sim)

    try:
        sim.initialize()
        checkpoint(0)
        maybe_kill(0)
        for k in range(steps):
            sim.step()
            checkpoint(k + 1)
            maybe_kill(k + 1)
        ledger = ledger_fingerprint(auditor)
        if reference is not None and ledger != reference.ledger:
            raise AssertionError(
                "auditor ledger fingerprint diverged from the reference schedule "
                f"(perturbation [{machine.trace.notes().get('perturbation', '?')}])"
            )
    finally:
        sim.fcs.destroy()
    if recorder is not None:
        from repro.obs import write_ndjson

        meta: Dict[str, object] = {
            "cell": f"{solver}/{method}/{distribution}",
            "perturbation": machine.trace.notes().get("perturbation", "none"),
        }
        meta.update(obs_meta or {})
        write_ndjson(obs_export_path, recorder, meta=meta)
    return _Reference(checkpoints=checkpoints, ledger=ledger)


# -- SPMD order-invariance probe ---------------------------------------------


def _probe_program(ctx, sends, expected):
    """Random sparse traffic consumed through wildcard receives.

    Written order-invariantly: the received multiset is sorted before use,
    so any legal delivery order must yield the same return value.
    """
    for dst, value in sends:
        ctx.send(dst, float(value), tag=1)
    received = [float(ctx.recv()) for _ in range(expected)]
    received.sort()
    total = ctx.allreduce(sum(received))
    return received, total


def _probe_traffic(nprocs: int, rng: np.random.Generator):
    """A random sparse traffic pattern plus per-rank receive counts."""
    sends: List[List[Tuple[int, float]]] = [[] for _ in range(nprocs)]
    expected = [0] * nprocs
    n_messages = int(rng.integers(nprocs, 4 * nprocs + 1))
    for _ in range(n_messages):
        src = int(rng.integers(nprocs))
        dst = int(rng.integers(nprocs))
        value = float(np.round(rng.uniform(0.0, 100.0), 6))
        sends[src].append((dst, value))
        expected[dst] += 1
    return sends, expected


def run_order_invariance_probe(
    nprocs: int,
    seeds: Sequence[int],
    *,
    rounds: int = 3,
    system_seed: int = 0,
) -> List[DstFailure]:
    """Run the wildcard-receive probe under every seed's scheduler.

    The traffic pattern is fixed per round (drawn from ``system_seed``, not
    the perturbation seed); only the delivery/wake schedule varies.  Results
    must match the unperturbed run exactly and deadlock detection must
    never fire.
    """
    failures: List[DstFailure] = []
    for rnd in range(rounds):
        rng = np.random.default_rng([_PROBE_SALT, system_seed, rnd])
        sends, expected = _probe_traffic(nprocs, rng)

        def run_once(perturbation: Optional[Perturbation]):
            machine = (
                Machine(nprocs, perturbation=perturbation)
                if perturbation is not None
                else Machine(nprocs)
            )
            return run_spmd(machine, _probe_program, sends, expected)

        reference = run_once(None)
        for seed in seeds:
            if seed == 0:
                continue
            try:
                result = run_once(Perturbation.sample(seed))
            except SPMDDeadlock as exc:
                failures.append(
                    DstFailure(
                        solver="spmd-probe",
                        method=f"round-{rnd}",
                        seed=seed,
                        detail=f"deadlock detector fired: {exc}",
                    )
                )
                continue
            if result != reference:
                failures.append(
                    DstFailure(
                        solver="spmd-probe",
                        method=f"round-{rnd}",
                        seed=seed,
                        detail=(
                            "wildcard-receive results diverged from the "
                            "reference schedule"
                        ),
                    )
                )
    return failures


# -- the sweep ----------------------------------------------------------------


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
    probe_rounds: int = 3,
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

    ``seed_list`` overrides the default ``1..seeds`` range (reproducing a
    recorded failure).  Seed 0 is the null perturbation and is always the
    reference; listing it explicitly re-checks byte-identity of the null
    perturbation against the unperturbed reference.
    ``distributions`` extends the sweep along the workload axis — pass
    ``("clustered",)`` (or both) to chaos-test the dynamic load balancer.
    ``obs_export_dir`` writes one chaos-seed-tagged NDJSON span snapshot
    per trajectory (``{solver}-{method}-{distribution}-seed{N}.ndjson``;
    the reference schedule is ``seed0``).
    ``kill_at=K`` kills every *perturbed* trajectory after its step-``K``
    fingerprint check and resumes it from a :mod:`repro.ckpt` checkpoint
    (written under ``ckpt_dir`` when given, else in-memory); the resumed
    trajectory is still held to the uninterrupted reference's fingerprints
    and ledger — the chaos-resume property.
    ``backend`` routes every trajectory's payload data plane through the
    named execution engine (``"process"`` / ``"process:N"``); fingerprints
    and ledgers are backend-independent, so the sweep's assertions are
    unchanged — running it under the process engine differentially tests
    the shared-memory transport against the chaos schedules.
    ``algos`` extends the sweep along the collective-algorithm axis: each
    entry is a :func:`repro.simmpi.algos.parse_algos` spec string (``None``
    meaning the direct default) and gets its own reference schedule —
    staged algorithms change modeled clocks and message counts, but within
    one spec the chaos property holds unchanged.
    """
    say = progress if progress is not None else (lambda msg: None)
    chosen = list(seed_list) if seed_list is not None else list(range(1, seeds + 1))
    algo_specs: List[Optional[str]] = list(algos) if algos else [None]
    failures: List[DstFailure] = []
    trajectories = 0

    def obs_path(
        solver: str, method: str, distribution: str, spec: Optional[str], seed: int
    ):
        if obs_export_dir is None:
            return None
        os.makedirs(obs_export_dir, exist_ok=True)
        slug = method.replace("+", "_")
        tag = ""
        if spec is not None:
            tag = "-" + spec.replace("+", "_").replace("=", "-")
        return os.path.join(
            obs_export_dir,
            f"{solver}-{slug}-{distribution}{tag}-seed{seed}.ndjson",
        )

    for distribution in distributions:
        for solver in solvers:
            for method in methods:
                for spec in algo_specs:
                    cell = f"{solver}/{method}/{distribution}"
                    if spec is not None:
                        cell += f"/{spec}"
                    say(f"dst: {cell} reference schedule ...")
                    reference = _run_cell(
                        solver,
                        method,
                        nprocs,
                        steps=steps,
                        n_particles=n_particles,
                        system_seed=system_seed,
                        perturbation=None,
                        reference=None,
                        distribution=distribution,
                        obs_export_path=obs_path(
                            solver, method, distribution, spec, 0
                        ),
                        obs_meta={"chaos_seed": 0},
                        backend=backend,
                        algos=spec,
                    )
                    trajectories += 1
                    for seed in chosen:
                        perturbation = Perturbation.sample(seed)
                        try:
                            _run_cell(
                                solver,
                                method,
                                nprocs,
                                steps=steps,
                                n_particles=n_particles,
                                system_seed=system_seed,
                                perturbation=perturbation,
                                reference=reference,
                                distribution=distribution,
                                obs_export_path=obs_path(
                                    solver, method, distribution, spec, seed
                                ),
                                obs_meta={"chaos_seed": seed},
                                kill_at=kill_at,
                                ckpt_dir=ckpt_dir,
                                backend=backend,
                                algos=spec,
                            )
                        except SPMDDeadlock as exc:
                            failures.append(
                                DstFailure(
                                    solver, method, seed, f"deadlock: {exc}",
                                    distribution=distribution, kill_at=kill_at,
                                    algos=spec,
                                )
                            )
                        except AssertionError as exc:
                            failures.append(
                                DstFailure(
                                    solver, method, seed, str(exc),
                                    distribution=distribution, kill_at=kill_at,
                                    algos=spec,
                                )
                            )
                        trajectories += 1
                    failed_cell = any(
                        f.solver == solver
                        and f.method == method
                        and f.distribution == distribution
                        and f.algos == spec
                        for f in failures
                    )
                    say(
                        f"dst: {cell} {len(chosen)} seeds "
                        f"{'FAILED' if failed_cell else 'ok'}"
                    )

    probe_failures = run_order_invariance_probe(
        nprocs, chosen, rounds=probe_rounds, system_seed=system_seed
    )
    failures.extend(probe_failures)
    probes = probe_rounds * (1 + sum(1 for s in chosen if s != 0))

    return DstReport(
        solvers=tuple(solvers),
        methods=tuple(methods),
        nprocs=nprocs,
        steps=steps,
        particles=n_particles,
        seeds=chosen,
        trajectories=trajectories,
        probes=probes,
        failures=failures,
        distributions=tuple(distributions),
        algos=tuple(algo_specs),
    )


# -- checkpoint-resume sweep ---------------------------------------------------


def run_resume_sweep(
    resume_from: str,
    *,
    steps: int = 3,
    seeds: int = 5,
    seed_list: Optional[Sequence[int]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> DstReport:
    """Resume one saved checkpoint under ``seeds`` perturbation seeds.

    The operational recovery question DST cannot answer from fresh starts
    alone: given a checkpoint file a dead job left behind (e.g. from
    ``SimulationConfig.checkpoint_every`` or a ``--ckpt-dir`` chaos run),
    does resuming it give one trajectory, regardless of the machine the
    resumed job lands on?  The **null-perturbation resume is the
    reference**: it runs with the full invariant registry asserted after
    every step and records per-step fingerprints and the final ledger;
    every perturbed resume is then held to those via
    ``schedule-independence``.  Failures carry a one-line
    ``--resume-from`` repro command.
    """
    from repro.ckpt import load_checkpoint, restore_simulation

    say = progress if progress is not None else (lambda msg: None)
    ckpt = load_checkpoint(resume_from)
    chosen = list(seed_list) if seed_list is not None else list(range(1, seeds + 1))
    solver = str(ckpt.config.get("solver", "?"))
    method = str(ckpt.config.get("method", "?"))
    distribution = str(ckpt.config.get("distribution", "?"))
    failures: List[DstFailure] = []

    def run_once(
        perturbation: Optional[Perturbation], reference: Optional[_Reference]
    ) -> _Reference:
        machine = Machine(ckpt.nprocs)
        auditor = enable_auditing(machine)
        sim = restore_simulation(ckpt, machine=machine, perturbation=perturbation)
        checker = InvariantChecker(sim)
        checkpoints: List[Dict[str, str]] = []
        try:
            if not ckpt.initialized:
                sim.initialize()
            for k in range(steps):
                sim.step()
                if reference is None:
                    checkpoints.append(state_fingerprint(sim))
                    checker.assert_ok()
                else:
                    checker.expected_fingerprint = reference.checkpoints[k]
                    checker.assert_ok(["schedule-independence"])
            ledger = ledger_fingerprint(auditor)
            if reference is not None and ledger != reference.ledger:
                raise AssertionError(
                    "auditor ledger fingerprint of the resumed run diverged "
                    "from the null-perturbation resume"
                )
        finally:
            sim.fcs.destroy()
        return _Reference(checkpoints=checkpoints, ledger=ledger)

    say(
        f"dst: resume {solver}/{method} from {resume_from} "
        f"(step {ckpt.step_index}) — reference schedule ..."
    )
    reference = run_once(None, None)
    trajectories = 1
    for seed in chosen:
        perturbation = Perturbation.sample(seed) if seed != 0 else None
        try:
            run_once(perturbation, reference)
        except SPMDDeadlock as exc:
            failures.append(
                DstFailure(
                    solver, method, seed, f"deadlock: {exc}",
                    distribution=distribution, resume_from=resume_from,
                )
            )
        except AssertionError as exc:
            failures.append(
                DstFailure(
                    solver, method, seed, str(exc),
                    distribution=distribution, resume_from=resume_from,
                )
            )
        trajectories += 1
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
        trajectories=trajectories,
        probes=0,
        failures=failures,
        distributions=(distribution,),
    )
