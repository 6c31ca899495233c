"""Capture, save and load full-simulation checkpoints.

A :class:`Checkpoint` is a *plain-data* snapshot of everything a
:class:`~repro.md.simulation.Simulation` needs to continue byte-identically:
per-rank particle columns (positions, charges, potentials, fields,
velocities, accelerations, global ids, capacities), the solver handle's
resort state (last :class:`~repro.solvers.base.RunReport` including the
packed resort indices that key the :class:`~repro.core.plan.ResortPlan`
cache), the application RNG, the adaptive-method and load-balance
bookkeeping, the step records, and the machine's clocks / trace / auditor
ledgers.

Capturing is an **out-of-band observer** operation, like
:meth:`Simulation.gather_state <repro.md.simulation.Simulation.gather_state>`:
it charges nothing to the machine, so a run with ``checkpoint_every`` set
produces bit-identical trajectories and traces to one without.

The on-disk format is deterministic NDJSON (see :mod:`repro.ckpt.format`):
one ``kind``-tagged object per line, sorted keys, ``float.hex`` bit
patterns, hex-encoded array buffers.  ``save → load`` round-trips every
field bit-exactly, and saving the same checkpoint twice produces identical
bytes.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import os
from typing import Any, Dict, List, Optional

import numpy as np

from repro.ckpt.format import (
    CKPT_VERSION,
    decode_value,
    dumps,
    encode_value,
    read_lines,
    write_lines,
)
from repro.simmpi.tracing import PhaseStats

__all__ = [
    "Checkpoint",
    "capture_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "write_checkpoint",
]

#: per-rank particle columns carried by every checkpoint, in fused-exchange
#: order (the resize plan moves exactly these, plus ids, in one exchange)
COLUMNS = ("pos", "q", "pot", "field", "vel", "acc", "ids")


def _phases_to_plain(phases: Dict[str, PhaseStats]) -> Dict[str, Dict[str, Any]]:
    return {
        label: {
            "time": stats.time,
            "messages": stats.messages,
            "bytes": stats.bytes,
            "calls": stats.calls,
            "wall_ns": stats.wall_ns,
            "alloc_bytes": stats.alloc_bytes,
        }
        for label, stats in phases.items()
    }


def _plain_to_phases(plain: Dict[str, Dict[str, Any]]) -> Dict[str, PhaseStats]:
    return {
        label: PhaseStats(
            time=float(d["time"]),
            messages=int(d["messages"]),
            bytes=int(d["bytes"]),
            calls=int(d["calls"]),
            wall_ns=int(d.get("wall_ns", 0)),
            alloc_bytes=int(d.get("alloc_bytes", 0)),
        )
        for label, d in plain.items()
    }


def _record_to_plain(record) -> Dict[str, Any]:
    return {
        "step": record.step,
        "phases": _phases_to_plain(record.phases),
        "total_time": record.total_time,
        "max_move": record.max_move,
        "changed": record.changed,
        "strategy": record.strategy,
        "method": record.method,
        "energy": record.energy,
        "lambda_factor": record.lambda_factor,
    }


def _plain_to_record(plain: Dict[str, Any]):
    from repro.md.simulation import StepRecord

    return StepRecord(
        step=int(plain["step"]),
        phases=_plain_to_phases(plain["phases"]),
        total_time=float(plain["total_time"]),
        max_move=float(plain["max_move"]),
        changed=bool(plain["changed"]),
        strategy=str(plain["strategy"]),
        method=str(plain["method"]),
        energy=None if plain["energy"] is None else float(plain["energy"]),
        lambda_factor=(
            None
            if plain["lambda_factor"] is None
            else float(plain["lambda_factor"])
        ),
    )


@dataclasses.dataclass
class Checkpoint:
    """A complete, plain-data simulation snapshot (see module docstring).

    All fields are numpy arrays, plain Python scalars/containers, or plain
    dicts of those — nothing references live simulation objects, so a held
    checkpoint is immune to the donor simulation continuing to run.
    """

    nprocs: int
    step_index: int
    initialized: bool
    active_method: str
    #: :class:`~repro.md.simulation.SimulationConfig` fields by name,
    #: *except* ``perturbation`` (a chaos schedule is a property of one
    #: machine execution, not of the physical state being resumed)
    config: Dict[str, Any]
    box: np.ndarray
    offset: np.ndarray
    pos: List[np.ndarray]
    q: List[np.ndarray]
    pot: List[np.ndarray]
    field: List[np.ndarray]
    vel: List[np.ndarray]
    acc: List[np.ndarray]
    ids: List[np.ndarray]
    capacities: List[int]
    rng_state: Dict[str, Any]
    #: plain step-record dicts (phases as plain stat dicts)
    records: List[Dict[str, Any]]
    last_max_move: Optional[float]
    #: adaptive-method bookkeeping: trial, method_costs, switch_transient
    adaptive: Dict[str, Any]
    #: solver-handle resort state: resort_requested, has_plan (whether a
    #: compiled ResortPlan was cached — its *key*, the last report's resort
    #: indices, is stored in ``report`` and the plan is recompiled from it
    #: on restore), and the last RunReport as a plain dict (or ``None``)
    fcs_state: Dict[str, Any]
    #: solver load-balance state: load_balance mode, rebalance_pending
    solver_state: Dict[str, Any]
    #: :meth:`ImbalanceMonitor.state_dict` (or ``None``)
    monitor: Optional[Dict[str, Any]]
    clocks: np.ndarray
    #: :meth:`Trace.state_dict` with plain phase dicts
    trace: Dict[str, Any]
    #: :meth:`CommAuditor.state_dict` with plain ledger dicts (or ``None``)
    auditor: Optional[Dict[str, Any]]
    #: Berendsen thermostat parameters (target/tau/dt), if the driver uses
    #: one (the thermostat itself is stateless between applications)
    thermostat: Optional[Dict[str, Any]] = None
    version: int = CKPT_VERSION

    # -- derived views ----------------------------------------------------------

    @property
    def n_particles(self) -> int:
        return int(sum(p.shape[0] for p in self.pos))

    def columns(self, name: str) -> List[np.ndarray]:
        """The per-rank arrays of one checkpointed column."""
        if name not in COLUMNS:
            raise KeyError(f"unknown column {name!r}, have {COLUMNS}")
        return getattr(self, name)

    def gathered(self) -> Dict[str, np.ndarray]:
        """Global, id-ordered view of every particle column.

        The rank-count-independent canonical form: two checkpoints of the
        same physical state at different rank counts gather identically.
        """
        ids = np.concatenate(self.ids) if self.nprocs else np.zeros(0, np.int64)
        order = np.argsort(ids, kind="stable")
        out = {"ids": ids[order]}
        for name in COLUMNS:
            if name == "ids":
                continue
            arrs = self.columns(name)
            out[name] = np.concatenate(arrs)[order]
        return out

    def make_config(self, perturbation=None):
        """Rebuild the :class:`SimulationConfig` (optionally perturbed)."""
        from repro.md.simulation import SimulationConfig

        fields = dict(self.config)
        # retired knob: checkpoints written before its removal carry it; the
        # fused exchange it defaulted to is now the only resort path
        if not fields.pop("fuse_resort", True):
            raise ValueError(
                "checkpoint was written with the retired SimulationConfig field "
                "fuse_resort=False; the per-column resort path no longer exists. "
                "Trajectories are identical on the fused path: delete the field "
                "from the checkpoint's config record to continue there"
            )
        fields["solver_kwargs"] = copy.deepcopy(fields.get("solver_kwargs", {}))
        fields["balance_phases"] = tuple(fields.get("balance_phases", ()))
        return SimulationConfig(perturbation=perturbation, **fields)

    # -- NDJSON (de)serialization -------------------------------------------------

    def to_lines(self) -> List[str]:
        """Deterministic NDJSON lines (meta header first, obs convention)."""
        recs: List[dict] = [
            {
                "kind": "meta",
                "format": "repro.ckpt",
                "version": self.version,
                "nprocs": self.nprocs,
                "step": self.step_index,
                "n_particles": self.n_particles,
            },
            {"kind": "config", "data": encode_value(self.config)},
            {
                "kind": "system",
                "data": encode_value({"box": self.box, "offset": self.offset}),
            },
        ]
        for r in range(self.nprocs):
            recs.append(
                {
                    "kind": "rank",
                    "rank": r,
                    "data": encode_value(
                        {
                            "pos": self.pos[r],
                            "q": self.q[r],
                            "pot": self.pot[r],
                            "field": self.field[r],
                            "vel": self.vel[r],
                            "acc": self.acc[r],
                            "ids": self.ids[r],
                            "capacity": self.capacities[r],
                        }
                    ),
                }
            )
        recs.extend(
            [
                {"kind": "records", "data": encode_value(self.records)},
                {
                    "kind": "sim",
                    "data": encode_value(
                        {
                            "step_index": self.step_index,
                            "initialized": self.initialized,
                            "active_method": self.active_method,
                            "last_max_move": self.last_max_move,
                            "adaptive": self.adaptive,
                            "rng_state": self.rng_state,
                        }
                    ),
                },
                {"kind": "fcs", "data": encode_value(self.fcs_state)},
                {"kind": "solver", "data": encode_value(self.solver_state)},
                {"kind": "monitor", "data": encode_value(self.monitor)},
                {
                    "kind": "machine",
                    "data": encode_value(
                        {"clocks": self.clocks, "trace": self.trace}
                    ),
                },
                {"kind": "auditor", "data": encode_value(self.auditor)},
                {"kind": "thermostat", "data": encode_value(self.thermostat)},
            ]
        )
        return [dumps(rec) for rec in recs]

    @classmethod
    def from_records(cls, parsed: List[dict]) -> "Checkpoint":
        by_kind: Dict[str, dict] = {}
        ranks: Dict[int, dict] = {}
        for rec in parsed:
            kind = rec.get("kind")
            if kind == "rank":
                ranks[int(rec["rank"])] = decode_value(rec["data"])
            else:
                by_kind[kind] = rec
        meta = by_kind.get("meta")
        if meta is None or meta.get("format") != "repro.ckpt":
            raise ValueError("not a repro.ckpt checkpoint (missing meta header)")
        if int(meta["version"]) > CKPT_VERSION:
            raise ValueError(
                f"checkpoint version {meta['version']} is newer than the "
                f"supported {CKPT_VERSION}"
            )
        nprocs = int(meta["nprocs"])
        missing = sorted(set(range(nprocs)) - set(ranks))
        if missing:
            raise ValueError(f"checkpoint is missing rank line(s) {missing}")
        system = decode_value(by_kind["system"]["data"])
        sim = decode_value(by_kind["sim"]["data"])
        return cls(
            nprocs=nprocs,
            step_index=int(sim["step_index"]),
            initialized=bool(sim["initialized"]),
            active_method=str(sim["active_method"]),
            config=decode_value(by_kind["config"]["data"]),
            box=system["box"],
            offset=system["offset"],
            pos=[ranks[r]["pos"] for r in range(nprocs)],
            q=[ranks[r]["q"] for r in range(nprocs)],
            pot=[ranks[r]["pot"] for r in range(nprocs)],
            field=[ranks[r]["field"] for r in range(nprocs)],
            vel=[ranks[r]["vel"] for r in range(nprocs)],
            acc=[ranks[r]["acc"] for r in range(nprocs)],
            ids=[ranks[r]["ids"] for r in range(nprocs)],
            capacities=[int(ranks[r]["capacity"]) for r in range(nprocs)],
            rng_state=sim["rng_state"],
            records=decode_value(by_kind["records"]["data"]),
            last_max_move=sim["last_max_move"],
            adaptive=sim["adaptive"],
            fcs_state=decode_value(by_kind["fcs"]["data"]),
            solver_state=decode_value(by_kind["solver"]["data"]),
            monitor=decode_value(by_kind["monitor"]["data"]),
            clocks=decode_value(by_kind["machine"]["data"])["clocks"],
            trace=decode_value(by_kind["machine"]["data"])["trace"],
            auditor=decode_value(by_kind["auditor"]["data"]),
            thermostat=decode_value(by_kind["thermostat"]["data"]),
            version=int(meta["version"]),
        )

    @classmethod
    def from_columns(
        cls,
        pos: List[np.ndarray],
        q: List[np.ndarray],
        ids: List[np.ndarray],
        *,
        box: np.ndarray,
        offset: Optional[np.ndarray] = None,
        pot: Optional[List[np.ndarray]] = None,
        field: Optional[List[np.ndarray]] = None,
        vel: Optional[List[np.ndarray]] = None,
        acc: Optional[List[np.ndarray]] = None,
        capacities: Optional[List[int]] = None,
        config: Optional[Dict[str, Any]] = None,
    ) -> "Checkpoint":
        """Build a minimal valid checkpoint from raw per-rank columns.

        A convenience for the resize machinery and its tests: only the
        particle columns and the box are physical inputs; all bookkeeping
        starts from a fresh-simulation default.
        """
        from repro.md.simulation import SimulationConfig

        nprocs = len(pos)
        as_f = lambda a: np.ascontiguousarray(a, dtype=np.float64)
        pos = [as_f(p).reshape(-1, 3) for p in pos]
        counts = [p.shape[0] for p in pos]
        q = [as_f(c).reshape(-1) for c in q]
        ids = [np.ascontiguousarray(i, dtype=np.int64).reshape(-1) for i in ids]

        def _cols(given, shape3: bool):
            if given is not None:
                return [as_f(a).reshape(-1, 3) if shape3 else as_f(a).reshape(-1)
                        for a in given]
            return [
                np.zeros((n, 3)) if shape3 else np.zeros(n) for n in counts
            ]

        cfg = SimulationConfig() if config is None else None
        config_fields = config if config is not None else {
            f.name: getattr(cfg, f.name)
            for f in dataclasses.fields(cfg)
            if f.name != "perturbation"
        }
        if config is None:
            config_fields["balance_phases"] = list(cfg.balance_phases)
        n = int(sum(counts))
        if capacities is None:
            per_rank = max(1, -(-n // max(nprocs, 1)))
            cap = int(np.ceil(float(config_fields.get("capacity_factor", 3.0)) * per_rank))
            capacities = [max(cap, c) for c in counts]
        return cls(
            nprocs=nprocs,
            step_index=0,
            initialized=False,
            active_method=str(config_fields.get("method", "A")).replace(
                "adaptive", "B"
            ),
            config=config_fields,
            box=as_f(box).reshape(3),
            offset=(
                np.zeros(3) if offset is None else as_f(offset).reshape(3)
            ),
            pos=pos,
            q=q,
            pot=_cols(pot, shape3=False),
            field=_cols(field, shape3=True),
            vel=_cols(vel, shape3=True),
            acc=_cols(acc, shape3=True),
            ids=ids,
            capacities=[int(c) for c in capacities],
            rng_state=np.random.default_rng(
                int(config_fields.get("seed", 0)) + 7919
            ).bit_generator.state,
            records=[],
            last_max_move=None,
            adaptive={"trial": None, "method_costs": {}, "switch_transient": False},
            fcs_state={"resort_requested": False, "has_plan": False, "report": None},
            solver_state={"load_balance": "off", "rebalance_pending": False},
            monitor=None,
            clocks=np.zeros(nprocs),
            trace={"phases": {}, "counters": {}, "notes": {}, "rank_work": {}},
            auditor=None,
            thermostat=None,
        )


def capture_checkpoint(sim, *, thermostat=None) -> Checkpoint:
    """Snapshot a live simulation into a :class:`Checkpoint`.

    Pure observation: everything is deep-copied and **no machine cost is
    charged**, so capturing mid-run leaves the trajectory, trace and
    ledgers untouched.  ``thermostat`` optionally records a
    :class:`~repro.md.thermostat.BerendsenThermostat`'s parameters.
    """
    machine = sim.machine
    cfg = sim.config
    config = {
        f.name: copy.deepcopy(getattr(cfg, f.name))
        for f in dataclasses.fields(cfg)
        if f.name not in ("perturbation", "backend")
    }
    config["balance_phases"] = list(cfg.balance_phases)
    # a live backend instance is host machinery, not simulation state:
    # persist the engine spec string so a restore on any host (or under a
    # different engine) rebuilds an equivalent run
    from repro.backend import backend_spec

    config["backend"] = backend_spec(cfg.backend)

    fcs = sim.fcs
    report = fcs._last_report
    report_state = None
    if report is not None:
        report_state = {
            "changed": report.changed,
            "resort_indices": (
                None
                if report.resort_indices is None
                else [np.asarray(a, dtype=np.int64).copy() for a in report.resort_indices]
            ),
            "old_counts": (
                None
                if report.old_counts is None
                else np.asarray(report.old_counts, dtype=np.int64).copy()
            ),
            "new_counts": (
                None
                if report.new_counts is None
                else np.asarray(report.new_counts, dtype=np.int64).copy()
            ),
            "strategy": report.strategy,
            "comm": report.comm,
            "rank_work": (
                None
                if report.rank_work is None
                else np.asarray(report.rank_work, dtype=np.float64).copy()
            ),
        }
    solver = fcs.solver
    trace_state = machine.trace.state_dict()
    auditor = machine.auditor
    auditor_state = None
    if auditor is not None:
        raw = auditor.state_dict()
        auditor_state = {
            "ledger": {
                k: {"messages": v.messages, "bytes": v.bytes}
                for k, v in raw["ledger"].items()
            },
            "plan_ledger": {
                k: {"messages": v.messages, "bytes": v.bytes}
                for k, v in raw["plan_ledger"].items()
            },
            "algo_ledger": {
                k: {"messages": v.messages, "bytes": v.bytes}
                for k, v in raw["algo_ledger"].items()
            },
            "algo_round_ledger": {
                k: {"messages": v.messages, "bytes": v.bytes}
                for k, v in raw["algo_round_ledger"].items()
            },
            "algo_counts": dict(raw["algo_counts"]),
            "n_algo_calls": raw["n_algo_calls"],
            "trace_baseline": _phases_to_plain(raw["trace_baseline"]),
            "pending_sends": [list(t) for t in raw["pending_sends"]],
            "violations": raw["violations"],
            "n_plan_compiles": raw["n_plan_compiles"],
            "n_plan_executions": raw["n_plan_executions"],
            "n_plan_fused_columns": raw["n_plan_fused_columns"],
            "n_alltoall_calls": raw["n_alltoall_calls"],
            "n_p2p_calls": raw["n_p2p_calls"],
        }

    ckpt = Checkpoint(
        nprocs=machine.nprocs,
        step_index=sim.step_index,
        initialized=sim._initialized,
        active_method=sim.active_method,
        config=config,
        box=np.asarray(sim.system.box, dtype=np.float64).copy(),
        offset=np.asarray(sim.system.offset, dtype=np.float64).copy(),
        pos=[a.copy() for a in sim.particles.pos],
        q=[a.copy() for a in sim.particles.q],
        pot=[a.copy() for a in sim.particles.pot],
        field=[a.copy() for a in sim.particles.field],
        vel=[a.copy() for a in sim.vel],
        acc=[a.copy() for a in sim.acc],
        ids=[a.copy() for a in sim.ids],
        capacities=list(sim.particles.capacities),
        rng_state=copy.deepcopy(sim._rng.bit_generator.state),
        records=[_record_to_plain(r) for r in sim.records],
        last_max_move=sim._last_max_move,
        adaptive={
            "trial": sim._adaptive_trial,
            "method_costs": dict(sim._method_costs),
            "switch_transient": sim._switch_transient,
        },
        fcs_state={
            "resort_requested": fcs._resort_requested,
            "has_plan": fcs._plan is not None,
            "report": report_state,
        },
        solver_state={
            "load_balance": solver._load_balance,
            "rebalance_pending": solver._rebalance_pending,
        },
        monitor=(
            None if sim.balance_monitor is None else sim.balance_monitor.state_dict()
        ),
        clocks=machine.clocks.copy(),
        trace={
            "phases": _phases_to_plain(trace_state["phases"]),
            "counters": trace_state["counters"],
            "notes": trace_state["notes"],
            "rank_work": trace_state["rank_work"],
        },
        auditor=auditor_state,
        thermostat=(
            None
            if thermostat is None
            else {
                "target": thermostat.target,
                "tau": thermostat.tau,
                "dt": thermostat.dt,
            }
        ),
    )
    return ckpt


def write_checkpoint(ckpt: Checkpoint, path: str) -> int:
    """Write a checkpoint file; returns the bytes written."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    buf = io.StringIO()
    nbytes = write_lines(buf, ckpt.to_lines())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    return nbytes


def save_checkpoint(sim, path: str, *, thermostat=None) -> int:
    """Capture ``sim`` and write it to ``path``; returns the bytes written.

    Feeds the ``ckpt.saves`` / ``ckpt.save_bytes`` metrics and a
    ``ckpt.save`` structural span when an
    :class:`~repro.obs.spans.ObsRecorder` is attached (the span brackets
    zero machine time — saving is cost-free by design).
    """
    from repro.obs.spans import machine_span

    obs = sim.machine.obs
    if obs is not None:
        with machine_span(
            sim.machine, "ckpt.save", op="ckpt.save", step=sim.step_index
        ):
            ckpt = capture_checkpoint(sim, thermostat=thermostat)
            nbytes = write_checkpoint(ckpt, path)
        obs.metrics.counter("ckpt.saves").inc()
        obs.metrics.counter("ckpt.save_bytes").inc(nbytes)
    else:
        ckpt = capture_checkpoint(sim, thermostat=thermostat)
        nbytes = write_checkpoint(ckpt, path)
    return nbytes


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint file back into a :class:`Checkpoint`, bit-exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        return Checkpoint.from_records(list(read_lines(fh)))


def restore_trace_state(trace_plain: Dict[str, Any]) -> Dict[str, Any]:
    """Convert a checkpoint's plain trace section back into the live-object
    form :meth:`Trace.load_state <repro.simmpi.tracing.Trace.load_state>`
    expects."""
    return {
        "phases": _plain_to_phases(trace_plain.get("phases", {})),
        "counters": dict(trace_plain.get("counters", {})),
        "notes": dict(trace_plain.get("notes", {})),
        "rank_work": {
            k: np.asarray(v, dtype=np.float64)
            for k, v in trace_plain.get("rank_work", {}).items()
        },
    }


def restore_auditor_state(auditor_plain: Dict[str, Any]) -> Dict[str, Any]:
    """Convert a checkpoint's plain auditor section back into the form
    :meth:`CommAuditor.load_state <repro.verify.audit.CommAuditor.load_state>`
    expects."""
    from repro.verify.audit import PhaseLedger

    return {
        "ledger": {
            k: PhaseLedger(messages=int(v["messages"]), bytes=int(v["bytes"]))
            for k, v in auditor_plain.get("ledger", {}).items()
        },
        "plan_ledger": {
            k: PhaseLedger(messages=int(v["messages"]), bytes=int(v["bytes"]))
            for k, v in auditor_plain.get("plan_ledger", {}).items()
        },
        # algo ledgers appeared with the staged collective engines; old
        # checkpoints simply have none
        "algo_ledger": {
            k: PhaseLedger(messages=int(v["messages"]), bytes=int(v["bytes"]))
            for k, v in auditor_plain.get("algo_ledger", {}).items()
        },
        "algo_round_ledger": {
            k: PhaseLedger(messages=int(v["messages"]), bytes=int(v["bytes"]))
            for k, v in auditor_plain.get("algo_round_ledger", {}).items()
        },
        "algo_counts": {
            k: int(v) for k, v in auditor_plain.get("algo_counts", {}).items()
        },
        "n_algo_calls": int(auditor_plain.get("n_algo_calls", 0)),
        "trace_baseline": _plain_to_phases(auditor_plain.get("trace_baseline", {})),
        "pending_sends": [tuple(t) for t in auditor_plain.get("pending_sends", [])],
        "violations": list(auditor_plain.get("violations", [])),
        "n_plan_compiles": auditor_plain.get("n_plan_compiles", 0),
        "n_plan_executions": auditor_plain.get("n_plan_executions", 0),
        "n_plan_fused_columns": auditor_plain.get("n_plan_fused_columns", 0),
        "n_alltoall_calls": auditor_plain.get("n_alltoall_calls", 0),
        "n_p2p_calls": auditor_plain.get("n_p2p_calls", 0),
    }


def plain_records_to_step_records(records: List[Dict[str, Any]]):
    """Rebuild live :class:`~repro.md.simulation.StepRecord` objects."""
    return [_plain_to_record(r) for r in records]
