"""Capture, save and load full-simulation checkpoints.

A :class:`Checkpoint` is a *plain-data* snapshot of everything a
:class:`~repro.md.simulation.Simulation` needs to continue byte-identically.
Every stateful component serializes itself — ``state_dict()`` returns
checkpoint-plain data, ``load_state()``/``from_state()`` is its exact
inverse — and this module only **composes** those sections into the
kind-tagged records of the file (``docs/checkpointing.md`` has the
record → owner table):

* :meth:`Simulation.state_dict <repro.md.simulation.Simulation.state_dict>`
  — per-rank particle columns and capacities (the ``rank`` lines), the step
  ``records``, and the ``sim`` bookkeeping (step counters, adaptive-method
  state, application RNG);
* :meth:`FCS.state_dict <repro.core.handle.FCS.state_dict>` — the handle's
  resort state: the last :class:`~repro.solvers.base.RunReport` including
  the packed resort indices that key the
  :class:`~repro.core.plan.ResortPlan` cache;
* :meth:`Solver.state_dict <repro.solvers.base.Solver.state_dict>` and
  :meth:`ImbalanceMonitor.state_dict
  <repro.core.balance.ImbalanceMonitor.state_dict>` — load-balance state;
* :meth:`Trace.state_dict <repro.simmpi.tracing.Trace.state_dict>` (with
  the machine clocks) and :meth:`CommAuditor.state_dict
  <repro.verify.audit.CommAuditor.state_dict>` — the accounting.

Capturing is an **out-of-band observer** operation, like
:meth:`Simulation.gather_state <repro.md.simulation.Simulation.gather_state>`:
it charges nothing to the machine, so a run with ``checkpoint_every`` set
produces bit-identical trajectories and traces to one without.

The on-disk format is deterministic NDJSON (see :mod:`repro.ckpt.format`):
one ``kind``-tagged object per line, sealed by its crc32, sorted keys,
``float.hex`` bit patterns, hex-encoded array buffers.  ``save → load``
round-trips every field bit-exactly, and saving the same checkpoint twice produces identical
bytes.
"""

from __future__ import annotations

import copy
import dataclasses
import os
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.particles import RankMajor
from repro.ckpt.format import (
    CKPT_VERSION,
    decode_value,
    dumps,
    encode_line,
    read_lines,
    seal,
    write_lines,
)

__all__ = [
    "Checkpoint",
    "capture_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "write_checkpoint",
]

#: per-rank particle columns carried by every checkpoint, in fused-exchange
#: order (the resize plan moves exactly these in one exchange)
COLUMNS = ("pos", "q", "pot", "field", "vel", "acc", "ids")

#: the one-line record kinds written before and after the ``rank`` lines, in
#: file order.  Each is the :class:`Checkpoint` field of the same name and is
#: written and read back untouched.
HEAD_KINDS = ("config", "system")
TAIL_KINDS = (
    "records", "sim", "fcs", "solver", "monitor", "machine", "auditor", "thermostat",
)


def _config_fields(cfg) -> Dict[str, Any]:
    """A :class:`SimulationConfig` as plain fields by name, *except*
    ``perturbation`` (a chaos schedule is a property of one machine
    execution, not of the physical state being resumed)."""
    from repro.backend import backend_spec

    fields = {
        f.name: copy.deepcopy(getattr(cfg, f.name))
        for f in dataclasses.fields(cfg)
        if f.name not in ("perturbation", "backend")
    }
    # a live backend instance is host machinery, not simulation state:
    # persist the engine spec string so a restore on any host (or under a
    # different engine) rebuilds an equivalent run
    fields["backend"] = backend_spec(cfg.backend)
    return fields


def _int_field(rec: dict, key: str, name: str) -> int:
    """``int(rec[key])``, or one ``ValueError`` naming the record."""
    if key not in rec:
        raise ValueError(f"{name} record has no {key!r} field")
    try:
        return int(rec[key])
    except (TypeError, ValueError):
        raise ValueError(
            f"{name} record: {key!r} is {rec[key]!r}, not an integer"
        ) from None


def _decoded_data(rec: dict, name: str) -> Any:
    """``decode_value(rec["data"])``, or one ``ValueError`` naming the
    record (an unknown dtype, a payload that does not fit its shape, ...)."""
    if "data" not in rec:
        raise ValueError(f"{name} record has no 'data' field")
    try:
        return decode_value(rec["data"])
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(
            f"{name} record does not decode: {type(exc).__name__}: {exc}"
        ) from None


def _rank_data(rec: dict, r: int) -> Dict[str, Any]:
    """One ``rank`` record's decoded columns and integer ``capacity``."""
    name = f"rank {r}"
    data = _decoded_data(rec, name)
    if not isinstance(data, dict):
        raise ValueError(f"{name} record: data is a {type(data).__name__}, not an object")
    missing = [key for key in COLUMNS if key not in data]
    if missing:
        raise ValueError(f"{name} record has no {', '.join(missing)} column(s)")
    return dict(data, capacity=_int_field(data, "capacity", name))


@dataclasses.dataclass
class Checkpoint:
    """A complete, plain-data simulation snapshot (see module docstring).

    All fields are numpy arrays, plain Python scalars/containers, or plain
    dicts of those — nothing references live simulation objects, so a held
    checkpoint is immune to the donor simulation continuing to run.  The
    bookkeeping sections default to "absent", which every owner's
    ``load_state`` reads as a freshly constructed object's state.
    """

    nprocs: int
    #: :class:`~repro.md.simulation.SimulationConfig` fields by name (see
    #: :func:`_config_fields`)
    config: Dict[str, Any]
    #: the particle system's ``box`` and ``offset``
    system: Dict[str, np.ndarray]
    pos: List[np.ndarray]
    q: List[np.ndarray]
    pot: List[np.ndarray]
    field: List[np.ndarray]
    vel: List[np.ndarray]
    acc: List[np.ndarray]
    ids: List[np.ndarray]
    capacities: List[int]
    #: the machine's ``clocks`` and its :meth:`Trace.state_dict` (``trace``)
    machine: Dict[str, Any]
    #: :meth:`Simulation.state_dict` minus the records/columns/capacities
    #: stored above: step counters, adaptive bookkeeping, application RNG
    sim: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: :meth:`StepRecord.state_dict` per recorded step
    records: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    #: :meth:`FCS.state_dict`
    fcs: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: :meth:`Solver.state_dict`
    solver: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: :meth:`ImbalanceMonitor.state_dict` (or ``None``)
    monitor: Optional[Dict[str, Any]] = None
    #: :meth:`CommAuditor.state_dict` (or ``None``: the run was not audited)
    auditor: Optional[Dict[str, Any]] = None
    #: Berendsen thermostat parameters (target/tau/dt), if the driver uses
    #: one (the thermostat itself is stateless between applications)
    thermostat: Optional[Dict[str, Any]] = None
    version: int = CKPT_VERSION

    # -- derived views ----------------------------------------------------------

    @property
    def n_particles(self) -> int:
        return int(sum(p.shape[0] for p in self.pos))

    @property
    def step_index(self) -> int:
        return int(self.sim.get("step_index", 0))

    def columns(self, name: str) -> List[np.ndarray]:
        """The per-rank arrays of one checkpointed column."""
        if name not in COLUMNS:
            raise KeyError(f"unknown column {name!r}, have {COLUMNS}")
        return getattr(self, name)

    def store(self) -> RankMajor:
        """The seven columns as one rank-major block.  A column that is not
        cut like the others (a rank one row short, say) raises one
        ``ValueError`` naming the column and the rank."""
        return RankMajor.of_columns({name: self.columns(name) for name in COLUMNS})

    def gathered(self) -> Dict[str, np.ndarray]:
        """Global, id-ordered view of every particle column.

        The rank-count-independent canonical form: two checkpoints of the
        same physical state at different rank counts gather identically.
        """
        block = self.store().data
        order = np.argsort(block["ids"], kind="stable")
        return {name: block[name][order] for name in COLUMNS}

    def make_config(self, perturbation=None):
        """Rebuild the :class:`SimulationConfig` (optionally perturbed)."""
        from repro.md.simulation import SimulationConfig

        fields = copy.deepcopy(self.config)
        return SimulationConfig(perturbation=perturbation, **fields)

    # -- NDJSON (de)serialization -------------------------------------------------

    def to_lines(self) -> List[str]:
        """Deterministic sealed NDJSON lines (meta header first)."""

        def section(kind: str) -> dict:
            return {"kind": kind, "data": getattr(self, kind)}

        meta = {
            "kind": "meta",
            "format": "repro.ckpt",
            "version": self.version,
            "nprocs": self.nprocs,
            "step": self.step_index,
            "n_particles": self.n_particles,
        }
        ranks = [
            {
                "kind": "rank",
                "rank": r,
                "data": {
                    **{name: self.columns(name)[r] for name in COLUMNS},
                    "capacity": self.capacities[r],
                },
            }
            for r in range(self.nprocs)
        ]
        recs = [*map(section, HEAD_KINDS), *ranks, *map(section, TAIL_KINDS)]
        return [seal(dumps(meta)), *(seal(encode_line(rec)) for rec in recs)]

    @classmethod
    def from_records(cls, parsed: List[dict]) -> "Checkpoint":
        """Build a checkpoint from parsed records, in any order.

        A damaged record set — a missing, duplicated or unsealed record kind
        or rank line, a record that is not an object or lacks a field it
        needs, data that does not decode — or another format version raises
        one ``ValueError`` naming the offenders before anything is
        constructed.
        """
        singles: Dict[str, dict] = {}
        ranks: Dict[int, dict] = {}
        duplicated: List[str] = []
        unsealed: List[str] = []
        for number, rec in enumerate(parsed, start=1):
            if not isinstance(rec, dict):
                raise ValueError(
                    f"record {number} is a JSON {type(rec).__name__}, not an object"
                )
            kind = rec.get("kind")
            if kind == "rank":
                key = _int_field(rec, "rank", "rank")
                table, name = ranks, f"rank {key}"
            else:
                table, key, name = singles, kind, str(kind)
            if key in table:
                duplicated.append(name)
            if "crc" not in rec:
                unsealed.append(name)
            table[key] = rec
        meta = singles.get("meta")
        if meta is None or meta.get("format") != "repro.ckpt":
            raise ValueError("not a repro.ckpt checkpoint (missing meta header)")
        version = _int_field(meta, "version", "meta")
        if version != CKPT_VERSION:
            raise ValueError(
                f"checkpoint format version {version} is not the supported "
                f"version {CKPT_VERSION}; files of another version are refused"
            )
        nprocs = _int_field(meta, "nprocs", "meta")
        kinds = HEAD_KINDS + TAIL_KINDS
        missing = [k for k in kinds if k not in singles]
        missing += [f"rank {r}" for r in range(nprocs) if r not in ranks]
        damage = (("missing", missing), ("duplicated", duplicated), ("unsealed", unsealed))
        if any(names for _what, names in damage):
            raise ValueError(
                "damaged checkpoint (truncated or corrupted): "
                + "; ".join(
                    f"{what} record(s) {', '.join(names)}" for what, names in damage if names
                )
            )
        per_rank = [_rank_data(ranks[r], r) for r in range(nprocs)]
        sections = {kind: _decoded_data(singles[kind], kind) for kind in kinds}
        return cls(
            nprocs=nprocs,
            version=version,
            capacities=[rank["capacity"] for rank in per_rank],
            **{name: [rank[name] for rank in per_rank] for name in COLUMNS},
            **sections,
        )


def capture_checkpoint(sim, *, thermostat=None) -> Checkpoint:
    """Snapshot a live simulation into a :class:`Checkpoint`.

    Pure observation: every owner's ``state_dict()`` deep-copies and **no
    machine cost is charged**, so capturing mid-run leaves the trajectory,
    trace and ledgers untouched.  ``thermostat`` optionally records a
    :class:`~repro.md.thermostat.BerendsenThermostat`'s parameters.
    """
    machine = sim.machine
    state = sim.state_dict()
    columns, capacities, records = (
        state.pop(key) for key in ("columns", "capacities", "records")
    )
    return Checkpoint(
        nprocs=machine.nprocs,
        config=_config_fields(sim.config),
        system={
            "box": np.array(sim.system.box, dtype=np.float64),
            "offset": np.array(sim.system.offset, dtype=np.float64),
        },
        capacities=capacities,
        records=records,
        sim=state,
        fcs=sim.fcs.state_dict(),
        solver=sim.fcs.solver.state_dict(),
        monitor=(
            None if sim.balance_monitor is None else sim.balance_monitor.state_dict()
        ),
        machine={"clocks": machine.clocks.copy(), "trace": machine.trace.state_dict()},
        auditor=None if machine.auditor is None else machine.auditor.state_dict(),
        thermostat=(
            None
            if thermostat is None
            else {k: getattr(thermostat, k) for k in ("target", "tau", "dt")}
        ),
        **columns,
    )


def write_checkpoint(ckpt: Checkpoint, path: str) -> int:
    """Write a checkpoint file; returns the bytes written.

    The lines go to a sibling temporary file that is moved into place only
    once complete: an interrupted write leaves a previous file at ``path``
    intact and never a partial one under that name.
    """
    parent, name = os.path.split(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, f".{name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            nbytes = write_lines(fh, ckpt.to_lines())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return nbytes


def save_checkpoint(sim, path: str, *, thermostat=None) -> int:
    """Capture ``sim`` and write it to ``path``; returns the bytes written.

    Feeds the ``ckpt.saves`` / ``ckpt.save_bytes`` metrics and a
    ``ckpt.save`` structural span when an
    :class:`~repro.obs.spans.ObsRecorder` is attached (the span brackets
    zero machine time — saving is cost-free by design).
    """
    from repro.obs.spans import machine_span

    with machine_span(sim.machine, "ckpt.save", op="ckpt.save", step=sim.step_index):
        nbytes = write_checkpoint(capture_checkpoint(sim, thermostat=thermostat), path)
    obs = sim.machine.obs
    if obs is not None:
        obs.metrics.counter("ckpt.saves").inc()
        obs.metrics.counter("ckpt.save_bytes").inc(nbytes)
    return nbytes


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint file back into a :class:`Checkpoint`, bit-exactly.

    A damaged file or another format version raises one ``ValueError``
    naming ``path`` and the 1-based number of the unparsable line, the
    record whose checksum does not match, the missing / duplicated record
    kinds, the malformed record or the version, before any
    :class:`Checkpoint` is constructed.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return Checkpoint.from_records(list(read_lines(fh)))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
