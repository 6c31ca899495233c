"""Deterministic checkpoint/restart + elastic rank-resize (``repro.ckpt``).

The paper's subject is moving particle data between decompositions; this
package applies the same machinery to the one robustness shape every
long-running parallel code needs: **stop, resume, resize**.

* :mod:`repro.ckpt.format` — bit-exact NDJSON codec (``float.hex`` bit
  patterns, hex-encoded array buffers, a crc32 seal per record) following
  the :mod:`repro.obs.export` conventions;
* :mod:`repro.ckpt.checkpoint` — :class:`~repro.ckpt.checkpoint.Checkpoint`
  capture/save/load of a full :class:`~repro.md.simulation.Simulation`
  (per-rank particle columns, solver resort state, RNG, Trace/auditor
  snapshots, machine clocks);
* :mod:`repro.ckpt.restore` — :func:`~repro.ckpt.restore.restore_simulation`
  rebuilding a live simulation whose continuation is byte-identical to the
  uninterrupted run at every step;
* :mod:`repro.ckpt.resize` — P→Q elastic restore: a
  :class:`~repro.ckpt.resize.ResizePlan` compiled onto the fused
  :class:`~repro.core.plan.ResortPlan` engine redistributes every
  checkpointed column in one exchange and recomputes weighted partition
  bounds for the new rank count;
* ``python -m repro.ckpt save/restore/resize/verify`` — the CLI.  Its
  ``verify`` is the restart-equivalence suite: each cell is the DST cell
  at chaos seed 0 killed halfway (:func:`repro.verify.dst.run_dst`), which
  :func:`repro.verify.trajectory.play` holds to the uninterrupted run's
  state at every step, its ledger and, on the null-perturbed machine, its
  per-step phase breakdown.

See ``docs/checkpointing.md`` for the file format and guarantees.
"""

from repro.ckpt.checkpoint import (
    Checkpoint,
    capture_checkpoint,
    load_checkpoint,
    save_checkpoint,
    write_checkpoint,
)
from repro.ckpt.format import CKPT_VERSION, decode_value, encode_value
from repro.ckpt.resize import ResizePlan, compile_resize_plan, resize_checkpoint
from repro.ckpt.restore import restore_simulation

__all__ = [
    "CKPT_VERSION",
    "Checkpoint",
    "ResizePlan",
    "capture_checkpoint",
    "compile_resize_plan",
    "decode_value",
    "encode_value",
    "load_checkpoint",
    "resize_checkpoint",
    "restore_simulation",
    "save_checkpoint",
    "write_checkpoint",
]
