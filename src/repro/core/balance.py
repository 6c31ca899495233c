"""Weighted-partition load balancing for inhomogeneous distributions.

The Z-curve partition sort splits the globally sorted Morton keys into
equal-**count** segments — fine for the paper's homogeneous silica melt,
but a clustered (inhomogeneous) system then serializes its near-field work
on the few ranks owning the dense regions.  This module provides the three
ingredients of weighted space-filling-curve partitioning (PetFMM-style,
see docs/load_balancing.md):

* **per-particle work weights** — each particle's near-field pair count
  estimated from the occupancy of its linked-cell / FMM leaf box (particles
  in dense boxes interact with more neighbors; the solvers build them,
  e.g. ``FMMSolver._attach_weights``); uniform weights are the fallback and
  reduce everything to the existing count-based behavior,
* **weighted split bounds** — :func:`work_split_bounds` places the part
  boundaries at equal *cumulative work* instead of equal counts; no part
  exceeds the mean work by more than the heaviest single particle,
* **the imbalance monitor** — :class:`ImbalanceMonitor` watches the
  per-step load-imbalance factor ``lambda = max(rank work) / mean(rank
  work)`` and decides (with hysteresis) when a dynamic rebalance pays for
  its one-off redistribution cost.

Everything here is pure local arithmetic: the communication needed to
*apply* a rebalance (the weight column riding the sort exchange, the key
allgather estimating global box occupancy) is charged by the callers
through the usual audited primitives.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "BalanceEvent",
    "ImbalanceMonitor",
    "count_split_bounds",
    "load_imbalance",
    "work_split_bounds",
]

#: the accepted values of ``SimulationConfig.load_balance``
LOAD_BALANCE_MODES = ("off", "static", "dynamic")


# -- split bounds -----------------------------------------------------------------


def count_split_bounds(n: int, nparts: int) -> np.ndarray:
    """Count-balanced part boundaries: ``nparts + 1`` prefix positions.

    Defined as :func:`work_split_bounds` under uniform weights so the two
    stay bitwise-consistent (the reduction property the weighted-splitter
    tests pin down), which in turn matches the historical truncation
    convention ``bounds[i] = floor(i * n / nparts)`` of the count-based
    splitter.
    """
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")
    n = int(n)
    bounds = np.empty(nparts + 1, dtype=np.int64)
    bounds[0] = 0
    bounds[nparts] = n
    if nparts > 1:
        cum = np.arange(1, n + 1, dtype=np.float64)
        targets = np.arange(1, nparts, dtype=np.float64) * (float(n) / nparts)
        bounds[1:nparts] = np.searchsorted(cum, targets, side="right")
    return bounds


def work_split_bounds(weights: np.ndarray, nparts: int) -> np.ndarray:
    """Part boundaries equalizing cumulative work along the sorted order.

    ``weights`` are the per-element work estimates **in globally sorted key
    order**; the returned ``nparts + 1`` monotone prefix positions satisfy
    the regular-sampling quality bound of sample sort, transplanted from
    counts to work:

        ``work(part k) < total / nparts + max(weights)``

    i.e. no part exceeds the mean work by more than the heaviest single
    element — the granularity limit of any contiguous split.  All-zero (or
    empty) weights degrade to :func:`count_split_bounds`; weights so small
    that ``total / nparts`` is subnormal are first scaled up by an exact
    power of two (the bound is scale-invariant); uniform positive
    weights yield bitwise-identical bounds to the count-based split
    (exactly so for power-of-two weight values, where scaling commutes
    with float rounding).
    """
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError(f"weights must be 1-D, got shape {w.shape}")
    if w.size and float(w.min()) < 0.0:
        raise ValueError("weights must be non-negative")
    n = w.shape[0]
    if n == 0 or nparts == 1:
        return count_split_bounds(n, nparts)
    cumw = np.cumsum(w)
    total = float(cumw[-1])
    if total <= 0.0:
        return count_split_bounds(n, nparts)
    step = total / nparts
    if step < np.finfo(np.float64).tiny:
        # a subnormal per-part target has lost bits, down to underflowing to
        # 0 (every boundary at 0, all work in the last part)
        return work_split_bounds(w * 2.0 ** 1000, nparts)
    bounds = np.empty(nparts + 1, dtype=np.int64)
    bounds[0] = 0
    bounds[nparts] = n
    targets = np.arange(1, nparts, dtype=np.float64) * step
    bounds[1:nparts] = np.searchsorted(cumw, targets, side="right")
    return bounds


# -- the imbalance factor ---------------------------------------------------------


def load_imbalance(rank_work: np.ndarray) -> float:
    """The load-imbalance factor ``lambda = max(rank work) / mean(rank work)``.

    1.0 is perfect balance; ``nprocs`` is full serialization on one rank.
    Zero or negative total work (nothing measured) reports 1.0 — a system
    doing no work is trivially balanced.
    """
    work = np.asarray(rank_work, dtype=np.float64)
    if work.size == 0:
        return 1.0
    mean = float(work.mean())
    if mean <= 0.0:
        return 1.0
    return float(work.max()) / mean


@dataclasses.dataclass
class BalanceEvent:
    """One monitor-triggered rebalance: when, and what it bought.

    ``lambda_after`` is filled by the first observation *after* the
    rebalance has been applied (``None`` until then).
    """

    step: int
    lambda_before: float
    lambda_after: Optional[float] = None


class ImbalanceMonitor:
    """Hysteresis controller for dynamic rebalancing.

    Fires (returns ``True`` from :meth:`observe`) when the imbalance factor
    reaches ``trigger`` while the monitor is *armed*; firing disarms it.
    The monitor re-arms only once the imbalance has dropped to ``rearm`` or
    below — so a rebalance that lands the system anywhere in the dead band
    ``(rearm, trigger)`` does not cause fire/re-fire oscillation, and a
    rebalance that cannot improve matters (weights at their granularity
    limit) fires exactly once instead of every step.

    The monitor reads only *nominal* (pre-perturbation) per-rank work, so
    its decisions are schedule-independent — the DST property that dynamic
    balancing must not break.
    """

    def __init__(
        self,
        trigger: float = 1.5,
        rearm: float = 1.15,
        min_interval: int = 1,
    ) -> None:
        if not trigger > rearm >= 1.0:
            raise ValueError(
                f"need trigger > rearm >= 1, got trigger={trigger}, rearm={rearm}"
            )
        if min_interval < 1:
            raise ValueError(f"min_interval must be >= 1, got {min_interval}")
        self.trigger = float(trigger)
        self.rearm = float(rearm)
        self.min_interval = int(min_interval)
        #: every observed imbalance factor, in observation order
        self.history: List[float] = []
        #: every fired rebalance with its before/after imbalance
        self.events: List[BalanceEvent] = []
        self._armed = True
        self._last_fire_step: Optional[int] = None

    @property
    def armed(self) -> bool:
        return self._armed

    def observe(self, rank_work: np.ndarray, step: Optional[int] = None) -> bool:
        """Record one step's per-rank work; return whether to rebalance now.

        ``step`` labels the observation (defaults to the observation index);
        the caller applies the rebalance on its *next* solver run, so the
        following observation fills the event's ``lambda_after``.
        """
        lam = load_imbalance(rank_work)
        if step is None:
            step = len(self.history)
        self.history.append(lam)
        if self.events and self.events[-1].lambda_after is None:
            self.events[-1].lambda_after = lam
        if not self._armed and lam <= self.rearm:
            self._armed = True
        fire = (
            self._armed
            and lam >= self.trigger
            and (
                self._last_fire_step is None
                or step - self._last_fire_step >= self.min_interval
            )
        )
        if fire:
            self._armed = False
            self._last_fire_step = step
            self.events.append(BalanceEvent(step=step, lambda_before=lam))
        return fire

    # -- checkpointing ----------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Complete monitor state for checkpointing (config + hysteresis).

        The λ history and event log are part of the state: the restored
        monitor must fill a pending event's ``lambda_after`` and honor
        ``min_interval`` exactly as the uninterrupted run would.
        """
        return {
            "trigger": self.trigger,
            "rearm": self.rearm,
            "min_interval": self.min_interval,
            "history": list(self.history),
            "events": [
                {
                    "step": e.step,
                    "lambda_before": e.lambda_before,
                    "lambda_after": e.lambda_after,
                }
                for e in self.events
            ],
            "armed": self._armed,
            "last_fire_step": self._last_fire_step,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Replace the monitor's full state with a :meth:`state_dict` copy."""
        self.trigger = float(state["trigger"])
        self.rearm = float(state["rearm"])
        self.min_interval = int(state["min_interval"])
        self.history = [float(x) for x in state.get("history", [])]
        self.events = [
            BalanceEvent(
                step=int(e["step"]),
                lambda_before=float(e["lambda_before"]),
                lambda_after=(
                    None if e.get("lambda_after") is None else float(e["lambda_after"])
                ),
            )
            for e in state.get("events", [])
        ]
        self._armed = bool(state.get("armed", True))
        last = state.get("last_fire_step")
        self._last_fire_step = None if last is None else int(last)

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "ImbalanceMonitor":
        """Build a monitor directly from a :meth:`state_dict` copy."""
        monitor = cls(
            trigger=float(state["trigger"]),
            rearm=float(state["rearm"]),
            min_interval=int(state["min_interval"]),
        )
        monitor.load_state(state)
        return monitor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        last = f"{self.history[-1]:.3f}" if self.history else "-"
        return (
            f"ImbalanceMonitor(trigger={self.trigger}, rearm={self.rearm}, "
            f"armed={self._armed}, last_lambda={last}, fires={len(self.events)})"
        )
