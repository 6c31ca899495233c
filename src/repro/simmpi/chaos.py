"""Deterministic chaos harness: seeded perturbations of the simulated machine.

The simulated MPI layer is only trustworthy if the physics it transports is
*schedule-independent*: positions, forces, energies, resort outcomes and the
auditor's communication ledgers must be bitwise identical no matter how fast
individual ranks run or how degraded individual links are.  Only the virtual
clocks and the per-phase trace times may respond to such perturbations (and
should, the way the LogGP model predicts).

This module provides the seeded fault/schedule injection that the
deterministic-simulation-test runner (:mod:`repro.verify.dst`) sweeps:

* :class:`Perturbation` — an immutable, seeded configuration of machine
  faults: per-rank compute-rate jitter and stragglers, globally and per-rank
  degraded link bandwidth, extra per-message latency, and virtual clock skew
  at startup.  A machine consults it when charging costs (never when moving
  data), so a perturbation can change *when* things happen but not *what*
  happens.

A perturbation with every knob at zero is the null perturbation: applying it
leaves the machine byte-identical to an unperturbed one (all scale factors
are exactly ``1.0`` and no model constant is touched).
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import Optional

import numpy as np

from repro.simmpi.costmodel import CostModel

__all__ = ["Perturbation", "chaos_seed"]

#: independent RNG stream salts (stable across releases: fingerprints of
#: recorded failing seeds must keep reproducing)
_SALT_COMPUTE = 0x5EED_C0DE
_SALT_COMM = 0x11_4B
_SALT_SKEW = 0xC10C
_SALT_SAMPLE = 0xD57


@dataclasses.dataclass(frozen=True)
class Perturbation:
    """A seeded set of machine faults consulted when charging costs.

    Attributes
    ----------
    seed:
        non-negative; drives every per-rank draw below; two machines
        perturbed with equal configurations are perturbed identically.
    compute_jitter:
        lognormal sigma of the per-rank compute-rate factors (0 = uniform
        ranks); models OS noise and DVFS wobble.
    straggler_fraction / straggler_slowdown:
        each rank independently becomes a straggler with probability
        ``straggler_fraction``; stragglers run compute/copy phases
        ``straggler_slowdown`` times slower.
    bandwidth_degradation:
        global fractional loss of inter-node link bandwidth in ``[0, 1)``
        (0.25 means every link runs at 75%).
    degraded_link_fraction / degraded_link_slowdown:
        each rank's NIC independently degrades with probability
        ``degraded_link_fraction``; every message touching a degraded rank
        takes ``degraded_link_slowdown`` times longer on the wire.
    extra_latency:
        seconds added to the per-message CPU overhead ``o`` (charged on
        every message, intra- and inter-node).
    clock_skew:
        per-rank virtual clocks start uniformly in ``[0, clock_skew)``
        instead of at zero (unsynchronized node boot).
    """

    seed: int = 0
    compute_jitter: float = 0.0
    straggler_fraction: float = 0.0
    straggler_slowdown: float = 4.0
    bandwidth_degradation: float = 0.0
    degraded_link_fraction: float = 0.0
    degraded_link_slowdown: float = 2.0
    extra_latency: float = 0.0
    clock_skew: float = 0.0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"chaos seed must be non-negative, got {self.seed}")
        for name in ("compute_jitter", "extra_latency", "clock_skew"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("straggler_fraction", "degraded_link_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 <= self.bandwidth_degradation < 1.0:
            raise ValueError("bandwidth_degradation must be in [0, 1)")
        for name in ("straggler_slowdown", "degraded_link_slowdown"):
            if getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be >= 1")

    # -- construction -------------------------------------------------------

    @classmethod
    def sample(cls, seed: int) -> "Perturbation":
        """Draw a full perturbation from one integer seed (the DST sweep).

        ``seed == 0`` is reserved for the null perturbation — the reference
        schedule every other seed is compared against; a negative seed is
        refused before anything is drawn.
        """
        if seed <= 0:
            return cls(seed=int(seed))
        rng = np.random.default_rng([_SALT_SAMPLE, int(seed)])
        return cls(
            seed=int(seed),
            compute_jitter=float(rng.uniform(0.0, 0.5)),
            straggler_fraction=float(rng.uniform(0.0, 0.35)),
            straggler_slowdown=float(rng.uniform(2.0, 8.0)),
            bandwidth_degradation=float(rng.uniform(0.0, 0.6)),
            degraded_link_fraction=float(rng.uniform(0.0, 0.5)),
            degraded_link_slowdown=float(rng.uniform(1.5, 5.0)),
            extra_latency=float(rng.uniform(0.0, 1e-4)),
            clock_skew=float(rng.uniform(0.0, 1e-3)),
        )

    # -- queries ------------------------------------------------------------

    @property
    def is_null(self) -> bool:
        """True when every knob is off: applying this changes nothing."""
        return (
            self.compute_jitter == 0.0
            and self.straggler_fraction == 0.0
            and self.bandwidth_degradation == 0.0
            and self.degraded_link_fraction == 0.0
            and self.extra_latency == 0.0
            and self.clock_skew == 0.0
        )

    def describe(self) -> str:
        """Compact one-line summary (stored as a trace note, printed by DST)."""
        if self.is_null:
            return f"null(seed={self.seed})"
        knobs = []
        if self.compute_jitter:
            knobs.append(f"jitter={self.compute_jitter:.3g}")
        if self.straggler_fraction:
            knobs.append(
                f"stragglers={self.straggler_fraction:.3g}x{self.straggler_slowdown:.3g}"
            )
        if self.bandwidth_degradation:
            knobs.append(f"bw-{self.bandwidth_degradation:.3g}")
        if self.degraded_link_fraction:
            knobs.append(
                f"links={self.degraded_link_fraction:.3g}x{self.degraded_link_slowdown:.3g}"
            )
        if self.extra_latency:
            knobs.append(f"lat+{self.extra_latency:.3g}s")
        if self.clock_skew:
            knobs.append(f"skew={self.clock_skew:.3g}s")
        return f"seed={self.seed} " + " ".join(knobs)

    # -- what the machine consults ------------------------------------------

    def compute_factors(self, nprocs: int) -> Optional[np.ndarray]:
        """Per-rank compute/copy time multipliers (``None`` when uniform)."""
        if self.compute_jitter == 0.0 and self.straggler_fraction == 0.0:
            return None
        rng = np.random.default_rng([_SALT_COMPUTE, self.seed])
        factors = np.ones(nprocs, dtype=np.float64)
        if self.compute_jitter:
            factors *= np.exp(rng.normal(0.0, self.compute_jitter, nprocs))
        if self.straggler_fraction:
            stragglers = rng.random(nprocs) < self.straggler_fraction
            factors[stragglers] *= self.straggler_slowdown
        return factors

    def comm_factors(self, nprocs: int) -> Optional[np.ndarray]:
        """Per-rank communication time multipliers (``None`` when uniform).

        A message is as slow as its slowest endpoint: primitives scale each
        message's wire time by ``max(factor[src], factor[dst])``.
        """
        if self.degraded_link_fraction == 0.0:
            return None
        rng = np.random.default_rng([_SALT_COMM, self.seed])
        factors = np.ones(nprocs, dtype=np.float64)
        degraded = rng.random(nprocs) < self.degraded_link_fraction
        factors[degraded] *= self.degraded_link_slowdown
        return factors

    def initial_clocks(self, nprocs: int) -> Optional[np.ndarray]:
        """Per-rank startup clock offsets (``None`` for synchronized start)."""
        if self.clock_skew == 0.0:
            return None
        rng = np.random.default_rng([_SALT_SKEW, self.seed])
        return rng.uniform(0.0, self.clock_skew, nprocs)

    def effective_model(self, model: CostModel) -> CostModel:
        """The cost model with the global link/latency degradations applied.

        The machine keeps the *unperturbed* model around as
        ``Machine.nominal_model``: decision logic that must stay
        schedule-independent — notably the ``algo="auto"`` collective-
        algorithm selector (:func:`repro.simmpi.algos.resolve`) — reads the
        nominal constants, so a chaos seed can stretch the clocks but never
        change *which* algorithm runs.
        """
        return model.perturbed(
            extra_overhead=self.extra_latency,
            bandwidth_factor=1.0 - self.bandwidth_degradation,
        )


def chaos_seed(text: str) -> int:
    """``argparse`` type of a command-line chaos seed: a non-negative integer,
    refused at parse time instead of after the runs it would perturb."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"chaos seed must be non-negative, got {seed}")
    return seed
