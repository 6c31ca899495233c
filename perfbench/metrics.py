"""Metric declarations (name, unit, direction, bound) and their estimators.

``BENCHMARK.json`` at the repo root carries the same declarations for the
driver; ``tests/test_perfbench.py`` holds the two in agreement.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "PHASES",
    "REDIST_PHASES",
    "end_to_end",
    "tail_rank",
]

#: modeled redistribution: the paper's subject (sort + restore + resort +
#: plan compilation + resort-index creation)
REDIST_PHASES = ("sort", "restore", "resort", "resort_plan", "resort_index")
#: phases reported one by one in the per-layer table
PHASES = REDIST_PHASES + ("halo", "near")

#: ``(name, unit, better, bound)``; the bound is the share of the parent's
#: median by which the metric may get worse before a change is rejected.
#: Each bound is at least three times the widest spread (quartile distance
#: over median of ten seeds) the metric showed on any workload on the sizing
#: box — see README.md, "Bounds and observed spreads".  ``fail_frac`` (failed
#: / attempted operations, bound 0) is reported through the result line's
#: ``failed`` and ``attempted`` because the driver's contract admits no metric
#: that reads 0.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("wall_s", "s", "lower", 0.25),
    ("step_ms_p50", "ms", "lower", 0.25),
    ("step_ms_tail", "ms", "lower", 0.25),
    ("particle_steps_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    # exact on one seed (checked bitwise across passes in every run); the
    # bound only has to absorb the spread across the driver's seeds
    ("modeled_s", "s", "lower", 0.10),
    ("modeled_redist_s", "s", "lower", 0.10),
)


def _per_layer() -> Tuple[Tuple[str, str, str], ...]:
    out: List[Tuple[str, str, str]] = []

    def add(name: str, unit: str, better: str = "lower") -> None:
        out.append((name, unit, better))

    for layer in ("simmpi.collectives", "simmpi.p2p", "simmpi.machine"):
        add(f"{layer}.calls", "count")
        add(f"{layer}.self_s", "s")
    add("simmpi.algos.self_s", "s")
    add("simmpi.msgs", "count")
    add("simmpi.bytes", "B")
    add("simmpi.host_us_per_msg", "us")
    for layer in ("sorting.partition_sort", "sorting.merge_sort"):
        add(f"{layer}.calls", "count")
        add(f"{layer}.self_s", "s")
    add("sorting.rows", "count")
    add("zorder.morton.self_s", "s")
    for layer in ("core.fine_grained", "core.plan.compile", "core.plan.execute"):
        add(f"{layer}.calls", "count")
        add(f"{layer}.self_s", "s")
    add("core.plan.hit_rate", "1", "higher")
    for layer in (
        "core.resort", "core.restore", "core.handle",
        "solvers.fmm.run", "solvers.fmm.tree", "solvers.fmm.expansions",
        "solvers.p2nfft.run", "solvers.p2nfft.ghosts", "solvers.p2nfft.linked_cell",
        "solvers.p2nfft.mesh",
        "solvers.common.pairs",
    ):
        add(f"{layer}.self_s", "s")
    add("solvers.common.pairs.pairs", "count")
    add("solvers.fmm.rel_err", "1")
    add("solvers.p2nfft.rel_err", "1")
    for layer in ("md.simulation", "md.integrator", "md.distributions"):
        add(f"{layer}.self_s", "s")
    add("backend.process.deliver.calls", "count")
    add("backend.process.self_s", "s")
    add("backend.process.slowdown", "1")
    add("ckpt.save.calls", "count")
    add("ckpt.save.self_s", "s")
    add("ckpt.bytes", "B")
    add("ckpt.restore.self_s", "s")
    add("verify.audit.self_s", "s")
    add("obs.spans.self_s", "s")
    add("obs.spans.recorded", "count", "higher")
    add("obs.spans.evicted", "count")
    add("attached.overhead_frac", "1")
    add("staged.slowdown", "1")
    for phase in PHASES:
        add(f"phase.{phase}.modeled_s", "s")
        add(f"phase.{phase}.msgs", "count")
        add(f"phase.{phase}.bytes", "B")
        add(f"phase.{phase}.host_s", "s")
    add("trace.overhead_frac", "1")
    add("trace.coverage", "1", "higher")
    add("trace.targets_missing", "count")
    return tuple(out)


#: ``(name, unit, better)`` of every per-layer metric of the traced run
PER_LAYER = _per_layer()


def tail_rank(n: int) -> int:
    """How many samples lie beyond the reported tail sample.

    The rule is "the highest percentile with at least ten samples beyond
    it"; below 40 samples that would sit at or under the upper quartile, so
    the tail is the upper quartile until a workload has 40 samples.
    """
    return min(10, n // 4)


def end_to_end(
    reduced: Sequence[Tuple[str, float, int]],
    pooled_steps: Sequence[float],
    modeled_s: float,
    modeled_redist_s: float,
    setup_s: float,
    peak_rss_mb: float,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The end-to-end metric values.

    ``reduced`` holds ``(kind, calibrated host seconds, n particles)`` per
    timed call, each already the minimum over passes; ``pooled_steps`` holds
    the calibrated seconds of every step of every pass.  The tail is read
    from the pooled samples: a percentile of the per-call minima would hide
    exactly the slow calls it is meant to show, and the pool is the only set
    large enough for the ten-beyond rule.  Returns ``(metrics, notes)``;
    ``notes`` carries the tail percentile and the sample counts.
    """
    steps = sorted(s for kind, s, _n in reduced if kind == "step")
    pooled = sorted(pooled_steps)
    if not steps:
        raise ValueError("no step sample survived; nothing to report")
    beyond = tail_rank(len(pooled))
    metrics = {
        "wall_s": sum(s for _kind, s, _n in reduced),
        "step_ms_p50": 1e3 * statistics.median(steps),
        "step_ms_tail": 1e3 * pooled[len(pooled) - 1 - beyond],
        "particle_steps_per_s": sum(n for kind, _s, n in reduced if kind == "step") / sum(steps),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "modeled_s": modeled_s,
        "modeled_redist_s": modeled_redist_s,
    }
    notes = {
        "step_samples": float(len(steps)),
        "tail_samples": float(len(pooled)),
        "tail_percentile": 100.0 * (1.0 - beyond / len(pooled)),
        "tail_beyond": float(beyond),
    }
    return metrics, notes
