"""Outside-in span tracer: wraps each layer's public callables from here.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
rebinds module functions in every ``repro.*`` namespace that holds the
original object (callers use ``from x import f``) and patches methods on
their classes; every call then records ``(layer, name, start, end, parent,
context)`` in memory.  :meth:`Tracer.uninstall` restores every attribute to
the identical original object.  A target that no longer exists (a later
refactor renamed it) is skipped and reported in :attr:`Tracer.missing`, so
the benchmark keeps running and the hole shows as a zero layer.

A layer's *self time* is the duration of its spans minus the part covered by
their child spans, so self times over all layers sum to the root duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
import types
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "LayerStats", "Tracer", "layer_stats"]

#: ``(layer, module, class or None, callables)``; ``"*"`` on a class means
#: ``__init__`` plus every public plain method it defines.  Layers are named
#: after the repo's modules; the metric names in ``metrics.py`` derive from
#: them.
LAYERS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("simmpi.collectives", "repro.simmpi.collectives", None, (
        "alltoallv", "neighborhood_alltoallv", "allgatherv", "allgather_scalars",
        "allreduce", "bcast", "gatherv", "scatterv")),
    ("simmpi.p2p", "repro.simmpi.p2p", None, ("sendrecv", "send_round", "exchange_pairs")),
    ("simmpi.machine", "repro.simmpi.machine", "Machine", (
        "advance", "compute", "copy", "synchronize", "barrier")),
    ("simmpi.algos", "repro.simmpi.algos", None, (
        "resolve", "alltoallv_staged", "allgatherv_staged", "allreduce_staged",
        "bcast_staged", "gatherv_staged", "scatterv_staged")),
    # ``repro.sorting.partition_sort`` the attribute is the function; the
    # module of that name comes from sys.modules via import_module
    ("sorting.partition_sort", "repro.sorting.partition_sort", None, (
        "partition_sort", "select_splitters", "partition_destinations",
        "split_by_destination")),
    ("sorting.merge_sort", "repro.sorting.merge_sort", None, (
        "merge_exchange_sort",)),
    ("zorder.morton", "repro.zorder.morton", None, (
        "morton_encode3", "morton_decode3", "morton_keys_of_positions")),
    ("core.fine_grained", "repro.core.fine_grained", None, ("fine_grained_redistribute",)),
    ("core.plan.compile", "repro.core.plan", "ResortPlan", ("__init__",)),
    ("core.plan.execute", "repro.core.plan", "ResortPlan", ("execute",)),
    ("core.resort", "repro.core.resort", None, (
        "pack_resort_index", "unpack_resort_index", "initial_numbering",
        "inverse_permutation", "invert_indices", "apply_resort")),
    ("core.restore", "repro.core.restore", None, ("restore_results",)),
    ("core.handle", "repro.core.handle", "FCS", ("tune", "run", "resort", "resort_plan")),
    ("solvers.fmm.run", "repro.solvers.fmm.solver", "FMMSolver", ("tune", "run")),
    ("solvers.fmm.tree", "repro.solvers.fmm.tree", "FMMTree", ("*",)),
    ("solvers.fmm.tree", "repro.solvers.fmm.tree", None, ("leaf_index_of_positions",)),
    ("solvers.fmm.expansions", "repro.solvers.fmm.expansions", "Expansion", ("*",)),
    ("solvers.fmm.expansions", "repro.solvers.fmm.expansions", None, ("derivative_tensors",)),
    ("solvers.p2nfft.run", "repro.solvers.p2nfft.solver", "P2NFFTSolver", ("tune", "run")),
    ("solvers.p2nfft.run", "repro.solvers.p2nfft.solver", None, ("charge_parallel_fft",)),
    # its own layer: the largest single callable of two workloads
    ("solvers.p2nfft.ghosts", "repro.solvers.p2nfft.solver", None, ("ghost_distribution",)),
    ("solvers.p2nfft.linked_cell", "repro.solvers.p2nfft.linked_cell",
     "LinkedCellNearField", ("*",)),
    ("solvers.p2nfft.mesh", "repro.solvers.p2nfft.mesh", "MeshSolver", ("*",)),
    ("solvers.p2nfft.mesh", "repro.solvers.p2nfft.mesh", None, ("cic_fractions",)),
    ("solvers.common.pairs", "repro.solvers.common.pairs", None, (
        "segment_starts", "ragged_cross", "coulomb_pairs", "erfc_pairs")),
    ("md.simulation", "repro.md.simulation", "Simulation", ("__init__", "initialize", "step")),
    ("md.integrator", "repro.md.integrator", None, (
        "accelerations", "position_update", "velocity_update")),
    ("md.distributions", "repro.md.distributions", None, ("distribute",)),
    ("backend.process", "repro.backend.process", "ProcessBackend", (
        "__init__", "deliver", "route", "rank_map", "post_ticket", "claim_ticket",
        "discard_ticket", "close")),
    ("ckpt.save", "repro.ckpt.checkpoint", None, (
        "capture_checkpoint", "write_checkpoint", "save_checkpoint")),
    ("ckpt.restore", "repro.ckpt.checkpoint", None, ("load_checkpoint",)),
    ("ckpt.restore", "repro.ckpt.restore", None, ("restore_simulation",)),
    ("verify.audit", "repro.verify.audit", "CommAuditor", ("*",)),
    ("obs.spans", "repro.obs.spans", "ObsRecorder", ("on_charge", "on_rank_charge", "mark")),
)

#: work counts read at a call boundary: callable name -> (counter, reader
#: of ``(args, result)``)
_COUNTS: Dict[str, Tuple[str, Callable]] = {
    "partition_sort": ("sorting.rows", lambda args, result: sum(b.n for b in args[1])),
    "merge_exchange_sort": ("sorting.rows", lambda args, result: sum(b.n for b in args[1])),
    "coulomb_pairs": ("solvers.common.pairs.pairs", lambda args, result: result[2]),
    "erfc_pairs": ("solvers.common.pairs.pairs", lambda args, result: result[2]),
    "save_checkpoint": ("ckpt.bytes", lambda args, result: result),
}


def _repro_modules() -> Iterator[types.ModuleType]:
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            yield module


def _rebind(old: object, new: object) -> None:
    """Replace every ``repro.*`` module attribute that *is* ``old``."""
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


class Tracer:
    """In-memory span recorder plus the wrapper installer."""

    def __init__(self) -> None:
        #: ``[layer, name, start, end, parent index or -1, context]``
        self.spans: List[list] = []
        #: set by the runner: index of the (cell, call) the next spans belong to
        self.context = -1
        self.counters: Dict[str, int] = defaultdict(int)
        #: targets of :data:`LAYERS` that could not be resolved
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._functions: List[Tuple[object, object]] = []
        self._methods: List[Tuple[type, str, object, bool]] = []

    # -- recording ------------------------------------------------------------

    def _begin(self, layer: str, name: str) -> list:
        stack = self._stack
        rec = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.context]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def _end(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        """Record the block as one span (the runner's per-call roots)."""
        rec = self._begin(layer, name)
        try:
            yield
        finally:
            self._end(rec)

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        begin, end = self._begin, self._end
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = begin(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(rec)
            if count is not None:
                try:
                    self.counters[count[0]] += int(count[1](args, result))
                except (TypeError, IndexError, AttributeError, KeyError):
                    pass  # the callable's signature moved; the count reads 0
            return result

        return traced

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        """Wrap every resolvable target of :data:`LAYERS`."""
        if self._functions or self._methods:
            raise RuntimeError("tracer already installed")
        for layer, modname, clsname, names in LAYERS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.missing.append(modname)
                continue
            owner = module if clsname is None else getattr(module, clsname, None)
            if owner is None:
                self.missing.append(f"{modname}.{clsname}")
                continue
            if names == ("*",):
                names = tuple(
                    n for n, v in vars(owner).items()
                    if isinstance(v, types.FunctionType)
                    and (n == "__init__" or not n.startswith("_"))
                )
            for name in names:
                own = name in vars(owner)
                original = vars(owner)[name] if own else getattr(owner, name, None)
                if not isinstance(original, types.FunctionType):
                    self.missing.append(".".join(p for p in (modname, clsname, name) if p))
                    continue
                label = name if clsname is None else f"{clsname}.{name}"
                traced = self._wrap(layer, label, original)
                if clsname is None:
                    self._functions.append((original, traced))
                    _rebind(original, traced)
                else:
                    self._methods.append((owner, name, original, own))
                    setattr(owner, name, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute to the identical original object."""
        for owner, name, original, own in reversed(self._methods):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        # scan again rather than replay: a module imported while the tracer
        # was installed bound the wrapper, not the original
        for original, traced in self._functions:
            _rebind(traced, original)
        self._methods.clear()
        self._functions.clear()

    @property
    def installed(self) -> int:
        return len(self._functions) + len(self._methods)

    # -- output -----------------------------------------------------------------

    def dump(self, path: str, contexts: List[str]) -> None:
        """Write the spans as one JSON document (name table + rows)."""
        names: Dict[Tuple[str, str], int] = {}
        rows = []
        for layer, name, t0, t1, parent, ctx in self.spans:
            idx = names.setdefault((layer, name), len(names))
            rows.append((idx, t0, t1, parent, ctx))
        doc = {
            "columns": ["name", "start_s", "end_s", "parent", "context"],
            "names": [f"{layer}:{name}" for layer, name in names],
            "contexts": contexts,
            "counters": dict(self.counters),
            "missing": self.missing,
            "spans": rows,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class LayerStats:
    """Per-layer aggregates of one span list."""

    def __init__(self) -> None:
        #: entries into the layer (calls whose parent is another layer)
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: summed duration of parentless spans, per layer
        self.root_s: Dict[str, float] = defaultdict(float)


def layer_stats(spans: List[list], contexts: Optional[set] = None) -> LayerStats:
    """Self time and entry counts per layer.

    ``contexts`` restricts the aggregation to spans recorded under those
    context ids (the timed calls); parents always enclose their children's
    context, so the restriction keeps whole subtrees.
    """
    child_s = [0.0] * len(spans)
    for _layer, _name, t0, t1, parent, _ctx in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    stats = LayerStats()
    for i, (layer, _name, t0, t1, parent, ctx) in enumerate(spans):
        if contexts is not None and ctx not in contexts:
            continue
        stats.self_s[layer] += (t1 - t0) - child_s[i]
        if parent < 0:
            stats.root_s[layer] += t1 - t0
        if parent < 0 or spans[parent][0] != layer:
            stats.calls[layer] += 1
    return stats
