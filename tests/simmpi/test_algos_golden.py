"""Bitwise golden of the staged collective engines (repro.simmpi.algos).

``algos_golden.json`` was recorded at commit f067d73 — the last one whose
engines were nine hand-rolled round loops — and pins, per engine × rank count
× machine profile × input variant, everything a staged call may move: the
clock vector (float-hex), ``Trace.items()``, the auditor's ``state_dict()``,
a digest of the ordered charge/count stream the funnel emits and a digest of
the returned payloads (container kinds included).  The DST matrices only pin
cross-seed equality and ``bench_collectives`` only crossovers; this table is
what "modeled clocks, traces, ledgers, spans and delivered payloads stay
bitwise" means for any rewrite of the engines.

Re-record (``python tests/simmpi/test_algos_golden.py``) only when a change
*intends* to move staged charges, never to absorb a diff.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import zlib
from collections import defaultdict

import numpy as np
import pytest

from repro.simmpi import JUQUEEN, JUROPA, Machine, Perturbation, collectives
from repro.verify.audit import enable_auditing

GOLDEN_PATH = pathlib.Path(__file__).with_name("algos_golden.json")
PROFILES = {"JUROPA": JUROPA, "JUQUEEN": JUQUEEN}
RANKS = (2, 3, 5, 8, 13, 16)
#: rank counts that additionally run under a chaos perturbation (seed 3)
CHAOS_RANKS = (5, 8)
ALLTOALLV_KINDS = ("array", "tuple", "list", "empty")
ALLGATHERV_KINDS = ("ragged", "rows", "empty")
ALLREDUCE_KINDS = ("scalar", "vector", "int")


def cells():
    """Every golden cell as ``(collective, algo, P, profile, *variant)``."""
    for P in RANKS:
        profiles = list(PROFILES) + (["JUQUEEN~3"] if P in CHAOS_RANKS else [])
        for profile in profiles:
            for kind in ALLTOALLV_KINDS:
                for algo in ("pairwise", "bruck"):
                    for mode in ("dense", "sparse", "cached"):
                        yield ("alltoallv", algo, P, profile, mode, kind)
                yield ("alltoallv", "auto", P, profile, "dense", kind)
            for algo in ("ring", "recursive-doubling", "auto"):
                for kind in ALLGATHERV_KINDS:
                    yield ("allgatherv", algo, P, profile, kind)
            for algo in ("binomial-tree", "recursive-halving-doubling", "auto"):
                for kind in ALLREDUCE_KINDS:
                    yield ("allreduce", algo, P, profile, kind)
            for collective in ("bcast", "gatherv", "scatterv"):
                for root in sorted({0, P // 2, P - 1}):
                    yield (collective, "binomial-tree", P, profile, root)


def cell_key(cell) -> str:
    return "/".join(str(part) for part in cell)


def send_table(P, kind, rng):
    """Sparse mixed-shape send table of one payload container ``kind``,
    self-sends and silent ranks included."""
    sends = []
    for i in range(P):
        targets = {}
        for j in range(P):
            if rng.random() < 0.4:
                continue
            m = int(rng.integers(0, 4))
            cols = (rng.standard_normal((m, 3)), rng.integers(0, 9, m))
            if kind == "array":
                targets[j] = cols[int(rng.integers(0, 2))]
            elif kind == "tuple":
                targets[j] = cols
            elif kind == "list":
                targets[j] = list(cols)
            else:
                targets[j] = (None, np.empty(0), (), [])[int(rng.integers(0, 4))]
        sends.append(targets)
    return sends


def call(machine, rng, collective, *variant):
    P = machine.nprocs
    if collective == "alltoallv":
        mode, kind = variant
        sends = send_table(P, kind, rng)
        return collectives.alltoallv(machine, sends, "sort", count_exchange=mode)
    if collective == "allgatherv":
        shape = {"ragged": (), "rows": (3,), "empty": ()}[variant[0]]
        top = 1 if variant[0] == "empty" else 5
        arrays = [
            rng.standard_normal((int(rng.integers(0, top)),) + shape) for _ in range(P)
        ]
        return collectives.allgatherv(machine, arrays, "gather")
    if collective == "allreduce":
        values = {
            "scalar": lambda: float(rng.standard_normal()),
            "vector": lambda: rng.standard_normal(7),
            "int": lambda: rng.integers(-9, 9, 5),
        }[variant[0]]
        return collectives.allreduce(machine, [values() for _ in range(P)], phase="tune")
    arrays = [rng.standard_normal(int(rng.integers(0, 4))) for _ in range(P)]
    (root,) = variant
    if collective == "bcast":
        return collectives.bcast(machine, arrays[root], root=root, phase="sort")
    return getattr(collectives, collective)(machine, arrays, root=root, phase="gather")


def fingerprint(value):
    """JSON-free structural form of a result: kinds, dtypes, shapes, bytes."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return (type(value).__name__,) + tuple(fingerprint(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return ("float", float(value).hex())
    return (type(value).__name__, repr(value))


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class ChargeLog:
    """Minimal funnel listener (``machine.obs``): hashes the ordered stream of
    charges and labeled counts exactly as ``Machine.commit``/``count`` emit it."""

    per_rank = False

    def __init__(self):
        self.stream = []

    def on_charge(self, phase, op, t, before, after, messages, nbytes, *_clocks):
        self.stream.append((phase, op, float(t).hex(), messages, nbytes))

    def on_count(self, name, value, labels):
        self.stream.append((name, value, sorted(labels.items())))


def run_cell(cell):
    collective, algo, P, profile, *variant = cell
    name, _, chaos = profile.partition("~")
    machine = Machine(
        P,
        profile=PROFILES[name],
        perturbation=Perturbation.sample(int(chaos)) if chaos else None,
    )
    machine.set_collective_algos(f"{collective}={algo}")
    # ranks enter the collective at different times
    machine.advance(np.arange(P) * 1e-6, "skew")
    auditor = enable_auditing(machine)
    log = machine.obs = ChargeLog()
    rng = np.random.default_rng(zlib.crc32(cell_key(cell).encode()))
    result = call(machine, rng, collective, *variant)
    state = auditor.state_dict()
    del state["trace_baseline"]
    # the golden keeps the staged-call total that checkpoint format 1 stored
    # beside the per-algorithm counts it sums
    state["n_algo_calls"] = sum(state["algo_counts"].values())
    return {
        "clocks": [float(c).hex() for c in machine.clocks],
        "trace": [
            [label, float(stats.time).hex(), stats.messages, stats.bytes, stats.calls]
            for label, stats in machine.trace.items()
        ],
        # the key set is fixed, so empty ledgers and zero counters are implied
        "auditor": {name: value for name, value in state.items() if value},
        "charges": digest(log.stream),
        "result": digest(fingerprint(result)),
    }


#: cells grouped into one test id per ``collective=algo/P``
GROUPS = defaultdict(list)
for _cell in cells():
    GROUPS[f"{_cell[0]}={_cell[1]}/P{_cell[2]}"].append(_cell)

GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_golden_covers_exactly_the_cell_matrix():
    assert sorted(GOLDEN) == sorted(cell_key(cell) for cell in cells())


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_staged_engines_match_parent_recorded_golden(group):
    for cell in GROUPS[group]:
        got = json.loads(json.dumps(run_cell(cell)))
        assert got == GOLDEN[cell_key(cell)], cell_key(cell)


if __name__ == "__main__":
    table = {cell_key(cell): run_cell(cell) for cell in cells()}
    lines = [
        f"{json.dumps(key)}: {json.dumps(table[key], separators=(',', ':'))}"
        for key in sorted(table)
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(table)} cells to {GOLDEN_PATH}")
