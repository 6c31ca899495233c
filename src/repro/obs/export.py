"""Span-stream exporters: Chrome ``trace_event`` JSON and deterministic NDJSON.

Chrome trace format
-------------------
:func:`to_chrome_trace` produces the ``trace_event`` JSON object format
(``{"traceEvents": [...]}``) loadable directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.  Virtual-machine seconds
map to trace microseconds; the machine-wide critical path renders as thread
0 ("machine (critical path)"), each virtual rank as its own thread.
Structural sections and charges are complete ("X") events; marks are instant
("i") events.

Deterministic NDJSON
--------------------
:func:`to_ndjson` writes one JSON object per line with sorted keys and no
ambient data (no timestamps, no hostnames), so identical runs produce
byte-identical snapshots — the format the golden span tests pin.  Durations
additionally carry their exact bit pattern in ``*_hex`` fields
(``float.hex``), making bit-for-bit regressions visible in diffs.  The
header line carries run metadata (rank count, perturbation/chaos seed tag,
dropped-span counts); span lines follow in stream order, then one line per
metric sample.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.spans import MACHINE_RANK, ObsRecorder, Span

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "to_ndjson",
    "write_ndjson",
]

NDJSON_VERSION = 1


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- Chrome trace_event ---------------------------------------------------------


def _tid(rank: int) -> int:
    """Thread id per rank: machine stream on tid 0, rank r on tid r + 1."""
    return 0 if rank == MACHINE_RANK else rank + 1


def to_chrome_trace(
    recorder: ObsRecorder, *, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Render the span buffers as a Chrome ``trace_event`` JSON object."""
    events: List[Dict[str, Any]] = [
        {
            "ph": "M", "pid": 0, "tid": 0, "name": "process_name",
            "args": {"name": "repro virtual machine"},
        },
        {
            "ph": "M", "pid": 0, "tid": 0, "name": "thread_name",
            "args": {"name": "machine (critical path)"},
        },
    ]
    for rank in recorder.ranks():
        if rank == MACHINE_RANK:
            continue
        events.append(
            {
                "ph": "M", "pid": 0, "tid": _tid(rank), "name": "thread_name",
                "args": {"name": f"rank {rank}"},
            }
        )
    for span in recorder.spans():
        args: Dict[str, Any] = {"op": span.op, "kind": span.kind}
        if span.messages:
            args["messages"] = span.messages
        if span.nbytes:
            args["bytes"] = span.nbytes
        args.update(span.attrs_dict())
        event: Dict[str, Any] = {
            "pid": 0,
            "tid": _tid(span.rank),
            "name": span.phase,
            "cat": span.kind,
            "ts": span.t_start * 1e6,
            "args": args,
        }
        if span.kind == "mark":
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = max(span.t_end - span.t_start, 0.0) * 1e6
        events.append(event)
    trace: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}),
    }
    return trace


def write_chrome_trace(
    path, recorder: ObsRecorder, *, meta: Optional[Dict[str, Any]] = None
) -> None:
    """Write :func:`to_chrome_trace` output to ``path`` (deterministically:
    events keep stream order, keys are sorted)."""
    with open(path, "w", encoding="utf-8") as fh:
        trace = to_chrome_trace(recorder, meta=meta)
        events = trace.pop("traceEvents")
        fh.write('{"traceEvents":[\n')
        fh.write(",\n".join(_dumps(e) for e in events))
        fh.write("\n]")
        for key in sorted(trace):
            fh.write(f",{_dumps(key)}:{_dumps(trace[key])}")
        fh.write("}\n")


# -- deterministic NDJSON -------------------------------------------------------


def _span_record(span: Span) -> Dict[str, Any]:
    rec: Dict[str, Any] = {
        "kind": span.kind,
        "id": span.id,
        "parent": span.parent,
        "rank": span.rank,
        "phase": span.phase,
        "op": span.op,
        "t_start": span.t_start,
        "t_start_hex": float(span.t_start).hex(),
        "t_end": span.t_end,
        "t_end_hex": float(span.t_end).hex(),
        "time": span.time,
        "time_hex": float(span.time).hex(),
    }
    if span.messages:
        rec["messages"] = span.messages
    if span.nbytes:
        rec["nbytes"] = span.nbytes
    if span.attrs:
        rec["attrs"] = span.attrs_dict()
    return rec


def to_ndjson(
    recorder: ObsRecorder, *, meta: Optional[Dict[str, Any]] = None
) -> List[str]:
    """Render the recorder as deterministic NDJSON lines (no trailing
    newlines)."""
    header: Dict[str, Any] = {
        "kind": "meta",
        "version": NDJSON_VERSION,
        "nprocs": recorder.nprocs,
        "capacity": recorder.capacity,
        "per_rank": recorder.per_rank,
        "complete": recorder.complete,
        "dropped": {str(r): n for r, n in sorted(recorder.dropped.items())},
        "notes": dict(recorder.machine.trace.notes()),
    }
    header.update(meta or {})
    lines = [_dumps(header)]
    for span in recorder.spans():
        lines.append(_dumps(_span_record(span)))
    for sample in recorder.metrics.samples():
        record = {"kind": "metric"}
        record.update(sample)
        lines.append(_dumps(record))
    return lines


def write_ndjson(
    path, recorder: ObsRecorder, *, meta: Optional[Dict[str, Any]] = None
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in to_ndjson(recorder, meta=meta):
            fh.write(line)
            fh.write("\n")
