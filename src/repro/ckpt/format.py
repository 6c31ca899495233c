"""Bit-exact NDJSON value codec for checkpoint files.

Follows the :mod:`repro.obs.export` conventions — one JSON object per line,
sorted keys, compact separators, a ``kind: "meta"`` header carrying the
format version — and extends them with a recursive value codec so *any*
checkpointed quantity survives a write/read cycle bit-for-bit:

* ``float`` (and NumPy floating scalars) are stored as their
  ``float.hex()`` bit pattern and restored via ``float.fromhex`` — the
  same convention the obs exporter uses for span fields;
* ``numpy.ndarray`` buffers are stored as ``{dtype, shape, hex}`` with the
  raw little-endian bytes hex-encoded, so every column (positions,
  charges, velocities, resort indices, ...) round-trips exactly;
* ints (arbitrary precision — the PCG64 RNG state is a 128-bit integer),
  bools, strings, ``None``, and nested lists/dicts pass through plainly.

The encoded markers (``__float__``, ``__ndarray__``) are reserved keys; a
user dict containing them would be mis-decoded, which is acceptable for an
internal format whose writers are all in this package.

Array payloads bypass JSON's string encoder
-------------------------------------------
An array payload is megabytes of hex that ``json.dumps`` would escape-scan.
:func:`encode_line` splices it into the JSON text instead and writes the
same bytes as the general path, ``dumps(encode_value(…))``.  Every encoded
array begins with the fixed text ``{"__ndarray__":{"dtype":"`` (keys sort
``dtype`` < ``hex`` < ``shape``).  That text cannot occur inside a JSON
string — a ``"`` in a string is always escaped — so each occurrence *is*
an array, unless a user dict claims the reserved key.  :func:`encode_line`
therefore counts ``"__ndarray__"`` (which catches every such key) and
takes the general path unless the count matches the arrays it encoded.
Loading is ``decode_value(json.loads(line))``.

:func:`seal` prefixes a written line with ``"crc"``, the crc32 of the line
as :func:`encode_line`/:func:`dumps` wrote it: ``{"crc":"0a1b2c3d",…}``.
``crc`` sorts first, so keys stay sorted, and each record checks itself, so
records may come in any order.  :func:`read_lines` verifies every seal it
meets before anything decodes the record.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, IO, Iterable, Iterator, List, Optional

import numpy as np

__all__ = [
    "CKPT_VERSION",
    "decode_value",
    "dumps",
    "encode_line",
    "encode_value",
    "read_lines",
    "seal",
    "write_lines",
]

#: bump when the on-disk layout changes; files of any other version are refused
CKPT_VERSION = 2

#: where a sealed line's checksum digits sit, and its length: ``{"crc":"``
#: + eight hex digits + ``",``
_SEAL_DIGITS, _SEAL_LEN = slice(8, 16), len('{"crc":"00000000",')
#: crc32 of the ``{`` a sealed line's content starts with
_CRC_OPEN = zlib.crc32(b"{")

#: the text every encoded array starts with, and the key its payload follows
_ARRAY_OPEN = '{"__ndarray__":{"dtype":"'
_HEX_OPEN = '","hex":"'
_ARRAY_KEY = '"__ndarray__"'


def dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace (obs convention)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode_value(value: Any) -> Any:
    """Recursively encode ``value`` into a JSON-able, bit-exact form."""
    return _encode(value, None)


def _encode(value: Any, payloads: Optional[List[str]]) -> Any:
    """:func:`encode_value`; with a ``payloads`` list, each array's hex goes
    there and its ``hex`` field holds the payload's index instead."""
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        payload = arr.tobytes().hex()
        if payloads is not None:
            payloads.append(payload)
            payload = str(len(payloads) - 1)
        return {
            "__ndarray__": {
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "hex": payload,
            }
        }
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return {"__float__": float(value).hex()}
    if isinstance(value, (int, np.integer)):
        return int(value)
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _encode(v, payloads) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v, payloads) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__} for a checkpoint")


def encode_line(value: Any) -> str:
    """``dumps(encode_value(value))``, byte for byte, with every array
    payload spliced into the JSON text rather than passed through
    ``json.dumps`` (see the module docstring)."""
    payloads: List[str] = []
    skeleton = dumps(_encode(value, payloads))
    if not payloads:
        return skeleton
    if skeleton.count(_ARRAY_KEY) != len(payloads):
        return dumps(encode_value(value))  # a user dict claims the key
    pieces = skeleton.split(_ARRAY_OPEN)
    out = [pieces[0]]
    for piece in pieces[1:]:
        # ``piece`` is ``<dtype>","hex":"<index>","shape":[…]}}…``
        start = piece.index(_HEX_OPEN) + len(_HEX_OPEN)
        stop = piece.index('"', start)
        out += (_ARRAY_OPEN, piece[:start], payloads[int(piece[start:stop])], piece[stop:])
    return "".join(out)


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        if set(value) == {"__ndarray__"}:
            spec = value["__ndarray__"]
            raw = bytes.fromhex(spec["hex"])
            arr = np.frombuffer(raw, dtype=np.dtype(spec["dtype"]))
            return arr.reshape([int(d) for d in spec["shape"]]).copy()
        if set(value) == {"__float__"}:
            return float.fromhex(value["__float__"])
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def seal(line: str) -> str:
    """``line`` (one JSON object with at least one key) with its crc32
    carried as a leading ``"crc"`` key."""
    return '{"crc":"%08x",' % zlib.crc32(line.encode("utf-8")) + line[1:]


def write_lines(stream: IO[str], lines: Iterable[str]) -> int:
    """Write NDJSON lines; returns the total bytes written (UTF-8)."""
    total = 0
    for line in lines:
        stream.write(line)
        stream.write("\n")
        # dumps writes ASCII (ensure_ascii), whose length is its byte count
        total += (len(line) if line.isascii() else len(line.encode("utf-8"))) + 1
    return total


def read_lines(stream: IO[str]) -> Iterator[Any]:
    """Yield parsed NDJSON records, skipping blank lines.

    An unparsable line (e.g. one cut mid-record) raises ``ValueError``
    naming its 1-based line number; a record whose ``crc`` is not the
    :func:`seal` of its text raises one naming the line and the record.
    """
    for number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"line {number} is not a complete JSON record "
                f"(truncated or corrupted): {exc}"
            ) from None
        if (
            isinstance(rec, dict) and "crc" in rec
            and line[_SEAL_DIGITS] != "%08x" % zlib.crc32(
                memoryview(line.encode("utf-8"))[_SEAL_LEN:], _CRC_OPEN
            )
        ):
            name = f"rank {rec.get('rank')}" if rec.get("kind") == "rank" else rec.get("kind")
            raise ValueError(f"line {number}: {name} record fails its checksum (corrupted)")
        yield rec
