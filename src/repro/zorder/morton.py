"""Vectorised Morton (Z-order) encoding and decoding.

Keys interleave the bits of 2-D or 3-D integer cell coordinates so that
sorting by key traverses the cells along the Z-order curve [Samet 1990].
All functions are fully vectorised over NumPy arrays of ``uint64``.

Supported ranges: 32 bits per coordinate in 2-D, 21 bits per coordinate in
3-D (both fit a single ``uint64`` key — the same layout ScaFaCoS uses for
its box numbers).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_BITS_2D",
    "MAX_BITS_3D",
    "morton_encode2",
    "morton_encode3",
    "morton_decode3",
    "morton_keys_of_positions",
]

#: maximum bits per coordinate representable in a 64-bit 2-D Morton key
MAX_BITS_2D = 32
#: maximum bits per coordinate representable in a 64-bit 3-D Morton key
MAX_BITS_3D = 21

_U = np.uint64

#: rows per pass of :func:`morton_keys_of_positions`: one pass over the
#: positions of all ranks makes a dozen n-row temporaries, and past ~10^5
#: rows they stop being recycled by the allocator (262 144 rows: 20.7 ms in
#: one pass, 15.3 ms in four; by columns, 12 ms in one and 5.5 ms in four)
_ROW_BLOCK = 1 << 16


def _spread2(x: np.ndarray) -> np.ndarray:
    """Insert one zero bit between each bit of the low 32 bits of ``x``."""
    x = x.astype(np.uint64) & _U(0xFFFFFFFF)
    x = (x | (x << _U(16))) & _U(0x0000FFFF0000FFFF)
    x = (x | (x << _U(8))) & _U(0x00FF00FF00FF00FF)
    x = (x | (x << _U(4))) & _U(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << _U(2))) & _U(0x3333333333333333)
    x = (x | (x << _U(1))) & _U(0x5555555555555555)
    return x


#: the shift-and-mask rounds of :func:`_spread3`
_SPREAD3 = tuple(
    (_U(shift), _U(mask))
    for shift, mask in (
        (32, 0x1F00000000FFFF),
        (16, 0x1F0000FF0000FF),
        (8, 0x100F00F00F00F00F),
        (4, 0x10C30C30C30C30C3),
        (2, 0x1249249249249249),
    )
)


def _spread3(x: np.ndarray) -> np.ndarray:
    """Insert two zero bits between each bit of the low 21 bits of ``x``."""
    return _spread3_inplace(x.astype(np.uint64))


def _spread3_inplace(x: np.ndarray) -> np.ndarray:
    """:func:`_spread3` of a ``uint64`` array, in place."""
    x &= _U(0x1FFFFF)
    for shift, mask in _SPREAD3:
        x |= x << shift
        x &= mask
    return x


def _compact3(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_spread3` (keep every 3rd bit)."""
    x = x.astype(np.uint64) & _U(0x1249249249249249)
    x = (x | (x >> _U(2))) & _U(0x10C30C30C30C30C3)
    x = (x | (x >> _U(4))) & _U(0x100F00F00F00F00F)
    x = (x | (x >> _U(8))) & _U(0x1F0000FF0000FF)
    x = (x | (x >> _U(16))) & _U(0x1F00000000FFFF)
    x = (x | (x >> _U(32))) & _U(0x1FFFFF)
    return x


def morton_encode2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """2-D Morton keys from integer coordinates (up to 32 bits each)."""
    x = np.asarray(x, dtype=np.uint64)
    y = np.asarray(y, dtype=np.uint64)
    if np.any(x >> _U(MAX_BITS_2D)) or np.any(y >> _U(MAX_BITS_2D)):
        raise ValueError(f"2-D Morton coordinates must fit {MAX_BITS_2D} bits")
    return _spread2(x) | (_spread2(y) << _U(1))


def morton_encode3(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """3-D Morton keys from integer coordinates (up to 21 bits each)."""
    x = np.asarray(x, dtype=np.uint64)
    y = np.asarray(y, dtype=np.uint64)
    z = np.asarray(z, dtype=np.uint64)
    if (
        np.any(x >> _U(MAX_BITS_3D))
        or np.any(y >> _U(MAX_BITS_3D))
        or np.any(z >> _U(MAX_BITS_3D))
    ):
        raise ValueError(f"3-D Morton coordinates must fit {MAX_BITS_3D} bits")
    return _spread3(x) | (_spread3(y) << _U(1)) | (_spread3(z) << _U(2))


def morton_decode3(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`morton_encode3`; returns ``(x, y, z)``."""
    keys = np.asarray(keys, dtype=np.uint64)
    return _compact3(keys), _compact3(keys >> _U(1)), _compact3(keys >> _U(2))


def morton_keys_of_positions(
    pos: np.ndarray,
    offset: np.ndarray,
    box: np.ndarray,
    depth: int,
    periodic: bool = True,
) -> np.ndarray:
    """Morton box numbers for particle positions at subdivision ``depth``.

    The system box is divided into ``2**depth`` cells per dimension (the
    FMM's recursive subdivision down to level ``depth``); each particle gets
    the Morton key of the cell it is located in.  Positions outside the box
    wrap (periodic) or clamp (open boundaries), mirroring how the FMM places
    stray particles into boundary boxes.
    """
    if not 0 <= depth <= MAX_BITS_3D:
        raise ValueError(f"depth must be in [0, {MAX_BITS_3D}], got {depth}")
    pos = np.asarray(pos, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"pos must have shape (n, 3), got {pos.shape}")
    offset = np.asarray(offset, dtype=np.float64)
    box = np.asarray(box, dtype=np.float64)
    ncells = 1 << depth
    keys = np.empty(pos.shape[0], dtype=np.uint64)
    for start in range(0, pos.shape[0], _ROW_BLOCK):
        rows = pos[start:start + _ROW_BLOCK]
        key = keys[start:start + _ROW_BLOCK]
        # one coordinate column at a time, spread into its bits of the key
        for axis in range(3):
            rel = rows[:, axis] - offset[axis]
            rel /= box[axis]
            rel *= ncells
            cells = np.floor(rel, out=rel).astype(np.int64)
            if periodic:
                cells &= ncells - 1  # ``% ncells`` on a power of two
            else:
                np.clip(cells, 0, ncells - 1, out=cells)
            bits = _spread3_inplace(cells.view(np.uint64))
            if axis:
                bits <<= _U(axis)
                key |= bits
            else:
                key[:] = bits
    return keys
