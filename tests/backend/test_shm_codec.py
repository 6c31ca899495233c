"""Property suite for the shared-memory payload codec.

Whatever structure-of-arrays payload the transports hand the backend —
mixed dtypes, empty ranks, zero-length columns, single particles,
structured dtypes — must come back *byte for byte* after a round trip
through an arena.  The layout arithmetic is additionally pinned at
synthetic sizes far beyond ``INT32_MAX`` (pure-int offsets can't wrap;
nothing is allocated at those sizes).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.shm import (
    ALIGNMENT,
    ShmArena,
    arena_layout,
    decode_payload,
    encode_payloads,
    write_columns,
)

# dtypes the simulation transports actually ship (particle columns, index
# vectors, flags) plus a structured record dtype for good measure
DTYPES = st.sampled_from(
    [
        np.dtype(np.float64),
        np.dtype(np.float32),
        np.dtype(np.int64),
        np.dtype(np.int32),
        np.dtype(np.uint8),
        np.dtype(np.bool_),
        np.dtype([("id", np.int64), ("q", np.float64)]),
    ]
)


@st.composite
def columns(draw):
    """One ndarray column: any supported dtype, 0..12 rows, 1-D or (n,3)."""
    dtype = draw(DTYPES)
    n = draw(st.integers(min_value=0, max_value=12))
    if dtype.names is None and draw(st.booleans()):
        shape = (n, 3)
    else:
        shape = (n,)
    if dtype.names is not None:
        arr = np.zeros(shape, dtype=dtype)
        arr["id"] = draw(
            st.lists(st.integers(-(2**40), 2**40), min_size=n, max_size=n)
        )
        arr["q"] = np.linspace(-1.0, 1.0, num=max(n, 1))[:n]
        return arr
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype.kind == "f":
        return rng.standard_normal(shape).astype(dtype)
    if dtype.kind == "b":
        return rng.integers(0, 2, size=shape).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size=shape, dtype=dtype)


@st.composite
def payloads(draw):
    """A payload as the transports define it: array | tuple | list | None."""
    kind = draw(st.sampled_from(["array", "tuple", "list", "none"]))
    if kind == "none":
        return None
    if kind == "array":
        return draw(columns())
    cols = draw(st.lists(columns(), min_size=0, max_size=4))
    return tuple(cols) if kind == "tuple" else list(cols)


def roundtrip(batch, **encode_kwargs):
    specs, total, flat = encode_payloads(batch, **encode_kwargs)
    with ShmArena(total) as arena:
        write_columns(arena.buf, specs, flat)
        return [decode_payload(arena.buf, spec) for spec in specs]


def assert_payload_equal(original, decoded):
    if original is None:
        assert decoded is None
        return
    if isinstance(original, np.ndarray):
        assert isinstance(decoded, np.ndarray)
        assert decoded.dtype == original.dtype
        assert decoded.shape == original.shape
        assert decoded.tobytes() == np.ascontiguousarray(original).tobytes()
        return
    assert type(decoded) is type(original)
    assert len(decoded) == len(original)
    for a, b in zip(original, decoded):
        assert_payload_equal(a, b)


@settings(max_examples=120, deadline=None)
@given(st.lists(payloads(), min_size=0, max_size=6))
def test_mixed_payload_batch_roundtrips_bytewise(batch):
    for original, decoded in zip(batch, roundtrip(batch)):
        assert_payload_equal(original, decoded)


def test_edge_shapes_roundtrip():
    """The named hard cases: empty rank, zero-length, single particle."""
    batch = [
        None,  # rank with no outgoing message
        np.empty((0, 3), dtype=np.float64),  # empty rank payload
        (np.empty(0, dtype=np.int64), np.empty((0, 3))),  # zero-length tuple
        np.array([[1.5, -2.5, 3.5]]),  # single particle
        [np.array([7], dtype=np.int32)],  # single-element list payload
    ]
    for original, decoded in zip(batch, roundtrip(batch)):
        assert_payload_equal(original, decoded)


def test_decoded_arrays_are_fresh_and_writable():
    """Decoded arrays must not alias the arena (it gets unlinked)."""
    (decoded,) = roundtrip([np.arange(6.0)])
    decoded[0] = 99.0  # would raise on a read-only shm view
    assert decoded[0] == 99.0


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=2**41),  # up to 2 TiB per block
        min_size=0,
        max_size=8,
    )
)
def test_arena_layout_huge_sizes_pure_int(sizes):
    """Offset arithmetic holds far past INT32_MAX without allocating."""
    offsets, total = arena_layout(sizes)
    assert len(offsets) == len(sizes)
    cursor = 0
    for offset, size in zip(offsets, sizes):
        assert offset % ALIGNMENT == 0
        assert offset >= cursor
        assert offset - cursor < ALIGNMENT
        cursor = offset + size
    assert total == cursor
    assert isinstance(total, int) and all(isinstance(o, int) for o in offsets)


def test_arena_layout_rejects_negative_sizes():
    with pytest.raises(ValueError, match="negative block size"):
        arena_layout([8, -1])


def test_object_dtype_rejected():
    with pytest.raises(TypeError, match="object-dtype arrays cannot travel"):
        encode_payloads([np.array([{"a": 1}], dtype=object)])


def test_tuple_of_non_arrays_rejected_by_default():
    """Strings must not be silently coerced into '<U1' arrays."""
    with pytest.raises(TypeError, match="must contain only ndarrays"):
        encode_payloads([("hello", 3)])


def test_pickle_fallback_roundtrips_arbitrary_objects():
    """Arbitrary objects take the pickle lane, and only when asked to."""
    batch = [("hello", 3), {"k": [1, 2]}, 1.5, np.arange(4)]
    decoded = roundtrip(batch, allow_pickle=True)
    assert decoded[0] == ("hello", 3)
    assert decoded[1] == {"k": [1, 2]}
    assert decoded[2] == 1.5
    assert_payload_equal(batch[3], decoded[3])


def test_pickle_fallback_preserves_float_bits():
    """Objects taking the pickle lane keep exact float bit patterns."""
    value = (0.1 + 0.2, np.float64(1e-301).item(), -0.0)
    (decoded,) = roundtrip([value], allow_pickle=True)
    assert [v.hex() for v in decoded] == [v.hex() for v in value]
