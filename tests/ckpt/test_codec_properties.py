"""The checkpoint codec's array splice against the general path.

:func:`~repro.ckpt.format.encode_line` must write exactly
``dumps(encode_value(rec))`` for every record — records full of keys that
sort around ``dtype``/``hex``/``shape``, strings that spell the array
marker, quotes, backslashes and non-ASCII text, user dicts that claim the
reserved key — and what it writes must load back bit for bit through
``decode_value(json.loads(line))``.
"""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ckpt.format import decode_value, dumps, encode_line, encode_value

FEW = dict(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: keys that sort just before, at and after the spec's own keys
KEYS = st.sampled_from(
    ["dtype", "dtypd", "dtypf", "hex", "hew", "hey", "hex0", "shape", "shapd",
     "shapf", "__ndarray_", "__ndarray__0", "a", "kind", "data", "é"]
) | st.text(max_size=5)

#: strings that spell pieces of an encoded array, escapes and non-ASCII text
STRINGS = st.sampled_from(
    ['"__ndarray__"', '{"__ndarray__":{"dtype":"<f8","hex":"', '{"__ndarray__":0}',
     '","hex":"', '","shape":[3]}}', "\\", '"', '\\"', "Grüße", "☃", "00ff"]
) | st.text(max_size=8)

DTYPES = st.sampled_from(["<f8", ">f8", "<i8", ">i8", "|b1", "<i4", "|u1"])
SHAPES = st.sampled_from([(), (0,), (1,), (5,), (0, 3), (4, 3), (2, 3, 2)])


@st.composite
def arrays(draw):
    dtype, shape = np.dtype(draw(DTYPES)), draw(SHAPES)
    n = int(np.prod(shape, dtype=np.int64))
    if dtype.kind == "b":
        arr = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    else:
        raw = draw(st.binary(min_size=n * dtype.itemsize, max_size=n * dtype.itemsize))
        arr = np.frombuffer(raw, dtype=dtype).copy()
    arr = arr.reshape(shape)
    if arr.ndim >= 2 and draw(st.booleans()):
        arr = arr.T  # non-contiguous input
    elif arr.ndim == 1 and arr.size > 2 and draw(st.booleans()):
        arr = arr[::2]
    return arr


LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | STRINGS
    | arrays()
)

VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=10,
)

#: a record as the checkpoint writes one, possibly claiming a reserved key
RECORDS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["rank", "system", "machine"]), "data": VALUES},
    optional={
        "rank": st.integers(0, 7),
        "__ndarray__": VALUES,
        "__float__": st.sampled_from(["0x1.8p+1", "nan", "zz"]),
    },
)


@settings(**FEW)
@given(RECORDS)
def test_saving_is_the_general_path_byte_for_byte(rec):
    line = encode_line(rec)
    assert line == dumps(encode_value(rec))
    assert line.isascii()


@settings(**FEW)
@given(RECORDS)
def test_a_saved_line_loads_back_bit_for_bit(rec):
    """Floats and arrays compare by their bits: re-encoding what was loaded
    gives the line back."""
    line = encode_line(rec)
    assert encode_line(decode_value(json.loads(line))) == line


def test_a_user_dict_claiming_the_key_takes_the_general_path():
    rec = {"a": np.arange(2), "b": {"__ndarray__": {"dtype": "<i8", "hex": "0", "shape": [1]}}}
    assert encode_line(rec) == dumps(encode_value(rec))


def test_strings_spelling_the_marker_stay_escaped():
    marker = '{"__ndarray__":{"dtype":"<f8","hex":"'
    rec = {"s": marker, "a": np.arange(3.0), marker: [np.array([True])]}
    line = encode_line(rec)
    assert line == dumps(encode_value(rec))
    assert line.count('{"__ndarray__":{"dtype":"') == 2
