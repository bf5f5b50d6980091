"""Property tests of the message codec.

On any bytes, ``decode`` either raises ``MessageDecodeError`` or returns a
message that ``encode`` can send again; ``decode(encode(m))`` gives back
``m`` bit for bit; and ``encode`` spells every matrix entry as ``_fmt_float``
spells that float.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedspike import (
    BroadcastMessage,
    EigenvalueMessage,
    MessageDecodeError,
    ProjectorMessage,
    decode,
    encode,
    random_orthonormal,
)
from fedspike.messages import _fmt_float


def _decodes_or_refuses(blob: bytes) -> None:
    try:
        msg = decode(blob)
    except MessageDecodeError:
        return
    encode(msg)


# Values that a number or size field of a message cannot take.
_edges = st.sampled_from(
    [float("inf"), float("-inf"), float("nan"), 10**400, -(10**400), -1, 0, 2.5, "1", True]
)
_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_values = _edges | st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)


@given(st.binary(max_size=256))
def test_decode_of_any_bytes_raises_only_decode_errors(blob):
    _decodes_or_refuses(blob)


@given(st.integers(0, 2000), st.binary(min_size=1, max_size=8))
def test_decode_of_a_corrupted_encoding_raises_only_decode_errors(at, chunk):
    blob = encode(ProjectorMessage("c0", random_orthonormal(5, 2, 0), 120, 0.5, 0.1))
    at %= len(blob)
    _decodes_or_refuses(blob[:at] + chunk + blob[at + len(chunk) :])


_finite = st.floats(allow_nan=False, allow_infinity=False)
_client_ids = st.text(min_size=1, max_size=12).filter(
    lambda cid: cid != "server" and not any(ch in cid for ch in "/\\\0")
)


@st.composite
def _frames(draw):
    """An orthonormal p x r frame, with -0.0 wherever a sign flip meets a zero."""
    p = draw(st.integers(1, 6))
    r = draw(st.integers(1, p))
    g = draw(arrays(float, (p, r), elements=st.floats(-4, 4) | st.just(0.0)))
    q, _ = np.linalg.qr(g)
    signs = draw(arrays(float, (r,), elements=st.sampled_from([-1.0, 1.0])))
    return q * signs


@st.composite
def _symmetric(draw, elements=_finite, max_r=5):
    r = draw(st.integers(1, max_r))
    a = draw(arrays(float, (r, r), elements=elements))
    upper = np.arange(r)[:, None] <= np.arange(r)
    return np.where(upper, a, a.T)  # exactly symmetric, signs of zero kept


_messages = (
    st.builds(
        ProjectorMessage,
        client_id=_client_ids,
        u_hat=_frames(),
        n=st.integers(1, 10**30),
        epsilon=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        warning=st.none() | st.text(max_size=20),
    )
    | st.builds(BroadcastMessage, u_hat_global=_frames())
    | st.builds(EigenvalueMessage, client_id=_client_ids, lambda_hat=_symmetric())
)


def _fields(msg) -> dict:
    """Every field, with arrays and floats as their bytes."""
    out = {}
    for key, value in vars(msg).items():
        if isinstance(value, np.ndarray):
            value = (value.shape, value.dtype.str, value.tobytes())
        elif isinstance(value, float):
            value = np.float64(value).tobytes()
        out[key] = (type(value), value)
    return out


@settings(max_examples=300)
@given(_messages, st.data())
def test_decode_of_an_encoding_with_one_field_replaced_raises_only_decode_errors(msg, data):
    obj = json.loads(encode(msg))
    spots = [(obj, key) for key in obj]
    for value in obj.values():
        if isinstance(value, dict):  # a matrix: its header entries and its data too
            spots += [(value, key) for key in value]
            spots += [(value["data"], i) for i in range(len(value["data"]))]
    target, key = data.draw(st.sampled_from(spots))
    target[key] = data.draw(_values)
    _decodes_or_refuses(json.dumps(obj).encode())


@given(_messages)
def test_roundtrip_is_bit_exact(msg):
    back = decode(encode(msg))
    assert type(back) is type(msg)
    assert _fields(back) == _fields(msg)


# Every finite double class the renderer must spell as ``_fmt_float`` does.
_entries = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308])
    | st.integers(-(2**53), 2**53).map(float)
)


@settings(max_examples=300)
@given(_symmetric(_entries, max_r=6))
def test_encode_renders_each_entry_as_fmt_float(lam):
    text = encode(EigenvalueMessage("c0", lam)).decode()
    data = text.split('"data":[', 1)[1].split("]", 1)[0].split(",")
    assert data == [_fmt_float(x) for x in lam.ravel().tolist()]
