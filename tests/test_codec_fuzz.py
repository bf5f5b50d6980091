"""Property tests of the message codec.

On any bytes, ``decode`` either raises ``MessageDecodeError`` or returns a
message that ``encode`` can send again; ``decode(encode(m))`` gives back
``m`` bit for bit; ``encode`` spells every matrix entry as ``_fmt_float``
spells that float; and its bytes equal those of a frozen copy of the codec's
earlier per-type body, and of literal encodings with exact entries.
"""

import json

import numpy as np
import pytest
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
from fedspike.messages import SCHEMA_VERSION, _fmt_float, _fmt_matrix


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


def _frozen_encode(msg) -> bytes:
    """``encode``'s body when each message type had its own branch, kept
    verbatim as the byte-level reference for the key spelling and order."""
    if isinstance(msg, ProjectorMessage):
        parts = [
            '"type":"projector"',
            f'"schema_version":{SCHEMA_VERSION}',
            f'"round":{msg.round}',
            f'"client_id":{json.dumps(msg.client_id)}',
            f'"n":{int(msg.n)}',
            f'"epsilon":{_fmt_float(msg.epsilon)}',
            f'"delta":{_fmt_float(msg.delta)}',
            f'"u_hat":{_fmt_matrix(msg.u_hat)}',
        ]
        if msg.warning is not None:
            parts.append(f'"warning":{json.dumps(msg.warning)}')
    elif isinstance(msg, BroadcastMessage):
        parts = [
            '"type":"broadcast"',
            f'"schema_version":{SCHEMA_VERSION}',
            f'"round":{msg.round}',
            f'"u_hat_global":{_fmt_matrix(msg.u_hat_global)}',
        ]
    else:
        parts = [
            '"type":"eigenvalues"',
            f'"schema_version":{SCHEMA_VERSION}',
            f'"round":{msg.round}',
            f'"client_id":{json.dumps(msg.client_id)}',
            f'"lambda_hat":{_fmt_matrix(msg.lambda_hat)}',
        ]
    return ("{" + ",".join(parts) + "}").encode("utf-8")


@settings(max_examples=300)
@given(_messages)
def test_encode_matches_the_frozen_body(msg):
    assert encode(msg) == _frozen_encode(msg)


def _with_negative_zero(a, at):
    """``a`` with the zero at ``at`` turned into -0.0."""
    a = np.array(a, dtype=float)
    a[at] = -0.0
    return a


# Exact entries only (columns of np.eye, 1/3, signed zeros), so the bytes do
# not depend on the BLAS build. Keys, their order and their spelling are the
# wire format; the optional warning is left out when it is None.
_LITERALS = [
    (
        ProjectorMessage(
            "c0", _with_negative_zero(np.eye(3)[:, :2], (2, 0)), 120, 0.5, 0.1,
            warning='gap "small" \u2013 \u03c8',
        ),
        b'{"type":"projector","schema_version":1,"round":1,"client_id":"c0","n":120,'
        b'"epsilon":0.5,"delta":0.10000000000000001,'
        b'"u_hat":{"rows":3,"cols":2,"data":[1,0,0,1,-0.0,0]},'
        b'"warning":"gap \\"small\\" \\u2013 \\u03c8"}',
    ),
    (
        ProjectorMessage("c0", np.eye(2), 7, 2.0, 0.5),
        b'{"type":"projector","schema_version":1,"round":1,"client_id":"c0","n":7,'
        b'"epsilon":2,"delta":0.5,"u_hat":{"rows":2,"cols":2,"data":[1,0,0,1]}}',
    ),
    (
        BroadcastMessage(_with_negative_zero(np.eye(2)[:, :1], (1, 0))),
        b'{"type":"broadcast","schema_version":1,"round":2,'
        b'"u_hat_global":{"rows":2,"cols":1,"data":[1,-0.0]}}',
    ),
    (
        EigenvalueMessage("c1", np.array([[1 / 3, -0.0], [-0.0, 0.0]])),
        b'{"type":"eigenvalues","schema_version":1,"round":2,"client_id":"c1",'
        b'"lambda_hat":{"rows":2,"cols":2,"data":[0.33333333333333331,-0.0,-0.0,0]}}',
    ),
]


@pytest.mark.parametrize(
    "msg, blob", _LITERALS, ids=["projector", "projector-no-warning", "broadcast", "eigenvalues"]
)
def test_literal_bytes(msg, blob):
    assert encode(msg) == blob
    back = decode(blob)
    assert type(back) is type(msg)
    assert _fields(back) == _fields(msg)
