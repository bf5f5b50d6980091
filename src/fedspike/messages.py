"""Message payloads and their canonical wire encoding.

Each message is a UTF-8 JSON object with a ``type`` tag, a
``schema_version``, scalars as JSON numbers, and matrices as
``{"rows": .., "cols": .., "data": [..]}`` holding row-major doubles.
Floats are rendered with 17 significant digits, which is enough for JSON
parsing to reproduce every IEEE-754 double bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = 1
_ORTHO_TOL = 1e-8
_SYM_TOL = 1e-8


class MessageError(ValueError):
    """Invalid message content (bad shapes, budgets, orthonormality)."""


class MessageDecodeError(MessageError):
    """A byte string could not be decoded into a valid message."""


def _frozen(a) -> np.ndarray:
    """A read-only float copy: a message's arrays do not change once it is built."""
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _check_orthonormal(u: np.ndarray, name: str) -> None:
    if u.ndim != 2 or u.shape[0] < u.shape[1]:
        raise MessageError(f"{name} must be a p x r matrix with r <= p")
    if not np.all(np.isfinite(u)):
        raise MessageError(f"{name} contains non-finite entries")
    # Huge finite entries overflow to inf or nan here; both are refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.linalg.norm(u.T @ u - np.eye(u.shape[1]))
    if not err <= _ORTHO_TOL:
        raise MessageError(f"{name} is not orthonormal (deviation {err:.3e})")


def _check_client_id(cid: str) -> None:
    if not isinstance(cid, str) or not cid:
        raise MessageError("client_id must be a non-empty string")
    if cid == "server":
        raise MessageError("client_id 'server' is reserved")
    if any(ch in cid for ch in "/\\\0"):
        raise MessageError("client_id must not contain path separators")


@dataclass(frozen=True, eq=False)
class ProjectorMessage:
    """Round-1 release: the privatized top-r frame plus client parameters."""

    client_id: str
    u_hat: np.ndarray
    n: int
    epsilon: float
    delta: float
    schema_version: int = SCHEMA_VERSION
    warning: str | None = None
    round = 1

    def __post_init__(self):
        _check_client_id(self.client_id)
        object.__setattr__(self, "u_hat", _frozen(self.u_hat))
        _check_orthonormal(self.u_hat, "u_hat")
        if int(self.n) < 1:
            raise MessageError("n must be a positive integer")
        if not self.epsilon > 0:
            raise MessageError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise MessageError("delta must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class BroadcastMessage:
    """Round-2 downlink: the aggregated frame sent back to clients."""

    u_hat_global: np.ndarray
    schema_version: int = SCHEMA_VERSION
    round = 2

    def __post_init__(self):
        object.__setattr__(self, "u_hat_global", _frozen(self.u_hat_global))
        _check_orthonormal(self.u_hat_global, "u_hat_global")


@dataclass(frozen=True, eq=False)
class EigenvalueMessage:
    """Round-2 uplink: the privatized r x r eigenvalue block."""

    client_id: str
    lambda_hat: np.ndarray
    schema_version: int = SCHEMA_VERSION
    round = 2

    def __post_init__(self):
        _check_client_id(self.client_id)
        lam = _frozen(self.lambda_hat)
        object.__setattr__(self, "lambda_hat", lam)
        if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
            raise MessageError("lambda_hat must be a square matrix")
        if not np.all(np.isfinite(lam)):
            raise MessageError("lambda_hat contains non-finite entries")
        with np.errstate(over="ignore", invalid="ignore"):  # +-1e308 differ by inf
            asym = np.max(np.abs(lam - lam.T)) if lam.size else 0.0
        if not asym <= _SYM_TOL:
            raise MessageError(f"lambda_hat is not symmetric (deviation {asym:.3e})")


def _fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise MessageError("cannot encode non-finite float")
    if x:
        return format(x, ".17g")
    # "-0" would parse as the integer 0 and lose the sign.
    return "-0.0" if math.copysign(1.0, x) < 0 else "0"


def _fmt_matrix(a: np.ndarray) -> str:
    rows, cols = a.shape
    data = ",".join(map(_fmt_float, a.ravel(order="C").tolist()))
    return f'{{"rows":{rows},"cols":{cols},"data":[{data}]}}'


def encode(msg) -> bytes:
    """Canonical JSON encoding of a message."""
    if isinstance(msg, ProjectorMessage):
        parts = [
            '"type":"projector"',
            f'"schema_version":{msg.schema_version}',
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
            f'"schema_version":{msg.schema_version}',
            f'"round":{msg.round}',
            f'"u_hat_global":{_fmt_matrix(msg.u_hat_global)}',
        ]
    elif isinstance(msg, EigenvalueMessage):
        parts = [
            '"type":"eigenvalues"',
            f'"schema_version":{msg.schema_version}',
            f'"round":{msg.round}',
            f'"client_id":{json.dumps(msg.client_id)}',
            f'"lambda_hat":{_fmt_matrix(msg.lambda_hat)}',
        ]
    else:
        raise MessageError(f"cannot encode object of type {type(msg).__name__}")
    return ("{" + ",".join(parts) + "}").encode("utf-8")


_TYPES = {
    "projector": ProjectorMessage,
    "broadcast": BroadcastMessage,
    "eigenvalues": EigenvalueMessage,
}


def _take(obj: dict, key: str):
    if key not in obj:
        raise MessageDecodeError(f"missing field {key!r}")
    return obj[key]


def _integer(raw, where: str) -> int:
    """A JSON integer; bools and floats are refused."""
    if type(raw) is not int:
        raise MessageDecodeError(f"{where} must be an integer, not {type(raw).__name__}")
    return raw


def _finite(obj: dict, key: str) -> float:
    """A finite JSON number (an integer too: 1.0 is sent as ``1``)."""
    raw = _take(obj, key)
    if type(raw) not in (int, float):
        raise MessageDecodeError(f"field {key!r} must be a number, not {type(raw).__name__}")
    try:
        value = float(raw)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise MessageDecodeError(f"field {key!r} must be finite")
    return value


def _warning(obj: dict) -> str | None:
    raw = obj.get("warning")
    if "warning" in obj and not isinstance(raw, str):
        raise MessageDecodeError(f"field 'warning' must be a string, not {type(raw).__name__}")
    return raw


def _parse_matrix(obj: dict, key: str) -> np.ndarray:
    raw = _take(obj, key)
    if not isinstance(raw, dict) or not {"rows", "cols", "data"} <= raw.keys():
        raise MessageDecodeError(f"field {key!r} must be a matrix object")
    rows = _integer(raw["rows"], f"field {key!r}: rows")
    cols = _integer(raw["cols"], f"field {key!r}: cols")
    data = raw["data"]
    if rows < 1 or cols < 1:
        raise MessageDecodeError(f"field {key!r}: rows and cols must be at least 1")
    if not isinstance(data, list) or rows * cols != len(data):
        raise MessageDecodeError(
            f"field {key!r}: rows*cols = {rows * cols} does not match data length"
        )
    if not set(map(type, data)) <= {int, float}:
        raise MessageDecodeError(f"field {key!r}: matrix data must be numbers")
    try:
        return np.array(data, dtype=float).reshape(rows, cols)
    except OverflowError as exc:
        raise MessageDecodeError(f"field {key!r} holds malformed matrix data: {exc}") from exc


def decode(blob: bytes):
    """Parse and validate one encoded message.

    Raises MessageDecodeError (naming the offending field where possible)
    on malformed bytes, unknown types, version mismatches, a ``round`` that
    is not the JSON integer of the type's round (1 for projector, 2 for
    broadcast and eigenvalues), or payloads that violate the message
    invariants.
    """
    try:
        obj = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer of over 4300 digits
        raise MessageDecodeError(f"malformed message bytes: {exc}") from exc
    except RecursionError as exc:
        raise MessageDecodeError("malformed message bytes: JSON nested too deeply") from exc
    if not isinstance(obj, dict):
        raise MessageDecodeError("message must decode to a JSON object")
    kind = _take(obj, "type")
    version = _take(obj, "schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise MessageDecodeError(
            f"schema_version mismatch: got {version!r}, expected {SCHEMA_VERSION}"
        )
    cls = _TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise MessageDecodeError(f"unknown message type {kind!r}")
    got = _take(obj, "round")
    if type(got) is not int or got != cls.round:
        raise MessageDecodeError(
            f"field 'round' of a {kind} message must be {cls.round}, got {got!r}"
        )
    try:
        if kind == "projector":
            return ProjectorMessage(
                client_id=_take(obj, "client_id"),
                u_hat=_parse_matrix(obj, "u_hat"),
                n=_integer(_take(obj, "n"), "field 'n'"),
                epsilon=_finite(obj, "epsilon"),
                delta=_finite(obj, "delta"),
                warning=_warning(obj),
            )
        if kind == "broadcast":
            return BroadcastMessage(u_hat_global=_parse_matrix(obj, "u_hat_global"))
        return EigenvalueMessage(
            client_id=_take(obj, "client_id"),
            lambda_hat=_parse_matrix(obj, "lambda_hat"),
        )
    except MessageDecodeError:
        raise
    except MessageError as exc:
        raise MessageDecodeError(f"invalid {kind} payload: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise MessageDecodeError(f"invalid {kind} payload: {exc}") from exc
