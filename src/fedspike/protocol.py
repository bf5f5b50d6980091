"""Two-round federated exchange: participants, transports, and the session.

Round 1 sends privatized projector frames client -> server, the server
broadcasts the aggregated frame, and round 2 sends privatized eigenvalue
blocks client -> server. Messages travel in the bit-exact JSON encoding of
``fedspike.messages``.

Three interchangeable transports are provided: in-process (plain object
hand-off), file exchange (one ``{round}_{client_id}.msg`` file per message
in a session directory), and TCP (4-byte big-endian length prefix per
frame, with all socket I/O on the session thread). A seeded session
produces bit-identical results on all three.
"""

from __future__ import annotations

import contextlib
import os
import socket
import struct
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from selectors import EVENT_READ, EVENT_WRITE, DefaultSelector

import numpy as np

from .client import ClientConfig, local_private_eigenvalues, local_private_projector
from .messages import (
    _SERVER_ID,
    BroadcastMessage,
    EigenvalueMessage,
    MessageDecodeError,
    ProjectorMessage,
    decode,
    encode,
)
from .model import Dataset
from .server import (
    SCHEMES,
    AggregationWeights,
    aggregate_projectors,
    assemble_covariance,
    weights_from_messages,
)

__all__ = [
    "SessionError",
    "SessionResult",
    "ClientHandle",
    "ServerHandle",
    "InProcessTransport",
    "FileTransport",
    "TcpTransport",
    "run_federated_session",
]


class SessionError(RuntimeError):
    """A federated session could not complete (missing clients, duplicates, ...)."""


class ClientHandle:
    """One participant: its data, its configuration, and its two releases."""

    def __init__(self, data: Dataset, config: ClientConfig):
        self.data = data
        self.config = config

    @property
    def client_id(self) -> str:
        return self.config.client_id

    def projector(self) -> ProjectorMessage:
        return local_private_projector(self.data, self.config)

    def eigenvalues(self, broadcast: BroadcastMessage) -> EigenvalueMessage:
        return local_private_eigenvalues(self.data, broadcast.u_hat_global, self.config)


class ServerHandle:
    """Central aggregation settings: rank, noise level, and the weights.

    Weights are either computed from the (n, epsilon, delta) carried by the
    round-1 messages (needs the plug-in lam/sigma2) or supplied explicitly.
    The settings are checked here, before any client computes a release.
    """

    def __init__(
        self,
        rank_r: int,
        sigma2: float,
        lam: float | None = None,
        scheme: str = "optimal",
        weights: AggregationWeights | None = None,
    ):
        if weights is None and lam is None:
            raise ValueError("either explicit weights or a lam plug-in is required")
        if scheme not in SCHEMES:
            raise ValueError(f"scheme: unknown scheme {scheme!r}; choose one of {SCHEMES}")
        if rank_r < 1:
            raise ValueError(f"rank_r: must be at least 1, got {rank_r!r}")
        if not (np.isfinite(sigma2) and sigma2 > 0):
            raise ValueError(f"sigma2: must be finite and positive, got {sigma2!r}")
        if lam is not None and not (np.isfinite(lam) and lam > 0):
            raise ValueError(f"lam: must be finite and positive, got {lam!r}")
        self.rank_r = rank_r
        self.sigma2 = sigma2
        self.lam = lam
        self.scheme = scheme
        self.explicit_weights = weights

    def weights_for(self, msgs: list[ProjectorMessage]) -> AggregationWeights:
        if self.explicit_weights is not None:
            return self.explicit_weights
        return weights_from_messages(msgs, self.rank_r, self.lam, self.sigma2, self.scheme)


@dataclass
class SessionResult:
    u_hat: np.ndarray
    sigma_hat: np.ndarray
    weights: AggregationWeights
    transcript: list = field(default_factory=list)
    responders: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

class InProcessTransport:
    """Message objects handed over directly; the reference backend."""

    def open(self) -> None:
        self._uplink: list = []
        self._broadcast = None

    def send_from_client(self, client_id: str, msg) -> None:
        self._uplink.append(msg)

    def collect_at_server(self, round_no: int, expected_ids: list[str]) -> list:
        got, self._uplink = self._uplink, []
        return got

    def broadcast_from_server(self, msg: BroadcastMessage, client_ids: list[str]) -> None:
        self._broadcast = msg

    def receive_at_client(self, client_id: str) -> BroadcastMessage:
        if self._broadcast is None:
            raise SessionError(f"round 2: no broadcast available for client {client_id!r}")
        return self._broadcast

    def close(self) -> None:
        pass


def _decode_or_fail(payload, failure: str):
    """The message in ``payload``, or a SessionError that starts with ``failure``."""
    try:
        if isinstance(payload, MessageDecodeError):
            raise payload
        return decode(payload)
    except MessageDecodeError as exc:
        raise SessionError(f"{failure}: {exc}") from exc


def _as_broadcast(payload, client_id: str) -> BroadcastMessage:
    msg = _decode_or_fail(payload, f"round 2: client {client_id!r} got an undecodable broadcast")
    if not isinstance(msg, BroadcastMessage):
        raise SessionError(
            f"round 2: client {client_id!r} got {type(msg).__name__} on the broadcast channel; "
            "field 'type' must be BroadcastMessage"
        )
    return msg


class FileTransport:
    """One file per message, named ``{round}_{client_id}.msg``, in a directory
    that holds no ``.msg`` file when the session opens. A message is encoded
    before its file is opened, and written under a ``.part`` name that is
    then renamed, so a failed send leaves no ``.msg`` file and a reader never
    sees part of one."""

    def __init__(self, session_dir):
        self.session_dir = str(session_dir)

    def open(self) -> None:
        os.makedirs(self.session_dir, exist_ok=True)
        stale = sorted(f for f in os.listdir(self.session_dir) if f.endswith(".msg"))
        if stale:
            raise SessionError(
                f"session directory {self.session_dir} holds {stale[0]} from an earlier "
                "session; a FileTransport needs a directory without .msg files"
            )

    def _path(self, round_no: int, sender: str) -> str:
        return os.path.join(self.session_dir, f"{round_no}_{sender}.msg")

    def _write(self, sender: str, msg) -> None:
        # A failed encode writes nothing, and a reader sees a whole file or none.
        payload = encode(msg)
        path = self._path(msg.round, sender)
        with open(path + ".part", "wb") as fh:
            fh.write(payload)
        os.replace(path + ".part", path)

    def send_from_client(self, client_id: str, msg) -> None:
        self._write(client_id, msg)

    def collect_at_server(self, round_no: int, expected_ids: list[str]) -> list:
        out = []
        for cid in expected_ids:
            path = self._path(round_no, cid)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    failure = f"round {round_no}: client {cid!r} sent an undecodable message"
                    out.append(_decode_or_fail(fh.read(), failure))
        return out

    def broadcast_from_server(self, msg: BroadcastMessage, client_ids: list[str]) -> None:
        self._write(_SERVER_ID, msg)

    def receive_at_client(self, client_id: str) -> BroadcastMessage:
        path = self._path(2, _SERVER_ID)
        if not os.path.exists(path):
            raise SessionError(f"round 2: no broadcast file for client {client_id!r}")
        with open(path, "rb") as fh:
            return _as_broadcast(fh.read(), client_id)

    def close(self) -> None:
        pass


# 256 MiB: at ~25 bytes a matrix entry, only a p x r frame with p*r near 1e7 comes close.
_MAX_FRAME = 1 << 28


def _read_frames(sock: socket.socket, buf: bytearray, frames: deque) -> bool:
    """Read what ``sock`` holds into ``buf``, moving each whole frame to
    ``frames``; False once the stream has ended, and ``frames`` then ends with
    None (a frame cut short is dropped). An oversized prefix is refused in
    ``frames`` and stays in ``buf``; what follows it is read and dropped, so
    its sender does not stall."""
    try:
        data = sock.recv(1 << 18)
    except OSError:  # reset by the peer
        data = b""
    if not data:
        frames.append(None)
        return False
    if len(buf) >= 4 and struct.unpack_from(">I", buf)[0] > _MAX_FRAME:
        return True
    buf += data
    while len(buf) >= 4:
        (length,) = struct.unpack_from(">I", buf)
        if length > _MAX_FRAME:
            frames.append(MessageDecodeError(f"frame length {length} exceeds {_MAX_FRAME} bytes"))
            del buf[4:]
            return True
        if len(buf) < 4 + length:
            break
        frames.append(buf[4 : 4 + length])
        del buf[: 4 + length]
    return True


class TcpTransport:
    """Length-prefixed JSON frames over localhost TCP, all on the session
    thread. One pump accepts connections and cuts what each socket, server
    end or client end, receives into frames, kept per socket. A send pumps
    while its socket takes no more bytes, so no frame size can hang the
    session; opening a client's socket pumps until that connection is
    accepted, ``receive_at_client`` until the broadcast arrives, and
    ``collect_at_server`` until the round ends, decoding each connection's
    frames in accept order.

    A connection belongs to the client_id of its first frame. A frame that
    does not decode fails the round at once, naming the round, and the
    client once an earlier frame named it; so does a frame that claims a
    client_id other than its connection's, naming both ids and the round.
    Otherwise the round ends, without waiting out ``timeout``, once every
    expected client has sent its frame for the round or had its identified
    connection close, or once every accepted connection has sent its frame
    for the round or closed. So a client whose connection closes before its
    message, or that never connects, is missing without a wait, and a stray
    connection ends no round early. Failing both, the round waits for
    ``timeout``. Frames not decoded when a round ends stay for the next one.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, timeout: float = 10.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def open(self) -> None:
        self._listener = socket.create_server((self.host, self.port))
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._client_socks: dict[str, socket.socket] = {}
        self._accepted: dict[socket.socket, tuple] = {}  # server end -> peer, in accept order
        # Per socket: bytes not yet cut, while it is read; its frames, then its end.
        self._bufs: dict[socket.socket, bytearray] = {}
        self._inbox: dict[socket.socket, deque] = defaultdict(deque)
        # From decoded frames: conn -> client_id, the reverse, conn -> frames sent (inf: closed).
        self._conn_ids: dict[socket.socket, str] = {}
        self._server_conns: dict[str, socket.socket] = {}
        self._frames: dict[socket.socket, float] = {}

    def _pump(self, done, failure: str = "", writer: socket.socket | None = None) -> None:
        """Until ``done()``, accept connections, cut what arrives into frames and
        wake on room in ``writer``; past ``timeout``, return or raise ``failure``."""
        deadline = time.monotonic() + self.timeout
        while not done():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                if failure:
                    raise SessionError(f"{failure} after {self.timeout} s")
                return
            with DefaultSelector() as sel:
                for sock in (self._listener, *self._bufs):
                    if sock.fileno() != -1:  # not closed at its own end
                        sel.register(sock, EVENT_READ | (sock is writer) * EVENT_WRITE)
                ready = [(key.fileobj, events) for key, events in sel.select(remaining)]
            for sock, events in ready:
                if sock is self._listener:
                    conn, addr = sock.accept()
                    self._accepted[conn] = addr
                    conn.setblocking(False)
                    self._bufs[conn] = bytearray()
                elif events & EVENT_READ:
                    if not _read_frames(sock, self._bufs[sock], self._inbox[sock]):
                        del self._bufs[sock]

    def _send(self, sock: socket.socket, payload: bytes, round_no: int, client_id: str) -> None:
        rest = memoryview(struct.pack(">I", len(payload)) + payload)

        def sent() -> bool:
            nonlocal rest
            with contextlib.suppress(BlockingIOError):
                rest = rest[sock.send(rest) :]
            return not rest

        self._pump(sent, f"round {round_no}: client {client_id!r}'s connection stalled", sock)

    def _decode(self, conn: socket.socket, round_no: int, payload) -> object:
        """The message in one frame, checked against its connection's
        client_id, which the first frame that carries one sets."""
        owner = self._conn_ids.get(conn)
        who = f"client {owner!r}" if owner else "a client not yet identified"
        msg = _decode_or_fail(payload, f"round {round_no}: {who} sent an undecodable frame")
        cid = getattr(msg, "client_id", None)
        if cid is not None:
            owner = self._conn_ids.setdefault(conn, cid)
            if cid != owner:
                raise SessionError(
                    f"round {msg.round}: a frame on the connection of client {owner!r} "
                    f"claims client_id {cid!r}"
                )
            self._server_conns.setdefault(cid, conn)
        return msg

    def _client_sock(self, client_id: str) -> socket.socket:
        sock = self._client_socks.get(client_id)
        if sock is None:
            sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
            self._client_socks[client_id] = sock
            sock.setblocking(False)
            self._bufs[sock] = bytearray()
            self._pump(lambda: sock.getsockname() in self._accepted.values())
        return sock

    def send_from_client(self, client_id: str, msg) -> None:
        self._send(self._client_sock(client_id), encode(msg), msg.round, client_id)

    def collect_at_server(self, round_no: int, expected_ids: list[str]) -> list:
        out = []

        def over() -> bool:
            # None stands for a client with no identified connection yet.
            roster = [self._server_conns.get(cid) for cid in expected_ids]
            return any(
                all(self._frames.get(conn, 0) >= round_no for conn in conns)
                for conns in (roster, self._accepted)
            )

        def decoded_until_over() -> bool:
            for conn in self._accepted:
                frames = self._inbox[conn]
                while frames and not over():
                    payload = frames.popleft()
                    if payload is None:  # end of stream
                        self._frames[conn] = float("inf")
                    else:
                        out.append(self._decode(conn, round_no, payload))
                        self._frames[conn] = round_no
            return over()

        self._pump(decoded_until_over)
        return out

    def broadcast_from_server(self, msg: BroadcastMessage, client_ids: list[str]) -> None:
        payload = encode(msg)
        for cid in client_ids:
            conn = self._server_conns.get(cid)
            if conn is None:
                raise SessionError(f"no connection for client {cid}")
            self._send(conn, payload, msg.round, cid)

    def receive_at_client(self, client_id: str) -> BroadcastMessage:
        frames = self._inbox[self._client_socks[client_id]]
        self._pump(lambda: frames, f"round 2: no broadcast reached client {client_id!r}")
        payload = frames.popleft()
        if payload is None:
            raise SessionError(f"round 2: connection closed before broadcast reached {client_id!r}")
        return _as_broadcast(payload, client_id)

    def close(self) -> None:
        for sock in [self._listener, *self._accepted, *self._client_socks.values()]:
            sock.close()


# ---------------------------------------------------------------------------
# Session orchestration
# ---------------------------------------------------------------------------


# The message type each round's uplink carries.
_UPLINK = {1: ProjectorMessage, 2: EigenvalueMessage}


def _expect(received: list, expected_ids: list[str], round_no: int) -> list:
    round_name = f"round {round_no}"
    kind = _UPLINK[round_no]
    by_id: dict[str, object] = {}
    for msg in received:
        cid = getattr(msg, "client_id", None)
        if not isinstance(msg, kind):
            raise SessionError(
                f"client {cid!r} sent {type(msg).__name__} in {round_name}; "
                f"field 'type' must be {kind.__name__}"
            )
        if cid not in expected_ids:
            raise SessionError(
                f"client {cid!r} is not on the roster of {round_name} (field 'client_id')"
            )
        if cid in by_id:
            raise SessionError(f"duplicate client_id {cid!r} in {round_name}")
        by_id[cid] = msg
    missing = sorted(set(expected_ids) - set(by_id))
    if missing:
        raise SessionError(f"clients did not respond in {round_name}: {missing}")
    return [by_id[cid] for cid in sorted(by_id)]


def run_federated_session(
    clients: list[ClientHandle], server: ServerHandle, transport
) -> SessionResult:
    """Execute the two-round exchange and assemble the covariance estimate.

    Every client takes part in both rounds: a client missing from a round
    fails the session with a ``SessionError`` that lists it. The transcript
    records every message in order handled.
    """
    ids = [c.client_id for c in clients]
    if len(set(ids)) != len(ids):
        raise SessionError("duplicate client_id among session participants")
    if not clients:
        raise SessionError("a session needs at least one client")

    transcript: list = []
    transport.open()
    try:
        for client in clients:
            transport.send_from_client(client.client_id, client.projector())
        proj_msgs = _expect(transport.collect_at_server(1, ids), ids, 1)
        transcript.extend(proj_msgs)

        weights = server.weights_for(proj_msgs)
        broadcast = BroadcastMessage(aggregate_projectors(proj_msgs, weights))
        transport.broadcast_from_server(broadcast, ids)
        transcript.append(broadcast)

        for client in clients:
            received = transport.receive_at_client(client.client_id)
            transport.send_from_client(client.client_id, client.eigenvalues(received))
        eig_msgs = _expect(transport.collect_at_server(2, ids), ids, 2)
        transcript.extend(eig_msgs)
        sigma_hat = assemble_covariance(broadcast.u_hat_global, eig_msgs, weights, server.sigma2)
    finally:
        transport.close()

    return SessionResult(
        u_hat=broadcast.u_hat_global,
        sigma_hat=sigma_hat,
        weights=weights,
        transcript=transcript,
        responders=sorted(ids),
    )
