"""Two-round federated exchange: participants, transports, and the session.

Round 1 sends privatized projector frames client -> server, the server
broadcasts the aggregated frame, and round 2 sends privatized eigenvalue
blocks client -> server. Messages travel in the bit-exact JSON encoding of
``fedspike.messages``.

Three interchangeable transports are provided: in-process (plain object
hand-off), file exchange (one ``{round}_{client_id}.msg`` file per message
in a session directory), and TCP (4-byte big-endian length prefix per
frame). A seeded session produces bit-identical results on all three.
"""

from __future__ import annotations

import os
import queue
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .client import ClientConfig, local_private_eigenvalues, local_private_projector
from .messages import (
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

_SERVER_ID = "server"


class InProcessTransport:
    """Message objects handed over directly; the reference backend."""

    name = "inproc"

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
            raise SessionError(f"no broadcast available for client {client_id}")
        return self._broadcast

    def close(self) -> None:
        pass


class FileTransport:
    """One file per message, named ``{round}_{client_id}.msg``, in a directory
    that holds no ``.msg`` file when the session opens. A message is encoded
    before its file is opened, and written under a ``.part`` name that is
    then renamed, so a failed send leaves no ``.msg`` file and a reader never
    sees part of one."""

    name = "file"

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
                    out.append(decode(fh.read()))
        return out

    def broadcast_from_server(self, msg: BroadcastMessage, client_ids: list[str]) -> None:
        self._write(_SERVER_ID, msg)

    def receive_at_client(self, client_id: str) -> BroadcastMessage:
        path = self._path(2, _SERVER_ID)
        if not os.path.exists(path):
            raise SessionError(f"no broadcast file for client {client_id}")
        with open(path, "rb") as fh:
            return decode(fh.read())

    def close(self) -> None:
        pass


# 256 MiB: at ~25 bytes per matrix entry, only a p x r frame with p*r near 1e7
# comes close.
_MAX_FRAME = 1 << 28


def _send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def _shutdown(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:  # not connected, or the peer already closed
        pass


def _recv_exact(sock: socket.socket, count: int) -> bytearray | None:
    buf = bytearray(count)
    view = memoryview(buf)
    got = 0
    while got < count:
        k = sock.recv_into(view[got:])
        if not k:
            return None
        got += k
    return buf


def _recv_frame(sock: socket.socket) -> bytearray | None:
    head = _recv_exact(sock, 4)
    if head is None:
        return None
    (length,) = struct.unpack(">I", head)
    if length > _MAX_FRAME:
        # The frame buffer is allocated before its bytes arrive.
        raise MessageDecodeError(f"frame length {length} exceeds {_MAX_FRAME} bytes")
    return _recv_exact(sock, length)


class TcpTransport:
    """Length-prefixed JSON frames over localhost TCP.

    The session thread accepts every connection itself: opening a client's
    socket accepts that connection and any other pending one, and each pass
    of ``collect_at_server`` accepts whatever is pending. A reader thread per
    connection cuts its byte stream into frames and queues them undecoded;
    ``collect_at_server`` decodes each frame on the session thread. The
    server pushes the broadcast down the same connections.

    A connection belongs to the client_id of its first frame. A frame that
    does not decode fails the round at once, naming the round, and the
    client once an earlier frame named it; so does a frame that claims a
    client_id other than its connection's, naming both ids and the round.
    Otherwise the round ends, without waiting out ``timeout``, once
    - every expected client has sent its frame for the round, or its
      identified connection has closed; or
    - every accepted connection has sent its frame for the round, or has
      closed.
    So a client whose connection closes before its message, or that never
    connects, is missing without a wait, and a stray connection ends no
    round early. Failing both, the round waits for ``timeout``. ``close``
    shuts every connection and waits for the readers.
    """

    name = "tcp"

    def __init__(self, host: str = "127.0.0.1", port: int = 0, timeout: float = 10.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def open(self) -> None:
        self._listener = socket.create_server((self.host, self.port))
        self._listener.settimeout(self.timeout)
        self.port = self._listener.getsockname()[1]
        # (connection, frame bytes | None at end of stream | framing error)
        self._inbox: queue.Queue = queue.Queue()
        self._client_socks: dict[str, socket.socket] = {}
        self._accepted: list[socket.socket] = []
        self._readers: list[threading.Thread] = []
        # From the inbox: connection -> its client_id, the reverse for the
        # broadcast, and connection -> frames it has sent (inf once closed).
        self._conn_ids: dict[socket.socket, str] = {}
        self._server_conns: dict[str, socket.socket] = {}
        self._frames: dict[socket.socket, float] = {}

    def _accept(self, until=None) -> None:
        """Accept every pending connection and start its reader; with
        ``until``, wait first for the connection from that address."""
        while until is not None or select.select([self._listener], [], [], 0)[0]:
            conn, addr = self._listener.accept()
            reader = threading.Thread(
                target=self._read_loop, args=(conn,), name="fedspike-tcp-reader", daemon=True
            )
            self._accepted.append(conn)
            self._readers.append(reader)
            reader.start()
            if addr == until:
                until = None

    def _read_loop(self, conn: socket.socket) -> None:
        while True:
            try:
                payload = _recv_frame(conn)
            except OSError:
                payload = None
            except MessageDecodeError as exc:  # the stream cannot be cut into frames
                payload = exc
            self._inbox.put((conn, payload))
            if not isinstance(payload, bytearray):
                return

    def _decode(self, conn: socket.socket, round_no: int, payload) -> object:
        """The message in one queued frame, checked against its connection's
        client_id, which the first frame that carries one sets."""
        try:
            if isinstance(payload, MessageDecodeError):
                raise payload
            msg = decode(payload)
        except MessageDecodeError as exc:
            owner = self._conn_ids.get(conn)
            who = f"client {owner!r}" if owner else "a client not yet identified"
            raise SessionError(
                f"round {round_no}: {who} sent an undecodable frame: {exc}"
            ) from exc
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
            self._accept(until=sock.getsockname())
        return sock

    def send_from_client(self, client_id: str, msg) -> None:
        _send_frame(self._client_sock(client_id), encode(msg))

    def _done(self, conns, round_no: int) -> bool:
        """Whether each connection has sent its frame of the round or closed;
        ``None`` stands for a client with no identified connection yet."""
        return all(self._frames.get(conn, 0) >= round_no for conn in conns)

    def collect_at_server(self, round_no: int, expected_ids: list[str]) -> list:
        out = []
        deadline = time.monotonic() + self.timeout
        while True:
            self._accept()
            remaining = deadline - time.monotonic()
            roster = [self._server_conns.get(cid) for cid in expected_ids]
            done = self._done(roster, round_no) or self._done(self._accepted, round_no)
            if done or remaining <= 0:
                return out
            try:
                conn, payload = self._inbox.get(timeout=min(remaining, 0.1))
            except queue.Empty:
                continue
            if payload is None:  # end of stream
                self._frames[conn] = float("inf")
                continue
            out.append(self._decode(conn, round_no, payload))
            self._frames[conn] = round_no

    def broadcast_from_server(self, msg: BroadcastMessage, client_ids: list[str]) -> None:
        payload = encode(msg)
        for cid in client_ids:
            conn = self._server_conns.get(cid)
            if conn is None:
                raise SessionError(f"no connection for client {cid}")
            _send_frame(conn, payload)

    def receive_at_client(self, client_id: str) -> BroadcastMessage:
        sock = self._client_socks[client_id]
        sock.settimeout(self.timeout)
        payload = _recv_frame(sock)
        if payload is None:
            raise SessionError(f"connection closed before broadcast reached {client_id}")
        msg = decode(payload)
        if not isinstance(msg, BroadcastMessage):
            raise SessionError("unexpected message type on the broadcast channel")
        return msg

    def close(self) -> None:
        # Shutdown wakes a reader blocked in recv. The descriptors are closed
        # only after the readers are gone, so none is reused while a reader
        # may still read it.
        for conn in self._accepted:
            _shutdown(conn)
        deadline = time.monotonic() + self.timeout
        for t in self._readers:
            t.join(max(0.0, deadline - time.monotonic()))
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
