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
    """A federated session could not complete (dropouts, duplicates, ...)."""


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

    def open(self, expected_ids: list[str]) -> None:
        self._uplink: list = []
        self._broadcast = None

    def send_from_client(self, client_id: str, msg) -> None:
        self._uplink.append(msg)

    def collect_at_server(self, expected_ids: list[str]) -> list:
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

    def open(self, expected_ids: list[str]) -> None:
        os.makedirs(self.session_dir, exist_ok=True)
        stale = sorted(f for f in os.listdir(self.session_dir) if f.endswith(".msg"))
        if stale:
            raise SessionError(
                f"session directory {self.session_dir} holds {stale[0]} from an earlier "
                "session; a FileTransport needs a directory without .msg files"
            )
        self._consumed: set[str] = set()

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

    def collect_at_server(self, expected_ids: list[str]) -> list:
        # Files persist as the session record; track what was already read.
        out = []
        for cid in expected_ids:
            for round_no in (1, 2):
                path = self._path(round_no, cid)
                if path not in self._consumed and os.path.exists(path):
                    with open(path, "rb") as fh:
                        out.append(decode(fh.read()))
                    self._consumed.add(path)
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

    A background thread accepts one connection per client, and a reader
    thread per connection cuts its byte stream into frames and queues them
    undecoded; ``collect_at_server`` decodes each frame on the calling
    thread. The server pushes the broadcast down the same connections.

    A connection belongs to the client_id of its first frame. The round
    ends at once, without waiting out ``timeout``, when:
    - a frame does not decode: it fails, naming the round, and the client
      once an earlier frame named it;
    - a frame claims a client_id other than its connection's: it fails,
      naming both ids and the round;
    - an identified client's connection closes before its message arrives:
      the client is missing from the round, a dropout;
    - a connection closes before its first frame while an expected client
      is still unidentified (round 1): it counts as one silent client, so
      the round does not wait for a message that cannot come.
    ``close`` shuts every connection and waits for the readers.
    """

    name = "tcp"

    def __init__(self, host: str = "127.0.0.1", port: int = 0, timeout: float = 10.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def open(self, expected_ids: list[str]) -> None:
        self._listener = socket.create_server((self.host, self.port))
        self.port = self._listener.getsockname()[1]
        # (connection, round, frame bytes | None at end of stream | framing error)
        self._inbox: queue.Queue = queue.Queue()
        self._client_socks: dict[str, socket.socket] = {}
        # Only the collecting thread touches these: connection -> its client_id,
        # the reverse for the broadcast, and the clients whose connection closed.
        self._conn_ids: dict[socket.socket, str] = {}
        self._server_conns: dict[str, socket.socket] = {}
        self._closed_ids: set[str] = set()
        # The lock guards the two lists below; ``_stop`` is set under it, so
        # no reader starts after ``close`` has taken its list.
        self._lock = threading.Lock()
        self._accepted: list[socket.socket] = []
        self._readers: list[threading.Thread] = []
        self._stop = threading.Event()
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="fedspike-tcp-accept", daemon=True
        )
        self._acceptor.start()

    def _accept_loop(self) -> None:
        self._listener.settimeout(0.1)
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._lock:
                if self._stop.is_set():
                    conn.close()
                    return
                t = threading.Thread(
                    target=self._read_loop, args=(conn,), name="fedspike-tcp-reader", daemon=True
                )
                self._accepted.append(conn)
                self._readers.append(t)
                t.start()

    def _read_loop(self, conn: socket.socket) -> None:
        round_no = 0  # a client sends one frame per round, so frame k is round k
        while not self._stop.is_set():
            round_no += 1
            try:
                payload = _recv_frame(conn)
            except OSError:
                payload = None
            except MessageDecodeError as exc:  # the stream cannot be cut into frames
                payload = exc
            self._inbox.put((conn, round_no, payload))
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
        return sock

    def send_from_client(self, client_id: str, msg) -> None:
        _send_frame(self._client_sock(client_id), encode(msg))

    def collect_at_server(self, expected_ids: list[str]) -> list:
        out, heard, silent = [], set(), 0
        deadline = time.monotonic() + self.timeout
        # One message per expected client, less those whose connection closed
        # unheard, less the silent clients.
        while len(out) + len(self._closed_ids.intersection(expected_ids) - heard) + silent < len(
            expected_ids
        ):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                conn, round_no, payload = self._inbox.get(timeout=min(remaining, 0.1))
            except queue.Empty:
                continue
            if payload is None:  # end of stream
                if conn in self._conn_ids:
                    self._closed_ids.add(self._conn_ids[conn])
                elif not self._server_conns.keys() >= set(expected_ids):
                    silent += 1
                continue
            msg = self._decode(conn, round_no, payload)
            heard.add(getattr(msg, "client_id", None))
            out.append(msg)
        return out

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
        with self._lock:
            self._stop.set()
        for sock in self._client_socks.values():
            try:
                sock.close()
            except OSError:
                pass
        # Shutdown wakes a thread blocked in accept or recv on the socket. The
        # descriptors are closed only after those threads are gone, so none is
        # reused while a thread may still read it.
        deadline = time.monotonic() + self.timeout
        _shutdown(self._listener)
        self._acceptor.join(max(0.0, deadline - time.monotonic()))
        with self._lock:
            accepted, readers = list(self._accepted), list(self._readers)
        for conn in accepted:
            _shutdown(conn)
        for t in readers:
            t.join(max(0.0, deadline - time.monotonic()))
        for sock in [self._listener, *accepted]:
            sock.close()


# ---------------------------------------------------------------------------
# Session orchestration
# ---------------------------------------------------------------------------


# The message type each round's uplink carries.
_UPLINK = {1: ProjectorMessage, 2: EigenvalueMessage}


def _expect(received: list, expected_ids: list[str], allow_dropout: bool, round_no: int):
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
    if missing and not allow_dropout:
        raise SessionError(f"clients did not respond in {round_name}: {missing}")
    if not by_id:
        raise SessionError(f"no client responded in {round_name}")
    return [by_id[cid] for cid in sorted(by_id)], missing


def run_federated_session(
    clients: list[ClientHandle],
    server: ServerHandle,
    transport,
    allow_dropout: bool = False,
) -> SessionResult:
    """Execute the two-round exchange and assemble the covariance estimate.

    Strict mode (the default) errors out listing any client that failed to
    respond; with ``allow_dropout`` the weights are renormalized over the
    responders. The transcript records every message in order handled.
    """
    ids = [c.client_id for c in clients]
    if len(set(ids)) != len(ids):
        raise SessionError("duplicate client_id among session participants")
    if not clients:
        raise SessionError("a session needs at least one client")

    transcript: list = []
    transport.open(ids)
    try:
        for client in clients:
            transport.send_from_client(client.client_id, client.projector())
        proj_msgs, missing = _expect(
            transport.collect_at_server(ids), ids, allow_dropout, 1
        )
        transcript.extend(proj_msgs)
        responders = [m.client_id for m in proj_msgs]

        weights = server.weights_for(proj_msgs)
        if missing and server.explicit_weights is not None:
            # Scheme-based weights are computed from the received messages
            # and already renormalize over responders; an explicit vector is
            # keyed to the full roster and must be restricted.
            weights = weights.restrict(responders, ids)
        broadcast = BroadcastMessage(aggregate_projectors(proj_msgs, weights))
        transport.broadcast_from_server(broadcast, responders)
        transcript.append(broadcast)

        responding = [c for c in clients if c.client_id in responders]
        for client in responding:
            received = transport.receive_at_client(client.client_id)
            transport.send_from_client(client.client_id, client.eigenvalues(received))
        eig_msgs, missing2 = _expect(
            transport.collect_at_server(responders), responders, allow_dropout, 2
        )
        transcript.extend(eig_msgs)
        if missing2:
            weights = weights.restrict([m.client_id for m in eig_msgs], responders)
            responders = [m.client_id for m in eig_msgs]
        sigma_hat = assemble_covariance(broadcast.u_hat_global, eig_msgs, weights, server.sigma2)
    finally:
        transport.close()

    return SessionResult(
        u_hat=broadcast.u_hat_global,
        sigma_hat=sigma_hat,
        weights=weights,
        transcript=transcript,
        responders=responders,
    )
