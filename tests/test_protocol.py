import json
import socket
import struct
import threading
import time
import warnings
from collections import deque

import numpy as np
import pytest
from conftest import make_model

from fedspike import (
    BroadcastMessage,
    ClientConfig,
    ClientHandle,
    EigenvalueMessage,
    FileTransport,
    InProcessTransport,
    MessageDecodeError,
    PrivacyBudget,
    ProjectorMessage,
    ServerHandle,
    SessionError,
    TcpTransport,
    decode,
    encode,
    local_private_projector,
    protocol,
    run_federated_session,
    sample,
)
from fedspike.messages import MessageError
from fedspike.protocol import _read_frames
from fedspike.server import aggregate_projectors, assemble_covariance, pca_weights


def _projector_msg(seed=0, p=3, r=1, cid="a", warning=None):
    from fedspike import random_orthonormal

    return ProjectorMessage(
        client_id=cid,
        u_hat=random_orthonormal(p, r, seed),
        n=120,
        epsilon=0.5,
        delta=0.1,
        warning=warning,
    )


class TestCodec:
    def test_projector_roundtrip_bit_exact(self):
        msg = _projector_msg(seed=3, p=3, r=1)
        back = decode(encode(msg))
        assert np.array_equal(back.u_hat, msg.u_hat)
        assert (back.client_id, back.n, back.epsilon, back.delta) == (
            msg.client_id,
            msg.n,
            msg.epsilon,
            msg.delta,
        )

    def test_roundtrip_with_warning(self):
        msg = _projector_msg(seed=1, warning="degenerate sample spectrum")
        assert decode(encode(msg)).warning == msg.warning

    def test_broadcast_and_eigenvalue_roundtrip(self):
        from fedspike import random_orthonormal

        b = BroadcastMessage(random_orthonormal(5, 2, 4))
        assert np.array_equal(decode(encode(b)).u_hat_global, b.u_hat_global)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 2))
        e = EigenvalueMessage("c9", (a + a.T) / 2)
        assert np.array_equal(decode(encode(e)).lambda_hat, e.lambda_hat)

    def test_extreme_doubles_roundtrip(self):
        lam = np.array([[1e-308, 0.1 + 0.2], [0.1 + 0.2, -1e300]])
        e = EigenvalueMessage("c1", (lam + lam.T) / 2)
        assert np.array_equal(decode(encode(e)).lambda_hat, e.lambda_hat)

    def test_truncated_bytes(self):
        blob = encode(_projector_msg())
        with pytest.raises(MessageDecodeError):
            decode(blob[: len(blob) // 2])

    def test_unknown_type(self):
        with pytest.raises(MessageDecodeError, match="unknown message type"):
            decode(b'{"type":"gradient","schema_version":1}')

    def test_version_mismatch(self):
        blob = encode(_projector_msg()).replace(b'"schema_version":1', b'"schema_version":2')
        with pytest.raises(MessageDecodeError, match="schema_version"):
            decode(blob)

    def test_shape_mismatch_names_field(self):
        obj = json.loads(encode(_projector_msg(p=3, r=1)))
        obj["u_hat"]["rows"] = 4
        with pytest.raises(MessageDecodeError, match="u_hat"):
            decode(json.dumps(obj).encode())

    def test_orthonormality_enforced_on_decode(self):
        obj = json.loads(encode(_projector_msg(p=3, r=1)))
        obj["u_hat"]["data"] = [v * 1.01 for v in obj["u_hat"]["data"]]
        with pytest.raises(MessageDecodeError, match="orthonormal"):
            decode(json.dumps(obj).encode())

    @pytest.mark.parametrize(
        "kind, field, rows, refusal",
        [
            ("broadcast", "u_hat_global", [[1e200], [1e200], [0.0]], "not orthonormal"),
            ("eigenvalues", "lambda_hat", [[1.0, 1e308], [-1e308, 1.0]], "not symmetric"),
        ],
        ids=["broadcast", "eigenvalues"],
    )
    def test_huge_entries_are_refused_without_a_warning(self, kind, field, rows, refusal):
        # The validity checks overflow on these; the refusal must be the only signal.
        data = [x for row in rows for x in row]
        obj = {"type": kind, "schema_version": 1, "round": 2}
        obj[field] = {"rows": len(rows), "cols": len(rows[0]), "data": data}
        if kind == "eigenvalues":
            obj["client_id"] = "c0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MessageDecodeError, match=refusal):
                decode(json.dumps(obj).encode())

    def test_non_finite_rejected_on_encode(self):
        msg = _projector_msg()
        object.__setattr__(msg, "epsilon", float("nan"))
        with pytest.raises(MessageError):
            encode(msg)

    def test_overflowing_count_names_the_field(self):
        blob = encode(_projector_msg()).replace(b'"n":120', b'"n":1e400')
        with pytest.raises(MessageDecodeError, match="field 'n'"):
            decode(blob)

    def test_overflowing_matrix_header_names_the_field(self):
        blob = encode(_projector_msg(p=3, r=1)).replace(b'"rows":3', b'"rows":1e400')
        with pytest.raises(MessageDecodeError, match="field 'u_hat'"):
            decode(blob)

    @pytest.mark.parametrize("value", [b'"inf"', b"Infinity", b"-Infinity", b"NaN"])
    def test_non_finite_epsilon_is_refused(self, value):
        blob = encode(_projector_msg()).replace(b'"epsilon":0.5', b'"epsilon":' + value)
        with pytest.raises(MessageDecodeError, match="field 'epsilon'"):
            decode(blob)

    @pytest.mark.parametrize("value", [b"true", b'"7"', b"7.9", b"7.0"])
    def test_count_must_be_a_json_integer(self, value):
        blob = encode(_projector_msg()).replace(b'"n":120', b'"n":' + value)
        with pytest.raises(MessageDecodeError, match="field 'n'"):
            decode(blob)

    def test_delta_sent_as_a_string_is_refused(self):
        blob = encode(_projector_msg()).replace(b'"delta":0.10000000000000001', b'"delta":"0.1"')
        with pytest.raises(MessageDecodeError, match="field 'delta'"):
            decode(blob)

    def test_integer_budget_is_a_number(self):
        blob = encode(_projector_msg()).replace(b'"epsilon":0.5', b'"epsilon":2')
        assert decode(blob).epsilon == 2.0

    @pytest.mark.parametrize("value", [b"[1,2]", b"null", b"7"])
    def test_warning_must_be_a_string(self, value):
        blob = encode(_projector_msg()).replace(b'"u_hat"', b'"warning":' + value + b',"u_hat"')
        with pytest.raises(MessageDecodeError, match="field 'warning'"):
            decode(blob)

    @pytest.mark.parametrize(
        "header",
        [
            b'"rows":"3","cols":true',
            b'"rows":3.0,"cols":1',
            b'"rows":1000000000000000000,"cols":0,"data":[]',
        ],
    )
    def test_matrix_header_must_hold_positive_integers(self, header):
        obj = json.loads(encode(_projector_msg(p=3, r=1)))
        head = json.loads(b"{" + header + b"}")
        obj["u_hat"].update(head)
        with pytest.raises(MessageDecodeError, match="field 'u_hat'"):
            decode(json.dumps(obj).encode())

    def test_matrix_data_must_be_numbers(self):
        obj = json.loads(encode(_projector_msg(p=3, r=1)))
        obj["u_hat"]["data"] = [str(v) for v in obj["u_hat"]["data"]]
        with pytest.raises(MessageDecodeError, match="field 'u_hat'"):
            decode(json.dumps(obj).encode())

    def test_schema_version_must_be_an_integer(self):
        blob = encode(_projector_msg()).replace(b'"schema_version":1', b'"schema_version":true')
        with pytest.raises(MessageDecodeError, match="schema_version"):
            decode(blob)

    @pytest.mark.parametrize("value", [None, b'"x"', b'"1"', b"true", b"1.0", b"2"])
    def test_projector_round_must_be_the_integer_1(self, value):
        blob = encode(_projector_msg())
        edited = blob.replace(b'"round":1,', b"" if value is None else b'"round":' + value + b",")
        assert edited != blob
        with pytest.raises(MessageDecodeError, match="'round'"):
            decode(edited)

    @pytest.mark.parametrize("value", [None, b'"2"', b"false", b"1"])
    def test_round_two_messages_must_say_2(self, value):
        from fedspike import random_orthonormal

        lam = np.eye(2)
        for msg in (BroadcastMessage(random_orthonormal(5, 2, 4)), EigenvalueMessage("c9", lam)):
            blob = encode(msg)
            edited = blob.replace(
                b'"round":2,', b"" if value is None else b'"round":' + value + b","
            )
            assert edited != blob
            with pytest.raises(MessageDecodeError, match="'round'"):
                decode(edited)

    def test_deep_nesting_is_refused(self):
        with pytest.raises(MessageDecodeError, match="nested too deeply"):
            decode(b"[" * 200_000)

    def test_negative_zero_keeps_its_sign(self):
        lam = np.array([[-0.0, 0.0], [0.0, 2.5]])
        back = decode(encode(EigenvalueMessage("c1", lam))).lambda_hat
        assert back.tobytes() == lam.tobytes()

    def test_reserved_client_id(self):
        from fedspike import random_orthonormal

        with pytest.raises(MessageError):
            ProjectorMessage("server", random_orthonormal(3, 1, 0), 10, 0.5, 0.1)


def _session_pieces(m=3, p=10, r=1, n=80, heterogeneous=False, seed=0):
    model = make_model(p, r, 8.0, 1.0, seed)
    clients = []
    for j in range(m):
        nj = n * (j + 1) if heterogeneous else n
        eps = 0.4 + (0.2 * j if heterogeneous else 0.0)
        data = sample(model, nj, 100 + seed + j, client_id=f"c{j}")
        cfg = ClientConfig(f"c{j}", PrivacyBudget(eps, 0.1), r, 8.0, 1.0, 200 + seed + j)
        clients.append(ClientHandle(data, cfg))
    server = ServerHandle(rank_r=r, sigma2=1.0, lam=8.0, scheme="optimal")
    return model, clients, server


def _frame(payload):
    """``payload`` with the TCP transport's 4-byte big-endian length prefix."""
    return struct.pack(">I", len(payload)) + payload


class _LosesUplink:
    """Transport mixin that loses every message client ``lost`` sends in
    ``rounds``."""

    rounds = (1, 2)

    def __init__(self, lost, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lost = lost

    def send_from_client(self, client_id, msg):
        if client_id != self.lost or msg.round not in self.rounds:
            super().send_from_client(client_id, msg)


class _LossyInProcess(_LosesUplink, InProcessTransport):
    pass


class _LossyFile(_LosesUplink, FileTransport):
    pass


class _LossyTcp(_LosesUplink, TcpTransport):
    pass


class _SilentInRound2Tcp(_LossyTcp):
    """Client ``lost`` sends its round-1 frame, then stays connected but
    silent."""

    rounds = (2,)


class _GarbledFile(FileTransport):
    """File transport that writes undecodable bytes in place of the message
    file named ``garbled``."""

    def __init__(self, garbled, session_dir):
        super().__init__(session_dir)
        self.garbled = garbled

    def _write(self, sender, msg):
        if f"{msg.round}_{sender}.msg" != self.garbled:
            super()._write(sender, msg)
        else:
            with open(self._path(msg.round, sender), "wb") as fh:
                fh.write(b"\xffnot a message")


def _shrink_buffers(sock):
    for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
        sock.setsockopt(socket.SOL_SOCKET, option, 16384)


class _NoBroadcast:
    """Transport mixin whose server sends no broadcast."""

    def broadcast_from_server(self, msg, client_ids):
        pass


class _NoBroadcastInProcess(_NoBroadcast, InProcessTransport):
    pass


class _NoBroadcastFile(_NoBroadcast, FileTransport):
    pass


class _SmallBufferTcp(TcpTransport):
    """TCP transport whose sockets buffer only 16 kB each way (a few kB
    would stall each send for the kernel's 0.2-s persist timer); accepted
    connections take the listener's sizes. ``buffered`` is what the two ends
    of one connection can hold in flight, as the kernel reports it."""

    def open(self):
        super().open()
        _shrink_buffers(self._listener)

    def _client_sock(self, client_id):
        sock = super()._client_sock(client_id)
        _shrink_buffers(sock)
        self.buffered = sum(
            sock.getsockopt(socket.SOL_SOCKET, option)
            for option in (socket.SO_SNDBUF, socket.SO_RCVBUF)
        )
        return sock


class TestSession:
    def test_single_client_matches_direct_calls(self):
        model, clients, server = _session_pieces(m=1)
        result = run_federated_session(clients, server, InProcessTransport())
        msg = clients[0].projector()
        w = pca_weights([(msg.n, msg.epsilon, msg.delta)], p=10, r=1, lam=8.0, sigma2=1.0)
        direct_u = aggregate_projectors([msg], w)
        assert np.array_equal(result.u_hat, direct_u)
        eig = clients[0].eigenvalues(BroadcastMessage(direct_u))
        direct_sigma = assemble_covariance(direct_u, [eig], w, 1.0)
        assert np.array_equal(result.sigma_hat, direct_sigma)

    def test_transcript_completeness(self):
        _, clients, server = _session_pieces(m=3)
        result = run_federated_session(clients, server, InProcessTransport())
        assert len(result.transcript) == 2 * 3 + 1
        kinds = [type(m).__name__ for m in result.transcript]
        assert kinds.count("ProjectorMessage") == 3
        assert kinds.count("BroadcastMessage") == 1
        assert kinds.count("EigenvalueMessage") == 3

    def test_file_transport_equivalence(self, tmp_path):
        _, clients, server = _session_pieces(m=3)
        res_mem = run_federated_session(clients, server, InProcessTransport())
        res_file = run_federated_session(clients, server, FileTransport(tmp_path / "s1"))
        assert np.array_equal(res_mem.u_hat, res_file.u_hat)
        assert np.array_equal(res_mem.sigma_hat, res_file.sigma_hat)

    def test_file_transport_naming(self, tmp_path):
        _, clients, server = _session_pieces(m=2)
        session_dir = tmp_path / "s2"
        run_federated_session(clients, server, FileTransport(session_dir))
        names = sorted(f.name for f in session_dir.iterdir())
        assert names == ["1_c0.msg", "1_c1.msg", "2_c0.msg", "2_c1.msg", "2_server.msg"]

    def test_reused_session_directory_is_refused_before_any_client_computes(
        self, tmp_path, monkeypatch
    ):
        _, clients, server = _session_pieces(m=2)
        session_dir = tmp_path / "s3"
        run_federated_session(clients, server, FileTransport(session_dir))
        before = {f.name: f.read_bytes() for f in session_dir.iterdir()}
        releases = []
        monkeypatch.setattr(
            protocol,
            "local_private_projector",
            lambda *args: releases.append(1) or local_private_projector(*args),
        )
        with pytest.raises(SessionError, match=r"s3.*holds 1_c0\.msg from an earlier session"):
            run_federated_session(clients, server, FileTransport(session_dir))
        assert not releases
        assert {f.name: f.read_bytes() for f in session_dir.iterdir()} == before

    def test_a_failed_send_leaves_no_message_file(self, tmp_path, monkeypatch):
        _, clients, server = _session_pieces(m=2)
        session_dir = tmp_path / "s4"

        def refuse(msg):
            raise MessageError("encode refused")

        with monkeypatch.context() as patch:
            patch.setattr(protocol, "encode", refuse)
            with pytest.raises(MessageError, match="encode refused"):
                run_federated_session(clients, server, FileTransport(session_dir))
        assert [f.name for f in session_dir.iterdir()] == []
        # Nothing stale is left, so the directory takes the next session.
        run_federated_session(clients, server, FileTransport(session_dir))

    def test_tcp_transport_equivalence(self):
        _, clients, server = _session_pieces(m=2)
        res_mem = run_federated_session(clients, server, InProcessTransport())
        res_tcp = run_federated_session(clients, server, TcpTransport(timeout=15.0))
        assert np.array_equal(res_mem.u_hat, res_tcp.u_hat)
        assert np.array_equal(res_mem.sigma_hat, res_tcp.sigma_hat)

    def test_duplicate_client_id(self):
        _, clients, server = _session_pieces(m=2)
        clients[1] = ClientHandle(clients[0].data, clients[0].config)
        with pytest.raises(SessionError, match="duplicate"):
            run_federated_session(clients, server, InProcessTransport())

    @pytest.mark.parametrize("backend", ["inproc", "file", "tcp"])
    def test_dropout_strict_mode_lists_missing(self, backend, tmp_path):
        _, clients, server = _session_pieces(m=3)
        transport = {
            "inproc": _LossyInProcess("c1"),
            "file": _LossyFile("c1", tmp_path / "s5"),
            "tcp": _LossyTcp("c1", timeout=10.0),
        }[backend]
        with pytest.raises(SessionError, match=r"did not respond in round 1: \['c1'\]"):
            run_federated_session(clients, server, transport)

    @pytest.mark.parametrize(
        "garbled, failure",
        [
            ("1_c1.msg", "round 1: client 'c1' sent an undecodable message: malformed"),
            ("2_server.msg", "round 2: client 'c0' got an undecodable broadcast: malformed"),
        ],
        ids=["uplink", "broadcast"],
    )
    def test_an_undecodable_file_names_its_round_and_client(self, garbled, failure, tmp_path):
        _, clients, server = _session_pieces(m=2)
        with pytest.raises(SessionError, match=failure):
            run_federated_session(clients, server, _GarbledFile(garbled, tmp_path / "s6"))

    @pytest.mark.parametrize(
        "backend, failure",
        [
            ("inproc", "round 2: no broadcast available for client 'c0'"),
            ("file", "round 2: no broadcast file for client 'c0'"),
        ],
        ids=["inproc", "file"],
    )
    def test_a_missing_broadcast_names_round_2_and_the_client(self, backend, failure, tmp_path):
        _, clients, server = _session_pieces(m=2)
        transport = (
            _NoBroadcastInProcess() if backend == "inproc" else _NoBroadcastFile(tmp_path / "s7")
        )
        with pytest.raises(SessionError, match=failure):
            run_federated_session(clients, server, transport)

    def test_frames_larger_than_the_socket_buffers_go_through(self):
        _, clients, server = _session_pieces(m=2, p=800, r=20)
        transport = _SmallBufferTcp(timeout=10.0)
        results = []
        session = threading.Thread(
            target=lambda: results.append(run_federated_session(clients, server, transport)),
            daemon=True,
        )
        session.start()
        session.join(timeout=30.0)
        assert not session.is_alive(), "the session hung on frames its sockets cannot buffer"
        broadcast = results[0].transcript[2]
        # On loopback one send may queue a 64 kB segment past SO_SNDBUF.
        assert len(encode(broadcast)) > 2 * (transport.buffered + (1 << 16))
        reference = run_federated_session(clients, server, InProcessTransport())
        assert np.array_equal(results[0].u_hat, reference.u_hat)
        assert np.array_equal(results[0].sigma_hat, reference.sigma_hat)

    def test_a_connected_client_silent_in_round_2_times_out(self):
        _, clients, server = _session_pieces(m=2)
        start = time.monotonic()
        with pytest.raises(SessionError, match=r"did not respond in round 2: \['c0'\]"):
            run_federated_session(clients, server, _SilentInRound2Tcp("c0", timeout=0.8))
        assert time.monotonic() - start >= 0.8

    def test_explicit_weights_override(self):
        from fedspike import AggregationWeights

        _, clients, server = _session_pieces(m=2)
        w = AggregationWeights([0.9, 0.1], [0.9, 0.1])
        server = ServerHandle(rank_r=1, sigma2=1.0, weights=w)
        result = run_federated_session(clients, server, InProcessTransport())
        assert np.array_equal(result.weights.pca_w, [0.9, 0.1])


class TestServerHandle:
    """Bad server settings are refused before any client computes a release."""

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("scheme", dict(lam=8.0, scheme="optimum")),
            ("rank_r", dict(rank_r=0, lam=8.0)),
            ("sigma2", dict(sigma2=float("nan"), explicit=True)),
            ("sigma2", dict(sigma2=-1.0, explicit=True)),
            ("sigma2", dict(sigma2=float("inf"), lam=8.0)),
            ("lam", dict(lam=-1.0)),
            ("lam", dict(lam=float("nan"))),
        ],
        ids=[
            "unknown-scheme",
            "rank-0",
            "nan-sigma2",
            "negative-sigma2",
            "inf-sigma2",
            "negative-lam",
            "nan-lam",
        ],
    )
    def test_bad_setting_names_its_field(self, field, kwargs):
        from fedspike import AggregationWeights

        args = dict(rank_r=1, sigma2=1.0)
        if kwargs.pop("explicit", False):
            args["weights"] = AggregationWeights([0.5, 0.5], [0.5, 0.5])
        args.update(kwargs)
        with pytest.raises(ValueError, match=f"^{field}: "):
            ServerHandle(**args)


class _GarbageTcp(TcpTransport):
    """TCP transport on which one client sends undecodable bytes in one round."""

    def __init__(self, client_id, round_no, **kwargs):
        super().__init__(**kwargs)
        self.garbled = (client_id, round_no)

    def send_from_client(self, client_id, msg):
        if (client_id, msg.round) == self.garbled:
            self._client_sock(client_id).sendall(_frame(b"\xffnot a message"))
        else:
            super().send_from_client(client_id, msg)


class _ClosingTcp(TcpTransport):
    """TCP transport on which one client closes its socket instead of sending
    its message of one round; in round 1 the socket closes before its first
    frame, so the server cannot tell which client it was."""

    def __init__(self, client_id, round_no=2, **kwargs):
        super().__init__(**kwargs)
        self.closing = (client_id, round_no)

    def send_from_client(self, client_id, msg):
        if (client_id, msg.round) == self.closing:
            self._client_sock(client_id).close()
        else:
            super().send_from_client(client_id, msg)


class _ImpostorTcp(TcpTransport):
    """TCP transport that sends one client's round-2 message over another
    client's connection."""

    def __init__(self, sender, carrier, **kwargs):
        super().__init__(**kwargs)
        self.sender, self.carrier = sender, carrier

    def send_from_client(self, client_id, msg):
        if (client_id, msg.round) == (self.sender, 2):
            client_id = self.carrier
        super().send_from_client(client_id, msg)


class _StrayTcp(TcpTransport):
    """TCP transport to which one raw connection, not a client's, opens as
    the session opens: it closes at once, stays open, or sends ``frame``."""

    def __init__(self, frame=None, closes=False, **kwargs):
        super().__init__(**kwargs)
        self.frame, self.closes = frame, closes

    def open(self):
        super().open()
        self.stray = socket.create_connection((self.host, self.port))
        if self.frame is not None:
            self.stray.sendall(_frame(self.frame))
        if self.closes:
            self.stray.close()


class _ThreadWatchTcp(TcpTransport):
    """TCP transport that records, at each collect, the threads started
    since it opened."""

    def open(self):
        self.before, self.started = set(threading.enumerate()), set()
        super().open()

    def collect_at_server(self, round_no, expected_ids):
        self.started |= set(threading.enumerate()) - self.before
        return super().collect_at_server(round_no, expected_ids)


class _BroadcastTcp(TcpTransport):
    """TCP transport whose server sends client c0 ``frame`` in place of the
    broadcast, or nothing when ``frame`` is None."""

    def __init__(self, frame, **kwargs):
        super().__init__(**kwargs)
        self.frame = frame

    def broadcast_from_server(self, msg, client_ids):
        if self.frame is not None:
            self._server_conns["c0"].sendall(_frame(self.frame))


class _HangUpTcp(TcpTransport):
    """TCP transport whose server closes its end of client c0's connection in
    place of the broadcast."""

    def broadcast_from_server(self, msg, client_ids):
        self._server_conns["c0"].close()


class _RefusedPrefixTcp(_SmallBufferTcp):
    """Client c1 opens its stream with an oversized length prefix, then sends
    its round-1 frame, more than its connection can buffer."""

    def send_from_client(self, client_id, msg):
        if (client_id, msg.round) == ("c1", 1):
            self._client_sock(client_id).sendall(struct.pack(">I", 2**32 - 1))
        super().send_from_client(client_id, msg)


class TestTcpFailures:
    @pytest.mark.parametrize(
        "round_no, who", [(1, "a client not yet identified"), (2, "client 'c1'")]
    )
    def test_undecodable_frame_fails_the_round_at_once(self, round_no, who):
        _, clients, server = _session_pieces(m=3)
        transport = _GarbageTcp("c1", round_no, timeout=10.0)
        t0 = time.monotonic()
        with pytest.raises(SessionError, match=rf"round {round_no}: {who} sent an undecodable"):
            run_federated_session(clients, server, transport)
        assert time.monotonic() - t0 < 2.0

    def test_a_closed_connection_fails_its_round_at_once(self):
        _, clients, server = _session_pieces(m=3)
        t0 = time.monotonic()
        with pytest.raises(SessionError, match=r"did not respond in round 2: \['c1'\]"):
            run_federated_session(clients, server, _ClosingTcp("c1", timeout=10.0))
        assert time.monotonic() - t0 < 2.0

    def test_a_connection_closed_before_its_first_frame_fails_round_1_at_once(self):
        _, clients, server = _session_pieces(m=3)
        t0 = time.monotonic()
        with pytest.raises(SessionError, match=r"did not respond in round 1: \['c1'\]"):
            run_federated_session(clients, server, _ClosingTcp("c1", 1, timeout=10.0))
        assert time.monotonic() - t0 < 2.0

    def test_a_stray_connection_closed_before_any_client_sends_ends_no_round(self):
        _, clients, server = _session_pieces(m=3)
        t0 = time.monotonic()
        result = run_federated_session(clients, server, _StrayTcp(closes=True, timeout=10.0))
        assert time.monotonic() - t0 < 2.0
        assert result.responders == ["c0", "c1", "c2"]

    def test_a_stray_connection_left_open_does_not_hold_a_round(self):
        _, clients, server = _session_pieces(m=3)
        transport = _StrayTcp(timeout=10.0)
        t0 = time.monotonic()
        try:
            result = run_federated_session(clients, server, transport)
        finally:
            transport.stray.close()
        assert time.monotonic() - t0 < 2.0
        assert result.responders == ["c0", "c1", "c2"]
        assert len(transport._accepted) == 4

    def test_a_stray_connection_is_read(self):
        _, clients, server = _session_pieces(m=3)
        transport = _StrayTcp(frame=b"\xffnot a message", closes=True, timeout=10.0)
        with pytest.raises(SessionError, match="round 1: a client not yet identified"):
            run_federated_session(clients, server, transport)

    def test_a_client_that_never_connects_is_a_dropout_at_once(self):
        _, clients, server = _session_pieces(m=3)
        t0 = time.monotonic()
        with pytest.raises(SessionError, match=r"did not respond in round 1: \['c1'\]"):
            run_federated_session(clients, server, _LossyTcp("c1", timeout=10.0))
        assert time.monotonic() - t0 < 2.0

    def test_a_tcp_session_starts_no_thread(self):
        _, clients, server = _session_pieces(m=3)
        transport = _ThreadWatchTcp()
        run_federated_session(clients, server, transport)
        assert transport.started == set()

    def test_an_undecodable_broadcast_names_its_round_and_client(self):
        _, clients, server = _session_pieces(m=1)
        failure = r"round 2: client 'c0' got an undecodable broadcast: malformed"
        with pytest.raises(SessionError, match=failure):
            run_federated_session(clients, server, _BroadcastTcp(b"\xffnot a message"))

    def test_a_refused_length_prefix_fails_the_round_at_once(self):
        # The server drops what follows the refused prefix, so c1's send does
        # not stall, and the round fails on the framing error, not the timeout.
        _, clients, server = _session_pieces(m=2, p=800, r=20)
        failure = (
            r"round 1: a client not yet identified sent an undecodable frame: "
            r"frame length 4294967295 exceeds"
        )
        t0 = time.monotonic()
        with pytest.raises(SessionError, match=failure):
            run_federated_session(clients, server, _RefusedPrefixTcp(timeout=10.0))
        assert time.monotonic() - t0 < 2.0

    def test_a_broadcast_of_the_wrong_type_names_round_2_and_the_client(self):
        _, clients, server = _session_pieces(m=1)
        transport = _BroadcastTcp(encode(EigenvalueMessage("c0", np.eye(1))))
        failure = (
            r"round 2: client 'c0' got EigenvalueMessage on the broadcast channel; "
            r"field 'type' must be BroadcastMessage"
        )
        with pytest.raises(SessionError, match=failure):
            run_federated_session(clients, server, transport)

    def test_a_connection_closed_before_the_broadcast_names_round_2_and_the_client(self):
        _, clients, server = _session_pieces(m=2)
        failure = r"round 2: connection closed before broadcast reached 'c0'"
        with pytest.raises(SessionError, match=failure):
            run_federated_session(clients, server, _HangUpTcp(timeout=10.0))

    def test_a_broadcast_that_never_arrives_names_its_round_and_client(self):
        _, clients, server = _session_pieces(m=1)
        with pytest.raises(SessionError, match=r"round 2: no broadcast reached client 'c0'"):
            run_federated_session(clients, server, _BroadcastTcp(None, timeout=0.5))

    def test_a_frame_claiming_another_client_is_refused(self):
        _, clients, server = _session_pieces(m=2)
        transport = _ImpostorTcp("c1", "c0", timeout=10.0)
        with pytest.raises(SessionError, match=r"round 2: .*'c0'.*'c1'"):
            run_federated_session(clients, server, transport)

    @pytest.mark.parametrize("garbled", [None, ("c1", 2)])
    def test_no_thread_outlives_the_session(self, garbled):
        _, clients, server = _session_pieces(m=3)
        transport = TcpTransport() if garbled is None else _GarbageTcp(*garbled)
        before = set(threading.enumerate())
        try:
            run_federated_session(clients, server, transport)
        except SessionError:
            assert garbled is not None
        assert [t for t in threading.enumerate() if t not in before] == []
        assert len(transport._accepted) == 3
        assert all(conn.fileno() == -1 for conn in transport._accepted)


class _InjectingTransport(InProcessTransport):
    """In-process transport that slips one extra message into a round's uplink."""

    def __init__(self, round_no, msg):
        self.round_no, self.msg = round_no, msg

    def collect_at_server(self, round_no, expected_ids):
        got = super().collect_at_server(round_no, expected_ids)
        if round_no == self.round_no:
            got.append(self.msg)
        return got


class TestRoundChecks:
    def test_eigenvalue_message_in_round_one(self):
        _, clients, server = _session_pieces(m=2)
        stray = EigenvalueMessage("c2", np.eye(1))
        with pytest.raises(SessionError, match=r"c2.*round 1.*'type'"):
            run_federated_session(clients, server, _InjectingTransport(1, stray))

    def test_projector_message_in_round_two(self):
        _, clients, server = _session_pieces(m=2)
        clients = clients[:1]
        stray = clients[0].projector()
        with pytest.raises(SessionError, match=r"c0.*round 2.*'type'"):
            run_federated_session(clients, server, _InjectingTransport(2, stray))

    def test_broadcast_on_the_uplink(self):
        _, clients, server = _session_pieces(m=2)
        stray = BroadcastMessage(clients[0].projector().u_hat)
        with pytest.raises(SessionError, match=r"round 1.*'type'"):
            run_federated_session(clients, server, _InjectingTransport(1, stray))

    def test_client_off_the_roster(self):
        _, clients, server = _session_pieces(m=3)
        stray = clients[2].projector()
        with pytest.raises(SessionError, match=r"c2.*round 1.*'client_id'"):
            run_federated_session(clients[:2], server, _InjectingTransport(1, stray))


def _cut(sock):
    """The frames, then the end marker, that the frame cutter makes of what
    ``sock`` receives until its stream ends."""
    buf, frames = bytearray(), deque()
    while _read_frames(sock, buf, frames):
        pass
    return list(frames)


class TestFraming:
    def test_large_frame_arrives_byte_identical(self):
        payload = bytes(range(256)) * 4099  # ~1 MB, more than one recv's worth
        a, b = socket.socketpair()

        def send():
            a.sendall(_frame(payload))
            a.shutdown(socket.SHUT_WR)

        with a, b:
            b.settimeout(10.0)
            sender = threading.Thread(target=send)
            sender.start()
            frames = _cut(b)
            sender.join(timeout=10.0)
        assert not sender.is_alive()
        assert len(frames) == 2 and bytes(frames[0]) == payload and frames[1] is None

    def test_frame_cut_short_reads_as_closed(self):
        a, b = socket.socketpair()
        with b:
            a.sendall(struct.pack(">I", 10) + b"abc")
            a.close()
            assert _cut(b) == [None]

    def test_oversized_length_prefix_is_refused(self):
        # What follows the refused prefix, a whole frame here, is dropped.
        a, b = socket.socketpair()
        with b:
            a.sendall(struct.pack(">I", 2**32 - 1) + _frame(b"dropped"))
            a.close()
            refusal, end = _cut(b)
        assert isinstance(refusal, MessageDecodeError) and end is None
        assert "frame length 4294967295" in str(refusal)
