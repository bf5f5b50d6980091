"""Seeded sessions give the bits recorded in ``session_bits.json``.

Each record holds sha256 digests of a session's ``u_hat``, ``sigma_hat`` and
every transcript message's ``encode`` bytes, for m = 1, 3 and 5 clients under
both weight schemes; every transport must reproduce the same record. The
bits depend on the BLAS build, so the file names the OpenBLAS build it was
recorded on, and on any other build the test fails naming both builds.

A change that moves these bits on purpose records the file again, in the
same diff, from the root of a checkout:

    PYTHONPATH=src python tests/test_bit_manifest.py
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import make_model

from fedspike import (
    ClientConfig,
    ClientHandle,
    FileTransport,
    InProcessTransport,
    PrivacyBudget,
    ServerHandle,
    TcpTransport,
    encode,
    run_federated_session,
    sample,
)

MANIFEST = Path(__file__).with_name("session_bits.json")
SESSIONS = [(m, scheme) for m in (1, 3, 5) for scheme in ("optimal", "equal")]
TRANSPORTS = ("inproc", "file", "tcp")


def openblas_build() -> dict:
    """The config string and core name of the OpenBLAS numpy has loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        found = {}
        for key, symbol in (
            ("config", "scipy_openblas_get_config64_"),
            ("corename", "scipy_openblas_get_corename64_"),
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                found[key] = fn().decode()
        if len(found) == 2:
            return found
    return {"config": f"no scipy-openblas library among {libs}", "corename": "unknown"}


def _digest(a) -> str:
    return hashlib.sha256(a if isinstance(a, bytes) else np.ascontiguousarray(a)).hexdigest()


def session_bits(m: int, scheme: str, transport) -> dict:
    """The digests of one seeded session of m clients with unequal n and epsilon."""
    p, r = 10, 2
    model = make_model(p, r, [9.0, 6.0], 1.0, 7 + m)
    clients = []
    for j in range(m):
        data = sample(model, 60 * (j + 1), 300 + 10 * m + j, client_id=f"c{j}")
        budget = PrivacyBudget(0.3 + 0.15 * j, 0.1)
        clients.append(ClientHandle(data, ClientConfig(f"c{j}", budget, r, 9.0, 1.0, 500 + j)))
    server = ServerHandle(rank_r=r, sigma2=1.0, lam=9.0, scheme=scheme)
    result = run_federated_session(clients, server, transport)
    return {
        "u_hat": _digest(result.u_hat),
        "sigma_hat": _digest(result.sigma_hat),
        "transcript": [_digest(encode(msg)) for msg in result.transcript],
    }


def _transport(name: str, tmp_path: Path):
    if name == "inproc":
        return InProcessTransport()
    if name == "file":
        return FileTransport(tmp_path / "session")
    return TcpTransport(timeout=15.0)


def _key(m: int, scheme: str) -> str:
    return f"m{m}-{scheme}"


def _load_for_this_build() -> dict:
    manifest = json.loads(MANIFEST.read_text())
    recorded, found = manifest["build"], openblas_build()
    assert recorded == found, (
        f"{MANIFEST.name} was recorded on OpenBLAS {recorded['config']!r} "
        f"(core {recorded['corename']}), but this process runs OpenBLAS "
        f"{found['config']!r} (core {found['corename']}); record the file again "
        "on this build to check bits here"
    )
    return manifest["sessions"]


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("m, scheme", SESSIONS)
def test_seeded_session_bits_match_the_manifest(m, scheme, transport, tmp_path):
    recorded = _load_for_this_build()[_key(m, scheme)]
    assert session_bits(m, scheme, _transport(transport, tmp_path)) == recorded


def test_another_build_fails_naming_both_builds(monkeypatch):
    recorded = json.loads(MANIFEST.read_text())["build"]
    found = {"config": "OpenBLAS 0.0.0 NOT THE RECORDED BUILD", "corename": "Elsewhere"}
    monkeypatch.setitem(globals(), "openblas_build", lambda: found)
    with pytest.raises(AssertionError) as failure:
        _load_for_this_build()
    for build in (recorded, found):
        assert build["config"] in str(failure.value)
        assert f"core {build['corename']}" in str(failure.value)


if __name__ == "__main__":
    record = {
        "build": openblas_build(),
        "sessions": {
            _key(m, scheme): session_bits(m, scheme, InProcessTransport())
            for m, scheme in SESSIONS
        },
    }
    MANIFEST.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {MANIFEST} ({len(record['sessions'])} sessions)", file=sys.stderr)
