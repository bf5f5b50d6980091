"""Seeded outputs at p <= 64 do not depend on the BLAS thread count, and
``spectral.sym_eig`` holds OpenBLAS at one thread only around small solves.

OpenBLAS reads its thread count once, when numpy loads, so each count of the
cross-process check needs its own process. README "Reproducibility" states
the contract this checks.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import fedspike
from fedspike import spectral, sym_eig

_PROBE = r"""
import hashlib

import numpy as np

import fedspike as fs
from fedspike.experiments import default_spec, run_scenario

model = fs.SpikedModel(fs.random_orthonormal(50, 1, 44000), np.array([10.0]), 1.0)
clients = []
for j, (n, eps) in enumerate([(2000, 0.5), (5000, 1.0), (800, 0.2)]):
    data = fs.sample(model, n, 44100 + j, client_id=f"c{j}")
    cfg = fs.ClientConfig(f"c{j}", fs.PrivacyBudget(eps, 0.1), 1, 10.0, 1.0, 44200 + j)
    clients.append(fs.ClientHandle(data, cfg))
server = fs.ServerHandle(rank_r=1, sigma2=1.0, lam=10.0)
session = fs.run_federated_session(clients, server, fs.InProcessTransport())
# p = 64, the largest dimension whose eigensolves run at one BLAS thread.
model64 = fs.SpikedModel(fs.random_orthonormal(64, 2, 44400), np.array([12.0, 6.0]), 1.0)
clients64 = []
for j, (n, eps) in enumerate([(3000, 0.5), (1200, 1.0)]):
    data = fs.sample(model64, n, 44500 + j, client_id=f"c{j}")
    cfg = fs.ClientConfig(f"c{j}", fs.PrivacyBudget(eps, 0.1), 2, 12.0, 1.0, 44600 + j)
    clients64.append(fs.ClientHandle(data, cfg))
server64 = fs.ServerHandle(rank_r=2, sigma2=1.0, lam=12.0)
session64 = fs.run_federated_session(clients64, server64, fs.InProcessTransport())
spec = default_spec(
    "privacy_utility", replications=2, base_seed=44300, methods=("fedspike", "reference")
)
result = run_scenario(spec)
records = [
    (r.method, r.sweep_value, r.replication, r.projection_error, r.cov_frobenius_error, r.seed)
    for r in result.records
]
outputs = (
    [(s.u_hat.tolist(), s.sigma_hat.tolist()) for s in (session, session64)],
    records,
    result.data_digests,
)
print(hashlib.sha256(repr(outputs).encode()).hexdigest())
"""


def _env(threads: str | None) -> dict:
    env = dict(os.environ)
    src = str(Path(fedspike.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def test_p50_outputs_match_at_one_and_default_blas_threads():
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _PROBE],
            env=_env(threads),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for threads in ("1", None)
    ]
    digests = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            digests.append(out.strip())
    finally:
        for proc in procs:
            proc.kill()  # a no-op for a process that has exited
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


@pytest.fixture
def blas_threads():
    """The loaded OpenBLAS's thread-count getter, with the count set to 2 for
    the test and restored after it."""
    api = spectral._blas_threads_api()
    if api is None:
        pytest.skip("numpy loaded no OpenBLAS with a thread-count API")
    get, put = api
    saved = get()
    put(2)
    try:
        yield get
    finally:
        put(saved)


def _symmetric(p: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((p, p))
    return (a + a.T) / 2.0


def _assert_same_bits(got, want):
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("p", [8, 50, 64])
def test_eigh_bits_match_inside_and_outside_the_scope(blas_threads, p):
    x = np.random.default_rng(100 + p).standard_normal((p, 40 * p))
    for m in (_symmetric(p, p), x @ x.T / x.shape[1]):
        outside = np.linalg.eigh(m)
        with spectral._one_blas_thread():
            inside = np.linalg.eigh(m)
        _assert_same_bits(inside, outside)


@pytest.mark.parametrize("p, during", [(8, 1), (50, 1), (64, 1), (65, 2)])
def test_eigh_runs_at_one_thread_up_to_dimension_64(blas_threads, monkeypatch, p, during):
    eigh, seen = np.linalg.eigh, []

    def reading_eigh(m):
        seen.append(blas_threads())
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", reading_eigh)
    sym_eig(_symmetric(p, 7))
    assert seen == [during]
    assert blas_threads() == 2


def test_count_and_lock_restored_when_eigh_raises(blas_threads, monkeypatch):
    def failing_eigh(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(np.linalg.LinAlgError):
        sym_eig(_symmetric(50, 8))
    assert blas_threads() == 2
    assert not spectral._blas_lock.locked()


def test_concurrent_eigensolves_leave_the_count_where_it_was(blas_threads):
    m, errors = _symmetric(50, 9), []

    def work():
        try:
            for _ in range(300):
                sym_eig(m)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert blas_threads() == 2


def test_a_lookup_that_finds_nothing_gives_the_same_bits(monkeypatch):
    m = _symmetric(50, 10)
    want = sym_eig(m)
    lookups = []
    monkeypatch.setattr(spectral, "_blas_threads_api", lambda: lookups.append(1))
    got = sym_eig(m)
    assert lookups == [1]
    _assert_same_bits((got.values, got.vectors), (want.values, want.vectors))


def test_the_lookup_finds_the_openblas_numpy_reports():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas["name"].lower():
        pytest.skip(f"numpy was built against {blas['name']}")
    api = spectral._blas_threads_api()
    assert api is not None, f"no thread-count symbols found in {blas['name']} {blas['version']}"
    assert api[0]() >= 1
