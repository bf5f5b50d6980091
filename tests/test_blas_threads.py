"""Seeded outputs at p = 50 do not depend on the BLAS thread count.

OpenBLAS reads its thread count once, when numpy loads, so each count needs
its own process. README "Reproducibility" states the contract this checks.
"""

import os
import subprocess
import sys
from pathlib import Path

import fedspike

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
spec = default_spec(
    "privacy_utility", replications=2, base_seed=44300, methods=("fedspike", "reference")
)
result = run_scenario(spec)
records = [
    (r.method, r.sweep_value, r.replication, r.projection_error, r.cov_frobenius_error, r.seed)
    for r in result.records
]
outputs = (session.u_hat.tolist(), session.sigma_hat.tolist(), records, result.data_digests)
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
