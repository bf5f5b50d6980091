"""The benchmark workloads: input generation, the timed op, output checks.

Each workload is a closed loop with one op in flight. ``inputs(seed, i)``
builds op ``i``'s fresh inputs from the workload seed (outside the timer),
``run(inputs)`` is the timed op, and ``check(inputs, output)`` validates the
output (outside the timer) and returns a short list of floats that
``reference.json`` records at the default seed.

The program is reached only through module attributes looked up at call
time (``fedspike.protocol.TcpTransport``, ``experiments.run_scenario``...),
so the traced run's rebinding of those names is seen by every op.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

# Bounds of the output checks, in the units of the checked quantity.
ORTHO_TOL = 1e-8  # |U'U - I|_F for a released or aggregated frame


class CheckError(AssertionError):
    """An op's output failed a benchmark output check."""


def op_seed(workload: str, seed: int, index: int) -> int:
    """Seed of op ``index``: depends on the workload seed, never on the program."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def projection_distance(u1: np.ndarray, u2: np.ndarray) -> float:
    """|U1 U1' - U2 U2'|_F, computed here so the check does not call the program."""
    cross = u1.T @ u2
    return math.sqrt(max(2.0 * u1.shape[1] - 2.0 * float(np.sum(cross * cross)), 0.0))


def _check_frame(u: np.ndarray, p: int, r: int, what: str) -> None:
    if u.shape != (p, r) or not np.all(np.isfinite(u)):
        raise CheckError(f"{what}: shape {u.shape} != ({p}, {r}) or non-finite entries")
    dev = float(np.linalg.norm(u.T @ u - np.eye(r)))
    if not dev <= ORTHO_TOL:
        raise CheckError(f"{what}: not orthonormal (deviation {dev:.3e})")


def _check_covariance(sigma: np.ndarray, p: int, what: str) -> None:
    if sigma.shape != (p, p) or not np.all(np.isfinite(sigma)):
        raise CheckError(f"{what}: shape {sigma.shape} != ({p}, {p}) or non-finite entries")
    if not np.array_equal(sigma, sigma.T):
        raise CheckError(f"{what}: not symmetric")


def _finite(x: float, what: str) -> float:
    if not math.isfinite(x) or x < 0:
        raise CheckError(f"{what} is {x!r}, expected a finite non-negative error")
    return float(x)


def _random_frame(rng: np.random.Generator, p: int, r: int) -> np.ndarray:
    q, rmat = np.linalg.qr(rng.standard_normal((p, r)))
    return q * np.sign(np.diag(rmat))


SIZES = ("full", "tiny")


class Workload:
    """``size``: "full" is measured; "tiny" is for smoke tests.

    ``warm_size`` is the size of the untimed warm-up op of a full run: large
    enough to pay the first-call costs that the timed ops would otherwise see.
    """

    name = ""
    warm_size = "full"

    def __init__(self, size: str = "full"):
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}")
        self.size = size

    def inputs(self, seed: int, index: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list:
        raise NotImplementedError

    def wire_bytes(self, inp, out) -> int | None:
        """Encoded bytes one op puts on the wire, or None where nothing is encoded."""
        return None

    # A once-per-run check of one op's output against another code path.
    crosscheck = None


class _Scenario(Workload):
    """One replication of a privacy_utility scenario run with verify_pairing."""

    overrides: dict = {}
    # A full op takes seconds and shows no first-op penalty beyond the noise.
    warm_size = "tiny"

    def inputs(self, seed, index):
        from fedspike import experiments

        sizes = {} if self.size == "full" else dict(p=8, n=200)
        return experiments.default_spec(
            "privacy_utility",
            replications=1,
            base_seed=op_seed(self.name, seed, index),
            **self.overrides,
            **sizes,
        )

    def run(self, spec):
        from fedspike import experiments

        return experiments.run_scenario(spec, verify_pairing=True)

    def check(self, spec, result) -> list:
        expected = len(spec.eps_grid) * len(spec.methods)
        if len(result.records) != expected:
            raise CheckError(f"{len(result.records)} records, expected {expected}")
        summary = []
        for rec in result.records:
            proj = _finite(rec.projection_error, f"{rec.method} projection error")
            if proj > math.sqrt(2 * spec.r) + 1e-12:
                raise CheckError(f"{rec.method} projection error {proj} exceeds sqrt(2r)")
            cov = rec.cov_frobenius_error
            if (cov is None) != (rec.method in ("reference", "oja")):
                raise CheckError(f"{rec.method}: covariance error presence is wrong")
            summary += [proj, None if cov is None else _finite(cov, f"{rec.method} cov error")]
        return summary


class SimPrivacyUtility(_Scenario):
    name = "sim_privacy_utility"
    overrides = dict(methods=("fedspike", "reference"))


class SimOjaBaseline(_Scenario):
    name = "sim_oja_baseline"
    overrides = dict(methods=("fedspike", "oja"), eps_grid=(0.5,))


@dataclass
class _SessionInputs:
    basis: np.ndarray
    truth: np.ndarray
    clients: list
    server: object


class SessionTcp(Workload):
    """One strict two-round session over TCP, shaped like the real-data run."""

    name = "session_tcp"
    # Warmed up at tiny size, about one process in eight took ~1 s for its
    # first full-size TCP session instead of 60 ms.
    warm_size = "full"
    sigma2 = 1.0
    lam = 10.0
    epsilon = 0.4
    delta = 0.1

    @property
    def shape(self):
        return (20, 2, (30, 20)) if self.size == "tiny" else (251, 5, (130, 51))

    def inputs(self, seed, index):
        import fedspike as fs

        p, r, sizes = self.shape
        rng = np.random.default_rng(op_seed(self.name, seed, index))
        u = _random_frame(rng, p, r)
        spikes = np.linspace(2.5 * self.lam, self.lam, r)
        truth = (u * spikes) @ u.T + self.sigma2 * np.eye(p)
        clients = []
        for j, n in enumerate(sizes):
            x = u @ (np.sqrt(spikes)[:, None] * rng.standard_normal((r, n)))
            x += math.sqrt(self.sigma2) * rng.standard_normal((p, n))
            cfg = fs.ClientConfig(
                f"c{j:03d}",
                fs.PrivacyBudget(self.epsilon, self.delta),
                rank_r=r,
                lambda_plugin=self.lam,
                sigma2_plugin=self.sigma2,
                seed=int(rng.integers(2**62)),
            )
            clients.append(fs.ClientHandle(fs.Dataset(x, cfg.client_id), cfg))
        server = fs.ServerHandle(rank_r=r, sigma2=self.sigma2, lam=self.lam, scheme="optimal")
        return _SessionInputs(u, truth, clients, server)

    def _session(self, inp, transport):
        from fedspike import protocol

        return protocol.run_federated_session(inp.clients, inp.server, transport)

    def run(self, inp):
        from fedspike import protocol

        return self._session(inp, protocol.TcpTransport(timeout=10.0))

    def check(self, inp, out) -> list:
        p, r, _ = self.shape
        _check_frame(out.u_hat, p, r, "aggregated frame")
        _check_covariance(out.sigma_hat, p, "sigma_hat")
        proj = _finite(projection_distance(out.u_hat, inp.basis), "projection error")
        cov = _finite(float(np.linalg.norm(out.sigma_hat - inp.truth)), "covariance error")
        return [proj, cov, float(np.trace(out.sigma_hat))]

    def wire_bytes(self, inp, out) -> int:
        from fedspike import messages

        # 4-byte length prefix per frame; the broadcast goes to every responder.
        total = 0
        for msg in out.transcript:
            copies = len(out.responders) if isinstance(msg, messages.BroadcastMessage) else 1
            total += copies * (4 + len(messages.encode(msg)))
        return total

    def crosscheck(self, inp, out) -> None:
        """Criterion 10: the same inputs in-process give a bit-identical result."""
        from fedspike import protocol

        ref = self._session(inp, protocol.InProcessTransport())
        if not (np.array_equal(ref.u_hat, out.u_hat) and np.array_equal(ref.sigma_hat, out.sigma_hat)):
            raise CheckError("TCP session differs from the in-process session on the same inputs")


WORKLOADS = {w.name: w for w in (SimPrivacyUtility, SimOjaBaseline, SessionTcp)}
