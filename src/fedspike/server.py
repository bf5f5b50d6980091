"""Central-server aggregation: weights, projector averaging, assembly.

Weight/message pairing is always by client_id (stable sort), never by
arrival order. Both weight schemes produce simplex vectors: the "optimal"
scheme is inverse-square in the per-client subspace rate, and "equal" is
uniform. The covariance weights discount each client's eigenvalue noise by
the very variance that ``privacy.calibrate`` sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .messages import EigenvalueMessage, ProjectorMessage
from .privacy import PrivacyBudget, calibrate
from .rates import RateInputs, _check_consistent, psi0_tilde
from .spectral import svd_r

SCHEMES = ("optimal", "equal")
_SIMPLEX_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class AggregationWeights:
    """Simplex weights for the projector average (pca_w) and covariance
    assembly (cov_v), in sorted-client_id order."""

    pca_w: np.ndarray
    cov_v: np.ndarray
    scheme: str

    def __post_init__(self):
        for name in ("pca_w", "cov_v"):
            w = np.atleast_1d(np.array(getattr(self, name), dtype=float))
            object.__setattr__(self, name, w)
            if w.ndim != 1 or w.size < 1:
                raise ValueError(f"{name} must be a non-empty vector")
            if np.any(w < 0):
                raise ValueError(f"{name} has negative entries")
            if abs(w.sum() - 1.0) > _SIMPLEX_TOL:
                raise ValueError(f"{name} must sum to 1 (got {w.sum()!r})")
        if self.pca_w.size != self.cov_v.size:
            raise ValueError("weight vectors must have equal length")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")

    def restrict(self, keep_ids: Sequence[str], all_ids: Sequence[str]) -> "AggregationWeights":
        """Renormalize over a surviving subset of clients (dropout mode)."""
        order = sorted(all_ids)
        mask = np.array([cid in set(keep_ids) for cid in order])
        if not mask.any():
            raise ValueError("cannot restrict weights to an empty client set")
        w = self.pca_w[mask]
        v = self.cov_v[mask]
        return AggregationWeights(w / w.sum(), v / v.sum(), self.scheme)


def _normalized(raw: np.ndarray) -> np.ndarray:
    raw = np.asarray(raw, dtype=float)
    total = raw.sum()
    if not (np.all(raw > 0) and math.isfinite(total) and total > 0):
        raise ValueError("weights must be positive and finite before normalization")
    return raw / total


def _cov_raw(c: RateInputs) -> float:
    """Inverse eigenvalue-block error: sampling plus ``calibrate``'s noise."""
    budget = PrivacyBudget(c.epsilon, c.delta)
    beta_sq = calibrate(budget, c.p, c.r, c.n, c.lam, c.sigma2).beta_sq
    return 1.0 / ((c.lam**2 + c.sigma2**2) / c.n + beta_sq)


def weights_from_rate_inputs(
    clients: Sequence[RateInputs], scheme: str = "optimal"
) -> AggregationWeights:
    """Weights from fully specified per-client rate inputs.

    Accepts heterogeneous plug-in (lam, sigma2) across clients, which is
    the real-data workflow where each client estimates its own scales; the
    clients must share (p, r).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose one of {SCHEMES}")
    _check_consistent(clients)
    m = len(clients)
    if scheme == "equal":
        w = np.full(m, 1.0 / m)
        return AggregationWeights(w, w.copy(), scheme)
    w = _normalized(np.array([psi0_tilde(c) ** -2 for c in clients]))
    v = _normalized(np.array([_cov_raw(c) for c in clients]))
    return AggregationWeights(w, v, scheme)


def pca_weights(
    client_params: Sequence[tuple],
    p: int,
    r: int,
    lam: float,
    sigma2: float,
    scheme: str = "optimal",
) -> AggregationWeights:
    """Weights from per-client (n, epsilon, delta) and shared plug-ins."""
    clients = [RateInputs(n, eps, delta, p, r, lam, sigma2) for n, eps, delta in client_params]
    return weights_from_rate_inputs(clients, scheme)


def cov_weights(
    client_params: Sequence[tuple], p: int, r: int, lam: float, sigma2: float
) -> AggregationWeights:
    """Covariance-assembly weights (scheme fixed to optimal)."""
    return pca_weights(client_params, p, r, lam, sigma2, scheme="optimal")


def weights_from_messages(
    msgs: Sequence[ProjectorMessage],
    r: int,
    lam: float,
    sigma2: float,
    scheme: str = "optimal",
) -> AggregationWeights:
    """Weights from the (n, epsilon, delta) carried by round-1 messages."""
    ordered = _sorted_by_id(msgs)
    p = ordered[0].u_hat.shape[0]
    params = [(m.n, m.epsilon, m.delta) for m in ordered]
    return pca_weights(params, p, r, lam, sigma2, scheme)


def _sorted_by_id(msgs: Sequence) -> list:
    ids = [m.client_id for m in msgs]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate client_id among messages")
    return sorted(msgs, key=lambda m: m.client_id)


def aggregate_projectors(
    msgs: Sequence[ProjectorMessage], weights: AggregationWeights
) -> np.ndarray:
    """Top-r frame of the weighted projector average.

    Messages are sorted by client_id; weights.pca_w[i] belongs to the i-th
    id in sorted order.
    """
    ordered = _sorted_by_id(msgs)
    w = weights.pca_w
    if w.size != len(ordered):
        raise ValueError(f"{len(ordered)} messages but {w.size} weights")
    p, r = ordered[0].u_hat.shape
    acc = np.zeros((p, p))
    for wi, msg in zip(w, ordered):
        u = msg.u_hat
        if u.shape != (p, r):
            raise ValueError(f"client {msg.client_id}: frame shape {u.shape} != ({p}, {r})")
        acc += wi * (u @ u.T)
    return svd_r(acc, r)


def aggregate_reference(
    raw: Sequence[np.ndarray], weights: AggregationWeights, r: int
) -> np.ndarray:
    """Top-r frame of the weighted sum of raw noisy projector matrices.

    The raw matrices are full p x p payloads (no client-side truncation),
    so the target rank must be given; pairing with weights is positional.
    """
    w = weights.pca_w
    if w.size != len(raw):
        raise ValueError(f"{len(raw)} matrices but {w.size} weights")
    p = np.asarray(raw[0]).shape[0]
    acc = np.zeros((p, p))
    for wi, mat in zip(w, raw):
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (p, p):
            raise ValueError(f"raw matrix shape {mat.shape} != ({p}, {p})")
        acc += wi * mat
    return svd_r(acc, r)


def assemble_covariance(
    u_hat: np.ndarray,
    eig_msgs: Sequence[EigenvalueMessage],
    weights: AggregationWeights,
    sigma2: float,
) -> np.ndarray:
    """Covariance estimate U (sum_j v_j Lambda_j) U^T + sigma2 I.

    Eigenvalue blocks are symmetrized; ``EigenvalueMessage`` already refuses
    one whose asymmetry exceeds 1e-8. Negative eigenvalues are kept: the
    guarantee is for the unclipped estimator.
    """
    u = np.asarray(u_hat, dtype=float)
    ordered = _sorted_by_id(eig_msgs)
    v = weights.cov_v
    if v.size != len(ordered):
        raise ValueError(f"{len(ordered)} messages but {v.size} weights")
    r = u.shape[1]
    lam_bar = np.zeros((r, r))
    for vi, msg in zip(v, ordered):
        lam = msg.lambda_hat
        if lam.shape != (r, r):
            raise ValueError(f"client {msg.client_id}: block shape {lam.shape} != ({r}, {r})")
        lam_bar += vi * (lam + lam.T) / 2.0
    sigma = u @ lam_bar @ u.T
    sigma[np.diag_indices_from(sigma)] += sigma2
    return (sigma + sigma.T) / 2.0
