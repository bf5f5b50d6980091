"""Closed-form error-rate functions and aggregate bound evaluators.

Per-client rates carry the log factors (suffix ``_tilde``) and drive all
algorithmic weighting. Aggregate bounds are scaled harmonic means of the
per-client rates, capped by the trivial-estimator level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class RateInputs:
    """Per-client quantities entering the rate formulas."""

    n: int
    epsilon: float
    delta: float
    p: int
    r: int
    lam: float
    sigma2: float

    def __post_init__(self):
        for name in ("n", "p", "r"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be a positive integer, got {getattr(self, name)!r}")
        if self.r > self.p:
            raise ValueError("r cannot exceed p")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not (self.lam > 0 and self.sigma2 > 0):
            raise ValueError("lam and sigma2 must be positive")


def _log_privacy(delta: float) -> float:
    return math.log(2.5 / delta)


def psi0_tilde(c: RateInputs) -> float:
    """Subspace estimation rate with privacy and log factors."""
    snr = c.sigma2 / c.lam
    sampling = math.sqrt(c.r * c.p / c.n)
    privacy = (
        c.p * math.sqrt(c.r * (c.r + math.log(c.n))) / (c.n * c.epsilon)
    ) * math.sqrt(_log_privacy(c.delta))
    return (snr + math.sqrt(snr)) * (sampling + privacy)


def psi1_tilde(c: RateInputs) -> float:
    """Eigenvalue estimation rate (relative to the spike scale)."""
    rlog = c.r + math.log(c.n)
    sampling = math.sqrt(c.r * rlog / c.n)
    privacy = (math.sqrt(c.r * rlog**3) / (c.n * c.epsilon)) * math.sqrt(
        _log_privacy(c.delta)
    )
    return sampling + privacy


def _check_consistent(clients: Sequence[RateInputs]) -> None:
    if len(clients) < 1:
        raise ValueError("need at least one client")
    first = clients[0]
    for c in clients[1:]:
        if (c.p, c.r) != (first.p, first.r):
            raise ValueError("clients must share the same (p, r)")


# The admissibility threshold: psi0_tilde must lie below this times sqrt(r).
_ADMISSIBLE_C1 = 0.5


def pca_bound(clients: Sequence[RateInputs]) -> float:
    """Aggregate squared-projector-error bound: harmonic sum capped at 2r."""
    _check_consistent(clients)
    harmonic = sum(psi0_tilde(c) ** -2 for c in clients)
    return min(1.0 / harmonic, 2.0 * clients[0].r)


def cov_bound(clients: Sequence[RateInputs]) -> float:
    """Aggregate squared-Frobenius covariance bound, capped at 2 r lam^2,
    with lam the first client's spike strength."""
    _check_consistent(clients)
    lam = clients[0].lam
    h0 = sum(psi0_tilde(c) ** -2 for c in clients)
    h1 = sum(psi1_tilde(c) ** -2 for c in clients)
    uncapped = lam**2 / h0 + lam**2 / h1
    return min(uncapped, 2.0 * clients[0].r * lam**2)


def is_admissible(c: RateInputs) -> bool:
    """Signal-strength diagnostic: the subspace rate is below
    ``_ADMISSIBLE_C1 * sqrt(r)``.

    Reported as a boolean, never enforced.
    """
    return psi0_tilde(c) < _ADMISSIBLE_C1 * math.sqrt(c.r)


def rate_table(clients: Sequence[RateInputs]) -> list[dict]:
    """Per-client rate summary rows plus shared aggregate bounds."""
    _check_consistent(clients)
    agg_pca = pca_bound(clients)
    agg_cov = cov_bound(clients)
    rows = []
    for i, c in enumerate(clients):
        rows.append(
            {
                "client": i,
                "n": c.n,
                "epsilon": c.epsilon,
                "delta": c.delta,
                "psi0_tilde": psi0_tilde(c),
                "psi1_tilde": psi1_tilde(c),
                "admissible": is_admissible(c),
                "pca_bound": agg_pca,
                "cov_bound": agg_cov,
            }
        )
    return rows
