"""Gaussian-mechanism calibration and symmetric noise generation.

Noise variances follow the closed-form recipes verbatim:

    alpha^2 = (8/eps^2) log(2.5/delta) (s2/lam)(s2/lam + 1) p (r + log n) / n^2
    beta^2  = (8/eps^2) log(2.5/delta) (lam^2 (r + log n)^2 + s2^2 p^2) / n^2

with natural logarithms throughout. The symmetric noise matrix has i.i.d.
N(0, variance) entries below the diagonal (mirrored above) and N(0,
2*variance) on the diagonal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .rng import rng_from


@dataclass(frozen=True)
class PrivacyBudget:
    """Per-release differential-privacy budget (epsilon, delta)."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class NoiseCalibration:
    """Variances for the projector noise (alpha_sq) and eigenvalue noise (beta_sq)."""

    alpha_sq: float
    beta_sq: float

    def __post_init__(self):
        for name in ("alpha_sq", "beta_sq"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive")


def calibrate(
    budget: PrivacyBudget, p: int, r: int, n: int, lam: float, sigma2: float
) -> NoiseCalibration:
    """Evaluate both noise-variance formulas for one client."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not (lam > 0 and sigma2 > 0):
        raise ValueError("lam and sigma2 must be positive")
    if p < 1 or r < 1 or r > p:
        raise ValueError("need 1 <= r <= p")
    log_priv = math.log(2.5 / budget.delta)
    base = 8.0 / budget.epsilon**2 * log_priv
    snr = sigma2 / lam
    alpha_sq = base * snr * (snr + 1.0) * p * (r + math.log(n)) / n**2
    beta_sq = base * (lam**2 * (r + math.log(n)) ** 2 + sigma2**2 * p**2) / n**2
    return NoiseCalibration(alpha_sq, beta_sq)


def sample_symmetric_noise(
    p: int, variance: float, seed: int, size: int | None = None
) -> np.ndarray:
    """Symmetric Gaussian noise matrix (or a stack of `size` of them).

    Strict lower-triangle entries are i.i.d. N(0, variance) mirrored above;
    diagonal entries are i.i.d. N(0, 2*variance). The draw order is fixed
    (off-diagonals first, then the diagonal) so outputs are deterministic
    per seed. With `size` given, all matrices come from one seeded stream.
    """
    if p < 1:
        raise ValueError("p must be positive")
    if not variance > 0:
        raise ValueError("variance must be positive")
    count = 1 if size is None else int(size)
    if count < 1:
        raise ValueError("size must be positive")
    out = scale_symmetric_normals(*draw_symmetric_normals(p, seed, count), variance)
    return out[0] if size is None else out


def draw_symmetric_normals(p: int, seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The standard normals behind `count` symmetric p x p noise matrices.

    Drawn in ``sample_symmetric_noise``'s order from its stream: the strict
    lower triangles (count x p(p-1)/2) first, then the diagonals (count x p).
    """
    rng = rng_from(seed, "sym-noise")
    return rng.standard_normal((count, p * (p - 1) // 2)), rng.standard_normal((count, p))


@functools.lru_cache(maxsize=8)
def _symmetric_indices(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows and columns of the strict lower triangle, and the diagonal, of a
    p x p matrix; read-only, as every caller shares them."""
    rows, cols = np.tril_indices(p, -1)
    diag = np.arange(p)
    for a in (rows, cols, diag):
        a.flags.writeable = False
    return rows, cols, diag


def scale_symmetric_normals(off: np.ndarray, diag: np.ndarray, variance: float) -> np.ndarray:
    """The count x p x p noise matrices made from ``draw_symmetric_normals``.

    Scales the strict lower triangles to variance `variance` and the
    diagonals to 2*variance, and mirrors the lower triangles above.
    """
    count, p = diag.shape
    out = np.zeros((count, p, p))
    rows, cols, on_diag = _symmetric_indices(p)
    out[:, rows, cols] = off * math.sqrt(variance)
    out += out.transpose(0, 2, 1)
    out[:, on_diag, on_diag] = diag * math.sqrt(2.0 * variance)
    return out
