"""Gaussian-mechanism calibration and symmetric noise generation.

Noise variances follow the closed-form sensitivity-based recipes verbatim:

    alpha^2 = (8/eps^2) log(2.5/delta) (s2/lam)(s2/lam + 1) p (r + log n) / n^2
    beta^2  = (8/eps^2) log(2.5/delta) (lam^2 (r + log n)^2 + s2^2 p^2) / n^2

with natural logarithms throughout. The symmetric noise matrix has i.i.d.
N(0, variance) entries below the diagonal (mirrored above) and N(0,
2*variance) on the diagonal. An empirical leave-one-out oracle is provided
to check the analytic projector-sensitivity envelope on simulated data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SpikedModel, projection_distance, sample
from .rng import derive_seed, rng_from
from .spectral import sample_covariance, sym_eig


# The leading constant of the analytic projector-sensitivity envelope.
_SENSITIVITY_CONST = 4.0


class DegenerateSpectrumError(RuntimeError):
    """Raised when a top-r eigengap is too small for a stable projector."""


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


def scale_symmetric_normals(off: np.ndarray, diag: np.ndarray, variance: float) -> np.ndarray:
    """The count x p x p noise matrices made from ``draw_symmetric_normals``.

    Scales the strict lower triangles to variance `variance` and the
    diagonals to 2*variance, and mirrors the lower triangles above.
    """
    count, p = diag.shape
    out = np.zeros((count, p, p))
    rows, cols = np.tril_indices(p, -1)
    out[:, rows, cols] = off * math.sqrt(variance)
    out += out.transpose(0, 2, 1)
    out[:, np.arange(p), np.arange(p)] = diag * math.sqrt(2.0 * variance)
    return out


def projector_sensitivity_bound(p: int, r: int, n: int, lam: float, sigma2: float) -> float:
    """Analytic leave-one-out projector-sensitivity envelope.

    _SENSITIVITY_CONST/n * sqrt((lam + s2)/lam * s2/lam) * sqrt(p (r + log n)).
    """
    return (
        _SENSITIVITY_CONST
        / n
        * math.sqrt((lam + sigma2) / lam * sigma2 / lam)
        * math.sqrt(p * (r + math.log(n)))
    )


def empirical_projector_sensitivity(
    model: SpikedModel, n: int, r: int, trials: int, seed: int
) -> float:
    """Worst observed projector change under one-datum replacement.

    For each trial: draw a dataset, then for every index i replace X_i by a
    fresh draw (the neighboring dataset) and record the Frobenius change of
    the top-r spectral projector of the sample covariance. Returns the max
    over all indices and trials.
    """
    if n < r + 2:
        raise ValueError("n must be at least r + 2")
    p = model.dim_p
    worst = 0.0
    for t in range(trials):
        data = sample(model, n, derive_seed(seed, "sens-data", t))
        fresh = sample(model, n, derive_seed(seed, "sens-fresh", t)).samples
        x = data.samples
        s_full = sample_covariance(data)
        eig = sym_eig(s_full)
        if r < p and eig.values[r - 1] - eig.values[r] <= 1e-10:
            raise DegenerateSpectrumError(
                f"trial {t}: top-{r} eigengap of the sample covariance is below 1e-10"
            )
        u_base = eig.vectors[:, :r]
        for i in range(n):
            delta = (np.outer(fresh[:, i], fresh[:, i]) - np.outer(x[:, i], x[:, i])) / n
            u_i = sym_eig(s_full + delta).vectors[:, :r]
            worst = max(worst, projection_distance(u_base, u_i))
    return worst


def sensitivity_margin(model: SpikedModel, n: int, r: int, trials: int, seed: int) -> dict:
    """Empirical-vs-analytic sensitivity diagnostic for simulation runs."""
    empirical = empirical_projector_sensitivity(model, n, r, trials, seed)
    bound = projector_sensitivity_bound(model.dim_p, r, n, model.spike_scalar, model.noise_var)
    return {"empirical": empirical, "bound": bound, "ratio": empirical / bound}
