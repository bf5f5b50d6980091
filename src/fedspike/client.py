"""Local-client computations: privatized projector and eigenvalue releases.

A client's seed expands into two labeled sub-streams ("projector-noise",
"eigenvalue-noise") so the round-1 and round-2 noise draws are independent.
The released frame depends on the data only through the sample covariance,
which is computed once per ``Dataset`` (see ``_local_moments``) and shared by
both rounds and by every method that releases from the same data.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .messages import EigenvalueMessage, ProjectorMessage
from .model import Dataset
from .privacy import PrivacyBudget, calibrate, sample_symmetric_noise
from .rng import derive_seed
from .spectral import sample_covariance, svd_r, sym_eig

_GAP_TOL = 1e-12


@dataclass(frozen=True)
class ClientConfig:
    """Identity, budget, target rank, plug-in scales, and the seed."""

    client_id: str
    budget: PrivacyBudget
    rank_r: int
    lambda_plugin: float
    sigma2_plugin: float
    seed: int

    def __post_init__(self):
        if self.rank_r < 1:
            raise ValueError("rank_r must be at least 1")
        if not (self.lambda_plugin > 0 and self.sigma2_plugin > 0):
            raise ValueError("plug-in lambda and sigma2 must be positive")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Moments:
    """S = (1/n) X X^T of one dataset and, per rank r, what round 1 reads of
    its spectrum: the top-r frame and the eigenvalues at positions r and r+1
    (the two that set the eigengap). The p x p eigenvector matrix is not kept.
    """

    def __init__(self, data: Dataset):
        self.s = _read_only(sample_covariance(data))
        self._top: dict = {}

    def top(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        if r not in self._top:
            eig = sym_eig(self.s)
            self._top[r] = (
                _read_only(eig.vectors[:, :r].copy()),
                _read_only(eig.values[r - 1 : r + 1].copy()),
            )
        return self._top[r]


# Keyed by the Dataset object; an entry lives as long as its dataset.
_MOMENTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _local_moments(data: Dataset) -> _Moments:
    """The dataset's second moment and spectrum, computed once per Dataset.

    A dataset's samples are read-only, so the cached values cannot go stale.
    """
    moments = _MOMENTS.get(data)
    if moments is None:
        moments = _MOMENTS[data] = _Moments(data)
    return moments


def _noisy_projector_matrix(data: Dataset, cfg: ClientConfig):
    """Sample-covariance projector plus calibrated symmetric noise."""
    p, n = data.dim_p, data.n_samples
    r = cfg.rank_r
    if n < r:
        raise ValueError(f"need at least r={r} observations, got {n}")
    if r > p:
        raise ValueError(f"rank_r={r} exceeds data dimension {p}")
    u_tilde, edge = _local_moments(data).top(r)
    warning = None
    if r < p and edge[0] - edge[1] <= _GAP_TOL:
        warning = (
            f"degenerate sample spectrum: top-{r} eigengap "
            f"{edge[0] - edge[1]:.3e}; noise regularizes"
        )
    cal = calibrate(cfg.budget, p, r, n, cfg.lambda_plugin, cfg.sigma2_plugin)
    z = sample_symmetric_noise(p, cal.alpha_sq, derive_seed(cfg.seed, "projector-noise"))
    return u_tilde @ u_tilde.T + z, warning


def local_private_projector(data: Dataset, cfg: ClientConfig) -> ProjectorMessage:
    """Round-1 release: top-r frame of the noisy projector matrix."""
    noisy, warning = _noisy_projector_matrix(data, cfg)
    u_hat = svd_r(noisy, cfg.rank_r)
    return ProjectorMessage(
        client_id=cfg.client_id,
        u_hat=u_hat,
        n=data.n_samples,
        epsilon=cfg.budget.epsilon,
        delta=cfg.budget.delta,
        warning=warning,
    )


def local_raw_noisy_projector(data: Dataset, cfg: ClientConfig) -> np.ndarray:
    """The full noisy projector matrix, as transmitted by the reference
    baseline that skips the client-side spectral truncation.

    Uses the same noise stream as local_private_projector, so for a fixed
    seed the two releases share their noise draw.
    """
    noisy, _ = _noisy_projector_matrix(data, cfg)
    return noisy


def local_private_eigenvalues(
    data: Dataset, u_hat_global: np.ndarray, cfg: ClientConfig
) -> EigenvalueMessage:
    """Round-2 release: U^T (S - sigma2 I) U plus calibrated noise.

    The block is released as drawn; it is not projected to the PSD cone.
    """
    u = np.asarray(u_hat_global, dtype=float)
    p, n = data.dim_p, data.n_samples
    r = cfg.rank_r
    if u.shape != (p, r):
        raise ValueError(f"broadcast frame shape {u.shape} does not match (p={p}, r={r})")
    s = _local_moments(data).s
    core = u.T @ s @ u
    core = (core + core.T) / 2.0
    core[np.diag_indices_from(core)] -= cfg.sigma2_plugin
    cal = calibrate(cfg.budget, p, r, n, cfg.lambda_plugin, cfg.sigma2_plugin)
    e = sample_symmetric_noise(r, cal.beta_sq, derive_seed(cfg.seed, "eigenvalue-noise"))
    return EigenvalueMessage(client_id=cfg.client_id, lambda_hat=core + e)
