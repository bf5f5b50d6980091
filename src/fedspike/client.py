"""Local-client computations: privatized projector and eigenvalue releases.

A client's seed expands into two labeled sub-streams ("projector-noise",
"eigenvalue-noise") so the round-1 and round-2 noise draws are independent.
The released frame depends on the data only through the sample covariance.

What is computed once per ``Dataset`` (``_local_moments``), and why:
- S and, per rank r, its top-r frame and eigengap: shared by both rounds and
  by every method that releases from the same data;
- per (dim, seed, label), the standard normals of a symmetric-noise release:
  a release scales them to its own variance, so a sweep over budgets with
  fixed seeds draws them once;
- the last round-1 message, keyed by its ``ClientConfig``: the release is the
  same wherever the same client releases again from the same data (both
  weight schemes, every larger client count of a nested sweep). One entry
  is enough for those repeats, and a budget sweep, which never repeats a
  release, does not pile up one message per budget.
Round 2 depends on the broadcast frame and is recomputed; only its normals
are kept. The bits cannot change: each kept value is a function of the
read-only samples and of its key, the normals are drawn from the stream and
in the order of ``privacy.sample_symmetric_noise`` and scaled by the same
product, and every kept array is read-only, as are a message's arrays.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .messages import EigenvalueMessage, ProjectorMessage
from .model import Dataset
from .privacy import (
    PrivacyBudget,
    calibrate,
    draw_symmetric_normals,
    scale_symmetric_normals,
)
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
    """What a client computes once per dataset (see the module docstring).

    ``s`` is S = (1/n) X X^T. ``top(r)`` is the top-r frame and the
    eigenvalues at positions r and r+1 (the two that set the eigengap); the
    p x p eigenvector matrix is not kept. ``noise`` keeps the standard normals
    of each symmetric-noise stream, and ``release`` is the last round-1
    (``ClientConfig``, message) pair; a message's arrays are read-only.
    """

    def __init__(self, data: Dataset):
        self.s = _read_only(sample_covariance(data))
        self._top: dict = {}
        self._normals: dict = {}
        self.release = None

    def top(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        if r not in self._top:
            eig = sym_eig(self.s, r)
            self._top[r] = (
                _read_only(eig.vectors),
                _read_only(eig.values[r - 1 : r + 1].copy()),
            )
        return self._top[r]

    def noise(self, dim: int, seed: int, label: str, variance: float) -> np.ndarray:
        """``sample_symmetric_noise(dim, variance, derive_seed(seed, label))``."""
        key = (dim, seed, label)
        if key not in self._normals:
            normals = draw_symmetric_normals(dim, derive_seed(seed, label), 1)
            self._normals[key] = tuple(map(_read_only, normals))
        return scale_symmetric_normals(*self._normals[key], variance)[0]


# Keyed by the Dataset object; an entry lives as long as its dataset.
_MOMENTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _local_moments(data: Dataset) -> _Moments:
    """The dataset's second moment, spectrum, noise normals and last round-1
    release, each computed once per Dataset.

    A dataset's samples are read-only and every cached value is a function
    of them and of its key, so the cached values cannot go stale.
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
    moments = _local_moments(data)
    u_tilde, edge = moments.top(r)
    warning = None
    if r < p and edge[0] - edge[1] <= _GAP_TOL:
        warning = (
            f"degenerate sample spectrum: top-{r} eigengap "
            f"{edge[0] - edge[1]:.3e}; noise regularizes"
        )
    cal = calibrate(cfg.budget, p, r, n, cfg.lambda_plugin, cfg.sigma2_plugin)
    z = moments.noise(p, cfg.seed, "projector-noise", cal.alpha_sq)
    return u_tilde @ u_tilde.T + z, warning


def local_private_projector(data: Dataset, cfg: ClientConfig) -> ProjectorMessage:
    """Round-1 release: top-r frame of the noisy projector matrix."""
    moments = _local_moments(data)
    if moments.release is None or moments.release[0] != cfg:
        noisy, warning = _noisy_projector_matrix(data, cfg)
        msg = ProjectorMessage(
            client_id=cfg.client_id,
            u_hat=svd_r(noisy, cfg.rank_r),
            n=data.n_samples,
            epsilon=cfg.budget.epsilon,
            delta=cfg.budget.delta,
            warning=warning,
        )
        moments.release = (cfg, msg)
    return moments.release[1]


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
    moments = _local_moments(data)
    core = u.T @ moments.s @ u
    core = (core + core.T) / 2.0
    core[np.diag_indices_from(core)] -= cfg.sigma2_plugin
    cal = calibrate(cfg.budget, p, r, n, cfg.lambda_plugin, cfg.sigma2_plugin)
    e = moments.noise(r, cfg.seed, "eigenvalue-noise", cal.beta_sq)
    return EigenvalueMessage(client_id=cfg.client_id, lambda_hat=core + e)
