"""Federated differentially private streaming-PCA comparison baseline.

A good-faith reconstruction of a private Oja iteration: each client clips
its observations, runs per-sample updates with Gaussian gradient noise,
and the per-client frames are projector-averaged with equal weights. The
per-step noise splits the client's whole budget across its T updates,

    sigma_step = Delta_step * sqrt(2 log(1.25/delta) * T) / epsilon,

with Delta_step = 2 * clip_norm^2 (the worst-case gradient change under a
one-datum replacement given the clip ball). Only the qualitative ordering
against the main method is meaningful; all constants live in OjaConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .kernels import oja_stream, orthonormalise
from .model import Dataset, random_orthonormal
from .privacy import PrivacyBudget
from .rng import derive_seed, rng_from
from .spectral import svd_r

# Time steps per kernel call: bounds the samples and noise held at once.
_BLOCK = 256


@dataclass(frozen=True)
class OjaConfig:
    """Step schedule, rank, clipping, and the per-step noise policy.

    noise_per_step is a variance override; None calibrates from the budget.
    """

    rank_r: int
    step0: float = 1.0
    decay: float = 1.0
    passes: int = 1
    clip_norm: float = math.inf
    noise_per_step: float | None = None
    reorth_every: int = 1

    def __post_init__(self):
        if self.rank_r < 1:
            raise ValueError("rank_r must be at least 1")
        if not self.step0 > 0:
            raise ValueError("step0 must be positive")
        if self.passes < 1:
            raise ValueError("passes must be at least 1")
        if self.reorth_every < 1:
            raise ValueError("reorth_every must be at least 1")
        if self.noise_per_step is not None and self.noise_per_step < 0:
            raise ValueError("noise_per_step must be non-negative")


def default_clip_norm(lam: float, sigma2: float, p: int) -> float:
    """Clip ball radius 3 * sqrt(lam + sigma2 * p), about three sigma of
    the observation norm under the spiked model."""
    return 3.0 * math.sqrt(lam + sigma2 * p)


def oja_step_noise_std(budget: PrivacyBudget, clip_norm: float, total_steps: int) -> float:
    """Per-step gradient-noise standard deviation for the whole budget."""
    if not math.isfinite(clip_norm):
        raise ValueError("noise calibration requires a finite clip_norm")
    delta_step = 2.0 * clip_norm**2
    return (
        delta_step
        * math.sqrt(2.0 * math.log(1.25 / budget.delta) * total_steps)
        / budget.epsilon
    )


def fed_dp_oja(
    datasets: Sequence[Dataset],
    cfg: OjaConfig,
    budgets: Sequence[PrivacyBudget],
    seed: int,
) -> np.ndarray:
    """Equal-weight projector average of per-client private Oja runs.

    Clients with the same sample count run in lockstep as one stack (see
    ``kernels.oja_stream``); each keeps its own initial frame and noise stream,
    so its frame is the one a run on its own would give.
    """
    if len(datasets) < 1:
        raise ValueError("need at least one client dataset")
    if len(budgets) != len(datasets):
        raise ValueError("budgets and datasets must pair up")
    p = datasets[0].dim_p
    if any(data.dim_p != p for data in datasets):
        raise ValueError("all clients must share the data dimension")
    groups: dict[int, list[int]] = {}
    for j, data in enumerate(datasets):
        groups.setdefault(data.n_samples, []).append(j)
    frames = [None] * len(datasets)
    for members in groups.values():
        for j, v in zip(members, _run_group(datasets, members, cfg, budgets, seed)):
            frames[j] = v
    acc = np.zeros((p, p))
    for v in frames:
        acc += (v @ v.T) / len(datasets)
    return svd_r(acc, cfg.rank_r)


def _run_group(
    datasets: Sequence[Dataset],
    members: list[int],
    cfg: OjaConfig,
    budgets: Sequence[PrivacyBudget],
    seed: int,
) -> np.ndarray:
    """The final frames of the equal-length clients ``members``, run in lockstep.

    Pass k reads sample t - k n at step t, so the stream is never tiled.
    """
    group = [datasets[j] for j in members]
    n, p, r = group[0].n_samples, group[0].dim_p, cfg.rank_r
    total_steps = n * cfg.passes
    if cfg.noise_per_step is not None:
        noise_std = np.full(len(members), math.sqrt(cfg.noise_per_step))
    else:
        noise_std = np.array(
            [oja_step_noise_std(budgets[j], cfg.clip_norm, total_steps) for j in members]
        )
    rngs = [rng_from(seed, "oja-noise", j) for j in members] if noise_std.any() else None
    v = np.stack([random_orthonormal(p, r, derive_seed(seed, "oja-init", j)) for j in members])
    xs = np.empty((_BLOCK, len(group), p))
    for pass_no in range(cfg.passes):
        for s0 in range(0, n, _BLOCK):
            s1 = min(s0 + _BLOCK, n)
            block = xs[: s1 - s0]
            for b, data in enumerate(group):
                block[:, b] = data.samples[:, s0:s1].T
            noise = None
            if rngs is not None:
                noise = np.stack([g.standard_normal((s1 - s0, p, r)) for g in rngs], axis=1)
            t0 = pass_no * n + s0
            try:
                v = oja_stream(
                    block, v, t0, cfg.step0, cfg.decay, cfg.clip_norm,
                    noise_std, noise, cfg.reorth_every,
                )
            except LinAlgError as exc:
                raise _stream_error(datasets, members, t0, s1 - s0, exc) from exc
            finite = np.isfinite(v).all(axis=(1, 2))
            if not finite.all():
                failed = [members[b] for b in np.flatnonzero(~finite)]
                raise _stream_error(datasets, failed, t0, s1 - s0, "its frame is not finite")
    return orthonormalise(v)


def _stream_error(datasets, failed, t0, k, why) -> LinAlgError:
    """The error for a block of k steps from global step t0 that failed.

    A floating-point error in the stacked update stops the whole stack, so it
    names every client of the stack; a non-finite frame names its own client.
    """
    names = ", ".join(
        str(datasets[j].client_id) if datasets[j].client_id is not None else f"#{j}"
        for j in failed
    )
    steps = f"{t0}..{t0 + k - 1}"
    return LinAlgError(f"Oja stream of client(s) {names} failed in global steps {steps}: {why}")
