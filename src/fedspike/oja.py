"""Federated differentially private streaming-PCA comparison baseline.

A good-faith reconstruction of a private Oja iteration: each client clips
its observations, runs per-sample updates with Gaussian gradient noise,
and the per-client frames are projector-averaged with equal weights. The
per-step noise splits the client's whole budget across its T updates,

    sigma_step = Delta_step * sqrt(2 log(1.25/delta) * T) / epsilon,

with Delta_step = 2 * clip_norm^2 (the worst-case gradient change under a
one-datum replacement given the clip ball). Only the qualitative ordering
against the main method is meaningful.

This sigma is conservative by sqrt(T). With one pass, each sample enters
exactly one step, which given the frame before it is a Gaussian mechanism
with one-datum change Delta_step (earlier steps do not depend on the sample,
later ones are post-processing), so a per-step (epsilon, delta) calibration
already suffices. At criterion 11's shape (m=10, n=1e4, p=50, r=1,
epsilon=0.5) the baseline's projection error sits at the random-frame level
sqrt(2r(1 - r/p)) ~= 1.40.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .kernels import oja_stream, orthonormalise
from .model import Dataset, random_orthonormal
from .privacy import PrivacyBudget
from .rng import derive_seed, rng_from
from .spectral import svd_r

# Time steps per kernel call: bounds the samples and noise held at once.
# A group of B clients holds _BLOCK * B * p observations and r times as many
# noise values (0.5 MB apiece at criterion 11's shape, where r = 1); the
# bits do not depend on the length.
_BLOCK = 128


def default_clip_norm(lam: float, sigma2: float, p: int) -> float:
    """Clip ball radius 3 * sqrt(lam + sigma2 * p), about three sigma of
    the observation norm under the spiked model."""
    return 3.0 * math.sqrt(lam + sigma2 * p)


def oja_step_noise_std(budget: PrivacyBudget, clip_norm: float, total_steps: int) -> float:
    """Per-step gradient-noise standard deviation for the whole budget."""
    if not (math.isfinite(clip_norm) and clip_norm > 0):
        raise ValueError(f"noise calibration requires a finite clip_norm above 0: {clip_norm!r}")
    delta_step = 2.0 * clip_norm**2
    return (
        delta_step
        * math.sqrt(2.0 * math.log(1.25 / budget.delta) * total_steps)
        / budget.epsilon
    )


def fed_dp_oja(
    datasets: Sequence[Dataset],
    budgets: Sequence[PrivacyBudget],
    rank_r: int,
    clip_norm: float,
    seed: int,
) -> np.ndarray:
    """Equal-weight projector average of per-client private Oja runs.

    Each client makes one clipped pass over its samples (``kernels.oja_stream``)
    with per-step noise calibrated to its budget (``oja_step_noise_std``).
    Clients with the same sample count run in lockstep as one stack; each
    keeps its own initial frame and noise stream, so its frame is the one a
    run on its own would give.
    """
    if rank_r < 1:
        raise ValueError("rank_r must be at least 1")
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
        for j, v in zip(members, _run_group(datasets, members, budgets, rank_r, clip_norm, seed)):
            frames[j] = v
    acc = np.zeros((p, p))
    for v in frames:
        acc += (v @ v.T) / len(datasets)
    return svd_r(acc, rank_r)


def _run_group(
    datasets: Sequence[Dataset],
    members: list[int],
    budgets: Sequence[PrivacyBudget],
    r: int,
    clip_norm: float,
    seed: int,
) -> np.ndarray:
    """The final frames of the equal-length clients ``members``, run in lockstep.

    Two buffers, reused for every block, are the group's block-sized working
    set: the time-major observations and the noise. Each client's standard
    normals are drawn into its run of the noise buffer and scaled there by
    its noise std, so the kernel reads the scaled noise and no scaled copy
    is made.
    """
    group = [datasets[j] for j in members]
    n, p = group[0].n_samples, group[0].dim_p
    noise_std = np.array([oja_step_noise_std(budgets[j], clip_norm, n) for j in members])
    rngs = [rng_from(seed, "oja-noise", j) for j in members]
    v = np.stack([random_orthonormal(p, r, derive_seed(seed, "oja-init", j)) for j in members])
    xs = np.empty((_BLOCK, len(group), p))
    # Client-major, so each client's draw fills one contiguous run.
    normals = np.empty((len(group), _BLOCK, p, r))
    for s0 in range(0, n, _BLOCK):
        s1 = min(s0 + _BLOCK, n)
        block = xs[: s1 - s0]
        for b, data in enumerate(group):
            block[:, b] = data.samples[:, s0:s1].T
        for b, g in enumerate(rngs):
            g.standard_normal(out=normals[b, : s1 - s0])
            normals[b, : s1 - s0] *= noise_std[b]
        noise = normals[:, : s1 - s0].transpose(1, 0, 2, 3)
        try:
            v = oja_stream(block, v, s0, clip_norm, noise)
        except LinAlgError as exc:
            raise _stream_error(datasets, members, s0, s1 - s0, exc) from exc
        finite = np.isfinite(v).all(axis=(1, 2))
        if not finite.all():
            failed = [members[b] for b in np.flatnonzero(~finite)]
            raise _stream_error(datasets, failed, s0, s1 - s0, "its frame is not finite")
    # The frames are Q factors already; this last QR is kept because the seeded
    # outputs carry its rounding.
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
