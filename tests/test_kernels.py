import math

import numpy as np
import pytest
from conftest import make_model

from fedspike import OjaConfig, PrivacyBudget, default_clip_norm, fed_dp_oja, sample
from fedspike.kernels import oja_stream
from fedspike.model import random_orthonormal
from fedspike.oja import _BLOCK, oja_step_noise_std
from fedspike.rng import derive_seed, rng_from
from fedspike.spectral import svd_r


def _oja_stream(xs, v0, step0, decay, clip_norm, noise_scale, noise, reorth_every):
    """One stream at a time, sample by sample: the oracle for the lockstep kernel.

    v <- orth(v + eta_t (x x^T v + noise_scale * N_t)), eta_t = step0 / t^decay,
    over the rows of xs, with observations clipped onto the clip ball.
    """
    v = v0.copy()
    n = xs.shape[0]
    for t in range(n):
        x = xs[t]
        sq = 0.0
        for k in range(x.shape[0]):
            sq += x[k] * x[k]
        nrm = np.sqrt(sq)
        if nrm > clip_norm:
            x = x * (clip_norm / nrm)
        y = x @ v
        g = x.reshape(-1, 1) * y.reshape(1, -1)
        if noise_scale > 0.0:
            g = g + noise_scale * noise[t]
        eta = step0 / (t + 1.0) ** decay
        v = v + eta * g
        if (t + 1) % reorth_every == 0:
            q, _ = np.linalg.qr(v)
            v = np.ascontiguousarray(q)
    q, _ = np.linalg.qr(v)
    return np.ascontiguousarray(q)


def _oracle_fed_dp_oja(datasets, cfg, budgets, seed):
    """fed_dp_oja as one oracle stream per client, with the passes tiled."""
    p, r = datasets[0].dim_p, cfg.rank_r
    acc = np.zeros((p, p))
    for j, (data, budget) in enumerate(zip(datasets, budgets)):
        xs = np.ascontiguousarray(np.tile(data.samples.T, (cfg.passes, 1)))
        total = xs.shape[0]
        if cfg.noise_per_step is not None:
            std = math.sqrt(cfg.noise_per_step)
        else:
            std = oja_step_noise_std(budget, cfg.clip_norm, total)
        v0 = random_orthonormal(p, r, derive_seed(seed, "oja-init", j))
        noise = rng_from(seed, "oja-noise", j).standard_normal((total, p, r)) if std > 0 else None
        v = _oja_stream(xs, v0, cfg.step0, cfg.decay, cfg.clip_norm, std, noise, cfg.reorth_every)
        acc += (v @ v.T) / len(datasets)
    return svd_r(acc, r)


def _streams(b=3, n=300, p=12, r=2, seed=0):
    """Per-stream samples (n, p), frames (p, r) and pre-generated noise (n, p, r)."""
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal((n, p)) * (1.0 + 0.3 * k) for k in range(b)]
    v0 = [np.ascontiguousarray(np.linalg.qr(rng.standard_normal((p, r)))[0]) for _ in range(b)]
    noise = [rng.standard_normal((n, p, r)) for _ in range(b)]
    return xs, v0, noise


def _lockstep(xs, v0, step0, decay, clip_norm, stds, noise, reorth_every, block):
    """Drive the kernel over the stacked streams in blocks of ``block`` steps."""
    x_all = np.stack(xs, axis=1)
    v = np.stack(v0)
    n_all = None if noise is None else np.stack(noise, axis=1)
    for t0 in range(0, x_all.shape[0], block):
        nb = None if n_all is None else n_all[t0 : t0 + block]
        v = oja_stream(
            x_all[t0 : t0 + block], v, t0, step0, decay, clip_norm, stds, nb, reorth_every
        )
    return np.linalg.qr(v)[0]


class TestOjaStreamPaths:
    """The lockstep kernel against the per-stream oracle."""

    @pytest.mark.parametrize("r", [1, 2, 5])
    @pytest.mark.parametrize("reorth_every", [1, 7])
    @pytest.mark.parametrize("clip_norm", [4.5, np.inf])
    def test_matches_per_stream_oracle(self, r, reorth_every, clip_norm):
        xs, v0, noise = _streams(r=r, seed=r)
        stds = np.array([0.3, 0.05, 1.2])
        if math.isfinite(clip_norm):
            norms = [np.linalg.norm(x, axis=1) for x in xs]
            assert all((nrm > clip_norm).any() and (nrm <= clip_norm).any() for nrm in norms)
        got = _lockstep(xs, v0, 0.5, 1.0, clip_norm, stds, noise, reorth_every, block=300)
        for b in range(len(xs)):
            want = _oja_stream(xs[b], v0[b], 0.5, 1.0, clip_norm, stds[b], noise[b], reorth_every)
            assert np.array_equal(got[b], want)

    def test_paths_match_without_noise(self):
        xs, v0, _ = _streams(seed=3)
        got = _lockstep(xs, v0, 1.0, 1.0, 4.0, np.zeros(3), None, 1, block=300)
        dummy = np.zeros((1, 12, 2))
        for b in range(len(xs)):
            assert np.array_equal(got[b], _oja_stream(xs[b], v0[b], 1.0, 1.0, 4.0, 0.0, dummy, 1))

    @pytest.mark.parametrize("block", [1, 64, 100])
    def test_blocks_continue_the_stream(self, block):
        xs, v0, noise = _streams(seed=4)
        args = (xs, v0, 0.5, 0.7, 4.0, np.array([0.3, 0.2, 0.1]), noise, 7)
        assert np.array_equal(_lockstep(*args, block=block), _lockstep(*args, block=300))

    def test_output_orthonormal(self):
        xs, v0, noise = _streams(seed=5)
        v = _lockstep(xs, v0, 0.5, 1.0, np.inf, np.full(3, 0.3), noise, 50, block=300)
        for frame in v:
            assert np.linalg.norm(frame.T @ frame - np.eye(frame.shape[1])) <= 1e-8

    def test_clipping_bounds_update(self):
        # With a tiny clip ball the iterate barely moves from v0.
        xs, v0, _ = _streams(seed=7)
        v = _lockstep(xs, v0, 1e-3, 1.0, 1e-6, np.zeros(3), None, 10**9, block=300)
        for frame, start in zip(v, v0):
            assert np.linalg.norm(frame @ frame.T - start @ start.T) <= 1e-4

    def test_deterministic(self):
        xs, v0, noise = _streams(seed=9)
        args = (xs, v0, 0.5, 1.0, 4.5, np.array([0.3, 0.2, 0.1]), noise, 5)
        assert np.array_equal(_lockstep(*args, block=300), _lockstep(*args, block=300))

    def test_noise_stream_drawn_in_blocks_is_one_stream(self):
        whole = rng_from(5, "oja-noise", 0).standard_normal((700, 4, 2))
        rng = rng_from(5, "oja-noise", 0)
        parts = [rng.standard_normal((k, 4, 2)) for k in (256, 256, 188)]
        assert np.array_equal(np.concatenate(parts), whole)


class TestFedDpOjaMatchesOracle:
    """The lockstep fed_dp_oja against one oracle stream per client."""

    @staticmethod
    def _clients(sizes, p=10, r=2, seed=0):
        model = make_model(p, r, [6.0, 4.0][:r], 1.0, seed)
        return [sample(model, n, 30 + j, client_id=f"c{j}") for j, n in enumerate(sizes)]

    @pytest.mark.parametrize(
        "sizes",
        [(100, 100), (_BLOCK + 37, 3 * _BLOCK + 1), (100, 300, 100, 517, 300)],
        ids=["below-block", "not-a-multiple", "unequal"],
    )
    @pytest.mark.parametrize("passes", [1, 3])
    def test_calibrated_noise(self, sizes, passes):
        datasets = self._clients(sizes)
        budgets = [PrivacyBudget(0.3 + 0.1 * j, 0.1) for j in range(len(sizes))]
        cfg = OjaConfig(rank_r=2, passes=passes, clip_norm=default_clip_norm(4.0, 1.0, 10))
        got = fed_dp_oja(datasets, cfg, budgets, seed=11)
        assert np.array_equal(got, _oracle_fed_dp_oja(datasets, cfg, budgets, 11))

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("noise_per_step", [0.0, 0.25])
    def test_fixed_noise_infinite_clip_reorth_every_7(self, r, noise_per_step):
        datasets = self._clients((120, 300, 120), r=r)
        budgets = [PrivacyBudget(0.5, 0.1)] * 3
        cfg = OjaConfig(
            rank_r=r, noise_per_step=noise_per_step, reorth_every=7, passes=3, step0=0.5
        )
        got = fed_dp_oja(datasets, cfg, budgets, seed=2)
        assert np.array_equal(got, _oracle_fed_dp_oja(datasets, cfg, budgets, 2))
