import math

import numpy as np
import pytest
from conftest import make_model
from numpy.linalg import LinAlgError

from fedspike import (
    Dataset,
    OjaConfig,
    PrivacyBudget,
    default_clip_norm,
    fed_dp_oja,
    kernels,
    sample,
)
from fedspike.kernels import oja_stream, orthonormalise
from fedspike.model import random_orthonormal
from fedspike.oja import _BLOCK, oja_step_noise_std
from fedspike.rng import derive_seed, rng_from
from fedspike.spectral import svd_r


def _oja_stream(xs, v0, clip_norm, noise_scale, noise):
    """One stream at a time, sample by sample: the oracle for the lockstep kernel.

    v <- orth(v + eta_t (x x^T v + noise_scale * N_t)), eta_t = 1 / t,
    over the rows of xs, with observations clipped onto the clip ball.
    """
    v = v0.copy()
    n = xs.shape[0]
    for t in range(n):
        x = xs[t]
        nrm = _norm(x)
        if nrm > clip_norm:
            x = x * (clip_norm / nrm)
        y = x @ v
        g = x.reshape(-1, 1) * y.reshape(1, -1)
        if noise_scale > 0.0:
            g = g + noise_scale * noise[t]
        eta = 1.0 / (t + 1.0)
        q, _ = np.linalg.qr(v + eta * g)
        v = np.ascontiguousarray(q)
    q, _ = np.linalg.qr(v)
    return np.ascontiguousarray(q)


def _norm(x):
    """The norm of x, squares summed in index order; where they overflow,
    max-abs times the norm of x scaled by it."""
    sq = 0.0
    for k in range(x.shape[0]):
        sq += x[k] * x[k]
    if np.isfinite(sq):
        return np.sqrt(sq)
    m = np.max(np.abs(x))
    s = x / m
    sq = 0.0
    for k in range(x.shape[0]):
        sq += s[k] * s[k]
    return m * np.sqrt(sq)


def _oracle_fed_dp_oja(datasets, cfg, budgets, seed):
    """fed_dp_oja as one oracle stream per client."""
    p, r = datasets[0].dim_p, cfg.rank_r
    acc = np.zeros((p, p))
    for j, (data, budget) in enumerate(zip(datasets, budgets)):
        xs = np.ascontiguousarray(data.samples.T)
        n = xs.shape[0]
        if cfg.noise_per_step is not None:
            std = math.sqrt(cfg.noise_per_step)
        else:
            std = oja_step_noise_std(budget, cfg.clip_norm, n)
        v0 = random_orthonormal(p, r, derive_seed(seed, "oja-init", j))
        noise = rng_from(seed, "oja-noise", j).standard_normal((n, p, r)) if std > 0 else None
        v = _oja_stream(xs, v0, cfg.clip_norm, std, noise)
        acc += (v @ v.T) / len(datasets)
    return svd_r(acc, r)


def _streams(b=3, n=300, p=12, r=2, seed=0):
    """Per-stream samples (n, p), frames (p, r) and pre-generated noise (n, p, r)."""
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal((n, p)) * (1.0 + 0.3 * k) for k in range(b)]
    v0 = [np.ascontiguousarray(np.linalg.qr(rng.standard_normal((p, r)))[0]) for _ in range(b)]
    noise = [rng.standard_normal((n, p, r)) for _ in range(b)]
    return xs, v0, noise


def _lockstep(xs, v0, clip_norm, stds, noise, block):
    """Drive the kernel over the stacked streams in blocks of ``block`` steps."""
    x_all = np.stack(xs, axis=1)
    v = np.stack(v0)
    n_all = None if noise is None else np.stack(noise, axis=1)
    for t0 in range(0, x_all.shape[0], block):
        nb = None if n_all is None else n_all[t0 : t0 + block]
        v = oja_stream(x_all[t0 : t0 + block], v, t0, clip_norm, stds, nb)
    return np.linalg.qr(v)[0]


class TestOjaStreamPaths:
    """The lockstep kernel against the per-stream oracle."""

    @pytest.mark.parametrize("r", [1, 2, 5])
    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("clip_norm", [4.5, np.inf])
    def test_matches_per_stream_oracle(self, r, block, clip_norm):
        # Blocks of one step and of seven (which do not divide the 300 steps):
        # the step size follows the global step across kernel calls.
        xs, v0, noise = _streams(r=r, seed=r)
        stds = np.array([0.3, 0.05, 1.2])
        if math.isfinite(clip_norm):
            norms = [np.linalg.norm(x, axis=1) for x in xs]
            assert all((nrm > clip_norm).any() and (nrm <= clip_norm).any() for nrm in norms)
        got = _lockstep(xs, v0, clip_norm, stds, noise, block=block)
        for b in range(len(xs)):
            want = _oja_stream(xs[b], v0[b], clip_norm, stds[b], noise[b])
            assert np.array_equal(got[b], want)

    def test_paths_match_without_noise(self):
        xs, v0, _ = _streams(seed=3)
        got = _lockstep(xs, v0, 4.0, np.zeros(3), None, block=300)
        dummy = np.zeros((1, 12, 2))
        for b in range(len(xs)):
            assert np.array_equal(got[b], _oja_stream(xs[b], v0[b], 4.0, 0.0, dummy))

    @pytest.mark.parametrize("block", [1, 64, 100])
    def test_blocks_continue_the_stream(self, block):
        xs, v0, noise = _streams(seed=4)
        args = (xs, v0, 4.0, np.array([0.3, 0.2, 0.1]), noise)
        assert np.array_equal(_lockstep(*args, block=block), _lockstep(*args, block=300))

    def test_output_orthonormal(self):
        xs, v0, noise = _streams(seed=5)
        v = _lockstep(xs, v0, np.inf, np.full(3, 0.3), noise, block=300)
        for frame in v:
            assert np.linalg.norm(frame.T @ frame - np.eye(frame.shape[1])) <= 1e-8

    def test_clipping_bounds_update(self):
        # With a tiny clip ball the iterate barely moves from v0.
        xs, v0, _ = _streams(seed=7)
        v = _lockstep(xs, v0, 1e-6, np.zeros(3), None, block=300)
        for frame, start in zip(v, v0):
            assert np.linalg.norm(frame @ frame.T - start @ start.T) <= 1e-4

    def test_deterministic(self):
        xs, v0, noise = _streams(seed=9)
        args = (xs, v0, 4.5, np.array([0.3, 0.2, 0.1]), noise)
        assert np.array_equal(_lockstep(*args, block=300), _lockstep(*args, block=300))

    def test_observation_whose_square_overflows_is_clipped_not_dropped(self):
        # At 1e160 the squared norm is inf; the observation must still land on
        # the clip ball, as it does at 1e10, and not be scaled by clip / inf = 0.
        rng = np.random.default_rng(12)
        x = rng.standard_normal((20, 4))
        v0 = [np.linalg.qr(rng.standard_normal((4, 1)))[0]]
        frames = []
        for scale in (1e10, 1e160):
            xs = x.copy()
            xs[0] *= scale
            with np.errstate(over="ignore"):
                got = _lockstep([xs], v0, 5.0, np.zeros(1), None, block=20)[0]
                assert np.array_equal(got, _oja_stream(xs, v0[0], 5.0, 0.0, None))
            frames.append(got)
        one_step = _lockstep([x[:1] * 1e160], v0, 5.0, np.zeros(1), None, block=1)[0]
        assert np.linalg.norm(one_step @ one_step.T - v0[0] @ v0[0].T) > 0.1
        assert np.allclose(frames[0] @ frames[0].T, frames[1] @ frames[1].T, atol=1e-12)

    def test_noise_stream_drawn_in_blocks_is_one_stream(self):
        whole = rng_from(5, "oja-noise", 0).standard_normal((700, 4, 2))
        rng = rng_from(5, "oja-noise", 0)
        parts = [rng.standard_normal((k, 4, 2)) for k in (256, 256, 188)]
        assert np.array_equal(np.concatenate(parts), whole)


class TestOrthonormalise:
    """The gufunc QR that the kernel calls against the public ``np.linalg.qr``."""

    @pytest.mark.parametrize("b", [1, 4, 10])
    @pytest.mark.parametrize("r", [1, 2, 5])
    @pytest.mark.parametrize("p", [5, 50])
    @pytest.mark.parametrize("layout", ["c-order", "strided", "transposed"])
    def test_q_is_np_linalg_qr_bit_for_bit(self, b, r, p, layout):
        rng = np.random.default_rng(100 * b + 10 * r + p)
        if layout == "c-order":
            v = rng.standard_normal((b, p, r))
        elif layout == "strided":
            v = rng.standard_normal((b, 2 * p, r + 1))[:, ::2, 1:]
        else:
            v = rng.standard_normal((b, r, p)).transpose(0, 2, 1)
        v[-1, :, 0] = 0.0  # a frame with a zero column
        want = np.linalg.qr(v)[0]
        got = orthonormalise(v)
        assert np.isfinite(want).all()
        assert np.array_equal(got, want)


class TestOjaStreamInputs:
    """The kernel reads its caller's arrays and never writes them."""

    @pytest.mark.parametrize("clip_norm", [4.5, np.inf])
    @pytest.mark.parametrize("steps", [1, 7])
    def test_leaves_xs_v_and_noise_unchanged(self, clip_norm, steps):
        xs, v0, noise = _streams(seed=11)
        x_all, v = np.stack(xs, axis=1)[:steps], np.stack(v0)
        n_all = np.stack(noise, axis=1)[:steps]
        if math.isfinite(clip_norm):
            assert (np.linalg.norm(x_all, axis=2) > clip_norm).any()
        before = [a.copy() for a in (x_all, v, n_all)]
        out = oja_stream(x_all, v, 0, clip_norm, np.full(3, 0.3), n_all)
        for a, was in zip((x_all, v, n_all), before):
            assert np.array_equal(a, was)
        assert not np.shares_memory(out, v)


class TestStreamFailures:
    """A stream that goes non-finite fails the run, naming its client and block."""

    @staticmethod
    def _clients(scale, p=10, r=2):
        model = make_model(p, r, [6.0, 4.0], 1.0, 0)
        datasets = [sample(model, 300, 30 + j, client_id=f"c{j}") for j in range(3)]
        datasets[1] = Dataset(datasets[1].samples * scale, "c1")
        return datasets

    def test_overflowing_client_is_named(self):
        cfg = OjaConfig(rank_r=2, noise_per_step=0.0, clip_norm=np.inf)
        datasets = self._clients(1e160)
        with np.errstate(over="ignore"), pytest.raises(
            LinAlgError, match=r"client\(s\) c1 failed in global steps 0\.\.255"
        ):
            fed_dp_oja(datasets, cfg, [PrivacyBudget(0.5, 0.1)] * 3, seed=1)

    def test_floating_point_error_in_the_qr_names_the_stack(self, monkeypatch):
        calls = []

        def failing(v):
            calls.append(1)
            if len(calls) == _BLOCK + 5:
                np.sqrt(-np.ones(1))  # raises the invalid flag, as a LAPACK error does
            return q_factor(v)

        q_factor = kernels._q_factor
        monkeypatch.setattr(kernels, "_q_factor", failing)
        cfg = OjaConfig(rank_r=2, noise_per_step=0.0)
        with pytest.raises(LinAlgError, match=r"c0, c1, c2 failed in global steps 256\.\.299") as err:
            fed_dp_oja(self._clients(1.0), cfg, [PrivacyBudget(0.5, 0.1)] * 3, seed=1)
        assert isinstance(err.value.__cause__, LinAlgError)


class TestFedDpOjaMatchesOracle:
    """The lockstep fed_dp_oja against one oracle stream per client."""

    @staticmethod
    def _clients(sizes, p=10, r=2, seed=0):
        model = make_model(p, r, [6.0, 4.0, 2.0][:r], 1.0, seed)
        return [sample(model, n, 30 + j, client_id=f"c{j}") for j, n in enumerate(sizes)]

    @pytest.mark.parametrize(
        "sizes",
        [(100, 100), (_BLOCK + 37, 3 * _BLOCK + 1), (100, 300, 100, 517, 300)],
        ids=["below-block", "not-a-multiple", "unequal"],
    )
    @pytest.mark.parametrize("r", [1, 3])
    def test_calibrated_noise(self, sizes, r):
        datasets = self._clients(sizes, r=r)
        budgets = [PrivacyBudget(0.3 + 0.1 * j, 0.1) for j in range(len(sizes))]
        cfg = OjaConfig(rank_r=r, clip_norm=default_clip_norm(4.0, 1.0, 10))
        got = fed_dp_oja(datasets, cfg, budgets, seed=11)
        assert np.array_equal(got, _oracle_fed_dp_oja(datasets, cfg, budgets, 11))

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("noise_per_step", [0.0, 0.25])
    def test_fixed_noise_infinite_clip(self, r, noise_per_step):
        datasets = self._clients((120, 300, 120), r=r)
        budgets = [PrivacyBudget(0.5, 0.1)] * 3
        cfg = OjaConfig(rank_r=r, noise_per_step=noise_per_step)
        got = fed_dp_oja(datasets, cfg, budgets, seed=2)
        assert np.array_equal(got, _oracle_fed_dp_oja(datasets, cfg, budgets, 2))
