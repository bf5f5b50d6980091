import math

import numpy as np
import pytest
from conftest import make_model, traced_peak

from fedspike import (
    PrivacyBudget,
    default_clip_norm,
    fed_dp_oja,
    projection_distance,
    sample,
)
from fedspike.oja import _BLOCK, oja_step_noise_std


class TestStepNoise:
    def test_closed_form(self):
        budget = PrivacyBudget(0.5, 0.1)
        clip = 3.0
        got = oja_step_noise_std(budget, clip, total_steps=400)
        expected = 2 * clip**2 * math.sqrt(2 * math.log(1.25 / 0.1) * 400) / 0.5
        assert got == pytest.approx(expected, rel=1e-12)

    def test_infinite_clip_rejected(self):
        with pytest.raises(ValueError):
            oja_step_noise_std(PrivacyBudget(0.5, 0.1), math.inf, 100)

    def test_default_clip_norm(self):
        assert default_clip_norm(10.0, 1.0, 50) == pytest.approx(3 * math.sqrt(60))


class TestFedDpOja:
    def test_huge_noise_yields_uninformative_subspace(self):
        # At epsilon = 0.01 the calibrated per-step noise std is about 7e6.
        model = make_model(50, 1, 10.0, 1.0, 11)
        clip = default_clip_norm(10.0, 1.0, 50)
        dists = []
        for rep in range(20):
            data = sample(model, 1000, 50 + rep)
            v = fed_dp_oja([data], [PrivacyBudget(0.01, 0.1)], 1, clip, seed=rep)
            dists.append(projection_distance(v, model.basis_u))
        assert np.median(dists) > 1.2

    def test_deterministic(self):
        model = make_model(10, 2, [6.0, 4.0], 1.0, 2)
        datasets = [sample(model, 500, 7 + j) for j in range(2)]
        budgets = [PrivacyBudget(0.5, 0.1)] * 2
        clip = default_clip_norm(4.0, 1.0, 10)
        a = fed_dp_oja(datasets, budgets, 2, clip, seed=9)
        b = fed_dp_oja(datasets, budgets, 2, clip, seed=9)
        assert np.array_equal(a, b)

    def test_output_orthonormal(self):
        model = make_model(12, 3, [5.0, 4.0, 3.0], 1.0, 6)
        datasets = [sample(model, 300, j) for j in range(3)]
        budgets = [PrivacyBudget(0.4, 0.1)] * 3
        v = fed_dp_oja(datasets, budgets, 3, default_clip_norm(3.0, 1.0, 12), seed=1)
        assert np.linalg.norm(v.T @ v - np.eye(3)) <= 1e-8

    def test_working_set_is_the_two_block_buffers(self):
        # Criterion 11's shape: ten equal clients run as one stack, whose
        # observation and noise buffers hold _BLOCK * m * p values each at r = 1.
        p, m, n = 50, 10, 10_000
        model = make_model(p, 1, 10.0, 1.0, 3)
        datasets = [sample(model, n, 40 + j) for j in range(m)]
        budgets = [PrivacyBudget(0.5, 0.1)] * m
        clip = default_clip_norm(10.0, 1.0, p)
        buffers = 2 * _BLOCK * m * p * 8
        peak = traced_peak(fed_dp_oja, datasets, budgets, 1, clip, seed=7)
        assert peak < 1.25 * buffers, f"fed_dp_oja peaked at {peak} bytes"

    def test_validation(self):
        model = make_model(5, 1, 4.0, 1.0, 0)
        data = sample(model, 50, 1)
        budget = PrivacyBudget(1, 0.1)
        with pytest.raises(ValueError, match="rank_r"):
            fed_dp_oja([data], [budget], 0, 5.0, 0)
        for clip in (math.inf, 0.0, -5.0):
            with pytest.raises(ValueError, match="finite clip_norm above 0"):
                fed_dp_oja([data], [budget], 1, clip, 0)
        with pytest.raises(ValueError, match="pair up"):
            fed_dp_oja([data], [budget] * 2, 1, 5.0, 0)
        with pytest.raises(ValueError, match="at least one"):
            fed_dp_oja([], [], 1, 5.0, 0)
