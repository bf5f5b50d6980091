import math

import numpy as np
import pytest
from conftest import make_model

from fedspike import (
    OjaConfig,
    PrivacyBudget,
    default_clip_norm,
    fed_dp_oja,
    projection_distance,
    sample,
    svd_r,
)
from fedspike.oja import oja_step_noise_std
from fedspike.spectral import sample_covariance


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
    def test_zero_noise_converges_to_batch_direction(self):
        model = make_model(50, 1, 10.0, 1.0, 11)
        data = sample(model, 100_000, 5)
        cfg = OjaConfig(rank_r=1, noise_per_step=0.0)
        v = fed_dp_oja([data], cfg, [PrivacyBudget(0.5, 0.1)], seed=3)
        batch = svd_r(sample_covariance(data), 1)
        assert projection_distance(v, batch) <= 0.1
        assert projection_distance(v, model.basis_u) <= 0.1

    def test_huge_noise_yields_uninformative_subspace(self):
        model = make_model(50, 1, 10.0, 1.0, 11)
        cfg = OjaConfig(rank_r=1, noise_per_step=1e12)
        dists = []
        for rep in range(20):
            data = sample(model, 1000, 50 + rep)
            v = fed_dp_oja([data], cfg, [PrivacyBudget(0.5, 0.1)], seed=rep)
            dists.append(projection_distance(v, model.basis_u))
        assert np.median(dists) > 1.2

    def test_deterministic(self):
        model = make_model(10, 2, [6.0, 4.0], 1.0, 2)
        datasets = [sample(model, 500, 7 + j) for j in range(2)]
        budgets = [PrivacyBudget(0.5, 0.1)] * 2
        cfg = OjaConfig(rank_r=2, clip_norm=default_clip_norm(4.0, 1.0, 10))
        a = fed_dp_oja(datasets, cfg, budgets, seed=9)
        b = fed_dp_oja(datasets, cfg, budgets, seed=9)
        assert np.array_equal(a, b)

    def test_output_orthonormal(self):
        model = make_model(12, 3, [5.0, 4.0, 3.0], 1.0, 6)
        datasets = [sample(model, 300, j) for j in range(3)]
        budgets = [PrivacyBudget(0.4, 0.1)] * 3
        cfg = OjaConfig(rank_r=3, clip_norm=default_clip_norm(3.0, 1.0, 12))
        v = fed_dp_oja(datasets, cfg, budgets, seed=1)
        assert np.linalg.norm(v.T @ v - np.eye(3)) <= 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            OjaConfig(rank_r=0)
        with pytest.raises(ValueError):
            OjaConfig(rank_r=1, noise_per_step=-1.0)
        model = make_model(5, 1, 4.0, 1.0, 0)
        data = sample(model, 50, 1)
        with pytest.raises(ValueError):
            fed_dp_oja([data], OjaConfig(rank_r=1), [PrivacyBudget(1, 0.1)] * 2, 0)
        with pytest.raises(ValueError):
            fed_dp_oja([], OjaConfig(rank_r=1), [], 0)
