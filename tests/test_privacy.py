import math

import numpy as np
import pytest
from conftest import make_model, projector_gap

from fedspike import (
    DegenerateSpectrumError,
    NoiseCalibration,
    PrivacyBudget,
    calibrate,
    empirical_projector_sensitivity,
    projector_sensitivity_bound,
    sample_symmetric_noise,
    sensitivity_margin,
)
from fedspike.rng import rng_from
from fedspike.spectral import sym_eig

# Pinned by 50-digit evaluation of the calibration formulas at
# eps=1, delta=0.1, p=50, r=1, n=10000, lam=10, sigma2=1.
ALPHA_SQ_PIN = 1.4460959826293167824e-05
BETA_SQ_PIN = 0.0033283446546450368416


class TestBudget:
    def test_valid(self):
        b = PrivacyBudget(0.5, 0.1)
        assert b.epsilon == 0.5

    @pytest.mark.parametrize("eps,delta", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0), (1.0, 1.0)])
    def test_invalid(self, eps, delta):
        with pytest.raises(ValueError):
            PrivacyBudget(eps, delta)


class TestCalibrate:
    def test_pinned_values(self):
        cal = calibrate(PrivacyBudget(1.0, 0.1), p=50, r=1, n=10000, lam=10.0, sigma2=1.0)
        assert cal.alpha_sq == pytest.approx(ALPHA_SQ_PIN, rel=1e-12)
        assert cal.beta_sq == pytest.approx(BETA_SQ_PIN, rel=1e-12)

    def test_epsilon_quartering(self):
        c1 = calibrate(PrivacyBudget(1.0, 0.1), 20, 1, 500, 5.0, 1.0)
        c2 = calibrate(PrivacyBudget(2.0, 0.1), 20, 1, 500, 5.0, 1.0)
        assert c1.alpha_sq / c2.alpha_sq == pytest.approx(4.0, rel=1e-12)
        assert c1.beta_sq / c2.beta_sq == pytest.approx(4.0, rel=1e-12)

    def test_n_scaling_with_log_factor_removed(self):
        # alpha^2 is proportional to (r + log n) / n^2; dividing that factor
        # out, doubling n must quarter the variance exactly.
        b = PrivacyBudget(0.7, 0.1)
        n = 400
        a1 = calibrate(b, 20, 1, n, 5.0, 1.0).alpha_sq / (1 + math.log(n))
        a2 = calibrate(b, 20, 1, 2 * n, 5.0, 1.0).alpha_sq / (1 + math.log(2 * n))
        assert a1 / a2 == pytest.approx(4.0, rel=1e-12)

    def test_monotone_in_epsilon_n_delta(self):
        b = PrivacyBudget(0.5, 0.1)
        base = calibrate(b, 20, 1, 500, 5.0, 1.0)
        more_eps = calibrate(PrivacyBudget(0.6, 0.1), 20, 1, 500, 5.0, 1.0)
        more_n = calibrate(b, 20, 1, 600, 5.0, 1.0)
        smaller_delta = calibrate(PrivacyBudget(0.5, 0.05), 20, 1, 500, 5.0, 1.0)
        for name in ("alpha_sq", "beta_sq"):
            assert getattr(more_eps, name) < getattr(base, name)
            assert getattr(more_n, name) < getattr(base, name)
            assert getattr(smaller_delta, name) > getattr(base, name)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            calibrate(PrivacyBudget(1.0, 0.1), 20, 1, 1, 5.0, 1.0)

    def test_calibration_requires_positive_variances(self):
        with pytest.raises(ValueError):
            NoiseCalibration(0.0, 1.0)
        with pytest.raises(ValueError):
            NoiseCalibration(1.0, math.inf)


def _frozen_sample_symmetric_noise(p, variance, seed, size=None):
    """sample_symmetric_noise's body before it was split into a draw and a
    scale step, kept verbatim as the bit-level reference."""
    rng = rng_from(seed, "sym-noise")
    count = 1 if size is None else int(size)
    n_off = p * (p - 1) // 2
    off = rng.standard_normal((count, n_off)) * math.sqrt(variance)
    diag = rng.standard_normal((count, p)) * math.sqrt(2.0 * variance)
    out = np.zeros((count, p, p))
    rows, cols = np.tril_indices(p, -1)
    out[:, rows, cols] = off
    out += out.transpose(0, 2, 1)
    out[:, np.arange(p), np.arange(p)] = diag
    return out[0] if size is None else out


class TestSymmetricNoise:
    @pytest.mark.parametrize("size", [None, 3])
    @pytest.mark.parametrize("p", [1, 2, 7, 50])
    def test_bits_match_the_frozen_body(self, p, size):
        for variance, seed in ((0.37, 5), (2.5e-7, 2**63 + 11)):
            got = sample_symmetric_noise(p, variance, seed, size)
            assert np.array_equal(got, _frozen_sample_symmetric_noise(p, variance, seed, size))

    def test_exactly_symmetric(self):
        z = sample_symmetric_noise(6, 0.3, seed=4)
        assert np.array_equal(z, z.T)

    def test_deterministic(self):
        a = sample_symmetric_noise(5, 0.2, seed=9)
        b = sample_symmetric_noise(5, 0.2, seed=9)
        assert np.array_equal(a, b)

    def test_moments(self):
        variance = 0.7
        draws = sample_symmetric_noise(4, variance, seed=1, size=30_000)
        off = draws[:, np.tril_indices(4, -1)[0], np.tril_indices(4, -1)[1]]
        diag = draws[:, np.arange(4), np.arange(4)]
        assert abs(off.var() / variance - 1) <= 0.05
        assert abs(diag.var() / (2 * variance) - 1) <= 0.05
        # zero mean to 4 sd of the pooled-mean estimator
        assert abs(off.mean()) <= 4 * math.sqrt(variance / off.size)
        assert abs(diag.mean()) <= 4 * math.sqrt(2 * variance / diag.size)

    def test_conjugation_invariance_moments(self):
        # GOE property: Q' Z Q has the same entrywise first two moments.
        from fedspike import random_orthonormal

        variance = 0.5
        q = random_orthonormal(4, 4, 3)
        draws = sample_symmetric_noise(4, variance, seed=2, size=40_000)
        conj = np.einsum("ki,nkl,lj->nij", q, draws, q)
        off = conj[:, np.tril_indices(4, -1)[0], np.tril_indices(4, -1)[1]]
        diag = conj[:, np.arange(4), np.arange(4)]
        assert abs(off.var() / variance - 1) <= 0.05
        assert abs(diag.var() / (2 * variance) - 1) <= 0.05
        assert np.max(np.abs(conj.mean(axis=0))) <= 0.05

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sample_symmetric_noise(0, 1.0, seed=0)
        with pytest.raises(ValueError):
            sample_symmetric_noise(3, 0.0, seed=0)
        with pytest.raises(ValueError):
            sample_symmetric_noise(3, 1.0, seed=0, size=0)


class TestEmpiricalSensitivity:
    def test_identical_replacement_changes_nothing(self):
        # Replacing a datum by itself reproduces the same covariance matrix,
        # hence the same projector, bit for bit.
        model = make_model(8, 1, 10.0, 1.0, 5)
        from fedspike import sample
        from fedspike.spectral import sample_covariance

        data = sample(model, 40, 2)
        x = data.samples
        s = sample_covariance(data)
        i = 7
        s_same = s + (np.outer(x[:, i], x[:, i]) - np.outer(x[:, i], x[:, i])) / 40
        u1 = sym_eig(s).vectors[:, :1]
        u2 = sym_eig(s_same).vectors[:, :1]
        assert projector_gap(u1, u2) == 0.0

    def test_below_analytic_bound(self):
        model = make_model(20, 1, 10.0, 1.0, 7)
        got = empirical_projector_sensitivity(model, 500, 1, trials=10, seed=3)
        bound = projector_sensitivity_bound(20, 1, 500, 10.0, 1.0)
        assert got <= bound

    def test_inverse_n_scaling(self):
        model = make_model(10, 1, 10.0, 1.0, 8)
        s_n = empirical_projector_sensitivity(model, 300, 1, trials=20, seed=5)
        s_2n = empirical_projector_sensitivity(model, 600, 1, trials=20, seed=6)
        assert 0.35 <= s_2n / s_n <= 0.7

    def test_degenerate_spectrum_flagged(self):
        # Near-zero scales push sample eigengaps below the stability floor.
        model = make_model(8, 1, 1e-12, 1e-12, 9)
        with pytest.raises(DegenerateSpectrumError):
            empirical_projector_sensitivity(model, 30, 1, trials=1, seed=1)

    def test_requires_enough_samples(self):
        model = make_model(6, 2, [5.0, 4.0], 1.0, 1)
        with pytest.raises(ValueError):
            empirical_projector_sensitivity(model, 3, 2, trials=1, seed=0)

    def test_margin_diagnostic(self):
        model = make_model(10, 1, 10.0, 1.0, 12)
        report = sensitivity_margin(model, 200, 1, trials=3, seed=4)
        assert 0 < report["empirical"] <= report["bound"]
        assert report["ratio"] == report["empirical"] / report["bound"]
