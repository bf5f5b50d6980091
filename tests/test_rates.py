import math

import numpy as np
import pytest

from fedspike import (
    RateInputs,
    cov_bound,
    is_admissible,
    pca_bound,
    psi0_tilde,
    psi1_tilde,
)
from fedspike.rates import rate_table

# Values pinned by high-precision (50-digit) evaluation of the closed forms.
CONFIG_41 = RateInputs(n=10000, epsilon=0.5, delta=0.1, p=50, r=1, lam=10.0, sigma2=1.0)
PSI0_41 = 0.053293551340970222953
PSI1_41 = 0.043660537472829668905
PAIR = [
    RateInputs(n=1000, epsilon=0.5, delta=0.1, p=50, r=1, lam=10.0, sigma2=1.0),
    RateInputs(n=10000, epsilon=0.5, delta=0.1, p=50, r=1, lam=10.0, sigma2=1.0),
]
PSI0_1000 = 0.30306675233694437814
PCA_BOUND_PAIR = 0.0027550111482423138782
COV_BOUND_PAIR = 0.45416119571739572813


class TestPsi0Tilde:
    def test_pinned_value(self):
        assert psi0_tilde(CONFIG_41) == pytest.approx(PSI0_41, rel=1e-12)
        assert psi0_tilde(PAIR[0]) == pytest.approx(PSI0_1000, rel=1e-12)

    def test_large_epsilon_limit(self):
        c = RateInputs(n=5000, epsilon=1e12, delta=0.1, p=30, r=2, lam=8.0, sigma2=1.0)
        snr = c.sigma2 / c.lam
        limit = (snr + math.sqrt(snr)) * math.sqrt(c.r * c.p / c.n)
        assert psi0_tilde(c) == pytest.approx(limit, rel=1e-9)

    def test_vanishes_with_noise(self):
        base = dict(n=5000, epsilon=0.5, delta=0.1, p=30, r=1, lam=8.0)
        small = psi0_tilde(RateInputs(sigma2=1e-12, **base))
        smaller = psi0_tilde(RateInputs(sigma2=1e-16, **base))
        assert smaller < small < 1e-4


class TestPsi1Tilde:
    def test_pinned_value(self):
        assert psi1_tilde(CONFIG_41) == pytest.approx(PSI1_41, rel=1e-12)

    def test_large_epsilon_limit(self):
        c = RateInputs(n=5000, epsilon=1e12, delta=0.1, p=30, r=2, lam=8.0, sigma2=1.0)
        limit = math.sqrt(c.r * (c.r + math.log(c.n)) / c.n)
        assert psi1_tilde(c) == pytest.approx(limit, rel=1e-9)

    def test_vanishes_with_samples(self):
        vals = [
            psi1_tilde(RateInputs(n, 0.5, 0.1, 30, 1, 8.0, 1.0))
            for n in (10**3, 10**5, 10**7)
        ]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 2e-3


class TestPcaBound:
    def test_single_client(self):
        c = CONFIG_41
        assert pca_bound([c]) == pytest.approx(min(psi0_tilde(c) ** 2, 2 * c.r), rel=1e-12)

    def test_identical_clients_scale(self):
        one = pca_bound([CONFIG_41])
        five = pca_bound([CONFIG_41] * 5)
        assert five == pytest.approx(one / 5, rel=1e-12)

    def test_pinned_heterogeneous_pair(self):
        assert pca_bound(PAIR) == pytest.approx(PCA_BOUND_PAIR, rel=1e-12)

    def test_cap_applies(self):
        weak = RateInputs(n=10, epsilon=0.1, delta=0.5, p=400, r=2, lam=1.0, sigma2=5.0)
        assert pca_bound([weak]) == 2 * weak.r

    def test_monotone_in_clients(self):
        bounds = [pca_bound(PAIR[:1]), pca_bound(PAIR), pca_bound(PAIR + [CONFIG_41])]
        assert bounds[0] >= bounds[1] >= bounds[2]

    def test_harmonic_mean_inequality(self):
        best = min(min(psi0_tilde(c) ** 2, 2 * c.r) for c in PAIR)
        assert pca_bound(PAIR) <= best

    def test_inconsistent_clients_rejected(self):
        other = RateInputs(n=100, epsilon=0.5, delta=0.1, p=20, r=1, lam=10.0, sigma2=1.0)
        with pytest.raises(ValueError):
            pca_bound([CONFIG_41, other])


class TestCovBound:
    def test_single_client_reduction(self):
        c = CONFIG_41
        expected = min(
            c.lam**2 * psi0_tilde(c) ** 2 + c.lam**2 * psi1_tilde(c) ** 2,
            2 * c.r * c.lam**2,
        )
        assert cov_bound([c]) == pytest.approx(expected, rel=1e-12)

    def test_pinned_heterogeneous_pair(self):
        assert cov_bound(PAIR) == pytest.approx(COV_BOUND_PAIR, rel=1e-12)

    def test_spike_scaling(self):
        # Scaling lam and sigma2 together keeps sigma2/lam fixed, so the
        # uncapped bound scales by c^2.
        c = 3.0
        base = [RateInputs(5000, 0.5, 0.1, 30, 1, 8.0, 1.0)]
        scaled = [RateInputs(5000, 0.5, 0.1, 30, 1, 8.0 * c, 1.0 * c)]
        assert cov_bound(scaled) == pytest.approx(c**2 * cov_bound(base), rel=1e-10)


class TestAdmissibility:
    def test_scenario_config_admissible(self):
        assert is_admissible(CONFIG_41)

    def test_weak_client_flagged(self):
        weak = RateInputs(n=20, epsilon=0.1, delta=0.5, p=500, r=1, lam=1.0, sigma2=10.0)
        assert not is_admissible(weak)


class TestRateInputsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, epsilon=0.5, delta=0.1, p=10, r=1, lam=1.0, sigma2=1.0),
            dict(n=10, epsilon=0.0, delta=0.1, p=10, r=1, lam=1.0, sigma2=1.0),
            dict(n=10, epsilon=0.5, delta=1.0, p=10, r=1, lam=1.0, sigma2=1.0),
            dict(n=10, epsilon=0.5, delta=0.1, p=10, r=11, lam=1.0, sigma2=1.0),
            dict(n=10, epsilon=0.5, delta=0.1, p=10, r=1, lam=-1.0, sigma2=1.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RateInputs(**kwargs)


def test_rate_table_rows():
    rows = rate_table(PAIR)
    assert len(rows) == 2
    assert rows[0]["psi0_tilde"] == pytest.approx(PSI0_1000, rel=1e-12)
    assert rows[0]["pca_bound"] == rows[1]["pca_bound"]
    assert set(rows[0]) == {
        "client",
        "n",
        "epsilon",
        "delta",
        "psi0_tilde",
        "psi1_tilde",
        "admissible",
        "pca_bound",
        "cov_bound",
    }
