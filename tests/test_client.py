import numpy as np
import pytest
from conftest import make_model, projector_gap

from fedspike import (
    ClientConfig,
    PrivacyBudget,
    covariance_matrix,
    local_private_eigenvalues,
    local_private_projector,
    projection_distance,
    random_orthonormal,
    sample,
)
from fedspike.client import local_raw_noisy_projector
from fedspike.messages import EigenvalueMessage
from fedspike.rates import RateInputs, psi0_tilde
from fedspike.spectral import sample_covariance, svd_r


def _cfg(seed=0, eps=1.0, delta=0.1, r=1, lam=10.0, s2=1.0, cid="c0"):
    return ClientConfig(cid, PrivacyBudget(eps, delta), r, lam, s2, seed)


class TestPrivateProjector:
    def test_zero_noise_limit(self):
        model = make_model(12, 1, 10.0, 1.0, 3)
        data = sample(model, 400, 5)
        msg = local_private_projector(data, _cfg(eps=1e9))
        u_tilde = svd_r(sample_covariance(data), 1)
        assert projection_distance(msg.u_hat, u_tilde) <= 1e-6

    def test_deterministic(self):
        model = make_model(10, 2, [8.0, 6.0], 1.0, 1)
        data = sample(model, 100, 2)
        a = local_private_projector(data, _cfg(seed=5, r=2))
        b = local_private_projector(data, _cfg(seed=5, r=2))
        assert np.array_equal(a.u_hat, b.u_hat)

    def test_noise_seed_changes_output(self):
        model = make_model(10, 1, 8.0, 1.0, 1)
        data = sample(model, 100, 2)
        a = local_private_projector(data, _cfg(seed=5))
        b = local_private_projector(data, _cfg(seed=6))
        assert not np.array_equal(a.u_hat, b.u_hat)

    def test_monte_carlo_error_envelope(self):
        p, r, lam, s2, n, eps, delta = 50, 1, 10.0, 1.0, 10000, 1.0, 0.1
        model = make_model(p, r, lam, s2, 42)
        dists = []
        for rep in range(50):
            data = sample(model, n, 1000 + rep)
            msg = local_private_projector(data, _cfg(seed=2000 + rep, eps=eps))
            dists.append(projection_distance(msg.u_hat, model.basis_u))
        envelope = 3 * psi0_tilde(RateInputs(n, eps, delta, p, r, lam, s2))
        assert np.mean(dists) <= envelope

    def test_message_carries_client_params(self):
        model = make_model(6, 1, 5.0, 1.0, 2)
        data = sample(model, 60, 3)
        msg = local_private_projector(data, _cfg(eps=0.7, delta=0.2, cid="alice"))
        assert (msg.client_id, msg.n, msg.epsilon, msg.delta) == ("alice", 60, 0.7, 0.2)
        assert msg.warning is None

    def test_degenerate_data_warns_but_releases(self):
        # One repeated observation: the sample covariance is rank one, so a
        # rank-2 request sees a zero eigengap past the first eigenvalue.
        x = np.tile(np.array([[2.0], [0.0], [0.0], [0.0]]), (1, 6))
        from fedspike import Dataset

        msg = local_private_projector(Dataset(x), _cfg(r=2, seed=8))
        assert msg.warning is not None and "degenerate" in msg.warning
        assert msg.u_hat.shape == (4, 2)

    def test_warning_reads_the_gap_between_eigenvalues_r_and_r_plus_1(self):
        # (1/4) X X' = diag(x^2 / 4): a tie past position r + 1 is no warning,
        # a tie at positions r and r + 1 is.
        from fedspike import Dataset

        untied = local_private_projector(Dataset(np.diag([4.0, 2.0, 2.0, 2.0])), _cfg(r=1))
        tied = local_private_projector(Dataset(np.diag([4.0, 4.0, 2.0, 2.0])), _cfg(r=1))
        assert untied.warning is None
        assert tied.warning is not None and "degenerate" in tied.warning

    def test_depends_on_data_only_through_covariance(self):
        # Negating every observation leaves X X' bit-identical, so the
        # released frame must be bit-identical too.
        from fedspike import Dataset

        model = make_model(8, 1, 6.0, 1.0, 4)
        data = sample(model, 50, 11)
        flipped = Dataset(-data.samples)
        a = local_private_projector(data, _cfg(seed=3))
        b = local_private_projector(flipped, _cfg(seed=3))
        assert np.array_equal(a.u_hat, b.u_hat)

    def test_raw_noisy_projector_shares_noise(self):
        model = make_model(10, 1, 8.0, 1.0, 6)
        data = sample(model, 200, 7)
        cfg = _cfg(seed=13)
        raw = local_raw_noisy_projector(data, cfg)
        msg = local_private_projector(data, cfg)
        assert raw.shape == (10, 10)
        assert np.array_equal(raw, raw.T)
        assert projector_gap(svd_r(raw, 1), msg.u_hat) <= 1e-12

    def test_too_few_samples(self):
        from fedspike import Dataset

        with pytest.raises(ValueError):
            local_private_projector(Dataset(np.ones((4, 1))), _cfg(r=2))

    def test_rotation_invariance_of_mean_projector(self):
        # Rotating the raw data conjugates the distribution of the released
        # projector; compare MC mean projectors at matching moments.
        p, n, reps = 8, 200, 200
        model = make_model(p, 1, 9.0, 1.0, 10)
        q = random_orthonormal(p, p, 20)
        from fedspike import Dataset

        mean_plain = np.zeros((p, p))
        mean_rot = np.zeros((p, p))
        for rep in range(reps):
            data = sample(model, n, 500 + rep)
            cfg = _cfg(seed=900 + rep, eps=2.0)
            u1 = local_private_projector(data, cfg).u_hat
            u2 = local_private_projector(Dataset(q @ data.samples), cfg).u_hat
            mean_plain += u1 @ u1.T / reps
            mean_rot += u2 @ u2.T / reps
        assert np.linalg.norm(mean_rot - q @ mean_plain @ q.T) <= 0.15


class TestPrivateEigenvalues:
    def test_population_identity(self):
        # With U exact and the population covariance, U'(Sigma - s2 I)U = Lam.
        model = make_model(7, 2, [6.0, 3.0], 1.5, 5)
        sigma = covariance_matrix(model)
        core = model.basis_u.T @ (sigma - 1.5 * np.eye(7)) @ model.basis_u
        np.testing.assert_allclose(core, np.diag([6.0, 3.0]), atol=1e-10)

    def test_low_noise_recovers_spikes(self):
        model = make_model(10, 2, [8.0, 5.0], 1.0, 6)
        data = sample(model, 20000, 9)
        cfg = _cfg(eps=1e9, r=2)
        msg = local_private_eigenvalues(data, model.basis_u, cfg)
        np.testing.assert_allclose(np.diag(msg.lambda_hat), [8.0, 5.0], atol=0.6)

    def test_noise_is_zero_mean(self):
        model = make_model(8, 1, 7.0, 1.0, 3)
        data = sample(model, 150, 4)
        u = model.basis_u
        s = sample_covariance(data)
        center = float((u.T @ s @ u)[0, 0]) - 1.0
        draws = [
            local_private_eigenvalues(data, u, _cfg(seed=s0, eps=0.5)).lambda_hat[0, 0]
            for s0 in range(300)
        ]
        se = np.std(draws) / np.sqrt(len(draws))
        assert abs(np.mean(draws) - center) <= 3 * se

    def test_shape_and_symmetry(self):
        model = make_model(50, 5, [10.0] * 5, 1.0, 8)
        data = sample(model, 300, 2)
        msg = local_private_eigenvalues(data, model.basis_u, _cfg(r=5))
        assert isinstance(msg, EigenvalueMessage)
        assert msg.lambda_hat.shape == (5, 5)
        assert np.max(np.abs(msg.lambda_hat - msg.lambda_hat.T)) <= 1e-12

    def test_shape_mismatch_rejected(self):
        model = make_model(6, 1, 5.0, 1.0, 2)
        data = sample(model, 50, 3)
        with pytest.raises(ValueError):
            local_private_eigenvalues(data, np.eye(5)[:, :1], _cfg())

    def test_part1_part2_noise_streams_independent(self):
        # Same seed must not reuse the projector noise for the eigenvalues:
        # the two sub-streams are labeled separately.
        model = make_model(5, 1, 5.0, 1.0, 4)
        data = sample(model, 80, 6)
        cfg = _cfg(seed=77, r=1)
        z_msg = local_private_projector(data, cfg)
        e_msg = local_private_eigenvalues(data, z_msg.u_hat, cfg)
        again = local_private_eigenvalues(data, z_msg.u_hat, cfg)
        assert np.array_equal(e_msg.lambda_hat, again.lambda_hat)


class TestLocalMoments:
    def test_second_moment_and_spectrum_computed_once_per_dataset(self, monkeypatch):
        from fedspike import client, spectral

        calls = {"sample_covariance": 0, "sym_eig": 0}

        def counted(name):
            original = getattr(spectral, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(client, name, counted(name))
        model = make_model(9, 2, [8.0, 6.0], 1.0, 4)
        data = sample(model, 120, 5)
        cfg = _cfg(seed=3, r=2)
        msg = local_private_projector(data, cfg)
        local_raw_noisy_projector(data, cfg)
        local_private_eigenvalues(data, msg.u_hat, cfg)
        local_private_projector(data, _cfg(seed=4, r=2))
        assert calls == {"sample_covariance": 1, "sym_eig": 1}
        # A new Dataset with the same samples gets its own computation.
        local_private_projector(sample(model, 120, 5), cfg)
        assert calls == {"sample_covariance": 2, "sym_eig": 2}

    def test_cached_releases_match_fresh_ones(self):
        model = make_model(10, 2, [8.0, 6.0], 1.0, 7)
        data = sample(model, 90, 8)
        cfg = _cfg(seed=9, r=2)
        first = local_private_projector(data, cfg)
        again = local_private_projector(data, cfg)
        fresh = local_private_projector(sample(model, 90, 8), cfg)
        assert np.array_equal(first.u_hat, again.u_hat)
        assert np.array_equal(first.u_hat, fresh.u_hat)
        eig = local_private_eigenvalues(data, first.u_hat, cfg)
        eig_fresh = local_private_eigenvalues(sample(model, 90, 8), first.u_hat, cfg)
        assert np.array_equal(eig.lambda_hat, eig_fresh.lambda_hat)

    def test_the_cache_is_invisible(self):
        # Warm: one dataset serves a budget sweep, so the second and third
        # budgets reuse the first one's noise normals, and each repeated
        # round-1 call reuses the release. Cold: each call on its own copy.
        from fedspike import Dataset

        model = make_model(12, 2, [8.0, 5.0], 1.0, 21)
        data = sample(model, 150, 22)
        cfgs = [_cfg(seed=23, r=2, eps=eps) for eps in (0.2, 0.9, 4.0)]
        releases = {
            "projector": lambda d, cfg: local_private_projector(d, cfg).u_hat,
            "raw": local_raw_noisy_projector,
            "eigenvalues": lambda d, cfg: local_private_eigenvalues(
                d, model.basis_u, cfg
            ).lambda_hat,
        }
        for cfg in cfgs:
            for _ in range(2):
                for name, release in releases.items():
                    warm = release(data, cfg)
                    cold = release(Dataset(data.samples), cfg)
                    assert np.array_equal(warm, cold), (name, cfg.budget.epsilon)

    def test_a_cached_frame_is_read_only(self):
        model = make_model(10, 1, 8.0, 1.0, 7)
        data = sample(model, 90, 8)
        for msg in (local_private_projector(data, _cfg()), local_private_projector(data, _cfg())):
            with pytest.raises(ValueError):
                msg.u_hat[0, 0] = 1.0

    def test_rank_change_recomputes_the_frame(self):
        model = make_model(10, 2, [8.0, 6.0], 1.0, 7)
        data = sample(model, 90, 8)
        r1 = local_private_projector(data, _cfg(seed=9, r=1, eps=1e9))
        r2 = local_private_projector(data, _cfg(seed=9, r=2, eps=1e9))
        assert r1.u_hat.shape == (10, 1) and r2.u_hat.shape == (10, 2)
        assert projection_distance(r2.u_hat, svd_r(sample_covariance(data), 2)) <= 1e-6


class TestClientConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClientConfig("c", PrivacyBudget(1.0, 0.1), 0, 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            ClientConfig("c", PrivacyBudget(1.0, 0.1), 1, -1.0, 1.0, 0)
