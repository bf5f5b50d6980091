import numpy as np
import pytest
from conftest import make_model, projector_gap
from hypothesis import given
from hypothesis import strategies as st

from fedspike import (
    AggregationWeights,
    ClientConfig,
    PrivacyBudget,
    aggregate_projectors,
    aggregate_reference,
    assemble_covariance,
    cov_weights,
    covariance_matrix,
    local_private_projector,
    pca_weights,
    projection_distance,
    sample,
)
from fedspike.client import local_raw_noisy_projector
from fedspike.experiments import client_layout, default_spec
from fedspike.messages import EigenvalueMessage, ProjectorMessage
from fedspike.rates import RateInputs, pca_bound, psi0_tilde
from fedspike.rng import derive_seed
from fedspike.server import SCHEMES, weights_from_rate_inputs

SHARED = dict(p=50, r=1, lam=10.0, sigma2=1.0)
PAIR_PARAMS = [(1000, 0.5, 0.1), (10000, 0.5, 0.1)]
# Pinned by 50-digit evaluation of the weight formulas for PAIR_PARAMS.
W_PAIR = (0.029994855245330409244, 0.97000514475466959076)
V_PAIR = (0.022819293458696158286, 0.97718070654130384171)


def _msg(u, cid, n=100, eps=0.5, delta=0.1):
    return ProjectorMessage(client_id=cid, u_hat=u, n=n, epsilon=eps, delta=delta)


def _eig_msg(lam, cid):
    return EigenvalueMessage(client_id=cid, lambda_hat=lam)


class TestWeights:
    def test_identical_clients_equal_weights(self):
        params = [(500, 0.5, 0.1)] * 4
        for scheme in SCHEMES:
            w = pca_weights(params, scheme=scheme, **SHARED)
            np.testing.assert_allclose(w.pca_w, 0.25)
            np.testing.assert_allclose(w.cov_v, 0.25)

    def test_more_samples_more_weight(self):
        params = [(20_000, 0.5, 0.1), (1000, 0.5, 0.1)]
        w = pca_weights(params, **SHARED)
        assert w.pca_w[0] > w.pca_w[1]

    def test_pinned_optimal_pair(self):
        w = pca_weights(PAIR_PARAMS, **SHARED)
        np.testing.assert_allclose(w.pca_w, W_PAIR, rtol=1e-10)

    def test_pinned_cov_pair(self):
        w = cov_weights(PAIR_PARAMS, **SHARED)
        np.testing.assert_allclose(w.cov_v, V_PAIR, rtol=1e-10)

    def test_cov_weights_follow_sample_sizes_without_privacy(self):
        params = [(1000, 1e9, 0.1), (3000, 1e9, 0.1)]
        w = cov_weights(params, **SHARED)
        np.testing.assert_allclose(w.cov_v, [0.25, 0.75], rtol=1e-6)

    def test_simplex_invariant(self):
        params = [(100, 0.2, 0.15), (5000, 0.9, 0.05), (700, 0.4, 0.3)]
        for scheme in SCHEMES:
            w = pca_weights(params, scheme=scheme, **SHARED)
            for vec in (w.pca_w, w.cov_v):
                assert np.all(vec >= 0)
                assert abs(vec.sum() - 1.0) <= 1e-12

    def test_mixed_plugins_rate_inputs(self):
        clients = [
            RateInputs(100, 0.4, 0.1, 30, 2, 50.0, 1.0),
            RateInputs(400, 0.4, 0.1, 30, 2, 80.0, 2.0),
        ]
        w = weights_from_rate_inputs(clients)
        assert w.pca_w.shape == (2,)
        assert abs(w.pca_w.sum() - 1.0) <= 1e-12

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            AggregationWeights([0.5, 0.6], [0.5, 0.5], "equal")
        with pytest.raises(ValueError):
            AggregationWeights([-0.1, 1.1], [0.5, 0.5], "equal")
        with pytest.raises(ValueError):
            pca_weights([], **SHARED)
        mixed = [RateInputs(1000, 0.5, 0.1, p, r, 10.0, 1.0) for p, r in ((50, 1), (40, 3))]
        with pytest.raises(ValueError, match=r"share the same \(p, r\)"):
            weights_from_rate_inputs(mixed)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["pca_w", "cov_v"])
    def test_non_finite_entry_names_its_field(self, field, value):
        vectors = {"pca_w": [0.5, 0.5], "cov_v": [0.5, 0.5], field: [value, 0.5]}
        with pytest.raises(ValueError, match=f"^{field} has non-finite entries"):
            AggregationWeights(vectors["pca_w"], vectors["cov_v"], "optimal")

    @pytest.mark.parametrize("scheme", [s for s in SCHEMES if s != "equal"])
    def test_a_single_observation_is_refused(self, scheme):
        # calibrate refuses n = 1 (log n = 0), so no weight may be built on it.
        clients = [RateInputs(n, 0.5, 0.1, 30, 1, 10.0, 1.0) for n in (1, 500)]
        with pytest.raises(ValueError, match="n must be at least 2"):
            weights_from_rate_inputs(clients, scheme)


@st.composite
def _layouts(draw):
    """Clients sharing (p, r), each with its own (n, epsilon, delta) and plug-ins."""
    p = draw(st.integers(1, 500))
    r = draw(st.integers(1, min(p, 8)))
    m = draw(st.integers(1, 8))
    return [
        RateInputs(
            draw(st.integers(2, 10**6)),
            draw(st.floats(0.01, 10.0)),
            draw(st.floats(1e-6, 0.5)),
            p,
            r,
            draw(st.floats(0.1, 1e3)),
            draw(st.floats(0.01, 1e2)),
        )
        for _ in range(m)
    ]


class TestHarmonicMean:
    """The abstract's first claim: the server's rate is the harmonic mean of
    the clients' rates, attained by the optimal weights."""

    @given(_layouts(), st.data())
    def test_optimal_weights_attain_the_harmonic_bound(self, clients, data):
        psi_sq = np.array([psi0_tilde(c) ** 2 for c in clients])
        harmonic = 1.0 / np.sum(1.0 / psi_sq)
        w = weights_from_rate_inputs(clients, "optimal").pca_w
        # Stationarity on the simplex: w_j psi_j^2 is the same for every j,
        # which for this strictly convex objective is its unique minimum.
        np.testing.assert_allclose(w * psi_sq, harmonic, rtol=1e-12)
        assert np.sum(w**2 * psi_sq) == pytest.approx(harmonic, rel=1e-12)
        m = len(clients)
        other = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
        if other.sum() > 0:
            other = other / other.sum()
            assert np.sum(other**2 * psi_sq) >= harmonic * (1.0 - 1e-12)
        cap = 2.0 * clients[0].r
        assert pca_bound(clients) == pytest.approx(min(harmonic, cap), rel=1e-12)


class TestInverseSquareOptimum:
    """The abstract's first claim as a measurement: over the heterogeneous
    layout, the error of the projector average with w proportional to
    psi0_tilde^-k is smallest near the shipped k = 2. The margins (k = 2
    within 5% of the best k, and at least 10% below k = 0 and k = 8) were
    fixed before the first run, at seeds that no other check uses."""

    POWERS = (0, 1, 2, 3, 4, 8)
    REPS = 20

    @pytest.mark.parametrize("n_grid", [100, 300])
    def test_inverse_square_weights_sit_at_the_empirical_optimum(self, n_grid):
        seed = 63001
        spec = default_spec("heterogeneous", base_seed=seed, n_sample_grid=(n_grid,))
        p, r = spec.p, spec.r
        sq_err = np.zeros(len(self.POWERS))
        for rep in range(self.REPS):
            model = make_model(p, r, spec.lam, spec.sigma2, derive_seed(seed, "model", rep))
            layout = client_layout(spec, n_grid, 0, rep)
            # Round 1 once per client; only the server's weights change with k.
            msgs = [
                local_private_projector(
                    sample(model, n, derive_seed(seed, "data", rep, j)),
                    ClientConfig(
                        f"c{j:03d}",
                        PrivacyBudget(eps, delta),
                        r,
                        spec.lam,
                        spec.sigma2,
                        derive_seed(seed, "dp", rep, j),
                    ),
                )
                for j, (n, eps, delta) in enumerate(layout)
            ]
            rates = [RateInputs(n, e, d, p, r, spec.lam, spec.sigma2) for n, e, d in layout]
            psi = np.array([psi0_tilde(c) for c in rates])
            shipped = weights_from_rate_inputs(rates).pca_w
            np.testing.assert_allclose(shipped, psi**-2 / np.sum(psi**-2), rtol=1e-12)
            for i, k in enumerate(self.POWERS):
                w = psi**-k / np.sum(psi**-k)
                u_hat = aggregate_projectors(msgs, AggregationWeights(w, w, "optimal"))
                sq_err[i] += projection_distance(u_hat, model.basis_u) ** 2
        mse = dict(zip(self.POWERS, sq_err / self.REPS))
        shown = ", ".join(f"k={k}: {e:.4g}" for k, e in mse.items())
        assert mse[2] <= 1.05 * min(mse.values()), shown
        assert mse[2] <= 0.9 * mse[0] and mse[2] <= 0.9 * mse[8], shown


class TestAggregateProjectors:
    def test_single_message(self):
        u = np.eye(4)[:, :2]
        out = aggregate_projectors([_msg(u, "a")], AggregationWeights([1.0], [1.0], "equal"))
        assert projector_gap(out, u) <= 1e-12

    def test_identical_frames(self):
        from fedspike import random_orthonormal

        u = random_orthonormal(6, 2, 3)
        msgs = [_msg(u, f"c{i}") for i in range(3)]
        w = AggregationWeights(np.full(3, 1 / 3), np.full(3, 1 / 3), "equal")
        assert projector_gap(aggregate_projectors(msgs, w), u) <= 1e-12

    def test_two_by_two_closed_form(self):
        e1 = np.array([[1.0], [0.0]])
        diag = np.array([[1.0], [1.0]]) / np.sqrt(2)
        msgs = [_msg(e1, "a"), _msg(diag, "b")]
        w = AggregationWeights([0.5, 0.5], [0.5, 0.5], "equal")
        out = aggregate_projectors(msgs, w)
        # hand eigen-solve of [[0.75, 0.25], [0.25, 0.25]], 50-digit pinned
        expected = np.array([[0.92387953251128675613], [0.38268343236508977173]])
        assert projector_gap(out, expected) <= 1e-12

    def test_permutation_invariance(self):
        from fedspike import random_orthonormal

        msgs = [_msg(random_orthonormal(5, 1, i), f"c{i}") for i in range(4)]
        w = AggregationWeights([0.1, 0.2, 0.3, 0.4], [0.25] * 4, "optimal")
        a = aggregate_projectors(msgs, w)
        b = aggregate_projectors(list(reversed(msgs)), w)
        assert np.array_equal(a, b)

    def test_duplicate_ids_rejected(self):
        u = np.eye(3)[:, :1]
        w = AggregationWeights([0.5, 0.5], [0.5, 0.5], "equal")
        with pytest.raises(ValueError):
            aggregate_projectors([_msg(u, "a"), _msg(u, "a")], w)

    def test_weight_count_mismatch(self):
        u = np.eye(3)[:, :1]
        w = AggregationWeights([0.5, 0.5], [0.5, 0.5], "equal")
        with pytest.raises(ValueError):
            aggregate_projectors([_msg(u, "a")], w)


class TestAggregateReference:
    def test_zero_noise_identical_clients(self):
        from fedspike import random_orthonormal

        u = random_orthonormal(7, 2, 9)
        raws = [u @ u.T for _ in range(3)]
        w = AggregationWeights(np.full(3, 1 / 3), np.full(3, 1 / 3), "equal")
        assert projector_gap(aggregate_reference(raws, w, 2), u) <= 1e-10

    def test_single_matrix_matches_definition(self):
        model = make_model(8, 1, 9.0, 1.0, 4)
        data = sample(model, 100, 5)
        cfg = ClientConfig("a", PrivacyBudget(0.8, 0.1), 1, 9.0, 1.0, seed=3)
        raw = local_raw_noisy_projector(data, cfg)
        from fedspike.spectral import svd_r

        w = AggregationWeights([1.0], [1.0], "equal")
        assert np.array_equal(aggregate_reference([raw], w, 1), svd_r(raw, 1))

    def test_dimension_mismatch(self):
        w = AggregationWeights([0.5, 0.5], [0.5, 0.5], "equal")
        with pytest.raises(ValueError):
            aggregate_reference([np.eye(3), np.eye(4)], w, 1)


class TestAssembleCovariance:
    def test_reconstruction_identity(self):
        model = make_model(6, 2, [5.0, 3.0], 1.0, 2)
        lam = np.diag(model.spike_eigenvalues)
        msgs = [_eig_msg(lam, "a"), _eig_msg(lam, "b")]
        w = AggregationWeights([0.5, 0.5], [0.5, 0.5], "equal")
        sigma = assemble_covariance(model.basis_u, msgs, w, 1.0)
        np.testing.assert_allclose(sigma, covariance_matrix(model), atol=1e-13)

    def test_point_mass_weight(self):
        model = make_model(5, 1, 4.0, 1.0, 3)
        lam_a = np.array([[4.0]])
        lam_b = np.array([[9.0]])
        msgs = [_eig_msg(lam_a, "a"), _eig_msg(lam_b, "b")]
        w = AggregationWeights([0.5, 0.5], [0.0, 1.0], "optimal")
        sigma = assemble_covariance(model.basis_u, msgs, w, 1.0)
        u = model.basis_u
        np.testing.assert_allclose(sigma, 9.0 * (u @ u.T) + np.eye(5), atol=1e-13)

    def test_symmetrizes_slightly_asymmetric_blocks(self):
        model = make_model(4, 2, [3.0, 2.0], 1.0, 1)
        lam = np.diag([3.0, 2.0])
        lam[0, 1] += 5e-9  # inside the message tolerance
        msgs = [_eig_msg(lam, "a")]
        w = AggregationWeights([1.0], [1.0], "equal")
        sigma = assemble_covariance(model.basis_u, msgs, w, 1.0)
        assert np.array_equal(sigma, sigma.T)

    def test_shape_mismatch(self):
        model = make_model(4, 2, [3.0, 2.0], 1.0, 1)
        msgs = [_eig_msg(np.eye(3), "a")]
        w = AggregationWeights([1.0], [1.0], "equal")
        with pytest.raises(ValueError):
            assemble_covariance(model.basis_u, msgs, w, 1.0)


class TestHarmonicMeanDominance:
    def test_aggregate_beats_best_single_client(self):
        # Heterogeneous clients; the optimally weighted aggregate's mean
        # squared error must not exceed the best single client's, up to
        # twice the sampling error of that client's estimate.
        p, r, lam, s2 = 20, 1, 10.0, 1.0
        sizes = (300, 500, 3000, 5000)
        epss = (0.15, 0.2, 0.25, 0.3)
        model = make_model(p, r, lam, s2, 30)
        params = [(n, e, 0.1) for n, e in zip(sizes, epss)]
        weights = pca_weights(params, p=p, r=r, lam=lam, sigma2=s2)
        reps = 50
        agg_sq = np.zeros(reps)
        client_sq = np.zeros((reps, len(sizes)))
        for rep in range(reps):
            msgs = []
            for j, (n, eps, delta) in enumerate(params):
                data = sample(model, n, seed=7000 + 13 * rep + j, client_id=f"c{j}")
                cfg = ClientConfig(f"c{j}", PrivacyBudget(eps, delta), r, lam, s2, 8000 + 13 * rep + j)
                msg = local_private_projector(data, cfg)
                msgs.append(msg)
                client_sq[rep, j] = projection_distance(msg.u_hat, model.basis_u) ** 2
            u = aggregate_projectors(msgs, weights)
            agg_sq[rep] = projection_distance(u, model.basis_u) ** 2
        best_j = int(np.argmin(client_sq.mean(axis=0)))
        best_mean = client_sq[:, best_j].mean()
        best_se = client_sq[:, best_j].std(ddof=1) / np.sqrt(reps)
        assert agg_sq.mean() <= best_mean + 2 * best_se
