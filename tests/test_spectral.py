import numpy as np
import pytest
from conftest import make_model, projector_gap

from fedspike import (
    Dataset,
    SpikedModel,
    covariance_matrix,
    explained_variance,
    random_orthonormal,
    sample,
    sample_covariance,
    svd_r,
    sym_eig,
)


class TestSymEig:
    def test_diagonal(self):
        eig = sym_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(eig.values, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(np.abs(eig.vectors), np.eye(3)[:, [0, 2, 1]], atol=1e-12)

    def test_construct_then_decompose(self):
        for trial in range(10):
            q = random_orthonormal(8, 8, trial)
            d = np.sort(np.random.default_rng(trial).uniform(-4, 4, 8))[::-1]
            eig = sym_eig(q @ np.diag(d) @ q.T)
            np.testing.assert_allclose(eig.values, d, atol=1e-9)

    def test_two_by_two_closed_form(self):
        eig = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(eig.values, [1.0, -1.0], atol=1e-12)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(eig.vectors[:, 0], [s, s], atol=1e-12)
        np.testing.assert_allclose(eig.vectors[:, 1], [s, -s], atol=1e-12)

    def test_residuals_and_orthonormality(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 12))
        m = (a + a.T) / 2
        eig = sym_eig(m)
        op = np.max(np.abs(eig.values))
        for k in range(12):
            res = np.linalg.norm(m @ eig.vectors[:, k] - eig.values[k] * eig.vectors[:, k])
            assert res <= 1e-8 * (1 + abs(eig.values[k])) * op
        assert np.linalg.norm(eig.vectors.T @ eig.vectors - np.eye(12)) <= 1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((9, 9))
        eig = sym_eig((a + a.T) / 2)
        lead = np.argmax(np.abs(eig.vectors), axis=0)
        assert np.all(eig.vectors[lead, np.arange(9)] > 0)

    def test_trace_preserved(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((10, 10))
        m = (a + a.T) / 2
        assert abs(np.sum(sym_eig(m).values) - np.trace(m)) <= 1e-9 * 10 * np.max(np.abs(m))

    def test_rotation_equivariance_of_values(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((7, 7))
        m = (a + a.T) / 2
        q = random_orthonormal(7, 7, 1)
        np.testing.assert_allclose(
            sym_eig(q.T @ m @ q).values, sym_eig(m).values, atol=1e-9
        )

    def test_non_finite_rejected(self):
        m = np.eye(3)
        m[1, 1] = np.inf
        with pytest.raises(ValueError):
            sym_eig(m)

    @pytest.mark.parametrize(
        "m",
        [
            (lambda a: (a + a.T) / 2)(np.random.default_rng(21).standard_normal((7, 7))),
            (lambda q: q @ np.diag([3.0, 3.0, 3.0, 1.0, 1.0, 0.0, 0.0]) @ q.T)(
                random_orthonormal(7, 7, 2)
            ),
            np.zeros((5, 5)),
            np.eye(4),
        ],
        ids=["random", "repeated", "zero", "identity"],
    )
    def test_top_k_is_the_full_decomposition_sliced(self, m):
        full = sym_eig(m)
        for k in range(1, m.shape[0] + 1):
            top = sym_eig(m, k)
            assert top.values.tobytes() == full.values.tobytes()
            assert top.vectors.shape == (m.shape[0], k)
            assert top.vectors.tobytes() == np.ascontiguousarray(full.vectors[:, :k]).tobytes()

    def test_k_out_of_range(self):
        for k in (0, 4):
            with pytest.raises(ValueError, match="k="):
                sym_eig(np.eye(3), k)

    def test_residual_accuracy_at_p512(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((512, 512))
        m = (a + a.T) / 2
        eig = sym_eig(m)
        op = np.max(np.abs(eig.values))
        residual = np.max(np.linalg.norm(m @ eig.vectors - eig.vectors * eig.values, axis=0))
        assert residual <= 1e-9 * op


class TestSvdR:
    def test_diagonal_top_two(self):
        v = svd_r(np.diag([5.0, 4.0, 1.0]), 2)
        assert projector_gap(v, np.eye(3)[:, :2]) <= 1e-12

    def test_exact_projector(self):
        u = random_orthonormal(6, 2, 4)
        v = svd_r(u @ u.T, 2)
        assert projector_gap(v, u) <= 1e-8

    def test_agrees_with_full_decomposition(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            a = rng.standard_normal((7, 7))
            m = (a + a.T) / 2
            vals, vecs = np.linalg.eigh(m)  # independent oracle path
            if vals[-3] - vals[-4] < 1e-6:
                continue
            oracle = vecs[:, -3:]
            assert projector_gap(svd_r(m, 3), oracle) <= 1e-10

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 6))
        m = (a + a.T) / 2 + np.diag([3.0, 0, 0, 0, 0, 0])  # safe top gap
        v1 = svd_r(m, 1)
        v2 = svd_r(m + 17.5 * np.eye(6), 1)
        assert projector_gap(v1, v2) <= 1e-10

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            svd_r(np.eye(3), 4)
        with pytest.raises(ValueError):
            svd_r(np.eye(3), 0)


class TestSampleCovariance:
    def test_single_observation(self):
        data = Dataset(np.array([[2.0], [0.0]]))
        np.testing.assert_allclose(sample_covariance(data), [[4.0, 0.0], [0.0, 0.0]])

    def test_two_canonical_observations(self):
        data = Dataset(np.eye(2))
        np.testing.assert_allclose(sample_covariance(data), 0.5 * np.eye(2))

    def test_concentration(self):
        model = make_model(10, 1, 5.0, 1.0, 21)
        sigma = covariance_matrix(model)
        n = 4000
        s = sample_covariance(sample(model, n, 33))
        rel = np.linalg.norm(s - sigma, 2) / np.linalg.norm(sigma, 2)
        assert rel <= 3 * np.sqrt(10 / n)

    def test_psd(self):
        model = make_model(5, 2, [3.0, 2.0], 1.0, 2)
        s = sample_covariance(sample(model, 50, 3))
        assert np.min(np.linalg.eigvalsh(s)) >= -1e-10


class TestExplainedVariance:
    def test_full_basis(self):
        model = make_model(4, 1, 3.0, 1.0, 7)
        data = sample(model, 100, 5)
        assert explained_variance(np.eye(4), data) == 1.0

    def test_data_in_span(self):
        u = random_orthonormal(6, 2, 8)
        coeffs = np.random.default_rng(0).standard_normal((2, 40))
        data = Dataset(u @ coeffs)
        assert explained_variance(u, data) >= 1.0 - 1e-12

    def test_ratio_for_diagonal_covariance(self):
        # diag(4, 1) covariance: U = e1, spike 3, noise 1; e1 explains 0.8.
        model = SpikedModel(np.array([[1.0], [0.0]]), np.array([3.0]), 1.0)
        data = sample(model, 200_000, 17)
        ev = explained_variance(np.array([[1.0], [0.0]]), data)
        assert abs(ev - 0.8) <= 0.02

    def test_zero_variance_rejected(self):
        data = Dataset(np.ones((3, 5)))
        with pytest.raises(ValueError):
            explained_variance(np.eye(3)[:, :1], data)

    def test_shape_mismatch(self):
        data = Dataset(np.ones((3, 5)) + np.random.default_rng(1).standard_normal((3, 5)))
        with pytest.raises(ValueError):
            explained_variance(np.eye(4)[:, :1], data)
