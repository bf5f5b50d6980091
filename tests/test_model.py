import numpy as np
import pytest
from conftest import make_model, projector_gap, save_dataset_csv

from fedspike import (
    Dataset,
    SpikedModel,
    covariance_matrix,
    load_dataset_csv,
    projection_distance,
    random_orthonormal,
    sample,
)
from fedspike.model import fill_normals


class TestRandomOrthonormal:
    def test_square_is_orthogonal(self):
        for seed in (0, 1, 99):
            q = random_orthonormal(3, 3, seed)
            assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-10

    def test_deterministic(self):
        a = random_orthonormal(5, 1, 7)
        b = random_orthonormal(5, 1, 7)
        assert np.array_equal(a, b)

    def test_columns_orthogonal(self):
        u = random_orthonormal(4, 2, 1)
        assert abs(u[:, 0] @ u[:, 1]) <= 1e-12

    def test_r_larger_than_p_rejected(self):
        with pytest.raises(ValueError):
            random_orthonormal(3, 4, 0)

    def test_distinct_seeds_differ(self):
        assert not np.allclose(random_orthonormal(6, 2, 1), random_orthonormal(6, 2, 2))


class TestSpikedModel:
    def test_rejects_non_orthonormal_basis(self):
        u = np.ones((3, 1)) / np.sqrt(3) * 1.01
        with pytest.raises(ValueError):
            SpikedModel(u, np.array([1.0]), 1.0)

    def test_rejects_increasing_spikes(self):
        u = random_orthonormal(4, 2, 0)
        with pytest.raises(ValueError):
            SpikedModel(u, np.array([1.0, 2.0]), 1.0)

    def test_rejects_nonpositive(self):
        u = random_orthonormal(4, 1, 0)
        with pytest.raises(ValueError):
            SpikedModel(u, np.array([0.0]), 1.0)
        with pytest.raises(ValueError):
            SpikedModel(u, np.array([1.0]), 0.0)

    @pytest.mark.parametrize(
        "field, spikes, noise_var",
        [
            ("spike_eigenvalues", [np.inf], 1.0),
            ("spike_eigenvalues", [np.nan], 1.0),
            ("noise_var", [1.0], np.inf),
        ],
        ids=["inf-spike", "nan-spike", "inf-noise_var"],
    )
    def test_rejects_non_finite_naming_the_field(self, field, spikes, noise_var):
        u = random_orthonormal(4, 1, 0)
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SpikedModel(u, np.array(spikes), noise_var)

    def test_spike_scalar_is_smallest(self):
        model = make_model(5, 2, [4.0, 2.0], 1.0, 3)
        assert model.spike_scalar == 2.0


class TestCovarianceMatrix:
    def test_rank_one_canonical(self):
        model = SpikedModel(np.array([[1.0], [0.0]]), np.array([3.0]), 1.0)
        np.testing.assert_allclose(covariance_matrix(model), [[4.0, 0.0], [0.0, 1.0]])

    def test_diagonal_case(self):
        u = np.eye(3)[:, :2]
        model = SpikedModel(u, np.array([2.0, 1.0]), 0.5)
        np.testing.assert_allclose(covariance_matrix(model), np.diag([2.5, 1.5, 0.5]))

    def test_shifted_matrix_has_rank_r(self):
        model = make_model(8, 3, [5.0, 4.0, 3.0], 2.0, 11)
        shifted = covariance_matrix(model) - 2.0 * np.eye(8)
        vals = np.linalg.eigvalsh(shifted)
        assert np.sum(np.abs(vals) > 1e-9) == 3

    def test_spectrum_and_min_eigenvalue(self):
        model = make_model(6, 2, [7.0, 3.0], 1.5, 5)
        vals = np.sort(np.linalg.eigvalsh(covariance_matrix(model)))[::-1]
        np.testing.assert_allclose(vals[:2], [8.5, 4.5], atol=1e-9)
        np.testing.assert_allclose(vals[2:], 1.5, atol=1e-9)


class TestSample:
    def test_empirical_covariance(self):
        model = SpikedModel(np.array([[1.0], [0.0]]), np.array([3.0]), 1.0)
        n = 200_000
        x = sample(model, n, 42).samples
        emp = (x @ x.T) / n
        target = np.array([[4.0, 0.0], [0.0, 1.0]])
        # 3 sd of the sample-moment estimator per entry
        sd = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
        assert np.all(np.abs(emp - target) <= 3 * sd)
        assert np.all(np.abs(np.diag(emp) - np.diag(target)) <= 0.05 * np.diag(target))

    def test_zero_mean(self):
        model = make_model(4, 1, 5.0, 1.0, 2)
        n = 50_000
        x = sample(model, n, 9).samples
        var = np.diag(covariance_matrix(model))
        assert np.all(np.abs(x.mean(axis=1)) <= 4 * np.sqrt(var / n))

    def test_deterministic(self):
        model = make_model(4, 2, [3.0, 2.0], 1.0, 0)
        a = sample(model, 50, 123).samples
        b = sample(model, 50, 123).samples
        assert np.array_equal(a, b)

    def test_rotation_invariance_in_distribution(self):
        # With equal spikes, (U Q, lam I) defines the same distribution as
        # (U, lam I); empirical covariances must agree to MC accuracy.
        p, r, n = 6, 2, 100_000
        u = random_orthonormal(p, r, 4)
        q = random_orthonormal(r, r, 5)
        m1 = SpikedModel(u, np.array([4.0, 4.0]), 1.0)
        m2 = SpikedModel(u @ q, np.array([4.0, 4.0]), 1.0)
        np.testing.assert_allclose(covariance_matrix(m1), covariance_matrix(m2), atol=1e-12)
        c1 = sample(m1, n, 7).samples
        c2 = sample(m2, n, 7).samples
        emp1 = (c1 @ c1.T) / n
        emp2 = (c2 @ c2.T) / n
        assert np.max(np.abs(emp1 - emp2)) <= 0.15

    def test_n_must_be_positive(self):
        model = make_model(3, 1, 2.0, 1.0, 0)
        with pytest.raises(ValueError):
            sample(model, 0, 1)


class TestProjectionDistance:
    def test_identity_case(self):
        u = random_orthonormal(5, 2, 8)
        assert projection_distance(u, u) == 0.0

    def test_orthogonal_unit_vectors(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert abs(projection_distance(e1, e2) - np.sqrt(2)) <= 1e-12

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            u1 = random_orthonormal(6, 2, 100 + trial)
            u2 = random_orthonormal(6, 2, 200 + trial)
            assert abs(projection_distance(u1, u2) - projector_gap(u1, u2)) <= 1e-10

    def test_metric_properties(self):
        for trial in range(30):
            a = random_orthonormal(7, 2, 3 * trial)
            b = random_orthonormal(7, 2, 3 * trial + 1)
            c = random_orthonormal(7, 2, 3 * trial + 2)
            dab = projection_distance(a, b)
            dba = projection_distance(b, a)
            assert abs(dab - dba) <= 1e-12
            assert projection_distance(a, b) + projection_distance(b, c) >= (
                projection_distance(a, c) - 1e-10
            )

    def test_zero_iff_same_span(self):
        u = random_orthonormal(6, 2, 1)
        q = random_orthonormal(2, 2, 2)
        assert projection_distance(u, u @ q) <= 1e-8
        v = random_orthonormal(6, 2, 3)
        assert projection_distance(u, v) > 1e-3

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            projection_distance(np.eye(3)[:, :1], np.eye(4)[:, :1])


class TestDataset:
    def test_rejects_non_finite(self):
        x = np.ones((2, 3))
        x[0, 1] = np.nan
        with pytest.raises(ValueError, match="dataset contains non-finite entries"):
            Dataset(x)

    def test_sample_rejects_non_finite_normals(self):
        model = make_model(3, 1, 4.0, 1.0, 0)
        g, z = np.zeros((1, 5)), np.zeros((3, 5))
        z[2, 4] = np.nan
        with pytest.raises(ValueError, match="dataset contains non-finite entries"):
            sample(model, 5, 0, normals=(g, z))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 0)))

    def test_samples_are_a_read_only_copy(self):
        x = np.ones((2, 3))
        data = Dataset(x)
        with pytest.raises(ValueError):
            data.samples[0, 0] = 5.0
        x[0, 0] = 5.0  # the caller's array stays writable and is not shared
        assert data.samples[0, 0] == 1.0

    def test_sample_hands_over_its_buffer_and_dataset_copies(self):
        model = make_model(6, 2, [5.0, 3.0], 1.0, 0)
        drawn = sample(model, 40, 7).samples
        assert drawn.flags.owndata and not drawn.flags.writeable
        normals = (np.empty((2, 40)), np.empty((6, 40)))
        fill_normals(7, *normals)
        pooled = sample(model, 40, 7, normals=normals).samples
        assert pooled is normals[1] and not pooled.flags.writeable
        assert np.array_equal(pooled, drawn)
        x = np.array(drawn)
        data = Dataset(x)
        assert data.samples.flags.owndata and not data.samples.flags.writeable
        assert not np.shares_memory(data.samples, x) and x.flags.writeable

    def test_csv_roundtrip(self, tmp_path):
        model = make_model(3, 1, 4.0, 1.0, 6)
        data = sample(model, 17, 13, client_id="a")
        path = tmp_path / "obs.csv"
        save_dataset_csv(data.samples, path)
        back = load_dataset_csv(path)
        assert np.array_equal(back.samples, data.samples)

    def test_csv_header_tolerated(self, tmp_path):
        path = tmp_path / "with_header.csv"
        path.write_text("x1,x2\n1.5,2.5\n3.5,4.5\n")
        data = load_dataset_csv(path, header=True)
        np.testing.assert_allclose(data.samples, [[1.5, 3.5], [2.5, 4.5]])
