"""Spiked covariance ground truth, Gaussian sampling, and subspace metrics.

The population covariance is a rank-r deformation of the scaled identity,
``Sigma = U diag(spikes) U^T + noise_var * I``, with orthonormal ``U``.
Samples are generated in the factored form ``x = U diag(sqrt(spikes)) g +
sqrt(noise_var) z`` (g, z standard normal), which is exact in distribution
and avoids forming the p x p covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import rng_from

ORTHONORMAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SpikedModel:
    """Ground-truth parameters (U, spike eigenvalues, noise variance)."""

    basis_u: np.ndarray
    spike_eigenvalues: np.ndarray
    noise_var: float

    def __post_init__(self):
        u = np.array(self.basis_u, dtype=float)
        spikes = np.atleast_1d(np.array(self.spike_eigenvalues, dtype=float))
        object.__setattr__(self, "basis_u", u)
        object.__setattr__(self, "spike_eigenvalues", spikes)
        if u.ndim != 2:
            raise ValueError("basis_u must be a p x r matrix")
        p, r = u.shape
        if not 1 <= r <= p:
            raise ValueError(f"rank r={r} must satisfy 1 <= r <= p={p}")
        if spikes.shape != (r,):
            raise ValueError("spike_eigenvalues must have length r")
        if not np.all(np.isfinite(spikes) & (spikes > 0)):
            raise ValueError(f"spike_eigenvalues must be finite and positive, got {spikes}")
        if np.any(np.diff(spikes) > 0):
            raise ValueError("spike eigenvalues must be non-increasing")
        if not (np.isfinite(self.noise_var) and self.noise_var > 0):
            raise ValueError(f"noise_var must be finite and positive, got {self.noise_var!r}")
        gram_err = np.linalg.norm(u.T @ u - np.eye(r))
        if not gram_err <= ORTHONORMAL_TOL:
            raise ValueError(f"basis_u is not orthonormal (|U'U - I|_F = {gram_err:.3e})")

    @property
    def dim_p(self) -> int:
        return self.basis_u.shape[0]

    @property
    def rank_r(self) -> int:
        return self.basis_u.shape[1]

    @property
    def spike_scalar(self) -> float:
        """Scalar spike strength used by the rate formulas (smallest spike)."""
        return float(self.spike_eigenvalues[-1])


@dataclass(frozen=True, eq=False)
class Dataset:
    """A client's observations, stored as columns of a p x n matrix.

    The dataset owns a private, read-only copy of its samples, so statistics
    computed from it once (``client``'s cached second moment) stay valid and
    a method cannot alter data that other methods share.
    """

    samples: np.ndarray
    client_id: str | None = None

    def __post_init__(self):
        self._own(np.array(self.samples, dtype=float))
        _check_finite(self.samples)

    @classmethod
    def _adopt(cls, x: np.ndarray, client_id: str | None) -> Dataset:
        """A dataset that takes the float64 buffer ``x`` itself, not a copy.

        For ``sample``, which has just filled ``x`` and holds no other
        reference to it, and for views of another dataset's read-only
        samples (``run_scenario``'s fixed_total partitions); ``x`` becomes
        read-only. ``x`` is not checked for non-finite entries: ``sample``
        checks its draw, and a view's base was checked when it came in.
        """
        data = object.__new__(cls)
        object.__setattr__(data, "client_id", client_id)
        data._own(x)
        return data

    def _own(self, x: np.ndarray) -> None:
        x.flags.writeable = False
        object.__setattr__(self, "samples", x)
        if x.ndim != 2:
            raise ValueError("samples must be a p x n matrix")
        if x.shape[1] < 1:
            raise ValueError("dataset must contain at least one observation")

    @property
    def dim_p(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


def _check_finite(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError("dataset contains non-finite entries")


def random_orthonormal(p: int, r: int, seed: int) -> np.ndarray:
    """Orthonormal p x r frame: QR of an i.i.d. standard normal matrix.

    Column signs are fixed by the sign of R's diagonal so the output is a
    canonical deterministic function of the seed.
    """
    if p < 1 or r < 1:
        raise ValueError("p and r must be positive")
    if r > p:
        raise ValueError(f"cannot build {r} orthonormal columns in dimension {p}")
    g = rng_from(seed, "orthonormal").standard_normal((p, r))
    q, rmat = np.linalg.qr(g)
    signs = np.sign(np.diag(rmat))
    signs[signs == 0] = 1.0
    return q * signs


def covariance_matrix(model: SpikedModel) -> np.ndarray:
    """Dense population covariance U diag(spikes) U^T + noise_var * I."""
    u = model.basis_u
    sigma = (u * model.spike_eigenvalues) @ u.T
    sigma[np.diag_indices_from(sigma)] += model.noise_var
    return (sigma + sigma.T) / 2.0


def fill_normals(seed: int, g: np.ndarray, z: np.ndarray) -> None:
    """Fill ``g`` (r x n), then ``z`` (p x n), from the seed's sample stream.

    This is the draw order of ``sample``: the spike coefficients first, then
    the isotropic part. Filling ``out`` arrays gives the same stream as sized
    draws, and numpy releases the GIL while it fills, so the fills of
    different seeds can run on different threads.
    """
    rng = rng_from(seed, "sample")
    rng.standard_normal(out=g)
    rng.standard_normal(out=z)


def sample(
    model: SpikedModel,
    n: int,
    seed: int,
    client_id: str | None = None,
    normals: tuple | None = None,
) -> Dataset:
    """n i.i.d. zero-mean Gaussian observations with the model covariance.

    A given seed yields a bit-identical dataset. ``normals`` is the pair
    (g, z) that ``fill_normals(seed, g, z)`` has already filled, for a
    caller that ran the fill elsewhere (``run_scenario`` runs it on a helper
    thread); by default the fill runs here. The isotropic draw is scaled
    and summed in place, into ``z``; IEEE products and sums commute, so this
    is bit-identical to ``U (scale g) + sqrt(noise_var) z`` and allocates
    two p x n temporaries fewer. ``z`` then becomes the dataset's read-only
    samples without a copy, so a caller that passes ``normals`` must not
    keep it for other use.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    shapes = ((model.rank_r, n), (model.dim_p, n))
    if normals is None:
        normals = (np.empty(shapes[0]), np.empty(shapes[1]))
        fill_normals(seed, *normals)
    g, z = normals
    if (g.shape, z.shape) != shapes:
        raise ValueError(f"normals must have shapes {shapes}, got {(g.shape, z.shape)}")
    scale = np.sqrt(model.spike_eigenvalues)[:, None]
    z *= np.sqrt(model.noise_var)
    z += model.basis_u @ (scale * g)
    _check_finite(z)
    return Dataset._adopt(z, client_id)


def projection_distance(u1: np.ndarray, u2: np.ndarray) -> float:
    """Frobenius distance between the spectral projectors of two frames.

    Equals ||U1 U1^T - U2 U2^T||_F, computed as sqrt(2r - 2 ||U1^T U2||_F^2)
    and clamped at zero against roundoff.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if u1.ndim != 2 or u1.shape != u2.shape:
        raise ValueError(f"frames must share a p x r shape, got {u1.shape} and {u2.shape}")
    if u1 is u2 or np.array_equal(u1, u2):
        return 0.0
    cross = u1.T @ u2
    sq = 2.0 * u1.shape[1] - 2.0 * float(np.sum(cross * cross))
    return float(np.sqrt(max(sq, 0.0)))


def load_dataset_csv(path, header: bool = False) -> Dataset:
    """Read a dataset written one observation per row; `header` skips row 1."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    return Dataset(rows.T)
