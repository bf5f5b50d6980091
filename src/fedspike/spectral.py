"""Symmetric eigendecomposition and derived spectral utilities.

The solver is LAPACK's symmetric eigenroutine (via numpy.linalg.eigh) with
a deterministic ordering and sign convention layered on top: eigenvalues
are reported in descending order and each eigenvector is flipped so its
largest-magnitude entry is positive (ties broken by lowest index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Every eigenvalue, sorted descending, and the leading eigenvectors as
    columns aligned with the first values."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eig(m: np.ndarray, k: int | None = None) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix: all eigenvalues and the
    eigenvectors of the k largest (all of them when k is None).

    The input is symmetrized as (M + M^T)/2 before factorization; callers
    are expected to pass matrices that are symmetric up to roundoff. The
    columns returned for a given k are those of the full decomposition.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("input must be a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("input contains non-finite entries")
    dim = m.shape[0]
    if k is None:
        k = dim
    elif not 1 <= k <= dim:
        raise ValueError(f"k={k} must lie between 1 and the matrix dimension {dim}")
    sym = (m + m.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1][:, :k]
    # Deterministic signs: largest-|entry| of each column made positive.
    lead = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[lead, np.arange(k)])
    signs[signs == 0] = 1.0
    return EigenDecomposition(vals, np.ascontiguousarray(vecs * signs))


def svd_r(m: np.ndarray, r: int) -> np.ndarray:
    """Top-r spectral subspace of a symmetric matrix.

    Returns the eigenvectors of the r algebraically largest eigenvalues.
    For the positive-semidefinite (or identity-shifted) matrices this
    library aggregates, that coincides with the top-r singular subspace;
    for an indefinite input the algebraic ordering is used, not |value|.
    """
    return sym_eig(m, r).vectors


def sample_covariance(data: Dataset) -> np.ndarray:
    """Uncentered second-moment matrix (1/n) X X^T."""
    x = data.samples
    s = (x @ x.T) / data.n_samples
    return (s + s.T) / 2.0


def explained_variance(u: np.ndarray, data: Dataset) -> float:
    """Fraction of (centered) sample variance captured by the frame U.

    Computes trace(U^T S U) / trace(S) where S is the sample covariance of
    mean-centered observations; the normalization constants cancel.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] != data.dim_p:
        raise ValueError("frame and data dimensions are inconsistent")
    xc = data.samples - data.samples.mean(axis=1, keepdims=True)
    total = float(np.sum(xc * xc))
    if total <= 0.0:
        raise ValueError("data has zero total variance")
    proj = u.T @ xc
    ratio = float(np.sum(proj * proj)) / total
    return min(max(ratio, 0.0), 1.0)
