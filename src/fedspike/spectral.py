"""Symmetric eigendecomposition and derived spectral utilities.

The solver is LAPACK's symmetric eigenroutine (via numpy.linalg.eigh) with
a deterministic ordering and sign convention layered on top: eigenvalues
are reported in descending order and each eigenvector is flipped so its
largest-magnitude entry is positive (ties broken by lowest index).

An eigensolve of dimension at most 64 runs with OpenBLAS held at one thread
(set through the C API of the OpenBLAS numpy loaded, then restored). At that
size a second thread only spins, on the core the package's helper threads
need. A module lock is held from the save to the restore, so concurrent
eigensolves cannot leave the process at one thread. The count is per
process: a thread of the caller's own that calls BLAS while such an
eigensolve runs also runs single-threaded.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .model import Dataset


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Every eigenvalue, sorted descending, and the leading eigenvectors as
    columns aligned with the first values."""

    values: np.ndarray
    vectors: np.ndarray


# Largest dimension whose eigensolve runs at one BLAS thread: the largest the
# cross-process bit check in tests/test_blas_threads.py covers. On seeded
# matrices eigh gave the same bits at one and two threads up to p = 192 and
# differed from p = 224, so larger solves keep the process's thread count.
_ONE_THREAD_MAX_DIM = 64
# (getter, setter) of each OpenBLAS build numpy may load, in lookup order.
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_blas_lock = threading.Lock()


@functools.cache
def _blas_threads_api():
    """The thread-count getter and setter of the loaded OpenBLAS, or None.
    Looked up on the first small eigensolve, not at import."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for get_name, set_name in _BLAS_SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread for the block, then restore its count."""
    with _blas_lock:
        api = _blas_threads_api()
        if api is None:
            yield
            return
        get, put = api
        saved = get()
        put(1)
        try:
            yield
        finally:
            put(saved)


def sym_eig(m: np.ndarray, k: int | None = None) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix: all eigenvalues and the
    eigenvectors of the k largest (all of them when k is None).

    The input is symmetrized as (M + M^T)/2 before factorization; callers
    are expected to pass matrices that are symmetric up to roundoff. The
    columns returned for a given k are those of the full decomposition.

    Up to dimension 64 the solve runs with OpenBLAS held at one thread,
    under a module lock (see the module docstring); a BLAS call on another
    thread meanwhile runs single-threaded too.
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
    with _one_blas_thread() if dim <= _ONE_THREAD_MAX_DIM else nullcontext():
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
