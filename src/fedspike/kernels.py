"""The streaming-PCA kernel: many Oja streams advanced in lockstep.

The per-sample update loop of the streaming baseline is the one
Python-level hot loop in the package. Rather than loop over the samples of
each client in turn, ``oja_stream`` advances a whole stack of B streams one
time step at a time, so each step costs a handful of numpy calls on a
(B, p, r) stack instead of the same calls on one (p, r) frame. Every
element is computed by the same floating-point operations in the same order
as a per-stream loop would use, so each stream's result is bit-identical to
running it alone (``tests/test_kernels.py`` holds that loop as its oracle).

The schedule is fixed: the step size at global step t (counted from 1) is
eta_t = 1/t, and every step ends with a QR of the stack.

The reorthonormalisation calls the two gufuncs behind ``np.linalg.qr``
(``qr_r_raw``, then ``qr_reduced``; in ``numpy.linalg._umath_linalg`` since
numpy 1.22) rather than the wrapper. The LAPACK work and its inputs are the
same, so the bits are too, but the wrapper's per-call Python work (dtype
resolution, a copy, two error contexts and a ``triu(R)``) was more than half
of a step: on a 2-core host, criterion 11's stack of 10 streams at p=50, r=1
went from 2.5 to 1.2 us per stream-step. The error context is entered once
per block instead. ``TestOrthonormalise`` in ``tests/test_kernels.py``
checks the result against ``np.linalg.qr`` bit for bit, so a numpy release
that changes the gufuncs fails there.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg


def oja_stream(xs, v, t0, clip_norm, noise_std, noise):
    """Advance B Oja streams in lockstep over one block of k time steps.

    ``xs`` is time-major, (k, B, p): ``xs[i, b]`` is the observation of
    stream b at global step ``t = t0 + i``. ``v`` is the (B, p, r) stack of
    frames. Each stream does

        v <- qr(v + eta_t (x x^T v + noise_std[b] * N_t)),  eta_t = 1 / (t + 1),

    with observations of norm above ``clip_norm`` rescaled onto the clip
    ball and a stacked QR after every step. ``noise`` holds the (k, B, p, r)
    standard normals N_t, or is None for no noise. Returns the updated stack.
    The caller's ``xs``, ``v`` and ``noise`` are never written. An invalid
    floating-point operation in the block, which is how a LAPACK error in the
    QR shows, raises ``LinAlgError``.
    """
    k, _, p = xs.shape
    # Squared norms summed over coordinates in index order, as a scalar loop would.
    sq = np.zeros(xs.shape[:2])
    with np.errstate(over="ignore"):  # an overflowing square is handled below
        for i in range(p):
            sq += xs[..., i] * xs[..., i]
    nrm = np.sqrt(sq)
    big = ~np.isfinite(sq)
    if big.any():
        nrm[big] = _scaled_norm(xs[big])
    over = nrm > clip_norm
    if over.any():
        xs = xs.copy()
        xs[over] *= (clip_norm / nrm[over])[:, None]
    if noise is not None:
        noise = noise_std[:, None, None] * noise
    rows = xs[:, :, None, :]  # (k, B, 1, p): each observation as a row vector
    with _qr_errstate():
        for i in range(k):
            y = rows[i] @ v  # (B, 1, r)
            g = xs[i, :, :, None] * y
            if noise is not None:
                g = g + noise[i]
            eta = 1.0 / (t0 + i + 1.0)
            v = _q_factor(v + eta * g)  # a fresh array, so the QR may overwrite it
    return v


def _scaled_norm(x):
    """The norm of each row of the (n, p) ``x``, as max-abs times the norm of
    the row divided by it, so that a row whose squares overflow keeps a
    finite norm."""
    m = np.abs(x).max(axis=1)
    s = x / m[:, None]
    sq = np.zeros(len(x))
    for i in range(x.shape[1]):
        sq += s[:, i] * s[:, i]
    return m * np.sqrt(sq)


def orthonormalise(v):
    """The Q factor of every frame of the (B, p, r) stack ``v``; overwrites ``v``.

    Bit-identical to ``np.linalg.qr(v)[0]`` and raises its ``LinAlgError``.
    """
    with _qr_errstate():
        return _q_factor(v)


def _q_factor(v):
    """``np.linalg.qr(v)[0]`` through the two gufuncs that it calls.

    ``v`` must be float64 and is overwritten. Call inside ``_qr_errstate()``.
    """
    tau = _umath_linalg.qr_r_raw(v, signature="d->d")
    return _umath_linalg.qr_reduced(v, tau, signature="dd->d")


def _qr_errstate():
    """The error state ``np.linalg.qr`` runs its gufuncs in: a LAPACK error
    sets the invalid flag, which raises ``LinAlgError``."""
    return np.errstate(
        call=_raise_qr_error, invalid="call", over="ignore", divide="ignore", under="ignore"
    )


def _raise_qr_error(err, flag):
    raise LinAlgError("invalid floating-point operation in the Oja update or its QR")


def using_numba() -> bool:
    """Always False: the package has no jitted code path.

    Kept because benchmark run records report it in their environment block.
    """
    return False
