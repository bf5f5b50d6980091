"""The streaming-PCA kernel: many Oja streams advanced in lockstep.

The per-sample update loop of the streaming baseline is the one
Python-level hot loop in the package. Rather than loop over the samples of
each client in turn, ``oja_stream`` advances a whole stack of B streams one
time step at a time, so each step costs a handful of numpy calls on a
(B, p, r) stack instead of the same calls on one (p, r) frame. Every
element is computed by the same floating-point operations in the same order
as a per-stream loop would use, so each stream's result is bit-identical to
running it alone (``tests/test_kernels.py`` holds that loop as its oracle).
"""

from __future__ import annotations

import numpy as np


def oja_stream(xs, v, t0, step0, decay, clip_norm, noise_std, noise, reorth_every):
    """Advance B Oja streams in lockstep over one block of k time steps.

    ``xs`` is time-major, (k, B, p): ``xs[i, b]`` is the observation of
    stream b at global step ``t0 + i``. ``v`` is the (B, p, r) stack of
    frames. Each stream does

        v <- v + eta_t (x x^T v + noise_std[b] * N_t),  eta_t = step0 / t^decay,

    with observations of norm above ``clip_norm`` rescaled onto the clip
    ball and a stacked QR after every ``reorth_every``-th global step.
    ``noise`` holds the (k, B, p, r) standard normals N_t, or is None for
    no noise. Returns the updated stack; the final orthonormalisation after
    the last block is left to the caller.
    """
    k, _, p = xs.shape
    # Squared norms summed over coordinates in index order, as a scalar loop would.
    sq = np.zeros(xs.shape[:2])
    for i in range(p):
        sq += xs[..., i] * xs[..., i]
    nrm = np.sqrt(sq)
    over = nrm > clip_norm
    if over.any():
        xs = xs.copy()
        xs[over] *= (clip_norm / nrm[over])[:, None]
    if noise is not None:
        noise = noise_std[:, None, None] * noise
    rows = xs[:, :, None, :]  # (k, B, 1, p): each observation as a row vector
    for i in range(k):
        t = t0 + i
        y = rows[i] @ v  # (B, 1, r)
        g = xs[i, :, :, None] * y
        if noise is not None:
            g = g + noise[i]
        eta = step0 / (t + 1.0) ** decay
        v = v + eta * g
        if (t + 1) % reorth_every == 0:
            v = np.linalg.qr(v)[0]
    return v


def using_numba() -> bool:
    """Always False: the package has no jitted code path.

    Kept because benchmark run records report it in their environment block.
    """
    return False
