"""Shared helpers for the test suite."""

from __future__ import annotations

import ctypes
import json
import math
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fedspike import SpikedModel, projection_distance, random_orthonormal, sample
from fedspike.rng import derive_seed
from fedspike.spectral import sample_covariance, sym_eig


@pytest.fixture(autouse=True)
def no_fedspike_thread_outlives_the_test():
    """Fail a test that leaves a ``fedspike-*`` thread running, such as the
    digest pool of ``run_scenario`` (a TCP session starts no thread)."""
    before = set(threading.enumerate())
    yield
    left = sorted(
        t.name
        for t in threading.enumerate()
        if t not in before and t.name.startswith("fedspike-")
    )
    if left:
        pytest.fail(f"threads still running after the test: {left}")


def traced_peak(fn, *args, **kwargs) -> int:
    """The peak, in bytes, of the memory tracemalloc traces while
    ``fn(*args, **kwargs)`` runs; numpy reports its array buffers to it."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_model(p: int, r: int, lam, sigma2: float, seed: int) -> SpikedModel:
    """Spiked model with a random orthonormal basis."""
    spikes = np.full(r, float(lam)) if np.isscalar(lam) else np.asarray(lam, dtype=float)
    return SpikedModel(random_orthonormal(p, r, seed), spikes, sigma2)


def save_dataset_csv(x: np.ndarray, path) -> None:
    """Write a p x n matrix one observation per row (p columns, no header),
    as ``fedspike.load_dataset_csv`` reads it."""
    np.savetxt(path, x.T, delimiter=",", fmt="%.17g")


# The leading constant of the analytic projector-sensitivity envelope.
_SENSITIVITY_CONST = 4.0


class DegenerateSpectrumError(RuntimeError):
    """Raised when a top-r eigengap is too small for a stable projector."""


def projector_sensitivity_bound(p: int, r: int, n: int, lam: float, sigma2: float) -> float:
    """Analytic leave-one-out projector-sensitivity envelope.

    _SENSITIVITY_CONST/n * sqrt((lam + s2)/lam * s2/lam) * sqrt(p (r + log n)).
    """
    return (
        _SENSITIVITY_CONST
        / n
        * math.sqrt((lam + sigma2) / lam * sigma2 / lam)
        * math.sqrt(p * (r + math.log(n)))
    )


def empirical_projector_sensitivity(
    model: SpikedModel, n: int, r: int, trials: int, seed: int
) -> float:
    """Worst observed projector change under one-datum replacement.

    For each trial: draw a dataset, then for every index i replace X_i by a
    fresh draw (the neighboring dataset) and record the Frobenius change of
    the top-r spectral projector of the sample covariance. Returns the max
    over all indices and trials.
    """
    if n < r + 2:
        raise ValueError("n must be at least r + 2")
    p = model.dim_p
    worst = 0.0
    for t in range(trials):
        data = sample(model, n, derive_seed(seed, "sens-data", t))
        fresh = sample(model, n, derive_seed(seed, "sens-fresh", t)).samples
        x = data.samples
        s_full = sample_covariance(data)
        eig = sym_eig(s_full)
        if r < p and eig.values[r - 1] - eig.values[r] <= 1e-10:
            raise DegenerateSpectrumError(
                f"trial {t}: top-{r} eigengap of the sample covariance is below 1e-10"
            )
        u_base = eig.vectors[:, :r]
        for i in range(n):
            delta = (np.outer(fresh[:, i], fresh[:, i]) - np.outer(x[:, i], x[:, i])) / n
            u_i = sym_eig(s_full + delta).vectors[:, :r]
            worst = max(worst, projection_distance(u_base, u_i))
    return worst


def spearman(x, y) -> float:
    """Spearman rank correlation (no ties expected in these uses)."""
    x = np.asarray(x)
    y = np.asarray(y)
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.dot(rx, ry) / np.sqrt(np.dot(rx, rx) * np.dot(ry, ry)))


def projector_gap(u1: np.ndarray, u2: np.ndarray) -> float:
    """Dense-matrix projector distance ||U1 U1' - U2 U2'||_F."""
    return float(np.linalg.norm(u1 @ u1.T - u2 @ u2.T, "fro"))


def openblas_build() -> dict:
    """The config string and core name of the OpenBLAS numpy has loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        found = {}
        for key, symbol in (
            ("config", "scipy_openblas_get_config64_"),
            ("corename", "scipy_openblas_get_corename64_"),
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                found[key] = fn().decode()
        if len(found) == 2:
            return found
    return {"config": f"no scipy-openblas library among {libs}", "corename": "unknown"}


def manifest_for_this_build(path: Path) -> dict:
    """The bit manifest at ``path``. Bits depend on the BLAS build, so on a
    build other than the one the file was recorded on this fails, naming both."""
    manifest = json.loads(path.read_text())
    recorded, found = manifest["build"], openblas_build()
    assert recorded == found, (
        f"{path.name} was recorded on OpenBLAS {recorded['config']!r} "
        f"(core {recorded['corename']}), but this process runs OpenBLAS "
        f"{found['config']!r} (core {found['corename']}); record the file again "
        "on this build to check bits here"
    )
    return manifest
