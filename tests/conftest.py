"""Shared helpers for the test suite."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from fedspike import SpikedModel, random_orthonormal


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


def make_model(p: int, r: int, lam, sigma2: float, seed: int) -> SpikedModel:
    """Spiked model with a random orthonormal basis."""
    spikes = np.full(r, float(lam)) if np.isscalar(lam) else np.asarray(lam, dtype=float)
    return SpikedModel(random_orthonormal(p, r, seed), spikes, sigma2)


def save_dataset_csv(x: np.ndarray, path) -> None:
    """Write a p x n matrix one observation per row (p columns, no header),
    as ``fedspike.load_dataset_csv`` reads it."""
    np.savetxt(path, x.T, delimiter=",", fmt="%.17g")


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
