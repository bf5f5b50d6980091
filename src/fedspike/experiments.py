"""Simulation scenarios, plug-in scale estimation, and the real-data flow.

Seed discipline: every random input is derived from (base_seed, scenario,
role, ...) labels that never include the method name, so all methods in a
replication consume the same datasets and mechanism-noise streams (a paired
comparison). Where a sweep only changes budgets (privacy_utility) or nests
clients (vary_clients, fixed_total), data seeds also exclude the sweep
value, which pairs the curve across sweep points.

``run_scenario`` runs each replication as draw groups: one group of all
sweep points, or one per sweep point in heterogeneous, whose seeds include
the sweep value. A group draws its model and datasets once, and each of its
cells takes the first m clients, or, in fixed_total, read-only views of one
pooled draw; the clients compute each dataset's second moment once
(``client``). Datasets are read-only and are digested when drawn and again
after the group (a fixed_total partition after its cell), so a method that
alters shared data fails loudly.
"""

from __future__ import annotations

import csv
import hashlib
import math
import numbers
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .client import ClientConfig, local_raw_noisy_projector
from .model import (
    Dataset,
    SpikedModel,
    covariance_matrix,
    fill_normals,
    projection_distance,
    random_orthonormal,
    sample,
)
from .oja import default_clip_norm, fed_dp_oja
from .privacy import PrivacyBudget
from .protocol import (
    ClientHandle,
    InProcessTransport,
    ServerHandle,
    run_federated_session,
)
from .rng import derive_seed, rng_from
from .rates import RateInputs
from .server import aggregate_reference, pca_weights, weights_from_rate_inputs
from .spectral import explained_variance, sym_eig
from .svgplot import render_line_plot

SCENARIOS = ("privacy_utility", "vary_clients", "fixed_total", "heterogeneous")
METHODS = ("fedspike", "equal", "reference", "oja")

@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one simulation scenario."""

    scenario: str
    p: int = 50
    r: int = 1
    lam: float = 10.0
    sigma2: float = 1.0
    replications: int = 50
    base_seed: int = 0
    methods: tuple = ("fedspike", "reference", "oja")
    # homogeneous layouts
    m: int = 10
    n: int = 10000
    epsilon: float = 0.5
    delta: float = 0.1
    eps_grid: tuple = tuple(round(0.1 * k, 1) for k in range(1, 11))
    m_grid: tuple = tuple(range(10, 101, 10))
    total_n: int = 100_000
    total_m_grid: tuple = (10, 20, 25, 50)
    # heterogeneous layout: half the clients small, half large
    n_sample_grid: tuple = tuple(range(100, 1001, 100))
    eps_range: tuple = (0.1, 0.3)
    delta_range: tuple = (0.1, 0.2)
    small_mult: int = 2
    large_mult: int = 20

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        for name in ("p", "r", "m", "n", "total_n", "replications", "lam", "sigma2"):
            value, whole = getattr(self, name), name not in ("lam", "sigma2")
            kind = numbers.Integral if whole else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind) or not 0 < value < math.inf:
                what = "a positive integer" if whole else "finite and positive"
                raise ValueError(f"{name}: must be {what}, got {value!r}")
        if self.r > self.p:
            raise ValueError(f"r: must not exceed p={self.p}, got {self.r}")
        bad = set(self.methods) - set(METHODS)
        if bad:
            raise ValueError(f"unknown methods {sorted(bad)}; choose from {METHODS}")
        if not self.methods:
            raise ValueError("at least one method is required")


@dataclass(frozen=True)
class RunRecord:
    """One replication of one method at one sweep point.

    ``wall_ms`` times the method alone. The model and the datasets are drawn
    once per draw group (``run_scenario``), outside the timer, and shared by
    all its cells.
    """

    scenario: str
    method: str
    sweep_value: float
    replication: int
    projection_error: float
    cov_frobenius_error: float | None
    wall_ms: float
    seed: int

    def __post_init__(self):
        if self.projection_error < 0:
            raise ValueError("projection_error must be non-negative")
        if self.cov_frobenius_error is not None and self.cov_frobenius_error < 0:
            raise ValueError("cov_frobenius_error must be non-negative")


# The CSV columns are RunRecord's fields, in order.
CSV_HEADER = ",".join(f.name for f in fields(RunRecord))


@dataclass
class ScenarioResult:
    records: list
    data_digests: dict


def default_spec(scenario: str, **overrides) -> ExperimentSpec:
    """Paper-configuration defaults for each scenario."""
    presets = {
        "vary_clients": dict(n=1000),
        "heterogeneous": dict(methods=("fedspike", "equal", "reference")),
    }
    return ExperimentSpec(scenario=scenario, **{**presets.get(scenario, {}), **overrides})


def sweep_values(spec: ExperimentSpec) -> tuple:
    if spec.scenario == "privacy_utility":
        return tuple(spec.eps_grid)
    if spec.scenario == "vary_clients":
        return tuple(spec.m_grid)
    if spec.scenario == "fixed_total":
        return tuple(spec.total_m_grid)
    return tuple(spec.n_sample_grid)


def client_layout(spec: ExperimentSpec, sweep_value, sweep_index: int, rep: int) -> list[tuple]:
    """Per-client (n, epsilon, delta) triples for one replication."""
    if spec.scenario == "privacy_utility":
        return [(spec.n, float(sweep_value), spec.delta)] * spec.m
    if spec.scenario == "vary_clients":
        return [(spec.n, spec.epsilon, spec.delta)] * int(sweep_value)
    if spec.scenario == "fixed_total":
        m = int(sweep_value)
        if spec.total_n % m != 0:
            raise ValueError(f"total_n={spec.total_n} is not divisible by m={m}")
        return [(spec.total_n // m, spec.epsilon, spec.delta)] * m
    # heterogeneous: budgets drawn fresh per (sweep, rep), shared by methods
    rng = rng_from(spec.base_seed, spec.scenario, "budgets", sweep_index, rep)
    n_small = spec.small_mult * int(sweep_value)
    n_large = spec.large_mult * int(sweep_value)
    half = spec.m // 2
    sizes = [n_small] * half + [n_large] * (spec.m - half)
    eps = rng.uniform(*spec.eps_range, size=spec.m)
    deltas = rng.uniform(*spec.delta_range, size=spec.m)
    return [(sizes[j], float(eps[j]), float(deltas[j])) for j in range(spec.m)]


def _seed(spec: ExperimentSpec, role: str, sweep_index: int, rep: int, *rest) -> int:
    """The seed of a ``role`` draw (model, data, pool or dp) of one cell.

    Sample sizes depend on the sweep only in the heterogeneous scenario;
    elsewhere the seed leaves out the sweep index, so sweep points share draws.
    """
    cell = (sweep_index, rep) if spec.scenario == "heterogeneous" else (rep,)
    return derive_seed(spec.base_seed, spec.scenario, role, *cell, *rest)


def _draw(
    spec: ExperimentSpec, layout: list[tuple], sweep_index: int, rep: int, pool: ThreadPoolExecutor
) -> tuple[SpikedModel, list[Dataset], list[Future]]:
    """The model and the datasets of one draw group, and their digests' futures.

    The datasets are those of the clients of ``layout``, the group's largest,
    or, in fixed_total, one pooled draw of total_n observations, which has no
    digest: ``_run_group`` digests its partitions instead. Every Philox fill
    (``fill_normals``) is started on ``pool`` before any draw is finished.
    The draws are then finished by ``sample`` in client order on this
    thread, and each one's sha256 starts on ``pool`` while the next is
    finished. Only the fills and the digests run on the pool: the buffers
    are allocated here, and the BLAS work of ``sample`` stays on this thread.
    """
    u = random_orthonormal(spec.p, spec.r, _seed(spec, "model", sweep_index, rep))
    model = SpikedModel(u, np.full(spec.r, spec.lam), spec.sigma2)
    if spec.scenario == "fixed_total":
        draws = [(_seed(spec, "pool", sweep_index, rep), spec.total_n, None)]
    else:
        draws = [
            (_seed(spec, "data", sweep_index, rep, j), n_j, f"c{j:03d}")
            for j, (n_j, _, _) in enumerate(layout)
        ]
    fills = []
    for seed, n, client_id in draws:
        normals = (np.empty((spec.r, n)), np.empty((spec.p, n)))
        fills.append((seed, n, client_id, normals, pool.submit(fill_normals, seed, *normals)))
    fills.reverse()
    datasets, digests = [], []
    while fills:  # popped, so each draw's buffers are freed once it is a Dataset
        seed, n, client_id, normals, filled = fills.pop()
        filled.result()
        datasets.append(sample(model, n, seed, client_id, normals))
        if spec.scenario != "fixed_total":  # the pool is digested per partition
            digests.append(pool.submit(_sha256, datasets[-1]))
    return model, datasets, digests


def _client_configs(
    spec: ExperimentSpec, layout: list[tuple], sweep_index: int, rep: int
) -> list[ClientConfig]:
    return [
        ClientConfig(
            client_id=f"c{j:03d}",
            budget=PrivacyBudget(eps, delta),
            rank_r=spec.r,
            lambda_plugin=spec.lam,
            sigma2_plugin=spec.sigma2,
            seed=_seed(spec, "dp", sweep_index, rep, j),
        )
        for j, (_, eps, delta) in enumerate(layout)
    ]


def _sha256(d: Dataset) -> str:
    # Row by row: the digest of the C-order bytes, without copying a column
    # slice of the fixed_total pool.
    h = hashlib.sha256()
    for row in d.samples:
        h.update(row)
    return h.hexdigest()


def _digest(datasets: list[Dataset], pool: ThreadPoolExecutor) -> tuple[str, ...]:
    """One sha256 digest of each dataset's samples, in order, hashed on ``pool``.

    hashlib releases the GIL while it hashes, so the datasets hash in parallel.
    """
    return tuple(pool.map(_sha256, datasets))


def _check_unchanged(
    datasets: list[Dataset], before: tuple, pool: ThreadPoolExecutor, where: str
) -> None:
    """Digest ``datasets`` again; a digest that moved means a method wrote shared data."""
    for d, was, now in zip(datasets, before, _digest(datasets, pool)):
        if was != now:
            raise RuntimeError(
                f"paired-seed violation in {where}: the data of client "
                f"{d.client_id} changed after it was drawn; a method wrote "
                "into data that other methods share"
            )


def _run_method(
    method: str,
    spec: ExperimentSpec,
    datasets: list[Dataset],
    layout: list[tuple],
    cfgs: list[ClientConfig],
    sweep_index: int,
    rep: int,
):
    """Produce (u_hat, sigma_hat or None) for one method.

    ``fedspike`` and ``equal`` run the two-round session in process, with
    the optimal and the equal weight scheme.
    """
    if method == "oja":
        budgets = [PrivacyBudget(e, d) for _, e, d in layout]
        u_hat = fed_dp_oja(
            datasets,
            budgets,
            spec.r,
            default_clip_norm(spec.lam, spec.sigma2, spec.p),
            derive_seed(spec.base_seed, spec.scenario, "oja", sweep_index, rep),
        )
        return u_hat, None
    if method == "reference":
        raws = [local_raw_noisy_projector(d, cfg) for d, cfg in zip(datasets, cfgs)]
        w = pca_weights(layout, spec.p, spec.r, spec.lam, spec.sigma2, scheme="equal")
        return aggregate_reference(raws, w, spec.r), None
    server = ServerHandle(
        rank_r=spec.r,
        sigma2=spec.sigma2,
        lam=spec.lam,
        scheme="equal" if method == "equal" else "optimal",
    )
    handles = [ClientHandle(d, cfg) for d, cfg in zip(datasets, cfgs)]
    session = run_federated_session(handles, server, InProcessTransport())
    return session.u_hat, session.sigma_hat


def _run_group(
    spec: ExperimentSpec,
    group: list[int],
    rep: int,
    pool: ThreadPoolExecutor,
    cells: list,
    digests: dict,
) -> None:
    """Draw one group's data, run its cells, and check that no method changed it.

    Each cell's records go to ``cells[sweep_index][rep]`` and its clients'
    digests to ``digests[(sweep_index, rep)]``. The data are freed on return.
    """
    values = sweep_values(spec)
    layouts = {i: client_layout(spec, values[i], i, rep) for i in group}
    largest = max(group, key=lambda i: len(layouts[i]))
    model, drawn, handed = _draw(spec, layouts[largest], largest, rep, pool)
    truth = covariance_matrix(model)
    for sweep_index in group:
        sv, layout = values[sweep_index], layouts[sweep_index]
        if spec.scenario == "fixed_total":  # read-only views of the pool's columns
            n_j = layout[0][0]
            columns = [drawn[0].samples[:, j * n_j : (j + 1) * n_j] for j in range(len(layout))]
            datasets = [Dataset._adopt(x, f"c{j:03d}") for j, x in enumerate(columns)]
            before = _digest(datasets, pool)
        else:
            datasets = drawn[: len(layout)]
            before = tuple(f.result() for f in handed[: len(layout)])
        digests[(sweep_index, rep)] = before
        cfgs = _client_configs(spec, layout, sweep_index, rep)
        rep_seed = derive_seed(spec.base_seed, spec.scenario, "rep", sweep_index, rep)
        for method in spec.methods:
            t0 = time.perf_counter()
            u_hat, sigma_hat = _run_method(method, spec, datasets, layout, cfgs, sweep_index, rep)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            cov_err = None
            if sigma_hat is not None:
                cov_err = float(np.linalg.norm(sigma_hat - truth, "fro"))
            cells[sweep_index][rep].append(
                RunRecord(
                    scenario=spec.scenario,
                    method=method,
                    sweep_value=float(sv),
                    replication=rep,
                    projection_error=projection_distance(u_hat, model.basis_u),
                    cov_frobenius_error=cov_err,
                    wall_ms=wall_ms,
                    seed=rep_seed,
                )
            )
        if spec.scenario == "fixed_total":
            # Each cell's partitions cover the pool. They are checked right
            # after the cell, so a write is pinned on the partition it hit.
            _check_unchanged(datasets, before, pool, f"replication {rep} at sweep {sv}")
    if spec.scenario != "fixed_total":
        where = f"replication {rep}"
        if len(group) == 1:
            where += f" at sweep {values[group[0]]}"
        _check_unchanged(drawn, tuple(f.result() for f in handed), pool, where)


def run_scenario(spec: ExperimentSpec, verify_pairing: bool = True) -> ScenarioResult:
    """Run every (method, sweep point, replication) cell of a scenario.

    Replications run one after another, each as draw groups (module
    docstring); at most one group's data is held. Records come out in
    (sweep point, replication, method) order, and ``data_digests`` maps each
    (sweep index, replication) cell to the sha256 digests of its clients'
    datasets. The Philox fills and the digests run on a pool of one helper
    thread per core, stopped before this returns; the data are bit-identical
    to one-by-one ``sample`` draws. Each cell waits for its clients' digests
    before any method runs. If a digest taken again after the group (a
    fixed_total partition: after its cell) differs, a method wrote into
    shared data, and ``RuntimeError`` names the replication and the client.
    ``verify_pairing`` must be True: the check is not optional. Nothing is
    written to disk; ``fedspike simulate`` writes the records' CSV and plot.
    """
    if not verify_pairing:
        raise ValueError("verify_pairing: the pairing check is always on; pass True or omit it")
    values = sweep_values(spec)
    for sweep_index, sv in enumerate(values):
        layout = client_layout(spec, sv, sweep_index, 0)
        if any(n_j < spec.r for n_j, _, _ in layout):
            raise ValueError(
                f"infeasible layout at sweep {sv}: a client would hold fewer "
                f"than r={spec.r} observations"
            )
    indices = list(range(len(values)))
    groups = [[i] for i in indices] if spec.scenario == "heterogeneous" else [indices]

    cells = [[[] for _ in range(spec.replications)] for _ in values]
    digests: dict = {}
    pool = ThreadPoolExecutor(os.cpu_count(), thread_name_prefix="fedspike-digest")
    try:
        for rep in range(spec.replications):
            for group in groups:
                _run_group(spec, group, rep, pool, cells, digests)
    finally:
        pool.shutdown(cancel_futures=True)

    return ScenarioResult([rec for row in cells for cell in row for rec in cell], digests)


def _csv_cell(value):
    """A record field as written: floats to 17 significant digits, None empty."""
    if value is None:
        return ""
    return format(value, ".17g") if isinstance(value, float) else value


# How read_records_csv parses each RunRecord field type.
_PARSE = {
    "str": str,
    "int": int,
    "float": float,
    "float | None": lambda text: None if text == "" else float(text),
}


def write_records_csv(records: list, path) -> None:
    """Write records under the fixed schema; missing cov errors stay empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for rec in records:
            writer.writerow([_csv_cell(getattr(rec, f.name)) for f in fields(RunRecord)])


def read_records_csv(path) -> list[RunRecord]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER.split(","):
            raise ValueError(f"unexpected CSV header in {path}")
        return [
            RunRecord(**{f.name: _PARSE[f.type](row[f.name]) for f in fields(RunRecord)})
            for row in reader
        ]


def mean_errors(records: list) -> dict:
    """{(method, sweep_value): mean projection error} over replications."""
    sums: dict = {}
    for rec in records:
        key = (rec.method, rec.sweep_value)
        total, count = sums.get(key, (0.0, 0))
        sums[key] = (total + rec.projection_error, count + 1)
    return {key: total / count for key, (total, count) in sums.items()}


def plot_from_csv(csv_path, svg_path) -> None:
    """Render the mean-error curves from the CSV file alone."""
    records = read_records_csv(csv_path)
    means = mean_errors(records)
    series: dict = {}
    for (method, sv), err in sorted(means.items()):
        series.setdefault(method, []).append((sv, err))
    scenario = records[0].scenario if records else "scenario"
    render_line_plot(
        series,
        title=f"{scenario}: mean projection error",
        xlabel="sweep value",
        ylabel="mean projection error",
        path=svg_path,
    )


# ---------------------------------------------------------------------------
# Plug-in estimation and the real-data workflow
# ---------------------------------------------------------------------------


def estimate_plugins(
    data: Dataset,
    top_k: int,
    tail_range: tuple,
    subtract_sigma: bool = True,
) -> tuple[float, float]:
    """Estimate (spike strength, noise variance) from sample eigenvalues.

    sigma2_hat is the mean of the sample eigenvalues in the 1-indexed,
    inclusive tail_range; lambda_hat is the mean of the top_k eigenvalues
    minus sigma2_hat (the subtraction converts observed eigenvalues to
    spike scale; disable with subtract_sigma=False to mirror raw averaging).
    """
    p = data.dim_p
    lo, hi = int(tail_range[0]), int(tail_range[1])
    if not 1 <= lo <= hi <= p:
        raise ValueError(f"tail_range {tail_range} must satisfy 1 <= lo <= hi <= p={p}")
    if not 1 <= top_k <= p:
        raise ValueError(f"top_k must lie in [1, p={p}]")
    xc = data.samples - data.samples.mean(axis=1, keepdims=True)
    s = (xc @ xc.T) / data.n_samples
    vals = sym_eig(s).values
    tail = vals[lo - 1 : hi]
    scale = max(abs(vals[0]), 1.0)
    if np.max(np.abs(tail)) <= 1e-12 * scale:
        raise ValueError("degenerate tail: the requested eigenvalue range is all zero")
    sigma2_hat = float(np.mean(tail))
    lambda_hat = float(np.mean(vals[:top_k])) - (sigma2_hat if subtract_sigma else 0.0)
    return lambda_hat, sigma2_hat


@dataclass(frozen=True)
class RealdataSpec:
    """Configuration of the two-round run on an external data matrix."""

    client_sizes: tuple
    rank_r: int = 5
    epsilon: float = 0.4
    delta: float = 0.1
    seed: int = 0
    top_k: int = 3
    tail_range: tuple | None = None
    subtract_sigma: bool = True
    methods: tuple = ("fedspike", "equal", "oja")

    def __post_init__(self):
        if len(self.client_sizes) < 1 or any(int(s) < 1 for s in self.client_sizes):
            raise ValueError("client_sizes must be positive")
        bad = set(self.methods) - {"fedspike", "equal", "oja"}
        if bad:
            raise ValueError(f"unknown real-data methods {sorted(bad)}")


def run_realdata(matrix, spec: RealdataSpec) -> list[dict]:
    """Split a p x N matrix among clients, run the exchange, report
    explained variance of each method's aggregated frame on the held-in
    pool. Deterministic given spec.seed."""
    x_full = np.asarray(matrix, dtype=float)
    p, n_total = x_full.shape
    sizes = [int(s) for s in spec.client_sizes]
    need = sum(sizes)
    if n_total < need:
        raise ValueError(f"matrix holds N={n_total} samples but the splits need {need}")
    r = spec.rank_r
    if r > p:
        raise ValueError(f"rank_r={r} exceeds data dimension {p}")

    perm = rng_from(spec.seed, "realdata-shuffle").permutation(n_total)
    datasets, start = [], 0
    for j, size in enumerate(sizes):
        cols = perm[start : start + size]
        datasets.append(Dataset(x_full[:, cols], f"c{j:03d}"))
        start += size
    pool = Dataset(x_full[:, perm[:need]])

    tail = spec.tail_range if spec.tail_range is not None else (min(51, p), p)
    budgets = [PrivacyBudget(spec.epsilon, spec.delta) for _ in sizes]
    cfgs, rate_inputs = [], []
    for j, data in enumerate(datasets):
        lam_hat, sig_hat = estimate_plugins(data, spec.top_k, tail, spec.subtract_sigma)
        sig_use = max(sig_hat, 1e-12 * max(abs(lam_hat), 1.0))
        lam_use = max(lam_hat, 1e-8 * sig_use)
        cfgs.append(
            ClientConfig(
                client_id=f"c{j:03d}",
                budget=budgets[j],
                rank_r=r,
                lambda_plugin=lam_use,
                sigma2_plugin=sig_use,
                seed=derive_seed(spec.seed, "realdata-client", j),
            )
        )
        rate_inputs.append(
            RateInputs(data.n_samples, spec.epsilon, spec.delta, p, r, lam_use, sig_use)
        )

    # Each weighted method runs its own in-process session. The clients'
    # releases are seeded, so both sessions see the same round-1 messages.
    weights = {
        "fedspike": weights_from_rate_inputs(rate_inputs, scheme="optimal"),
        "equal": weights_from_rate_inputs(rate_inputs, scheme="equal"),
    }
    sigma2_server = float(np.dot(weights["fedspike"].cov_v, [c.sigma2_plugin for c in cfgs]))
    handles = [ClientHandle(d, cfg) for d, cfg in zip(datasets, cfgs)]

    report = []
    for method in spec.methods:
        if method in weights:
            server = ServerHandle(rank_r=r, sigma2=sigma2_server, weights=weights[method])
            u_hat = run_federated_session(handles, server, InProcessTransport()).u_hat
        else:
            lam_bar = float(np.mean([c.lambda_plugin for c in cfgs]))
            sig_bar = float(np.mean([c.sigma2_plugin for c in cfgs]))
            clip = default_clip_norm(lam_bar, sig_bar, p)
            u_hat = fed_dp_oja(datasets, budgets, r, clip, derive_seed(spec.seed, "realdata-oja"))
        report.append(
            {"method": method, "explained_variance": explained_variance(u_hat, pool)}
        )
    return report
