"""Simulation scenarios, plug-in scale estimation, and the real-data flow.

Seed discipline: every random input is derived from (base_seed, scenario,
role, ...) labels that never include the method name, so all methods in a
replication consume the same datasets and mechanism-noise streams (a paired
comparison). Where a sweep only changes budgets (privacy_utility) or nests
clients (vary_clients, fixed_total), data seeds also exclude the sweep
value, which pairs the curve across sweep points.

``run_scenario`` draws each model and dataset once, keyed by those seed
labels, and hands the same objects to every cell that names them; the
clients compute each dataset's second moment once (``client``). Datasets
are read-only, and the pairing check digests them when drawn and after their
last use, so a method that alters shared data fails loudly.
"""

from __future__ import annotations

import csv
import hashlib
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .client import ClientConfig, local_raw_noisy_projector
from .model import (
    Dataset,
    SpikedModel,
    covariance_matrix,
    fill_normals,
    load_dataset_csv,
    projection_distance,
    random_orthonormal,
    sample,
)
from .oja import OjaConfig, default_clip_norm, fed_dp_oja
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

CSV_HEADER = (
    "scenario,method,sweep_value,replication,projection_error,"
    "cov_frobenius_error,wall_ms,seed"
)


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
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        bad = set(self.methods) - set(METHODS)
        if bad:
            raise ValueError(f"unknown methods {sorted(bad)}; choose from {METHODS}")
        if not self.methods:
            raise ValueError("at least one method is required")


@dataclass(frozen=True)
class RunRecord:
    """One replication of one method at one sweep point.

    ``wall_ms`` times the method alone. The model and the datasets are drawn
    once per replication, outside the timer, and shared by all its cells.
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


@dataclass
class ScenarioResult:
    spec: ExperimentSpec
    records: list
    csv_path: str | None = None
    svg_path: str | None = None
    data_digests: dict = field(default_factory=dict)


def default_spec(scenario: str, **overrides) -> ExperimentSpec:
    """Paper-configuration defaults for each scenario."""
    presets = {
        "privacy_utility": dict(m=10, n=10000, delta=0.1, methods=("fedspike", "reference", "oja")),
        "vary_clients": dict(n=1000, epsilon=0.5, delta=0.1, methods=("fedspike", "reference", "oja")),
        "fixed_total": dict(epsilon=0.5, delta=0.1, methods=("fedspike", "reference", "oja")),
        "heterogeneous": dict(m=10, methods=("fedspike", "equal", "reference")),
    }
    if scenario not in presets:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    kwargs = dict(presets[scenario])
    kwargs.update(overrides)
    return ExperimentSpec(scenario=scenario, **kwargs)


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


def _sweep_in_data_seed(spec: ExperimentSpec) -> bool:
    # Sample sizes depend on the sweep only in the heterogeneous scenario;
    # elsewhere data seeds exclude it so sweep points share datasets.
    return spec.scenario == "heterogeneous"


def _drawn(spec: ExperimentSpec, held: dict, labels: tuple, draw):
    """``draw(seed)`` for the seed of ``labels``, drawn once and then held."""
    if labels not in held:
        held[labels] = draw(derive_seed(spec.base_seed, spec.scenario, *labels))
    return held[labels]


def _make_model(spec: ExperimentSpec, sweep_index: int, rep: int, held: dict) -> SpikedModel:
    labels = ("model", sweep_index, rep) if _sweep_in_data_seed(spec) else ("model", rep)
    spikes = np.full(spec.r, spec.lam)
    return _drawn(
        spec,
        held,
        labels,
        lambda seed: SpikedModel(random_orthonormal(spec.p, spec.r, seed), spikes, spec.sigma2),
    )


def _make_datasets(
    spec: ExperimentSpec,
    model: SpikedModel,
    layout: list[tuple],
    sweep_index: int,
    rep: int,
    held: dict,
    pairing: _PairingCheck,
) -> list[Dataset]:
    """The clients' datasets of one cell; draws already in ``held`` are reused.

    Every fresh draw's Philox fill (``fill_normals``) is started on the
    pairing check's pool before any draw is finished. The draws are then
    finished by ``sample`` in client order on this thread, and each is
    handed to ``pairing``, which digests it while the next one is finished.
    Only the fills run on the pool: the buffers are allocated here, and the
    BLAS work of ``sample`` stays on this thread.
    """
    if spec.scenario == "fixed_total":
        # One pooled draw per replication, partitioned among the clients, so
        # sweeps over m compare partitions of identical data.
        pool = _drawn(
            spec, held, ("pool", rep), lambda seed: sample(model, spec.total_n, seed)
        ).samples
        out, start = [], 0
        for j, (n_j, _, _) in enumerate(layout):
            out.append(Dataset(pool[:, start : start + n_j], f"c{j:03d}"))
            start += n_j
        return out
    cell = [
        ("data", sweep_index, rep, j) if _sweep_in_data_seed(spec) else ("data", rep, j)
        for j in range(len(layout))
    ]
    fresh = []
    for j, labels in enumerate(cell):
        if labels in held:
            continue
        n_j = layout[j][0]
        seed = derive_seed(spec.base_seed, spec.scenario, *labels)
        normals = (np.empty((spec.r, n_j)), np.empty((spec.p, n_j)))
        filled = pairing.pool.submit(fill_normals, seed, *normals)
        fresh.append((j, labels, seed, normals, filled))
    fresh.reverse()
    while fresh:  # popped, so each draw's buffers are freed once it is a Dataset
        j, labels, seed, normals, filled = fresh.pop()
        filled.result()
        d = sample(model, layout[j][0], seed, f"c{j:03d}", normals)
        pairing.drawn(d)
        held[labels] = d
    return [held[labels] for labels in cell]


def _client_configs(
    spec: ExperimentSpec, layout: list[tuple], sweep_index: int, rep: int
) -> list[ClientConfig]:
    cfgs = []
    for j, (_, eps, delta) in enumerate(layout):
        labels = (
            ("dp", sweep_index, rep, j) if _sweep_in_data_seed(spec) else ("dp", rep, j)
        )
        cfgs.append(
            ClientConfig(
                client_id=f"c{j:03d}",
                budget=PrivacyBudget(eps, delta),
                rank_r=spec.r,
                lambda_plugin=spec.lam,
                sigma2_plugin=spec.sigma2,
                seed=derive_seed(spec.base_seed, spec.scenario, *labels),
            )
        )
    return cfgs


def _sha256(d: Dataset) -> str:
    return hashlib.sha256(np.ascontiguousarray(d.samples)).hexdigest()


def _digest(datasets: list[Dataset], pool: ThreadPoolExecutor) -> tuple[str, ...]:
    """One sha256 digest of each dataset's samples, in order, hashed on ``pool``.

    hashlib releases the GIL while it hashes, so the datasets hash in parallel.
    """
    return tuple(pool.map(_sha256, datasets))


class _PairingCheck:
    """Guards the data that the methods share against writes.

    Each dataset is digested when it is first handed to the methods and again
    when the run lets go of it; the two digests must agree. The hashing runs
    on ``pool``, the run's helper pool, which ``_make_datasets`` also uses
    for its Philox fills: a freshly drawn dataset is hashed while the next
    one is drawn, and ``hand_out`` waits for every digest of its cell before
    the methods see the data. ``close`` stops the pool.
    """

    def __init__(self, pool: ThreadPoolExecutor):
        self.pool = pool
        self._live: dict = {}  # id(dataset) -> (dataset, future of its hand-out digest)

    def drawn(self, d: Dataset) -> None:
        """Start the hand-out digest of a dataset that was just drawn."""
        self._live[id(d)] = (d, self.pool.submit(_sha256, d))

    def hand_out(self, datasets: list[Dataset]) -> tuple[str, ...]:
        """The digests of a cell's datasets, once every one of them is taken.

        Datasets that ``_make_datasets`` did not draw, such as fixed_total's
        partitions, are digested here.
        """
        for d in datasets:
            if id(d) not in self._live:
                self.drawn(d)
        return tuple(self._live[id(d)][1].result() for d in datasets)

    def release(self, held: dict, where: str) -> None:
        """Check the datasets that ``held`` no longer holds, then forget them."""
        kept = {id(v) for v in held.values()}
        gone = [d for key, (d, _) in self._live.items() if key not in kept]
        if not gone:
            return
        for d, after in zip(gone, _digest(gone, self.pool)):
            if self._live.pop(id(d))[1].result() != after:
                raise RuntimeError(
                    f"paired-seed violation in {where}: the data of client "
                    f"{d.client_id} changed after it was drawn; a method wrote "
                    "into data that other methods share"
                )

    def close(self) -> None:
        self.pool.shutdown(cancel_futures=True)


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
            OjaConfig(rank_r=spec.r, clip_norm=default_clip_norm(spec.lam, spec.sigma2, spec.p)),
            budgets,
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


def run_scenario(
    spec: ExperimentSpec,
    out_dir=None,
    write_svg: bool = True,
    verify_pairing: bool = True,
) -> ScenarioResult:
    """Run every (method, sweep point, replication) cell of a scenario.

    Replications run one after another. Each draws its model and datasets
    once, keyed by their seed labels, and every cell whose seeds agree reuses
    that draw: all methods, all sweep points where the seeds leave out the
    sweep value (every scenario but heterogeneous), the first m clients of
    vary_clients, and fixed_total's pool. At most one replication's data is
    held (one cell's in heterogeneous). Records come out in (sweep point,
    replication, method) order.

    Each dataset is digested (sha256) when it is drawn and again after the
    last cell that uses it; a mismatch (a method wrote into shared data)
    raises ``RuntimeError`` naming the replication and the client. The
    digests are taken on a pool of one helper thread per core, which also
    fills each cell's Philox streams concurrently (every scenario but
    fixed_total, whose pool is one draw); the rest of each draw runs on the
    calling thread, and the data are bit-identical to one-by-one ``sample``
    draws. The pool is stopped before this returns. ``data_digests`` maps
    each (sweep index, replication) cell to the digests of its clients'
    datasets. ``verify_pairing`` must be True: the check is not optional.
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

    cells = [[[] for _ in range(spec.replications)] for _ in values]
    digests: dict = {}
    pool = ThreadPoolExecutor(os.cpu_count(), thread_name_prefix="fedspike-digest")
    pairing = _PairingCheck(pool)
    try:
        for rep in range(spec.replications):
            held: dict = {}  # this replication's draws, keyed by seed labels
            for sweep_index, sv in enumerate(values):
                rep_seed = derive_seed(spec.base_seed, spec.scenario, "rep", sweep_index, rep)
                layout = client_layout(spec, sv, sweep_index, rep)
                model = _make_model(spec, sweep_index, rep, held)
                datasets = _make_datasets(spec, model, layout, sweep_index, rep, held, pairing)
                cfgs = _client_configs(spec, layout, sweep_index, rep)
                digests[(sweep_index, rep)] = pairing.hand_out(datasets)
                truth = covariance_matrix(model)
                for method in spec.methods:
                    t0 = time.perf_counter()
                    u_hat, sigma_hat = _run_method(
                        method, spec, datasets, layout, cfgs, sweep_index, rep
                    )
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
                if _sweep_in_data_seed(spec):
                    held.clear()  # the next sweep point draws its own data
                pairing.release(held, f"replication {rep} at sweep {sv}")
            held.clear()
            pairing.release(held, f"replication {rep}")
    finally:
        pairing.close()

    records = [rec for row in cells for cell in row for rec in cell]
    result = ScenarioResult(spec=spec, records=records, data_digests=digests)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        result.csv_path = os.path.join(out_dir, f"{spec.scenario}.csv")
        write_records_csv(records, result.csv_path)
        if write_svg:
            result.svg_path = os.path.join(out_dir, f"{spec.scenario}.svg")
            plot_from_csv(result.csv_path, result.svg_path)
    return result


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_records_csv(records: list, path) -> None:
    """Write records under the fixed schema; missing cov errors stay empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for rec in records:
            writer.writerow(
                [
                    rec.scenario,
                    rec.method,
                    _fmt(rec.sweep_value),
                    rec.replication,
                    _fmt(rec.projection_error),
                    "" if rec.cov_frobenius_error is None else _fmt(rec.cov_frobenius_error),
                    _fmt(rec.wall_ms),
                    rec.seed,
                ]
            )


def read_records_csv(path) -> list[RunRecord]:
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER.split(","):
            raise ValueError(f"unexpected CSV header in {path}")
        for row in reader:
            out.append(
                RunRecord(
                    scenario=row["scenario"],
                    method=row["method"],
                    sweep_value=float(row["sweep_value"]),
                    replication=int(row["replication"]),
                    projection_error=float(row["projection_error"]),
                    cov_frobenius_error=(
                        None
                        if row["cov_frobenius_error"] == ""
                        else float(row["cov_frobenius_error"])
                    ),
                    wall_ms=float(row["wall_ms"]),
                    seed=int(row["seed"]),
                )
            )
    return out


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
    allow_dropout: bool = False
    header: bool = False

    def __post_init__(self):
        if len(self.client_sizes) < 1 or any(int(s) < 1 for s in self.client_sizes):
            raise ValueError("client_sizes must be positive")
        bad = set(self.methods) - {"fedspike", "equal", "oja"}
        if bad:
            raise ValueError(f"unknown real-data methods {sorted(bad)}")


def run_realdata(matrix_csv, spec: RealdataSpec) -> list[dict]:
    """Split a p x N matrix among clients, run the exchange, report
    explained variance of each method's aggregated frame on the held-in
    pool. Deterministic given spec.seed."""
    if isinstance(matrix_csv, np.ndarray):
        x_full = np.asarray(matrix_csv, dtype=float)
    else:
        x_full = load_dataset_csv(matrix_csv, header=spec.header).samples
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
            u_hat = run_federated_session(
                handles, server, InProcessTransport(), allow_dropout=spec.allow_dropout
            ).u_hat
        else:
            lam_bar = float(np.mean([c.lambda_plugin for c in cfgs]))
            sig_bar = float(np.mean([c.sigma2_plugin for c in cfgs]))
            oja_cfg = OjaConfig(rank_r=r, clip_norm=default_clip_norm(lam_bar, sig_bar, p))
            u_hat = fed_dp_oja(datasets, oja_cfg, budgets, derive_seed(spec.seed, "realdata-oja"))
        report.append(
            {"method": method, "explained_variance": explained_variance(u_hat, pool)}
        )
    return report
