"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete. Monte-Carlo criteria use fixed seeds, so outcomes
are reproducible; each tolerance is stated inline next to its check.

Each of the suite's scenario runs (``RUNS``), once it has passed its
threshold, must also give the records whose sha256 ``acceptance_bits.json``
holds (every field but ``wall_ms``). The bits depend on the BLAS build, so
the file names the OpenBLAS build it was recorded on, and on any other
build the check fails naming both builds. A change that moves these bits
on purpose records the file again, in the same diff, from the root of a
checkout (95 s on a shared 2-core host):

    PYTHONPATH=src python tests/test_acceptance.py
"""

import hashlib
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import conftest
import numpy as np
import pytest
from conftest import make_model, manifest_for_this_build, projector_gap, spearman

import fedspike as fs
from fedspike.experiments import default_spec, mean_errors, run_scenario
from fedspike.messages import ProjectorMessage
from fedspike.rates import RateInputs, cov_bound, is_admissible, pca_bound
from fedspike.server import AggregationWeights

BITS = Path(__file__).with_name("acceptance_bits.json")

# The suite's scenario runs, as ``default_spec`` arguments, by the name
# under which BITS holds the digest of their records.
RUNS = {
    # paper config, 50 reps; shared by criteria 3 and 7
    "scenario1": dict(
        scenario="privacy_utility",
        replications=50,
        base_seed=41001,
        methods=("fedspike", "reference"),
    ),
    "criterion_4": dict(
        scenario="vary_clients", replications=50, base_seed=41002, methods=("fedspike",)
    ),
    "criterion_5": dict(
        scenario="fixed_total", replications=50, base_seed=41003, methods=("fedspike",)
    ),
    "criterion_6": dict(
        scenario="heterogeneous",
        replications=50,
        base_seed=41004,
        methods=("fedspike", "equal"),
        n_sample_grid=(500,),
    ),
    "criterion_8": dict(
        scenario="privacy_utility",
        replications=50,
        base_seed=41005,
        methods=("fedspike",),
        eps_grid=(0.5,),
    ),
    "criterion_11": dict(
        scenario="privacy_utility",
        replications=50,
        base_seed=41006,
        methods=("fedspike", "oja"),
        eps_grid=(0.5,),
    ),
    # the abstract's third claim; see its test
    "many_inconsistent": dict(
        scenario="vary_clients",
        n=500,
        epsilon=0.2,
        m_grid=(16, 256),
        replications=3,
        base_seed=44001,
        methods=("fedspike",),
    ),
}


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def records_sha256(records) -> str:
    """sha256 over every field but ``wall_ms`` of each record, in order;
    floats by their exact hex form."""
    h = hashlib.sha256()
    for rec in records:
        for f in fields(rec):
            if f.name != "wall_ms":
                value = getattr(rec, f.name)
                h.update((value.hex() if isinstance(value, float) else repr(value)).encode())
                h.update(b",")
        h.update(b"\n")
    return h.hexdigest()


def _check_bits(name: str, records) -> None:
    recorded = manifest_for_this_build(BITS)["runs"][name]
    assert records_sha256(records) == recorded, (
        f"the records of {name} are not the bits recorded in {BITS.name}"
    )


@pytest.fixture(scope="module")
def scenario1():
    """Scenario-1 run shared by criteria 3 and 7."""
    spec = default_spec(**RUNS["scenario1"])
    t0 = time.perf_counter()
    result = run_scenario(spec, verify_pairing=True)
    return spec, result, time.perf_counter() - t0


def test_criterion_1_noise_calibration():
    variance = 0.6
    t0 = time.perf_counter()
    draws = fs.sample_symmetric_noise(4, variance, seed=101, size=100_000)
    rows, cols = np.tril_indices(4, -1)
    off_var = draws[:, rows, cols].var()
    diag_var = draws[:, np.arange(4), np.arange(4)].var()
    elapsed = time.perf_counter() - t0
    ok = (
        abs(off_var / variance - 1) <= 0.03
        and abs(diag_var / (2 * variance) - 1) <= 0.03
        and elapsed < 5.0
    )
    _report(
        1,
        "noise calibration",
        ok,
        f"off-diag var/target={off_var / variance:.4f}, "
        f"diag var/target={diag_var / (2 * variance):.4f}, {elapsed:.2f}s",
    )


def test_criterion_2_sensitivity_envelope():
    t0 = time.perf_counter()
    model = make_model(20, 1, 10.0, 1.0, 4201)
    worst = fs.empirical_projector_sensitivity(model, 500, 1, trials=100, seed=4202)
    bound = fs.projector_sensitivity_bound(20, 1, 500, 10.0, 1.0)
    s500 = fs.empirical_projector_sensitivity(model, 500, 1, trials=20, seed=4203)
    s1000 = fs.empirical_projector_sensitivity(model, 1000, 1, trials=20, seed=4204)
    ratio = s1000 / s500
    elapsed = time.perf_counter() - t0
    ok = worst <= bound and 0.35 <= ratio <= 0.7 and elapsed < 60.0
    _report(
        2,
        "sensitivity envelope",
        ok,
        f"max over 100 trials={worst:.5f} <= bound={bound:.5f}, "
        f"n-scaling ratio={ratio:.3f}, {elapsed:.1f}s",
    )


def test_criterion_3_privacy_utility_curve(scenario1):
    spec, result, elapsed = scenario1
    means = mean_errors(result.records)
    eps_values = sorted(spec.eps_grid)
    fed = [means[("fedspike", e)] for e in eps_values]
    ref = [means[("reference", e)] for e in eps_values]
    rho = spearman(eps_values, fed)
    rel_gaps = [abs(f - r) / r for f, r in zip(fed, ref)]
    ok = rho < -0.9 and max(rel_gaps) <= 0.15 and elapsed < 600.0
    _report(
        3,
        "privacy-utility curve",
        ok,
        f"spearman={rho:.3f}, max |fed-ref|/ref={max(rel_gaps):.3%}, {elapsed:.0f}s",
    )
    _check_bits("scenario1", result.records)


def test_criterion_4_clients_sweep():
    spec = default_spec(**RUNS["criterion_4"])
    records = run_scenario(spec).records
    means = mean_errors(records)
    m_values = sorted(spec.m_grid)
    errs = [means[("fedspike", m)] for m in m_values]
    monotone = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    ratio = means[("fedspike", 10)] / means[("fedspike", 40)]
    ok = monotone and 1.5 <= ratio <= 2.7
    _report(
        4,
        "clients sweep",
        ok,
        f"monotone decreasing={monotone}, error(m=10)/error(m=40)={ratio:.3f}",
    )
    _check_bits("criterion_4", records)


def test_criterion_5_fixed_total_sweep():
    spec = default_spec(**RUNS["criterion_5"])
    records = run_scenario(spec).records
    means = mean_errors(records)
    m_values = sorted(spec.total_m_grid)
    errs = [means[("fedspike", m)] for m in m_values]
    monotone = all(errs[i + 1] > errs[i] for i in range(len(errs) - 1))
    _report(
        5,
        "fixed-total sweep",
        monotone,
        "mean errors over m=(10,20,25,50): " + ", ".join(f"{e:.4f}" for e in errs),
    )
    _check_bits("criterion_5", records)


def test_criterion_6_heterogeneous_weighting():
    records = run_scenario(default_spec(**RUNS["criterion_6"])).records
    fed = {r.replication: r.projection_error for r in records if r.method == "fedspike"}
    equal = {r.replication: r.projection_error for r in records if r.method == "equal"}
    wins = sum(fed[k] < equal[k] for k in fed)
    ok = wins >= 40
    _report(6, "heterogeneous weighting", ok, f"optimal beats equal in {wins}/50 paired reps")
    _check_bits("criterion_6", records)


def test_criterion_7_rate_envelope(scenario1):
    spec, result, _ = scenario1
    means_sq: dict = {}
    counts: dict = {}
    for rec in result.records:
        if rec.method != "fedspike":
            continue
        means_sq[rec.sweep_value] = means_sq.get(rec.sweep_value, 0.0) + rec.projection_error**2
        counts[rec.sweep_value] = counts.get(rec.sweep_value, 0) + 1
    ratios = []
    for eps in sorted(spec.eps_grid):
        mse = means_sq[eps] / counts[eps]
        clients = [
            RateInputs(spec.n, eps, spec.delta, spec.p, spec.r, spec.lam, spec.sigma2)
        ] * spec.m
        ratios.append(mse / pca_bound(clients))
    ok = all(0.01 <= ratio <= 10.0 for ratio in ratios)
    _report(
        7,
        "rate envelope",
        ok,
        f"MSE/pca_bound across eps in [{min(ratios):.3f}, {max(ratios):.3f}]",
    )
    _check_bits("scenario1", result.records)


def test_criterion_8_covariance_estimator():
    spec = default_spec(**RUNS["criterion_8"])
    records = run_scenario(spec).records
    mse = float(np.mean([r.cov_frobenius_error**2 for r in records]))
    clients = [
        RateInputs(spec.n, 0.5, spec.delta, spec.p, spec.r, spec.lam, spec.sigma2)
    ] * spec.m
    bound = cov_bound(clients)
    ok = mse <= 10.0 * bound
    _report(8, "covariance estimator", ok, f"mean |S-Sigma|_F^2={mse:.4f} <= 10x{bound:.4f}")
    _check_bits("criterion_8", records)


def test_criterion_9_small_instance_oracle_equivalence():
    rng = np.random.default_rng(4209)
    checked_svd = checked_agg = 0
    worst = 0.0
    while checked_svd < 1000:
        p = int(rng.integers(2, 7))
        r = int(rng.integers(1, min(2, p) + 1))
        # construct with a controlled eigengap so the truncation is stable
        q = fs.random_orthonormal(p, p, int(rng.integers(1 << 30)))
        vals = np.sort(rng.uniform(-3, 3, p))[::-1]
        if r < p:
            vals[r:] -= 1.0
        m = q @ np.diag(vals) @ q.T
        evals, evecs = np.linalg.eigh(m)  # brute-force full-decomposition oracle
        oracle = evecs[:, ::-1][:, :r]
        worst = max(worst, projector_gap(fs.svd_r(m, r), oracle))
        checked_svd += 1
    while checked_agg < 1000:
        p = int(rng.integers(2, 7))
        r = int(rng.integers(1, min(2, p) + 1))
        k = int(rng.integers(1, 4))
        frames = [fs.random_orthonormal(p, r, int(rng.integers(1 << 30))) for _ in range(k)]
        raw_w = rng.uniform(0.1, 1.0, k)
        w = raw_w / raw_w.sum()
        acc = sum(wi * f @ f.T for wi, f in zip(w, frames))
        evals, evecs = np.linalg.eigh(acc)
        if p > r and evals[-r] - evals[-r - 1] < 1e-6:
            continue  # eigengap too small for a well-posed comparison
        oracle = evecs[:, ::-1][:, :r]
        msgs = [
            ProjectorMessage(f"c{i}", f, n=10, epsilon=1.0, delta=0.1)
            for i, f in enumerate(frames)
        ]
        got = fs.aggregate_projectors(msgs, AggregationWeights(w, w.copy()))
        worst = max(worst, projector_gap(got, oracle))
        checked_agg += 1
    ok = worst <= 1e-10
    _report(
        9,
        "small-instance oracle equivalence",
        ok,
        f"2000 random instances, worst projector gap={worst:.2e}",
    )


def test_criterion_10_transport_equivalence(tmp_path):
    model = make_model(12, 2, [9.0, 6.0], 1.0, 4210)
    layouts = [(60, 0.3, 0.1), (100, 0.5, 0.15), (150, 0.8, 0.05)]
    clients = []
    for j, (n, eps, delta) in enumerate(layouts):
        data = fs.sample(model, n, 42100 + j, client_id=f"c{j}")
        cfg = fs.ClientConfig(f"c{j}", fs.PrivacyBudget(eps, delta), 2, 9.0, 1.0, 42200 + j)
        clients.append(fs.ClientHandle(data, cfg))
    results = []
    for transport in (
        fs.InProcessTransport(),
        fs.FileTransport(tmp_path / "session"),
        fs.TcpTransport(timeout=15.0),
    ):
        server = fs.ServerHandle(rank_r=2, sigma2=1.0, lam=9.0, scheme="optimal")
        results.append(fs.run_federated_session(clients, server, transport))
    same_u = all(np.array_equal(results[0].u_hat, r.u_hat) for r in results[1:])
    same_sigma = all(np.array_equal(results[0].sigma_hat, r.sigma_hat) for r in results[1:])
    ok = same_u and same_sigma
    _report(
        10,
        "transport equivalence",
        ok,
        f"bit-identical U-hat={same_u}, Sigma-hat={same_sigma} across inproc/file/tcp",
    )


def test_criterion_11_baseline_ordering():
    spec = default_spec(**RUNS["criterion_11"])
    records = run_scenario(spec).records
    fed = {r.replication: r.projection_error for r in records if r.method == "fedspike"}
    oja = {r.replication: r.projection_error for r in records if r.method == "oja"}
    wins = sum(oja[k] > fed[k] for k in fed)
    ok = wins >= 45
    # A uniformly random r-frame has expected squared error 2r(1 - r/p).
    random_frame = np.sqrt(2 * spec.r * (1 - spec.r / spec.p))
    _report(
        11,
        "baseline ordering",
        ok,
        f"oja error exceeds main method in {wins}/50 paired reps "
        f"(mean oja={np.mean(list(oja.values())):.3f}, "
        f"random-frame level={random_frame:.3f}, "
        f"mean fedspike={np.mean(list(fed.values())):.3f})",
    )
    _check_bits("criterion_11", records)


def test_one_consistent_client_makes_the_server_consistent():
    # The abstract's second claim. Nine weak clients (n=200, eps=0.05) are
    # inadmissible; one strong client (n=20000, eps=1) is consistent. The
    # optimal weights must follow the strong client, and equal weights must
    # not. Thresholds were set from a 10-rep measurement (optimal 0.033,
    # strong alone 0.033, equal 1.272) before this test was first run.
    p, r, lam, s2, reps = 50, 1, 10.0, 1.0, 10
    layout = [(200, 0.05)] * 9 + [(20000, 1.0)]
    errors: dict = {"optimal": [], "equal": [], "strong": []}
    for rep in range(reps):
        model = make_model(p, r, lam, s2, 43000 + rep)
        clients = []
        for j, (n, eps) in enumerate(layout):
            data = fs.sample(model, n, 43100 + 10 * rep + j, client_id=f"c{j}")
            budget = fs.PrivacyBudget(eps, 0.1)
            cfg = fs.ClientConfig(f"c{j}", budget, r, lam, s2, 43200 + 10 * rep + j)
            clients.append(fs.ClientHandle(data, cfg))
        for scheme in ("optimal", "equal"):
            server = fs.ServerHandle(rank_r=r, sigma2=s2, lam=lam, scheme=scheme)
            u_hat = fs.run_federated_session(clients, server, fs.InProcessTransport()).u_hat
            errors[scheme].append(fs.projection_distance(u_hat, model.basis_u))
        strong = clients[-1].projector().u_hat
        errors["strong"].append(fs.projection_distance(strong, model.basis_u))
    mean = {k: float(np.mean(v)) for k, v in errors.items()}
    assert mean["optimal"] <= 0.1, mean
    assert mean["optimal"] <= 2.0 * mean["strong"], mean
    assert mean["equal"] >= 0.5, mean


def test_many_inconsistent_clients_make_the_server_consistent():
    # The abstract's third claim. Every client (n=500, eps=0.2) is
    # inadmissible; with enough of them the server's error still falls. The
    # thresholds (m=256 below half of m=16, and below the random-frame
    # level) were fixed from a 3-rep run at base seed 7 (1.283 and 0.481)
    # before this test was first run at its own seed.
    spec = default_spec(**RUNS["many_inconsistent"])
    client = RateInputs(spec.n, spec.epsilon, spec.delta, spec.p, spec.r, spec.lam, spec.sigma2)
    assert not is_admissible(client)
    records = run_scenario(spec).records
    means = mean_errors(records)
    few, many = means[("fedspike", 16)], means[("fedspike", 256)]
    random_frame = np.sqrt(2 * spec.r * (1 - spec.r / spec.p))
    assert many < 0.5 * few, means
    assert many < random_frame, means
    _check_bits("many_inconsistent", records)


def test_the_records_manifest_fails_on_another_build_naming_both(monkeypatch):
    recorded = json.loads(BITS.read_text())["build"]
    found = {"config": "OpenBLAS 0.0.0 NOT THE RECORDED BUILD", "corename": "Elsewhere"}
    monkeypatch.setattr(conftest, "openblas_build", lambda: found)
    with pytest.raises(AssertionError) as failure:
        _check_bits("criterion_4", [])
    for build in (recorded, found):
        assert build["config"] in str(failure.value)
        assert f"core {build['corename']}" in str(failure.value)


if __name__ == "__main__":
    record = {"build": conftest.openblas_build(), "runs": {}}
    for name, kwargs in RUNS.items():
        record["runs"][name] = records_sha256(run_scenario(default_spec(**kwargs)).records)
        print(f"{name}: {record['runs'][name]}", file=sys.stderr)
    BITS.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {BITS} ({len(RUNS)} runs)", file=sys.stderr)
