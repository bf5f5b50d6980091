import threading

import numpy as np
import pytest
from conftest import make_model

from fedspike import Dataset, sample
from fedspike.experiments import (
    CSV_HEADER,
    ExperimentSpec,
    RealdataSpec,
    client_layout,
    default_spec,
    estimate_plugins,
    mean_errors,
    plot_from_csv,
    read_records_csv,
    run_realdata,
    run_scenario,
    sweep_values,
    write_records_csv,
)


def _tiny_spec(**over):
    base = dict(
        p=8,
        r=1,
        lam=8.0,
        sigma2=1.0,
        replications=2,
        base_seed=3,
        m=2,
        n=120,
        eps_grid=(0.5, 1.0),
        methods=("fedspike", "equal", "reference", "oja"),
    )
    base.update(over)
    return default_spec("privacy_utility", **base)


class TestSpec:
    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            ExperimentSpec(scenario="nope")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            _tiny_spec(methods=("fedspike", "magic"))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("p", 0), ("p", "x"), ("r", 0), ("m", -1), ("n", 120.0), ("total_n", True),
            ("replications", 0), ("lam", 0.0), ("lam", float("inf")),
            ("sigma2", float("nan")), ("sigma2", "1"),
        ],
    )
    def test_a_bad_size_or_scale_names_its_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name}: must be "):
            _tiny_spec(**{name: value})

    def test_a_rank_above_the_dimension_is_refused(self):
        with pytest.raises(ValueError, match="^r: must not exceed p=8"):
            _tiny_spec(r=9)

    def test_defaults_match_paper_configs(self):
        s1 = default_spec("privacy_utility")
        assert (s1.p, s1.r, s1.lam, s1.m, s1.n, s1.delta) == (50, 1, 10.0, 10, 10000, 0.1)
        assert s1.eps_grid == tuple(round(0.1 * k, 1) for k in range(1, 11))
        s2 = default_spec("vary_clients")
        assert (s2.n, s2.epsilon) == (1000, 0.5)
        assert s2.m_grid == tuple(range(10, 101, 10))
        s3 = default_spec("fixed_total")
        assert (s3.total_n, s3.total_m_grid) == (100_000, (10, 20, 25, 50))
        s4 = default_spec("heterogeneous")
        assert s4.n_sample_grid == tuple(range(100, 1001, 100))
        assert (s4.eps_range, s4.delta_range) == ((0.1, 0.3), (0.1, 0.2))
        assert (s4.small_mult, s4.large_mult) == (2, 20)

    def test_presets_equal_the_paper_configs_spelled_out(self):
        spelled = {
            "privacy_utility": dict(m=10, n=10000, delta=0.1, methods=("fedspike", "reference", "oja")),
            "vary_clients": dict(n=1000, epsilon=0.5, delta=0.1, methods=("fedspike", "reference", "oja")),
            "fixed_total": dict(epsilon=0.5, delta=0.1, methods=("fedspike", "reference", "oja")),
            "heterogeneous": dict(m=10, methods=("fedspike", "equal", "reference")),
        }
        for scenario, kwargs in spelled.items():
            assert default_spec(scenario) == ExperimentSpec(scenario=scenario, **kwargs)
            assert default_spec(scenario, m=4) == ExperimentSpec(scenario=scenario, **{**kwargs, "m": 4})

    def test_sweep_values(self):
        assert sweep_values(default_spec("fixed_total")) == (10, 20, 25, 50)


class TestClientLayout:
    def test_privacy_utility(self):
        spec = _tiny_spec()
        layout = client_layout(spec, 0.5, 0, 0)
        assert layout == [(120, 0.5, 0.1)] * 2

    def test_fixed_total_splits_evenly(self):
        spec = default_spec("fixed_total", total_n=1000, total_m_grid=(4,), p=6, n=1)
        layout = client_layout(spec, 4, 0, 0)
        assert layout == [(250, 0.5, 0.1)] * 4

    def test_heterogeneous_draws_within_ranges(self):
        spec = default_spec("heterogeneous", m=6, base_seed=1)
        layout = client_layout(spec, 200, 0, 0)
        sizes = [n for n, _, _ in layout]
        assert sizes == [400, 400, 400, 4000, 4000, 4000]
        assert all(0.1 <= e <= 0.3 and 0.1 <= d <= 0.2 for _, e, d in layout)

    def test_heterogeneous_budgets_stable_per_rep(self):
        spec = default_spec("heterogeneous", m=4, base_seed=5)
        assert client_layout(spec, 100, 0, 3) == client_layout(spec, 100, 0, 3)
        assert client_layout(spec, 100, 0, 3) != client_layout(spec, 100, 0, 4)


class TestRunScenario:
    def test_record_grid_and_schema(self, tmp_path):
        spec = _tiny_spec()
        result = run_scenario(spec)
        assert len(result.records) == 2 * 2 * 4  # sweeps x reps x methods
        csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
        write_records_csv(result.records, csv_path)
        plot_from_csv(csv_path, svg_path)
        with open(csv_path) as fh:
            header = fh.readline().strip()
        assert header == CSV_HEADER
        with open(svg_path) as fh:
            svg = fh.read()
        assert svg.startswith("<svg") or "<svg" in svg
        assert svg.count("<polyline") == 4

    def test_csv_roundtrip_bit_exact(self, tmp_path):
        spec = _tiny_spec()
        result = run_scenario(spec)
        write_records_csv(result.records, tmp_path / "out.csv")
        back = read_records_csv(tmp_path / "out.csv")
        for a, b in zip(result.records, back):
            assert a.projection_error == b.projection_error
            assert a.cov_frobenius_error == b.cov_frobenius_error
            assert (a.method, a.sweep_value, a.replication, a.seed) == (
                b.method,
                b.sweep_value,
                b.replication,
                b.seed,
            )

    def test_csv_columns_are_the_record_fields(self, tmp_path):
        from dataclasses import fields

        from fedspike.experiments import RunRecord, write_records_csv

        assert CSV_HEADER.split(",") == [f.name for f in fields(RunRecord)]
        recs = [
            RunRecord("fixed_total", "oja", 2.0, 1, 0.1, None, 1.5, 2**64 - 1),
            RunRecord("heterogeneous", "equal", 30.0, 0, 0.0, 5e-324, 1e300, 7),
        ]
        path = tmp_path / "records.csv"
        write_records_csv(recs, path)
        assert path.read_bytes() == (
            CSV_HEADER + "\r\n"
            "fixed_total,oja,2,1,0.10000000000000001,,1.5,18446744073709551615\r\n"
            "heterogeneous,equal,30,0,0,4.9406564584124654e-324,1.0000000000000001e+300,7\r\n"
        ).encode()
        assert read_records_csv(path) == recs

    def test_deterministic_modulo_wall_time(self):
        spec = _tiny_spec()
        r1 = run_scenario(spec).records
        r2 = run_scenario(spec).records
        for a, b in zip(r1, r2):
            assert a.projection_error == b.projection_error
            assert a.cov_frobenius_error == b.cov_frobenius_error
            assert a.seed == b.seed

    def test_methods_share_data(self):
        result = run_scenario(_tiny_spec())
        # verify_pairing collected one digest per (sweep, rep) without error
        assert len(result.data_digests) == 4

    def test_cov_error_only_for_assembling_methods(self):
        records = run_scenario(_tiny_spec()).records
        for rec in records:
            if rec.method in ("fedspike", "equal"):
                assert rec.cov_frobenius_error is not None
            else:
                assert rec.cov_frobenius_error is None

    def test_infeasible_layout_rejected_before_running(self):
        spec = _tiny_spec(n=1, r=2, p=8)
        with pytest.raises(ValueError, match="infeasible"):
            run_scenario(spec)

    def test_mean_errors_aggregation(self):
        records = run_scenario(_tiny_spec()).records
        means = mean_errors(records)
        assert set(m for m, _ in means) == {"fedspike", "equal", "reference", "oja"}
        direct = np.mean(
            [r.projection_error for r in records if r.method == "fedspike" and r.sweep_value == 0.5]
        )
        assert means[("fedspike", 0.5)] == pytest.approx(direct, rel=1e-12)

    def test_paired_errors_match_across_shared_noise_methods(self):
        # fedspike and equal coincide exactly in a homogeneous layout
        # (identical weights, shared noise draws).
        records = run_scenario(_tiny_spec(methods=("fedspike", "equal"))).records
        fed = {(r.sweep_value, r.replication): r.projection_error for r in records if r.method == "fedspike"}
        eq = {(r.sweep_value, r.replication): r.projection_error for r in records if r.method == "equal"}
        assert fed == eq


_ALL_METHODS = ("fedspike", "equal", "reference", "oja")

# Tiny specs of the four scenarios: two replications and at least two sweep
# points each, so draws shared across sweep points, methods and client
# prefixes (vary_clients) or partitions (fixed_total) are all exercised.
GOLDEN_SPECS = {
    "privacy_utility": dict(
        p=8, r=1, lam=8.0, m=2, n=120, eps_grid=(0.5, 1.0), replications=2, base_seed=3,
        methods=_ALL_METHODS,
    ),
    "vary_clients": dict(
        p=8, r=2, lam=8.0, n=100, m_grid=(2, 3), replications=2, base_seed=4,
        methods=_ALL_METHODS,
    ),
    "fixed_total": dict(
        p=8, r=1, lam=8.0, total_n=240, total_m_grid=(2, 3, 4), replications=2, base_seed=5,
        methods=_ALL_METHODS,
    ),
    "heterogeneous": dict(
        p=8, r=1, lam=8.0, m=4, n_sample_grid=(30, 60), small_mult=2, large_mult=5,
        replications=2, base_seed=6, methods=_ALL_METHODS,
    ),
}

# (method, sweep_value, replication, projection_error, cov_frobenius_error, seed)
# in record order, printed with format(x, ".17g").
GOLDEN_RECORDS = {
    'privacy_utility': [
        ('fedspike', 0.5, 0, 0.79277678907230609, 8.2754558577206083, 1670605349684572875),
        ('equal', 0.5, 0, 0.79277678907230609, 8.2754558577206083, 1670605349684572875),
        ('reference', 0.5, 0, 0.777288360704389, None, 1670605349684572875),
        ('oja', 0.5, 0, 1.3815982087905259, None, 1670605349684572875),
        ('fedspike', 0.5, 1, 0.475547461946906, 5.7063036692000857, 1810618486974225461),
        ('equal', 0.5, 1, 0.475547461946906, 5.7063036692000857, 1810618486974225461),
        ('reference', 0.5, 1, 0.42029693804599455, None, 1810618486974225461),
        ('oja', 0.5, 1, 1.4120359061619636, None, 1810618486974225461),
        ('fedspike', 1.0, 0, 0.37207086867892858, 4.4417074799465111, 11597779669171962601),
        ('equal', 1.0, 0, 0.37207086867892858, 4.4417074799465111, 11597779669171962601),
        ('reference', 1.0, 0, 0.32972584140517014, None, 11597779669171962601),
        ('oja', 1.0, 0, 1.3911414271915843, None, 11597779669171962601),
        ('fedspike', 1.0, 1, 0.26050764985944419, 2.8751831403941415, 4956334396715427619),
        ('equal', 1.0, 1, 0.26050764985944419, 2.8751831403941415, 4956334396715427619),
        ('reference', 1.0, 1, 0.25111837772342294, None, 4956334396715427619),
        ('oja', 1.0, 1, 1.226898871337696, None, 4956334396715427619),
    ],
    'vary_clients': [
        ('fedspike', 2.0, 0, 1.1095662824380619, 10.940518390149286, 13576668318395242164),
        ('equal', 2.0, 0, 1.1095662824380619, 10.940518390149286, 13576668318395242164),
        ('reference', 2.0, 0, 1.012910283914181, None, 13576668318395242164),
        ('oja', 2.0, 0, 1.7765882458837543, None, 13576668318395242164),
        ('fedspike', 2.0, 1, 0.98324846200191918, 11.782549269766704, 15355416055713357025),
        ('equal', 2.0, 1, 0.98324846200191918, 11.782549269766704, 15355416055713357025),
        ('reference', 2.0, 1, 0.76094612530318384, None, 15355416055713357025),
        ('oja', 2.0, 1, 1.8865738665428371, None, 15355416055713357025),
        ('fedspike', 3.0, 0, 0.97566534137149075, 9.1241567703369189, 10337247242088117214),
        ('equal', 3.0, 0, 0.97566534137149075, 9.1241567703369189, 10337247242088117214),
        ('reference', 3.0, 0, 0.89600139490422692, None, 10337247242088117214),
        ('oja', 3.0, 0, 1.5021995263347157, None, 10337247242088117214),
        ('fedspike', 3.0, 1, 1.0899656833396114, 9.7463829007325931, 4580051471237670313),
        ('equal', 3.0, 1, 1.0899656833396114, 9.7463829007325931, 4580051471237670313),
        ('reference', 3.0, 1, 0.69382915178971072, None, 4580051471237670313),
        ('oja', 3.0, 1, 1.774536290572241, None, 4580051471237670313),
    ],
    'fixed_total': [
        ('fedspike', 2.0, 0, 1.1693977275261032, 7.6206571239875318, 5351376634899501350),
        ('equal', 2.0, 0, 1.1693977275261032, 7.6206571239875318, 5351376634899501350),
        ('reference', 2.0, 0, 0.74858541592481986, None, 5351376634899501350),
        ('oja', 2.0, 0, 1.4074715122115884, None, 5351376634899501350),
        ('fedspike', 2.0, 1, 0.65725750303618657, 5.174499463747658, 4945938007783659419),
        ('equal', 2.0, 1, 0.65725750303618657, 5.174499463747658, 4945938007783659419),
        ('reference', 2.0, 1, 0.58369744148132918, None, 4945938007783659419),
        ('oja', 2.0, 1, 0.93534796449227298, None, 4945938007783659419),
        ('fedspike', 3.0, 0, 0.96734183354694803, 7.9008444071298189, 17055792467225861429),
        ('equal', 3.0, 0, 0.96734183354694769, 7.9008444071298181, 17055792467225861429),
        ('reference', 3.0, 0, 0.84704968482538023, None, 17055792467225861429),
        ('oja', 3.0, 0, 1.4072782596097839, None, 17055792467225861429),
        ('fedspike', 3.0, 1, 0.74216815668166813, 5.5336408298310715, 487756119839338384),
        ('equal', 3.0, 1, 0.74216815668166836, 5.5336408298310724, 487756119839338384),
        ('reference', 3.0, 1, 0.65770526139370256, None, 487756119839338384),
        ('oja', 3.0, 1, 1.4100668237469423, None, 487756119839338384),
        ('fedspike', 4.0, 0, 1.0615178446607227, 8.0157337401868514, 15678818002858283645),
        ('equal', 4.0, 0, 1.0615178446607227, 8.0157337401868514, 15678818002858283645),
        ('reference', 4.0, 0, 1.0201343913670766, None, 15678818002858283645),
        ('oja', 4.0, 0, 1.3314528986388001, None, 15678818002858283645),
        ('fedspike', 4.0, 1, 0.76613989523516268, 5.7070717703317371, 6010789218320181495),
        ('equal', 4.0, 1, 0.76613989523516268, 5.7070717703317371, 6010789218320181495),
        ('reference', 4.0, 1, 0.75308483354197497, None, 6010789218320181495),
        ('oja', 4.0, 1, 1.4100816060578851, None, 6010789218320181495),
    ],
    'heterogeneous': [
        ('fedspike', 30.0, 0, 1.3863101724743272, 8.2862456240494922, 12006466451282931815),
        ('equal', 30.0, 0, 1.3056675554844117, 8.029689834780374, 12006466451282931815),
        ('reference', 30.0, 0, 1.0164813111396191, None, 12006466451282931815),
        ('oja', 30.0, 0, 1.3827939584406439, None, 12006466451282931815),
        ('fedspike', 30.0, 1, 0.93955613172978691, 6.6817655969726255, 5095364788091227590),
        ('equal', 30.0, 1, 0.91770106361966797, 7.3811639843503922, 5095364788091227590),
        ('reference', 30.0, 1, 1.2101427101042719, None, 5095364788091227590),
        ('oja', 30.0, 1, 1.4115351386866022, None, 5095364788091227590),
        ('fedspike', 60.0, 0, 0.39627754554262157, 6.2887348721357554, 10417165232221517403),
        ('equal', 60.0, 0, 0.41129510850347512, 6.9944549880347324, 10417165232221517403),
        ('reference', 60.0, 0, 0.47502024227643097, None, 10417165232221517403),
        ('oja', 60.0, 0, 1.3225613253517963, None, 10417165232221517403),
        ('fedspike', 60.0, 1, 0.44624053319773849, 3.9791263523353702, 2572116310864510088),
        ('equal', 60.0, 1, 0.7145404153000382, 12.448550618357912, 2572116310864510088),
        ('reference', 60.0, 1, 1.2716150416427117, None, 2572116310864510088),
        ('oja', 60.0, 1, 1.3145413081631216, None, 2572116310864510088),
    ],
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_SPECS))
def test_golden_records(scenario):
    """Paired-seed errors at fixed seeds stay the same across versions."""
    records = run_scenario(default_spec(scenario, **GOLDEN_SPECS[scenario])).records
    got = [
        (r.method, r.sweep_value, r.replication, r.projection_error, r.cov_frobenius_error, r.seed)
        for r in records
    ]
    want = GOLDEN_RECORDS[scenario]
    assert [g[:3] + g[5:] for g in got] == [w[:3] + w[5:] for w in want]
    for g, w in zip(got, want):
        assert g[3] == pytest.approx(w[3], rel=1e-9, abs=1e-12), g[:3]
        if w[4] is None:
            assert g[4] is None, g[:3]
        else:
            assert g[4] == pytest.approx(w[4], rel=1e-9, abs=1e-12), g[:3]


@pytest.mark.parametrize("scenario", sorted(GOLDEN_SPECS))
def test_digests_regenerate_from_the_seeds(scenario):
    """Each cell's data_digests entry is the digest of the datasets that the
    documented seed labels produce, drawn afresh: ("data", rep, j), with the
    sweep index before rep in heterogeneous, and in fixed_total consecutive
    column slices of the ("pool", rep) draw."""
    from concurrent.futures import ThreadPoolExecutor

    from fedspike import SpikedModel, random_orthonormal
    from fedspike.experiments import _digest
    from fedspike.rng import derive_seed

    spec = default_spec(scenario, **GOLDEN_SPECS[scenario])
    result = run_scenario(spec, verify_pairing=True)
    values = sweep_values(spec)
    assert len(result.data_digests) == len(values) * spec.replications
    for (sweep_index, rep), entry in result.data_digests.items():
        cell = (sweep_index, rep) if scenario == "heterogeneous" else (rep,)
        seed = derive_seed(spec.base_seed, scenario, "model", *cell)
        u = random_orthonormal(spec.p, spec.r, seed)
        model = SpikedModel(u, np.full(spec.r, spec.lam), spec.sigma2)
        layout = client_layout(spec, values[sweep_index], sweep_index, rep)
        if scenario == "fixed_total":
            pooled = sample(model, spec.total_n, derive_seed(spec.base_seed, scenario, "pool", rep))
            n_j = layout[0][0]
            datasets = [
                Dataset(pooled.samples[:, j * n_j : (j + 1) * n_j]) for j in range(len(layout))
            ]
        else:
            datasets = [
                sample(model, n_j, derive_seed(spec.base_seed, scenario, "data", *cell, j))
                for j, (n_j, _, _) in enumerate(layout)
            ]
        with ThreadPoolExecutor(1) as pool:
            assert entry == _digest(datasets, pool)


def test_fixed_total_partitions_are_read_only_views_of_the_pool(monkeypatch):
    from fedspike import experiments

    pools, cells = [], []
    original_sample, original_run = experiments.sample, experiments._run_method

    def drawing(*args, **kwargs):
        pools.append(original_sample(*args, **kwargs))
        return pools[-1]

    def running(method, spec, datasets, *args):
        cells.append(datasets)
        return original_run(method, spec, datasets, *args)

    monkeypatch.setattr(experiments, "sample", drawing)
    monkeypatch.setattr(experiments, "_run_method", running)
    spec = default_spec("fixed_total", **{**GOLDEN_SPECS["fixed_total"], "replications": 1})
    run_scenario(spec)
    (pool,) = pools
    assert [len(datasets) for datasets in cells] == [2] * 4 + [3] * 4 + [4] * 4
    for datasets in cells:
        assert [d.client_id for d in datasets] == [f"c{j:03d}" for j in range(len(datasets))]
        assert np.array_equal(np.hstack([d.samples for d in datasets]), pool.samples)
        for d in datasets:
            assert np.shares_memory(d.samples, pool.samples)
            assert not d.samples.flags.writeable
            with pytest.raises(ValueError):
                d.samples.flags.writeable = True


@pytest.mark.parametrize(
    "scenario, draws_per_rep",
    [
        ("privacy_utility", 2),  # m clients, shared by both eps points
        ("vary_clients", 3),  # the largest m; smaller m take a prefix
        ("fixed_total", 1),  # one pool, partitioned three ways
        ("heterogeneous", 2 * 4),  # sizes change with the sweep: m per point
    ],
)
def test_each_replication_draws_once(scenario, draws_per_rep, monkeypatch):
    from fedspike import experiments

    calls = []
    original = experiments.sample
    monkeypatch.setattr(
        experiments, "sample", lambda *a, **k: calls.append(a[2]) or original(*a, **k)
    )
    spec = default_spec(scenario, **GOLDEN_SPECS[scenario])
    run_scenario(spec)
    assert len(calls) == len(set(calls)) == draws_per_rep * spec.replications


@pytest.mark.parametrize("scenario", sorted(GOLDEN_SPECS))
def test_pairing_check_names_replication_and_client(scenario, monkeypatch):
    """A method that writes into shared data is caught and named."""
    from fedspike import experiments

    original = experiments._run_method

    def tampering(method, spec, datasets, *args):
        out = original(method, spec, datasets, *args)
        if method == "equal":
            x = datasets[1].samples
            if x.base is not None:
                # A fixed_total partition: numpy lets a view be made writeable
                # only once the pool it views is.
                x.base.flags.writeable = True
            x.flags.writeable = True
            x[0, 0] += 1.0
        return out

    monkeypatch.setattr(experiments, "_run_method", tampering)
    spec = default_spec(scenario, **GOLDEN_SPECS[scenario])
    with pytest.raises(RuntimeError, match=r"replication 0\b.*client c001"):
        run_scenario(spec, verify_pairing=True)


def test_pairing_check_sees_a_write_in_the_first_method(monkeypatch):
    """Every hand-out digest is complete before the first method runs.

    The first method of the first cell writes at once into the last entry of
    the dataset drawn last. A hand-out digest still in flight would read the
    written value and agree with the digest at release.
    """
    from fedspike import experiments

    original = experiments._run_method
    calls = []

    def tampering(method, spec, datasets, *args):
        if not calls:
            x = datasets[-1].samples
            x.flags.writeable = True
            x[-1, -1] += 1.0
        calls.append(method)
        return original(method, spec, datasets, *args)

    monkeypatch.setattr(experiments, "_run_method", tampering)
    spec = default_spec(
        "privacy_utility", m=2, n=40_000, eps_grid=(0.5,), replications=1, methods=("fedspike",)
    )
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match=r"replication 0\b.*client c001"):
        run_scenario(spec, verify_pairing=True)
    assert [t for t in threading.enumerate() if t not in before] == []


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("scenario", sorted(GOLDEN_SPECS))
def test_pooled_draws_equal_inline_draws(scenario, r):
    """``_draw``'s fills on the helper pool give the model and datasets that
    ``sample`` draws inline, and its digest futures their digests."""
    from concurrent.futures import ThreadPoolExecutor

    from fedspike import experiments, random_orthonormal
    from fedspike.rng import derive_seed

    spec = default_spec(scenario, **{**GOLDEN_SPECS[scenario], "r": r})
    sweep_index = len(sweep_values(spec)) - 1
    layout = client_layout(spec, sweep_values(spec)[sweep_index], sweep_index, 1)
    layout = [(13 + 29 * j, eps, delta) for j, (_, eps, delta) in enumerate(layout)]
    with ThreadPoolExecutor(2, thread_name_prefix="fedspike-digest") as pool:
        model, pooled, handed = experiments._draw(spec, layout, sweep_index, 1, pool)
        digests = [f.result() for f in handed]

    cell = (sweep_index, 1) if scenario == "heterogeneous" else (1,)
    u = random_orthonormal(spec.p, r, derive_seed(spec.base_seed, scenario, "model", *cell))
    assert np.array_equal(model.basis_u, u)
    if scenario == "fixed_total":
        seed = derive_seed(spec.base_seed, scenario, "pool", *cell)
        want = [sample(model, spec.total_n, seed)]
        assert digests == []  # the pool is digested per partition, in each cell
    else:
        want = [
            sample(model, n_j, derive_seed(spec.base_seed, scenario, "data", *cell, j), f"c{j:03d}")
            for j, (n_j, _, _) in enumerate(layout)
        ]
        assert digests == [experiments._sha256(w) for w in want]
    assert len(pooled) == len(want)
    for got, w in zip(pooled, want):
        assert got.client_id == w.client_id
        assert np.array_equal(got.samples, w.samples)


def test_a_failing_fill_fails_the_run(monkeypatch):
    """A fill that raises on a helper thread is the run's exception, and the
    run stops its helper threads."""
    from fedspike import experiments

    original = experiments.fill_normals
    threads = []

    def failing(seed, g, z):
        threads.append(threading.current_thread().name)
        if len(threads) == 3:
            raise FloatingPointError("fill failed")
        original(seed, g, z)

    monkeypatch.setattr(experiments, "fill_normals", failing)
    spec = default_spec("privacy_utility", **GOLDEN_SPECS["privacy_utility"])
    before = set(threading.enumerate())
    with pytest.raises(FloatingPointError, match="fill failed"):
        run_scenario(spec, verify_pairing=True)
    assert [t for t in threading.enumerate() if t not in before] == []
    assert threads and all(name.startswith("fedspike-digest") for name in threads)


@pytest.mark.parametrize("verify_pairing", [True, False])
def test_digest_threads_live_only_while_the_run_checks_pairing(verify_pairing, monkeypatch):
    """The check is not optional: ``verify_pairing=False`` is refused before
    any thread starts."""
    from fedspike import experiments

    pools = []
    original = experiments.ThreadPoolExecutor

    def recording(*args, **kwargs):
        pools.append(original(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", recording)
    before = set(threading.enumerate())
    spec = default_spec("privacy_utility", **GOLDEN_SPECS["privacy_utility"])
    if verify_pairing:
        run_scenario(spec, verify_pairing=True)
    else:
        with pytest.raises(ValueError, match="^verify_pairing:"):
            run_scenario(spec, verify_pairing=False)
    assert len(pools) == int(verify_pairing)
    assert [t for t in threading.enumerate() if t not in before] == []


class TestEstimatePlugins:
    def test_recovers_spiked_scales(self):
        model = make_model(20, 1, 10.0, 1.0, 31)
        data = sample(model, 20000, 7)
        lam_hat, sig_hat = estimate_plugins(data, top_k=1, tail_range=(3, 20))
        assert abs(lam_hat - 10.0) <= 1.0
        assert abs(sig_hat - 1.0) <= 0.1

    def test_isotropic_lambda_near_zero(self):
        # No spike: a pure-noise model with a negligible deformation.
        model = make_model(10, 1, 1e-6, 1.0, 8)
        data = sample(model, 10000, 9)
        lam_hat, sig_hat = estimate_plugins(data, top_k=1, tail_range=(2, 10))
        assert abs(lam_hat) <= 0.15
        assert abs(sig_hat - 1.0) <= 0.1

    def test_full_tail_on_isotropic_data(self):
        model = make_model(10, 1, 1e-6, 2.0, 8)
        data = sample(model, 100_000, 10)
        _, sig_hat = estimate_plugins(data, top_k=1, tail_range=(1, 10))
        assert abs(sig_hat - 2.0) <= 0.1

    def test_no_subtract_mirrors_raw_average(self):
        model = make_model(12, 1, 6.0, 1.0, 3)
        data = sample(model, 5000, 4)
        lam_sub, sig = estimate_plugins(data, 1, (3, 12))
        lam_raw, _ = estimate_plugins(data, 1, (3, 12), subtract_sigma=False)
        assert lam_raw == pytest.approx(lam_sub + sig, rel=1e-12)

    def test_degenerate_tail_rejected(self):
        u = np.zeros((5, 1))
        u[0, 0] = 1.0
        coeffs = np.random.default_rng(0).standard_normal((1, 60))
        data = Dataset(u @ coeffs)  # rank one: eigenvalues 2..5 are zero
        with pytest.raises(ValueError, match="degenerate"):
            estimate_plugins(data, 1, (3, 5))

    def test_tail_validation(self):
        model = make_model(6, 1, 4.0, 1.0, 2)
        data = sample(model, 50, 3)
        with pytest.raises(ValueError):
            estimate_plugins(data, 1, (0, 5))
        with pytest.raises(ValueError):
            estimate_plugins(data, 1, (4, 8))
        with pytest.raises(ValueError):
            estimate_plugins(data, 9, (2, 5))


class TestRealdata:
    def _standin_matrix(self, p=30, n=60, r=3, seed=0):
        model = make_model(p, r, [400.0, 300.0, 200.0][:r], 1.0, seed)
        return sample(model, n, seed + 1).samples

    def test_runs_and_reports_all_methods(self):
        x = self._standin_matrix()
        spec = RealdataSpec(client_sizes=(40, 20), rank_r=3, seed=5, tail_range=(10, 30))
        report = run_realdata(x, spec)
        assert [row["method"] for row in report] == ["fedspike", "equal", "oja"]
        assert all(0.0 <= row["explained_variance"] <= 1.0 for row in report)

    def test_deterministic(self):
        x = self._standin_matrix(seed=3)
        spec = RealdataSpec(client_sizes=(40, 20), rank_r=3, seed=9, tail_range=(10, 30))
        a = run_realdata(x, spec)
        b = run_realdata(x, spec)
        assert a == b

    def test_full_rank_explains_everything(self):
        x = self._standin_matrix(p=6, n=30, r=2, seed=4)
        spec = RealdataSpec(
            client_sizes=(20, 10), rank_r=6, epsilon=5.0, seed=2, top_k=1, tail_range=(4, 6),
            methods=("fedspike",),
        )
        report = run_realdata(x, spec)
        assert report[0]["explained_variance"] == pytest.approx(1.0, abs=1e-9)

    def test_split_larger_than_matrix_rejected(self):
        x = self._standin_matrix(p=10, n=20, r=2, seed=6)
        spec = RealdataSpec(client_sizes=(15, 10), rank_r=2, tail_range=(5, 10))
        with pytest.raises(ValueError, match="splits"):
            run_realdata(x, spec)

    def test_standin_optimal_weighting_beats_equal(self):
        # 251-dim stand-in with strong rank-5 spikes, split 130/51. The
        # small client's release is noise-dominated at eps=0.4, so optimal
        # weighting should win the explained-variance comparison in well
        # over 60% of shuffles. The tail must sit inside the small client's
        # covariance rank (n=51), hence (11, 45) instead of (51, 251).
        from fedspike import SpikedModel, random_orthonormal

        spikes = np.array([1.2e5, 9e4, 7e4, 5.5e4, 4e4])
        model = SpikedModel(random_orthonormal(251, 5, 777), spikes, 1.0)
        x = sample(model, 181, 778).samples
        wins = 0
        for shuffle in range(25):
            spec = RealdataSpec(
                client_sizes=(130, 51),
                rank_r=5,
                epsilon=0.4,
                delta=0.1,
                seed=9000 + shuffle,
                methods=("fedspike", "equal"),
                tail_range=(11, 45),
            )
            ev = {r["method"]: r["explained_variance"] for r in run_realdata(x, spec)}
            wins += ev["fedspike"] >= ev["equal"]
        assert wins >= 15  # 60% of 25

    def test_paper_tail_fails_loud_on_rank_deficient_client(self):
        # With n=51 < p=251 the (51, 251) tail is identically zero for the
        # small client; the estimator must refuse rather than return 0.
        from fedspike import SpikedModel, random_orthonormal

        model = SpikedModel(random_orthonormal(251, 5, 1), np.full(5, 1e5), 1.0)
        x = sample(model, 181, 2).samples
        spec = RealdataSpec(client_sizes=(130, 51), rank_r=5, seed=0)
        with pytest.raises(ValueError, match="degenerate"):
            run_realdata(x, spec)
