import argparse
import ast
import csv
import json
import re
from pathlib import Path

import pytest
from conftest import make_model, save_dataset_csv

from fedspike import cli, sample
from fedspike.cli import main
from fedspike.experiments import RealdataSpec, run_realdata


def test_simulate_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "simulate",
            "--scenario",
            "privacy_utility",
            "--out",
            str(out),
            "--reps",
            "1",
            "--seed",
            "4",
            "--methods",
            "fedspike,reference",
            "--config",
            str(_tiny_config(tmp_path)),
        ]
    )
    assert code == 0
    assert (out / "privacy_utility.csv").exists()
    assert (out / "privacy_utility.svg").exists()
    stdout = capsys.readouterr().out
    assert "fedspike" in stdout and "reference" in stdout


def _tiny_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 8, "m": 2, "n": 100, "eps_grid": [0.5]}))
    return cfg


def test_simulate_config_with_an_unknown_key_names_it(tmp_path):
    # weights_as_printed and oja_passes were ExperimentSpec fields once. The
    # run is kept tiny, so that a key that slips through fails the test fast.
    argv = ["simulate", "--scenario", "privacy_utility", "--out", str(tmp_path / "run")]
    argv += ["--reps", "1", "--methods", "fedspike", "--no-svg"]
    for key, value in [("weights_as_printed", True), ("oja_passes", 3)]:
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({"p": 8, "m": 2, "n": 100, "eps_grid": [0.5], key: value}))
        with pytest.raises(SystemExit, match=key):
            main(argv + ["--config", str(cfg)])
    assert not (tmp_path / "run").exists()


def test_simulate_no_svg_writes_the_csv_alone(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["simulate", "--scenario", "privacy_utility", "--out", str(out), "--reps", "1"]
    argv += ["--methods", "fedspike", "--config", str(_tiny_config(tmp_path)), "--no-svg"]
    assert main(argv) == 0
    assert sorted(path.name for path in out.iterdir()) == ["privacy_utility.csv"]
    assert capsys.readouterr().out.startswith(f"wrote {out / 'privacy_utility.csv'}\n")


_RATES = {"p": 50, "r": 1, "lambda": 10.0, "sigma2": 1.0}
_CLIENT = {"n": 1000, "epsilon": 0.5, "delta": 0.1}


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("simulate", {"r": 0}, "^simulate config: r: must be a positive integer, got 0$"),
        ("simulate", {"p": "x"}, "^simulate config: p: must be a positive integer, got 'x'$"),
        ("simulate", {"sigma2": -1}, "^simulate config: sigma2: must be finite and positive"),
        (
            "rates",
            {**_RATES, "clients": [_CLIENT, {**_CLIENT, "n": 0}]},
            "^rate config client 1: n: must be a positive integer, got 0$",
        ),
        (
            "rates",
            {**_RATES, "clients": []},
            "^rate config: clients: must list at least one client$",
        ),
        (
            "rates",
            {**_RATES, "clients": [_CLIENT, {**_CLIENT, "n": 1.9}]},
            "^rate config client 1: n: must be a positive integer, got 1.9$",
        ),
        (
            "rates",
            {**_RATES, "r": True, "clients": [_CLIENT]},
            "^rate config client 0: r: must be a positive integer, got True$",
        ),
        (
            "rates",
            {**_RATES, "clients": [{**_CLIENT, "epsilon": "0.5"}]},
            "^rate config client 0: epsilon: must be a positive number, got '0.5'$",
        ),
        (
            "rates",
            {**_RATES, "extra": 1, "clients": [_CLIENT]},
            "^rate config: unknown keys: extra$",
        ),
        (
            "rates",
            {**_RATES, "clients": [_CLIENT, {**_CLIENT, "typo": 3, "eps": 0.5}]},
            "^rate config client 1: unknown keys: eps, typo$",
        ),
    ],
)
def test_bad_input_ends_in_one_line_naming_the_field(tmp_path, command, config, message):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "run"
    if command == "simulate":
        config = {"p": 8, "m": 2, "n": 100, "eps_grid": [0.5], **config}
        argv = ["simulate", "--scenario", "privacy_utility", "--out", str(out), "--reps", "1"]
    else:
        argv = ["rates"]
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit, match=message):
        main(argv + ["--config", str(cfg)])
    assert not out.exists()


def test_simulate_rejects_unknown_scenario(tmp_path):
    with pytest.raises(SystemExit):
        main(["simulate", "--scenario", "bogus", "--out", str(tmp_path)])


def test_realdata_reports_and_writes(tmp_path, capsys):
    model = make_model(10, 2, [300.0, 200.0], 1.0, 3)
    x = sample(model, 40, 5).samples
    path = tmp_path / "data.csv"
    save_dataset_csv(x, path)
    out = tmp_path / "report.csv"
    code = main(
        [
            "realdata",
            "--input",
            str(path),
            "--clients",
            "25,15",
            "--rank",
            "2",
            "--eps",
            "0.4",
            "--delta",
            "0.1",
            "--seed",
            "7",
            "--top-k",
            "1",
            "--tail",
            "5,10",
            "--methods",
            "fedspike,equal",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "explained variance" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == ["fedspike", "equal"]
    assert all(0.0 <= float(r["explained_variance"]) <= 1.0 for r in rows)


def test_realdata_csv_input_with_header(tmp_path):
    x = sample(make_model(5, 2, [400.0, 300.0], 1.0, 8), 25, 9).samples
    path = tmp_path / "m.csv"
    lines = ["f0,f1,f2,f3,f4"]
    for col in x.T:
        lines.append(",".join(format(v, ".17g") for v in col))
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.csv"
    argv = ["realdata", "--input", str(path), "--header", "--clients", "15,10", "--rank", "2"]
    argv += ["--seed", "1", "--top-k", "1", "--tail", "3,5", "--methods", "fedspike,equal"]
    assert main(argv + ["--out", str(out)]) == 0
    spec = RealdataSpec(
        client_sizes=(15, 10), rank_r=2, seed=1, top_k=1, tail_range=(3, 5),
        methods=("fedspike", "equal"),
    )
    direct = run_realdata(x, spec)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["method"], float(r["explained_variance"])) for r in rows] == [
        (r["method"], r["explained_variance"]) for r in direct
    ]


def test_realdata_csv_with_a_header_row_read_without_the_flag_says_so(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("g0,g1\n1.0,2.0\n3.0,4.0\n")
    argv = ["realdata", "--input", str(path), "--clients", "1,1", "--rank", "1"]
    with pytest.raises(SystemExit, match=f"^realdata: cannot read {re.escape(str(path))}: ") as e:
        main(argv)
    assert str(e.value).endswith("; if its first row is a header, pass --header")
    assert "\n" not in str(e.value)


@pytest.mark.parametrize("name, why", [("missing.csv", "no such file"), ("", "Is a directory")])
def test_realdata_input_that_cannot_be_opened_ends_in_one_line_naming_it(tmp_path, name, why):
    path = tmp_path / name
    argv = ["realdata", "--input", str(path), "--clients", "1,1", "--rank", "1"]
    with pytest.raises(SystemExit, match=f"^realdata: cannot read {re.escape(str(path))}: {why}$"):
        main(argv)


def test_realdata_no_sigma_subtract_writes_the_report_run_realdata_gives(tmp_path):
    x = sample(make_model(10, 2, [300.0, 200.0], 1.0, 3), 40, 5).samples
    path = tmp_path / "data.csv"
    save_dataset_csv(x, path)
    argv = ["realdata", "--input", str(path), "--clients", "25,15", "--rank", "2", "--seed", "7"]
    argv += ["--top-k", "1", "--tail", "5,10", "--methods", "fedspike"]
    reports = {}
    for subtract, flags in ((True, []), (False, ["--no-sigma-subtract"])):
        out = tmp_path / f"report-{subtract}.csv"
        assert main(argv + flags + ["--out", str(out)]) == 0
        with open(out, newline="") as fh:
            reports[subtract] = [
                (r["method"], float(r["explained_variance"])) for r in csv.DictReader(fh)
            ]
        spec = RealdataSpec(
            client_sizes=(25, 15), rank_r=2, seed=7, top_k=1, tail_range=(5, 10),
            subtract_sigma=subtract, methods=("fedspike",),
        )
        direct = run_realdata(x, spec)
        assert reports[subtract] == [(r["method"], r["explained_variance"]) for r in direct]
    assert reports[True] != reports[False]


def test_every_cli_option_is_run_by_a_test_here():
    # Each option string must appear as a string constant in this file, so an
    # option that no test runs is seen, and either tested or deleted.
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    for add in (cli._add_simulate, cli._add_realdata, cli._add_rates):
        add(sub)
    options = {
        option
        for command in sub.choices.values()
        for action in command._actions
        for option in action.option_strings
    } - {"-h", "--help"}
    constants = {
        node.value
        for node in ast.walk(ast.parse(Path(__file__).read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert sorted(options - constants) == []


def test_rates_emits_csv(tmp_path, capsys):
    cfg = tmp_path / "rates.json"
    cfg.write_text(
        json.dumps(
            {
                "p": 50,
                "r": 1,
                "lambda": 10.0,
                "sigma2": 1.0,
                "clients": [
                    {"n": 1000, "epsilon": 0.5, "delta": 0.1},
                    {"n": 10000, "epsilon": 0.5, "delta": 0.1},
                ],
            }
        )
    )
    assert main(["rates", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["client", "n", "epsilon", "delta", "psi0_tilde", "psi1_tilde"]
    assert len(lines) == 3
    first = dict(zip(header, lines[1].split(",")))
    assert float(first["psi0_tilde"]) == pytest.approx(0.30306675233694437814, rel=1e-10)
