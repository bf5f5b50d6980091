import csv
import json

import numpy as np
import pytest
from conftest import make_model

from fedspike import sample
from fedspike.cli import main


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
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 8, "weights_as_printed": True}))
    argv = ["simulate", "--scenario", "privacy_utility", "--out", str(tmp_path / "run")]
    with pytest.raises(SystemExit, match="weights_as_printed"):
        main(argv + ["--config", str(cfg)])


def test_simulate_rejects_unknown_scenario(tmp_path):
    with pytest.raises(SystemExit):
        main(["simulate", "--scenario", "bogus", "--out", str(tmp_path)])


def test_realdata_reports_and_writes(tmp_path, capsys):
    model = make_model(10, 2, [300.0, 200.0], 1.0, 3)
    x = sample(model, 40, 5).samples
    path = tmp_path / "data.csv"
    np.savetxt(path, x.T, delimiter=",", fmt="%.17g")
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
