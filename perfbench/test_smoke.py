"""Smoke test of the benchmark itself: every workload at tiny sizes, one op untraced
and, in the traced run, one op traced.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# One sim_privacy_utility op at the seed commit: 10 eps points x (fedspike,
# reference) x 10 clients. The counts do not depend on p or n, so the tiny
# op shows them too; a miss means a wrapper did not reach an importing module.
SEED_COMMIT_COUNTS = {
    "model.sample.calls": 200,
    "model.sample.useful_ratio": 0.05,
    "spectral.sample_covariance.calls": 300,
    "spectral.sample_covariance.useful_ratio": 1 / 30,
    "spectral.sym_eig.calls": 320,
    "experiments.digest.calls": 20,
}


@functools.lru_cache(maxsize=None)
def _run(workload: str, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((ROOT / ".perfbench" / f"{workload}-s0-t{trace}.json").read_text())
    return json.loads(proc.stdout.splitlines()[-1]), record


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema(workload, trace):
    result, record = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for spec in expected:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
        assert metric["value"] > 0 or trace, f"{spec['name']} is 0"
    assert record["env"]["numpy"] and record["seed"] == 0 and record["failures"] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_recorded_end_to_end_metrics(workload):
    _, record = _run(workload, 0)
    e2e = record["e2e"]
    assert {"op_s.p50", "ops_per_s", "setup_s", "peak_rss_mb", "failed_frac"} <= set(e2e)
    assert e2e["failed_frac"] == 0
    assert "op_s.p90" not in e2e  # one op is too few for a 90th percentile
    assert ("wire_kb_per_op" in e2e) == (workload == "session_tcp")


def test_seed_commit_counts():
    result, record = _run("sim_privacy_utility", 1)
    assert record["unreached"] == []
    for name, count in SEED_COMMIT_COUNTS.items():
        assert result["metrics"][name]["value"] == pytest.approx(count, rel=1e-12), name


def test_session_is_crosschecked_in_process():
    _, record = _run("session_tcp", 0)
    assert record["crosschecked"] is True


def test_compare_verdicts():
    sys.path.insert(0, str(HERE))
    from run import verdict

    # Overlapping quartile ranges ([0.895, 1.105] and [1.0425, 1.355]), both
    # spreads within the bound, and a median 30% worse: a regression.
    base = [0.85, 0.88, 0.9, 0.95, 1.0, 1.0, 1.05, 1.1, 1.12, 1.15]
    slower = [1.0, 1.02, 1.05, 1.2, 1.3, 1.3, 1.34, 1.35, 1.37, 1.4]
    assert verdict(base, slower, 0.25, lower_better=True) == "worse"
    assert verdict(base, slower, 0.25, lower_better=False) == "better"
    assert verdict(base, [1.1 * x for x in base], 0.25, lower_better=True) == "unresolved"
    assert verdict(base, [0.7 * x for x in base], 0.25, lower_better=True) == "better"
    # Spreads wider than the bound resolve only when the sets do not interleave.
    wide = [0.5, 0.7, 1.0, 1.3, 1.5]
    assert verdict(wide, [x + 0.2 for x in wide], 0.25, lower_better=True) == "unresolved"
    assert verdict(wide, [x + 1.1 for x in wide], 0.25, lower_better=True) == "worse"
    # A bound of 0 marks a count: any move is resolved.
    assert verdict([109.2] * 3, [109.3] * 3, 0.0, lower_better=True) == "worse"
    assert verdict([109.2] * 3, [109.2] * 3, 0.0, lower_better=True) == "unresolved"


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0], "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
