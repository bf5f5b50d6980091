#!/usr/bin/env python3
"""The fedspike benchmark: one workload per process, metrics as JSON.

One run (from the root of a checkout):

    python3 perfbench/run.py --workload session_tcp --seed 3 --seconds 40 --trace 0

measures the workload's ops for ``--seconds`` and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the ``end_to_end`` ones of ``BENCHMARK.json``; with ``--trace 1``
untraced and traced ops alternate through the run, and
the metrics are the ``per_layer`` ones (see ``tracer.py``). Every run also
writes its full record (environment, per-op times, checks) under
``.perfbench/``.

    python3 perfbench/run.py --suite A.json --runs 10 [--trace 0|1]
    python3 perfbench/run.py --compare A.json B.json

``--suite`` runs every workload on seeds 0 .. runs-1 and writes
the records to a result file; ``--compare`` reads two result files and gives
a verdict per (workload, end-to-end metric). See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 0
SETUP_PROBES = 9
P90_MIN_OPS = 100
# Bounds of the recorded metrics that BENCHMARK.json cannot carry (they are
# not defined on every workload or are zero); all are lower-is-better, and
# the counts (bound 0) must not move at all.
EXTRA_BOUNDS = {"op_s.p90": 0.25, "wire_kb_per_op": 0.0, "failed_frac": 0.0}


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import fedspike from this checkout's ``src``, or exit without a result."""
    src = ROOT / "src"
    if not (src / "fedspike" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fedspike sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import fedspike

    if src.resolve() not in Path(fedspike.__file__).resolve().parents:
        sys.exit(f"perfbench: imported fedspike from {fedspike.__file__}, not from {src}")
    return fedspike


# -- environment -------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked through its C API."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(fedspike) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fedspike").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "numba_imports": numba_imports,
        "fedspike_using_numba": fedspike.using_numba(),
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


# -- measuring ---------------------------------------------------------------


@dataclass
class Measurement:
    op_s: list = field(default_factory=list)
    traced_op_s: list = field(default_factory=list)
    wire_bytes: int | None = None  # the first op's
    failures: list = field(default_factory=list)
    attempted: int = 0
    reference_checked: int = 0
    crosschecked: bool = False
    setup_s: list = field(default_factory=list)


def _match_reference(summary: list, expected: list, tol: dict) -> None:
    from workloads import CheckError

    if len(summary) != len(expected):
        raise CheckError(f"summary has {len(summary)} values, reference {len(expected)}")
    for k, (got, want) in enumerate(zip(summary, expected)):
        if (got is None) != (want is None) or (
            got is not None and not math.isclose(got, want, rel_tol=tol["rtol"], abs_tol=tol["atol"])
        ):
            raise CheckError(f"output value {k} is {got!r}, reference {want!r}")


def measure(wl, seed, seconds, tracer=None, max_ops=None, reference=None,
            setup_probe=None) -> Measurement:
    """Closed loop: fresh inputs, timed op, output checks, until ``seconds`` pass.

    The next op starts only if the median op cycle still fits in the time
    left, so the ops of a run take close to ``seconds`` however long each is. With a
    ``tracer``, every second op runs traced: the tracer is installed just
    before the op and removed after it, outside the timer. Traced and
    untraced ops then alternate through the same drift of the host's speed.
    ``setup_probe`` is called ``SETUP_PROBES`` times, spread evenly over the
    run between ops, so that set-up time samples the same stretch of the
    host's speed as the ops do. The probes' own time does not count towards
    ``seconds``, so the ops get the same time however long set-up takes.
    """
    res = Measurement()
    cycles: list[float] = []
    start = time.perf_counter()
    probing = 0.0  # time spent in setup_probe

    def ops_time() -> float:
        return time.perf_counter() - start - probing

    while max_ops is None or res.attempted < max_ops:
        if cycles and ops_time() + statistics.median(cycles) > seconds:
            break
        i, c0 = res.attempted, time.perf_counter()
        res.attempted += 1
        traced = tracer is not None and i % 2 == 1
        try:
            inp = wl.inputs(seed, i)
            if traced:
                tracer.install()
            try:
                with tracer.op(i) if traced else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    out = wl.run(inp)
                    elapsed = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
            summary = wl.check(inp, out)
            if reference is not None and i < len(reference["ops"]):
                _match_reference(summary, reference["ops"][i], reference["tolerance"])
                res.reference_checked += 1
            if wl.crosscheck and not res.crosschecked:
                wl.crosscheck(inp, out)
                res.crosschecked = True
            if res.wire_bytes is None:
                res.wire_bytes = wl.wire_bytes(inp, out)
        except Exception as exc:  # every failed op is counted and reported, never fatal
            res.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        else:
            (res.traced_op_s if traced else res.op_s).append(elapsed)
        cycles.append(time.perf_counter() - c0)
        while setup_probe and len(res.setup_s) < SETUP_PROBES and (
            ops_time() >= len(res.setup_s) * seconds / SETUP_PROBES
        ):
            p0 = time.perf_counter()
            res.setup_s.append(setup_probe())
            probing += time.perf_counter() - p0
    while setup_probe and len(res.setup_s) < SETUP_PROBES:
        res.setup_s.append(setup_probe())
    return res


def warm_up(name: str, seed: int, tiny: bool) -> None:
    """One warm-up op: pays the lazy first-call costs (imports, BLAS, first
    touch of full-size arrays) before timing. Its inputs are no op's inputs."""
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    wl = cls("tiny" if tiny else cls.warm_size)
    inp = wl.inputs(seed, -1)
    wl.check(inp, wl.run(inp))


def setup_probe(name: str, seed: int, tiny: bool) -> float:
    """Set-up time of a fresh process: interpreter start, import, warm-up, op-0 inputs."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", name, "--seed", str(seed)]
    t0 = time.time()
    proc = subprocess.run(cmd + ["--tiny"] * tiny, capture_output=True, text=True,
                          timeout=170, cwd=ROOT, check=True)
    return float(proc.stdout.split()[-1]) - t0


def _load_reference(name: str, seed: int, tiny: bool):
    path = HERE / "reference.json"
    if tiny or seed != DEFAULT_SEED or not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    return {"tolerance": ref["tolerance"], "ops": ref["workloads"].get(name, [])}


def end_to_end(res: Measurement, peak_rss_mb: float) -> dict:
    """Every end-to-end value this run defines; p90 and wire only where they exist."""
    values = {
        "op_s.p50": statistics.median(res.op_s),
        "ops_per_s": len(res.op_s) / sum(res.op_s),
        "setup_s": statistics.median(res.setup_s),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": len(res.failures) / res.attempted,
    }
    if len(res.op_s) >= P90_MIN_OPS:
        values["op_s.p90"] = statistics.quantiles(res.op_s, n=10)[-1]
    if res.wire_bytes is not None:  # a count that repeats exactly at one seed
        values["wire_kb_per_op"] = res.wire_bytes / 1000.0
    return values


def layer_value(metric: str, totals: dict, overhead: float) -> float:
    """One per-op layer value, named as in BENCHMARK.json; 0 where the layer is not reached."""
    if metric == "trace.overhead_ratio":
        return overhead
    layer, stat = metric.rsplit(".", 1)
    t = totals.get(layer, {})
    if stat == "useful_ratio":
        return t["distinct"] / t["calls"] if t.get("calls") else 0.0
    if stat == "us_per_step":
        return 1e6 * t["self_s"] / t["steps"] if t.get("steps") else 0.0
    if stat == "wait_s":  # collect's main-thread time: it only waits for frames
        stat = "self_s"
    return t.get(stat, 0.0)


def single_run(args, bench: dict) -> int:
    fedspike = import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]("tiny" if args.tiny else "full")
    warm_up(args.workload, args.seed, args.tiny)
    if args.setup_probe:
        wl.inputs(args.seed, 0)
        print(repr(time.time()))
        return 0

    reference = _load_reference(args.workload, args.seed, args.tiny)
    max_ops = (2 if args.trace else 1) if args.tiny else None
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "env": environment(fedspike)}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        unreached = tracer.unreached()
        tracer.uninstall()
        res = measure(wl, args.seed, args.seconds, tracer, max_ops, reference)
        if not res.op_s or not res.traced_op_s:
            return _no_result(res)
        totals = tracer.layer_totals()
        overhead = statistics.median(res.traced_op_s) / statistics.median(res.op_s)
        metrics = {m["name"]: {"value": layer_value(m["name"], totals, overhead), "unit": m["unit"]}
                   for m in bench["per_layer"]}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"{args.workload}-s{args.seed}-spans.jsonl")
        record.update(untraced_op_s=res.op_s, traced_op_s=res.traced_op_s, unreached=unreached,
                      per_layer={name: m["value"] for name, m in metrics.items()})
    else:
        probe = functools.partial(setup_probe, args.workload, args.seed, args.tiny)
        res = measure(wl, args.seed, args.seconds, max_ops=max_ops, reference=reference,
                      setup_probe=probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        unreached = []
        if not res.op_s:
            return _no_result(res)
        values = end_to_end(res, peak_rss_mb)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}
        record.update(op_s=res.op_s, setup_probes_s=res.setup_s, e2e=values)

    crosschecked = wl.crosscheck is None or res.crosschecked
    result = {"correct": not res.failures and not unreached and crosschecked,
              "attempted": res.attempted, "failed": len(res.failures), "metrics": metrics}
    record.update(failures=res.failures, attempted=res.attempted,
                  ops=len(res.op_s) + len(res.traced_op_s), reference_checked=res.reference_checked,
                  crosschecked=res.crosschecked, result=result)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    _summary(record)
    print(json.dumps(result))
    return 0


def _no_result(res: Measurement) -> int:
    for failure in res.failures:
        print(failure, file=sys.stderr)
    print("perfbench: no op succeeded", file=sys.stderr)
    return 1


def _summary(record: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: {record['ops']} ops, "
          f"{record['result']['failed']} failed, {record['reference_checked']} checked against "
          f"reference.json, in-process cross-check: {record['crosschecked']}")
    for failure in record["failures"][:5]:
        print(f"  failed {failure}")
    for name, m in record["result"]["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


# -- suites and comparisons ----------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _by_workload(records: list, key: str) -> dict:
    table: dict = {}
    for rec in records:
        for name, value in rec.get(key, {}).items():
            table.setdefault(rec["workload"], {}).setdefault(name, []).append(value)
    return table


def suite(args, bench: dict) -> int:
    names = [w["name"] for w in bench["workloads"]]
    records = []
    for seed in range(args.runs):
        for name in names:
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=400)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            with open(OUT_DIR / f"{name}-s{seed}-t{args.trace}.json", encoding="utf-8") as fh:
                rec = json.load(fh)
            rec["wall_s"] = time.time() - t0
            records.append(rec)
            print(f"{name} seed={seed}: {proc.stdout.splitlines()[-1]}", flush=True)
    with open(args.suite, "w", encoding="utf-8") as fh:
        # one record per line: the per-op time lists make indented JSON long
        fh.write('{"benchmark": ' + json.dumps(bench) + ',\n"records": [\n')
        fh.write(",\n".join(json.dumps(rec) for rec in records) + "\n]}\n")
    key = "per_layer" if args.trace else "e2e"
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]} | EXTRA_BOUNDS
    print(f"\n{'workload':20s} {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for wl, metrics in _by_workload(records, key).items():
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if not bound or spread <= bound / 3 else "  > bound/3"
            print(f"{wl:20s} {name:24s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    return 0


def verdict(base: list[float], new: list[float], bound: float, lower_better: bool) -> str:
    """better / worse / unresolved for one metric, under the benchmark's bound.

    A bound of 0 marks a count: any change of its mean is resolved. Otherwise,
    while the quartile spreads of both sets are within the bound, the medians
    decide: a move by more than the bound is better or worse, and a smaller
    one is unresolved (below the benchmark's resolution). When a spread
    exceeds the bound, a change is resolved only if every new run beats, or
    trails, every base run.
    """
    sign = -1.0 if lower_better else 1.0
    if bound == 0:
        move = sign * (statistics.fmean(new) - statistics.fmean(base))
        return "unresolved" if move == 0 else "better" if move > 0 else "worse"
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    if max((b3 - b1) / bm, (n3 - n1) / nm) <= bound:
        gain = sign * (nm - bm) / bm
        return "better" if gain > bound else "worse" if gain < -bound else "unresolved"
    if all(sign * (x - y) > 0 for x in new for y in base):
        return "better"
    if all(sign * (x - y) < 0 for x in new for y in base):
        return "worse"
    return "unresolved"


def compare(paths: list[str], bench: dict) -> int:
    files = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            files.append(_by_workload(json.load(fh)["records"], "e2e"))
    base, new = files
    specs = {m["name"]: (m["bound"], m["better"] == "lower") for m in bench["end_to_end"]}
    specs |= {name: (bound, True) for name, bound in EXTRA_BOUNDS.items()}
    print(f"base: {paths[0]}\nnew:  {paths[1]}")
    print(f"{'workload':20s} {'metric':16s} {'base median [q1, q3] (n)':>34s} "
          f"{'new median [q1, q3] (n)':>34s} {'new/base':>9s} {'bound':>6s}  verdict")
    for wl in base:
        for name, (bound, lower) in specs.items():
            a, b = base[wl].get(name), new.get(wl, {}).get(name)
            if not a or not b:
                continue
            cells = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] ({len(values)})")
            ratio = f"{quartiles(b)[1] / quartiles(a)[1]:.3f}" if quartiles(a)[1] else "n/a"
            print(f"{wl:20s} {name:16s} {cells[0]:>34s} {cells[1]:>34s} {ratio:>9s} {bound:>6}  "
                  f"{verdict(a, b, bound, lower)}")
    return 0


def main(argv=None) -> int:
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, one op (two when traced) (smoke test)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--suite", metavar="OUT.json", help="run every workload --runs times")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--compare", nargs=2, metavar=("BASE.json", "NEW.json"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(args.compare, bench)
    if args.suite:
        return suite(args, bench)
    if not args.workload:
        ap.error("--workload, --suite or --compare is required")
    return single_run(args, bench)


if __name__ == "__main__":
    sys.exit(main())
