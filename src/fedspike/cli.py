"""Command-line interface: simulate, realdata, and rates subcommands."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

from .experiments import (
    SCENARIOS,
    ExperimentSpec,
    RealdataSpec,
    default_spec,
    mean_errors,
    run_realdata,
    run_scenario,
)
from .rates import RateInputs, rate_table


def _parse_methods(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_int_list(text: str) -> tuple:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _add_simulate(sub):
    p = sub.add_parser("simulate", help="run one simulation scenario")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--out", required=True, help="output directory for CSV and SVG")
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--methods", type=_parse_methods, default=None, help="comma-separated")
    p.add_argument("--config", default=None, help="JSON file of ExperimentSpec overrides")
    p.add_argument("--no-svg", action="store_true")
    p.add_argument(
        "--sensitivity-check",
        action="store_true",
        help="also report the empirical vs analytic projector sensitivity",
    )


def _add_realdata(sub):
    p = sub.add_parser("realdata", help="run the federated flow on a CSV matrix")
    p.add_argument("--input", required=True, help="CSV, one observation per row")
    p.add_argument("--clients", required=True, type=_parse_int_list, help="e.g. 130,51")
    p.add_argument("--rank", type=int, default=5)
    p.add_argument("--eps", type=float, default=0.4)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top-k", type=int, default=3)
    p.add_argument("--tail", type=_parse_int_list, default=None, help="e.g. 51,251")
    p.add_argument("--methods", type=_parse_methods, default=("fedspike", "equal", "oja"))
    p.add_argument("--header", action="store_true", help="skip a header row on read")
    p.add_argument("--no-sigma-subtract", action="store_true")
    p.add_argument("--allow-dropout", action="store_true")
    p.add_argument("--out", default=None, help="optional CSV report path")


def _add_rates(sub):
    p = sub.add_parser("rates", help="print per-client rates and bounds as CSV")
    p.add_argument("--config", required=True, help="JSON rate configuration")


def _cmd_simulate(args) -> int:
    overrides = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            overrides.update(json.load(fh))
        unknown = sorted(set(overrides) - {f.name for f in dataclasses.fields(ExperimentSpec)})
        if unknown:
            raise SystemExit(f"simulate config has unknown keys: {', '.join(unknown)}")
    overrides.pop("scenario", None)  # the flag wins
    overrides["replications"] = args.reps
    overrides["base_seed"] = args.seed
    if args.methods:
        overrides["methods"] = args.methods
    # listify JSON arrays into tuples for the frozen spec
    for key, value in list(overrides.items()):
        if isinstance(value, list):
            overrides[key] = tuple(value)
    spec = default_spec(args.scenario, **overrides)
    result = run_scenario(spec, out_dir=args.out, write_svg=not args.no_svg)
    means = mean_errors(result.records)
    print(f"wrote {result.csv_path}" + (f" and {result.svg_path}" if result.svg_path else ""))
    for (method, sv), err in sorted(means.items()):
        print(f"{method:10s} sweep={sv:<10g} mean projection error = {err:.6f}")
    if args.sensitivity_check:
        _print_sensitivity_check(spec)
    return 0


def _print_sensitivity_check(spec) -> None:
    """Empirical leave-one-out sensitivity against the analytic envelope,
    at the scenario's model and a representative client size."""
    import numpy as np

    from fedspike import SpikedModel, random_orthonormal, sensitivity_margin
    from fedspike.experiments import client_layout, sweep_values

    model = SpikedModel(
        random_orthonormal(spec.p, spec.r, spec.base_seed),
        np.full(spec.r, spec.lam),
        spec.sigma2,
    )
    layout = client_layout(spec, sweep_values(spec)[0], 0, 0)
    n = min(n_j for n_j, _, _ in layout)
    report = sensitivity_margin(model, n, spec.r, trials=10, seed=spec.base_seed)
    print(
        f"sensitivity check (n={n}): empirical={report['empirical']:.5f}, "
        f"bound={report['bound']:.5f}, ratio={report['ratio']:.3f}"
    )


def _cmd_realdata(args) -> int:
    spec = RealdataSpec(
        client_sizes=args.clients,
        rank_r=args.rank,
        epsilon=args.eps,
        delta=args.delta,
        seed=args.seed,
        top_k=args.top_k,
        tail_range=args.tail,
        subtract_sigma=not args.no_sigma_subtract,
        methods=args.methods,
        allow_dropout=args.allow_dropout,
        header=args.header,
    )
    report = run_realdata(args.input, spec)
    for row in report:
        print(f"{row['method']:10s} explained variance = {row['explained_variance']:.6f}")
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=["method", "explained_variance"])
            writer.writeheader()
            writer.writerows(report)
        print(f"wrote {args.out}")
    return 0


def _cmd_rates(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    try:
        p, r = int(cfg["p"]), int(cfg["r"])
        lam, sigma2 = float(cfg["lambda"]), float(cfg["sigma2"])
        clients = [
            RateInputs(int(c["n"]), float(c["epsilon"]), float(c["delta"]), p, r, lam, sigma2)
            for c in cfg["clients"]
        ]
    except (KeyError, TypeError) as exc:
        raise SystemExit(f"rate config is missing a required field: {exc}")
    rows = rate_table(clients)
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedspike",
        description="Federated differentially private PCA and covariance estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_realdata(sub)
    _add_rates(sub)
    args = parser.parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "realdata":
        return _cmd_realdata(args)
    return _cmd_rates(args)


if __name__ == "__main__":
    raise SystemExit(main())
