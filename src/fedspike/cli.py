"""Command-line interface: simulate, realdata, and rates subcommands."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

from .experiments import (
    SCENARIOS,
    ExperimentSpec,
    RealdataSpec,
    default_spec,
    mean_errors,
    plot_from_csv,
    run_realdata,
    run_scenario,
    write_records_csv,
)
from .model import load_dataset_csv
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
    p.add_argument("--out", default=None, help="optional CSV report path")


def _add_rates(sub):
    p = sub.add_parser("rates", help="print per-client rates and bounds as CSV")
    p.add_argument("--config", required=True, help="JSON rate configuration")


def _refuse_unknown_keys(where: str, config: dict, known: set) -> None:
    unknown = sorted(set(config) - known)
    if unknown:
        raise SystemExit(f"{where}: unknown keys: {', '.join(unknown)}")


def _cmd_simulate(args) -> int:
    overrides = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            overrides.update(json.load(fh))
        fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
        _refuse_unknown_keys("simulate config", overrides, fields)
    overrides.pop("scenario", None)  # the flag wins
    overrides["replications"] = args.reps
    overrides["base_seed"] = args.seed
    if args.methods:
        overrides["methods"] = args.methods
    # listify JSON arrays into tuples for the frozen spec
    overrides = {k: tuple(v) if isinstance(v, list) else v for k, v in overrides.items()}
    try:
        spec = default_spec(args.scenario, **overrides)
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"simulate config: {exc}")
    records = run_scenario(spec).records
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, spec.scenario)
    csv_path, svg_path = f"{stem}.csv", f"{stem}.svg"
    write_records_csv(records, csv_path)
    if not args.no_svg:
        plot_from_csv(csv_path, svg_path)  # rendered from the CSV alone
    print(f"wrote {csv_path}" + ("" if args.no_svg else f" and {svg_path}"))
    means = mean_errors(records)
    for (method, sv), err in sorted(means.items()):
        print(f"{method:10s} sweep={sv:<10g} mean projection error = {err:.6f}")
    return 0


def _cmd_realdata(args) -> int:
    try:
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
        )
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"realdata: {exc}")
    try:
        data = load_dataset_csv(args.input, header=args.header)
    except OSError as exc:
        # numpy's own not-found error names the path and has no strerror.
        raise SystemExit(f"realdata: cannot read {args.input}: {exc.strerror or 'no such file'}")
    except ValueError as exc:
        hint = "" if args.header else "; if its first row is a header, pass --header"
        raise SystemExit(f"realdata: cannot read {args.input}: {exc}{hint}")
    report = run_realdata(data.samples, spec)
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
    where = "rate config"
    try:
        _refuse_unknown_keys(where, cfg, {"p", "r", "lambda", "sigma2", "clients"})
        shared = (cfg["p"], cfg["r"], cfg["lambda"], cfg["sigma2"])
        if not cfg["clients"]:
            raise ValueError("clients: must list at least one client")
        clients = []
        for j, c in enumerate(cfg["clients"]):
            where = f"rate config client {j}"
            _refuse_unknown_keys(where, c, {"n", "epsilon", "delta"})
            clients.append(RateInputs(c["n"], c["epsilon"], c["delta"], *shared))
    except KeyError as exc:
        raise SystemExit(f"{where} is missing a required field: {exc}")
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"{where}: {exc}")
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
    commands = {"simulate": _cmd_simulate, "realdata": _cmd_realdata, "rates": _cmd_rates}
    return commands[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
