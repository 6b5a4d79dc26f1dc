"""Command-line entry point.

Commands: oracle, simulate, verify {clt|concentration|moments|stein},
zoo {list|export}.  Configs and reports are JSON, bulk replicate data is CSV
with '#'-prefixed metadata lines (gnuplot-compatible).  Exit codes: 0 pass,
1 verification failure or experiment error, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .bounds import McKeanGamma, burkholder_d
from .engine import RunConfig, simulate_replicates
from .errors import ConfigError, FkbenchError
from .flow import analyze, concentration_b, contraction_tables
from .lab import (
    clt_rate_experiment,
    concentration_experiment,
    default_eps_grid,
    lp_moment_experiment,
    stein_experiment,
)
from .model import (
    load_function,
    load_model,
    save_function,
    save_model,
    truncate,
)
from . import zoo


def _zoo_entry(name: str, raw_params: str | None) -> zoo.ZooEntry:
    """Build a zoo entry from its name and a JSON dict of builder params."""
    try:
        return zoo.build(name, **(json.loads(raw_params) if raw_params else {}))
    except (json.JSONDecodeError, TypeError) as exc:
        raise ConfigError(f"bad --zoo-params {raw_params!r} for {name!r}: {exc}") from exc


def _resolve_inputs(args):
    """Model, spec and function from --zoo or --model/--function files."""
    if args.zoo:
        entry = _zoo_entry(args.zoo, args.zoo_params)
        model, spec, f = entry.model, entry.spec, entry.f
    elif args.model:
        model, spec = load_model(args.model)
        f = None
    else:
        raise ConfigError("give either --zoo NAME or --model FILE")
    if args.function:
        f = load_function(args.function)
    if f is None:
        raise ConfigError("no test function: give --function FILE")
    horizon = args.horizon if args.horizon is not None else model.horizon
    model, spec = truncate(model, spec, horizon)
    if len(f.values) < horizon + 1:
        raise ConfigError(
            f"function defines {len(f.values)} time indices, horizon needs "
            f"{horizon + 1}"
        )
    return model, spec, f, horizon


def _config(args) -> dict:
    """The resolved command-line arguments, as reported with every output."""
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def _report_envelope(args, payload: dict) -> dict:
    return {"tool": "fkbench", "version": __version__, "config": _config(args), **payload}


def _plain(x):
    """x as plain JSON data: tuples and arrays as lists, non-finite floats as None."""
    if isinstance(x, np.ndarray):  # row by row: no second copy of a whole table
        x = list(x) if x.ndim > 1 else x.tolist()
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _emit_json(args, payload: dict) -> None:
    text = json.dumps(_plain(_report_envelope(args, payload)), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_oracle(args) -> int:
    model, spec, f, horizon = _resolve_inputs(args)
    flow = analyze(model, spec, f, terminal=horizon)
    tables = contraction_tables(model, flow.etas)
    gamma = McKeanGamma()
    payload = {
        "horizon": horizon,
        "etas": flow.etas,
        "log_gamma1": flow.log_gamma1,
        "betas": tables.betas,
        "ratios": tables.ratios,
        "delta_c": flow.deltaC,
        "sigma_sq": flow.sigma_sq,
        "b": [concentration_b(tables, q) for q in range(horizon + 1)],
        "gamma": {
            "gamma": gamma.gamma,
            "gamma_prime": gamma.gamma_prime,
            "combined": gamma.combined,
            "tilde": gamma.tilde,
        },
        "burkholder_d": {p: burkholder_d(p) for p in range(1, 9)},
    }
    _emit_json(args, payload)
    return 0


def cmd_simulate(args) -> int:
    model, spec, f, horizon = _resolve_inputs(args)
    config = RunConfig(n_particles=args.N, seed=args.seed, horizon=horizon)
    stats = simulate_replicates(config, model, spec, f, args.reps)
    lines = [
        f"# tool = fkbench {__version__}",
        f"# seed = {args.seed}",
        f"# config = {json.dumps(_config(args))}",
    ]
    header = ["replicate_id", "N", "n", "W", "L_terminal", "C_N"]
    columns = [stats.w, stats.l_terminal, stats.c_total]
    if args.check_doob:
        header += ["doob_residual"]
        columns.append(np.maximum(stats.residual_mean, stats.residual_field))
    table = np.column_stack(columns)
    if args.record_steps:
        header += [f"W_{p}" for p in range(horizon + 1)]
        header += [f"C_{p}" for p in range(horizon + 1)]
        table = np.hstack([table, stats.w_steps, stats.delta_c_steps.cumsum(axis=1)])
    rows = [
        [r, args.N, horizon, *(repr(float(x)) for x in values)]
        for r, values in enumerate(table)
    ]
    out = sys.stdout if not args.out else open(args.out, "w", encoding="utf-8", newline="")
    try:
        for line in lines:
            out.write(line + "\n")
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


def _parse_grid(raw: str, cast) -> list:
    try:
        return [cast(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid {raw!r}: {exc}") from exc


def cmd_verify(args) -> int:
    model, spec, f, horizon = _resolve_inputs(args)
    if args.which == "clt":
        n_grid = _parse_grid(args.N_grid, int) if args.N_grid else [100, 400, 1600, 6400]
        report = clt_rate_experiment(
            model, spec, f, horizon, n_grid, args.reps, args.seed
        )
    elif args.which == "concentration":
        if args.eps_grid:
            eps_grid = _parse_grid(args.eps_grid, float)
        else:
            eps_grid = default_eps_grid(args.N, max(f.oscillation(horizon), 1e-9))
        report = concentration_experiment(
            model, spec, f, horizon, args.N, eps_grid, args.reps, args.seed,
            statistic=args.statistic,
        )
    elif args.which == "moments":
        report = lp_moment_experiment(
            model, spec, f, horizon, args.N, args.p_max, args.reps, args.seed
        )
    elif args.which == "stein":
        report = stein_experiment(
            model, spec, f, horizon, args.N, args.reps, args.seed
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown verification {args.which!r}")
    _emit_json(args, asdict(report))
    return 0 if report.passed else 1


def cmd_zoo(args) -> int:
    if args.zoo_cmd == "list":
        for name in zoo.names():
            entry = zoo.build(name)
            sys.stdout.write(f"{name}: {entry.notes}\n")
        return 0
    entry = _zoo_entry(args.name, args.zoo_params)
    save_model(args.out, entry.model, entry.spec)
    if args.function_out:
        save_function(args.function_out, entry.f)
    sys.stdout.write(f"wrote {args.out}\n")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help="model JSON file")
    p.add_argument("--zoo", help="zoo entry name instead of --model")
    p.add_argument("--zoo-params", dest="zoo_params", help="JSON dict of builder params")
    p.add_argument("--function", help="test-function JSON file")
    p.add_argument("--horizon", type=int, default=None, help="truncate to this horizon")
    p.add_argument("--seed", type=int, default=7, help="master seed")
    p.add_argument("--out", help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fkbench",
        description="Exact oracles, particle simulation and rate verification "
        "for discrete weighted-flow models",
    )
    parser.add_argument("--version", action="version", version=f"fkbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="write the exact flow report")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="run replicates, write a CSV")
    _add_common(p)
    p.add_argument("--N", type=int, default=100, help="particles per replicate")
    p.add_argument("--reps", type=int, default=1, help="number of replicates")
    p.add_argument("--check-doob", action="store_true", dest="check_doob",
                   help="add the per-replicate worst decomposition residual")
    p.add_argument("--record-steps", action="store_true", dest="record_steps")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a verification experiment")
    p.add_argument("which", choices=["clt", "concentration", "moments", "stein"])
    _add_common(p)
    p.add_argument("--N", type=int, default=1000)
    p.add_argument("--N-grid", dest="N_grid", help="comma list, e.g. 100,400,1600")
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--eps-grid", dest="eps_grid", help="comma list of eps values")
    p.add_argument("--p-max", dest="p_max", type=int, default=6)
    p.add_argument("--statistic", choices=["eta", "delta_c"], default="eta")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("zoo", help="list or export canonical models")
    zsub = p.add_subparsers(dest="zoo_cmd", required=True)
    pl = zsub.add_parser("list")
    pl.set_defaults(func=cmd_zoo)
    pe = zsub.add_parser("export")
    pe.add_argument("--name", required=True)
    pe.add_argument("--zoo-params", dest="zoo_params")
    pe.add_argument("--out", required=True)
    pe.add_argument("--function-out", dest="function_out")
    pe.set_defaults(func=cmd_zoo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"fkbench: config error: {exc}\n")
        return 2
    except FkbenchError as exc:
        sys.stderr.write(f"fkbench: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
