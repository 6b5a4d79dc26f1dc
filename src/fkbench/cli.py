"""Command-line entry point.

Commands: oracle, simulate, verify {clt|concentration|moments|stein},
zoo {list|export}.  Configs and reports are JSON, bulk replicate data is CSV
with '#'-prefixed metadata lines (gnuplot-compatible); both are written a row
at a time.  Exit codes: 0 pass, 1 verification failure or experiment error,
2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .bounds import GAMMA, GAMMA_COMBINED, GAMMA_PRIME, GAMMA_TILDE, burkholder_d
from .engine import simulate_replicates
from .errors import ConfigError, FkbenchError
from .flow import analyze, concentration_b, contraction_tables
from .lab import (
    clt_rate_experiment,
    concentration_experiment,
    lp_moment_experiment,
    stein_experiment,
)
from .model import (
    load_function,
    load_model,
    open_output,
    save_function,
    save_model,
    truncate,
    write_json,
)
from . import zoo


def _zoo_entry(name: str, raw_params: str | None) -> zoo.ZooEntry:
    """Build a zoo entry from its name and a JSON dict of builder params."""
    try:
        return zoo.build(name, **(json.loads(raw_params) if raw_params else {}))
    except (json.JSONDecodeError, TypeError) as exc:
        raise ConfigError(f"bad --zoo-params {raw_params!r} for {name!r}: {exc}") from exc


def _resolve_inputs(args):
    """Model cut to --horizon and function from --zoo or files.

    The model is valid by construction; each command's one analyze checks f.
    """
    if args.zoo:
        entry = _zoo_entry(args.zoo, args.zoo_params)
        model, f = entry.model, entry.f
    elif args.model:
        model, f = load_model(args.model), None
    else:
        raise ConfigError("give either --zoo NAME or --model FILE")
    if args.function:
        f = load_function(args.function)
    if f is None:
        raise ConfigError("no test function: give --function FILE")
    horizon = args.horizon if args.horizon is not None else model.horizon
    return truncate(model, horizon), f


def _config(args) -> dict:
    """The resolved command-line arguments, as reported with every output."""
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def _report_envelope(args, payload: dict) -> dict:
    return {"tool": "fkbench", "version": __version__, "config": _config(args), **payload}


def _emit_json(args, payload: dict) -> None:
    report = _report_envelope(args, payload)
    if args.out:
        with open_output(args.out) as fh:
            write_json(fh, report)
    else:
        write_json(sys.stdout, report)


def cmd_oracle(args) -> int:
    model, f = _resolve_inputs(args)
    horizon = model.horizon
    flow = analyze(model, f)
    tables = contraction_tables(model, flow.etas)
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
            "gamma": GAMMA,
            "gamma_prime": GAMMA_PRIME,
            "combined": GAMMA_COMBINED,
            "tilde": GAMMA_TILDE,
        },
        "burkholder_d": {p: burkholder_d(p) for p in range(1, 9)},
    }
    _emit_json(args, payload)
    return 0


def cmd_simulate(args) -> int:
    model, f = _resolve_inputs(args)
    horizon = model.horizon
    stats = simulate_replicates(analyze(model, f), args.N, args.reps, args.seed)
    lines = [
        f"# tool = fkbench {__version__}",
        f"# seed = {args.seed}",
        f"# config = {json.dumps(_config(args))}",
    ]
    header = ["replicate_id", "N", "n", "W", "L_terminal", "C_N"]
    columns = [stats.w[:, -1], stats.l[:, -1], stats.delta_c.sum(axis=1)]
    if args.check_doob:
        header += ["doob_residual"]
        columns.append(np.maximum(stats.residual_mean, stats.residual_field))
    table = np.column_stack(columns)
    if args.record_steps:
        header += [f"W_{p}" for p in range(horizon + 1)]
        header += [f"C_{p}" for p in range(horizon + 1)]
        table = np.hstack([table, stats.w, stats.delta_c.cumsum(axis=1)])
    rows = (
        [r, args.N, horizon, *map(repr, values.tolist())] for r, values in enumerate(table)
    )
    out = open_output(args.out) if args.out else sys.stdout
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


def cmd_verify(args) -> int:
    model, f = _resolve_inputs(args)
    if args.which == "clt":
        report = clt_rate_experiment(model, f, args.reps, args.seed)
    elif args.which == "concentration":
        report = concentration_experiment(
            model, f, args.N, args.reps, args.seed, statistic=args.statistic
        )
    elif args.which == "moments":
        report = lp_moment_experiment(model, f, args.N, args.reps, args.seed)
    elif args.which == "stein":
        report = stein_experiment(model, f, args.N, args.reps, args.seed)
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
    save_model(args.out, entry.model)
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
    p.add_argument("--seed", type=int, default=7, help="master seed")
    p.add_argument("--N", type=int, default=100, help="particles per replicate")
    p.add_argument("--reps", type=int, default=1, help="number of replicates")
    p.add_argument("--check-doob", action="store_true", dest="check_doob",
                   help="add the per-replicate worst decomposition residual")
    p.add_argument("--record-steps", action="store_true", dest="record_steps")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a verification experiment")
    p.add_argument("which", choices=["clt", "concentration", "moments", "stein"])
    _add_common(p)
    p.add_argument("--seed", type=int, default=7, help="master seed")
    p.add_argument("--N", type=int, default=1000)
    p.add_argument("--reps", type=int, default=2000)
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
        code = args.func(args)
        sys.stdout.flush()  # a reader that left early fails here, inside the try
        return code
    except BrokenPipeError:  # as after `| head`: drop the rest of the output quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        sys.stderr.write(f"fkbench: config error: {exc}\n")
        return 2
    except FkbenchError as exc:
        sys.stderr.write(f"fkbench: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
