"""Command-line front end: run, sweep, theory, oracle.

A JSON config file may supply any of the run/sweep options; explicit
command-line flags override file values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .core import ConfigError
from .experiments import (ExperimentConfig, emit, format_results, rho_float,
                          run_experiment, sweep)
from .oracle import DEFAULT_NODE_BUDGET, exact_distribution
from .strategies import make_strategy
from .theory import (beta_sequence, ell, lower_tail_probability,
                     predicted_bounds, predicted_max, upper_tail_probability)


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--rho", type=str, default=None, help="balls per bin (decimal string)")
    p.add_argument("--strategy", type=str, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", dest="fmt", choices=("csv", "json", "plotdata"), default=None)
    p.add_argument("--config", type=str, default=None, help="JSON config file; flags override")
    p.add_argument("--timing", action="store_true",
                   help="write measured runtime_ms (breaks byte-reproducibility)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="thinlab",
                                     description="balanced allocation under d-thinning")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--n", type=int, default=None)
    _add_run_options(run_p)

    sweep_p = sub.add_parser("sweep", help="run an experiment over an n grid")
    sweep_p.add_argument("--n-grid", type=str, default=None, help="comma-separated bin counts")
    _add_run_options(sweep_p)

    theory_p = sub.add_parser("theory", help="print predicted quantities")
    theory_p.add_argument("--n", type=int, required=True)
    theory_p.add_argument("--d", type=int, required=True)
    theory_p.add_argument("--rho", type=str, default="1")
    theory_p.add_argument("--eps", type=float, default=0.5)
    theory_p.add_argument("--format", dest="fmt", choices=("csv", "text"), default="text")

    oracle_p = sub.add_parser("oracle", help="exact max-load distribution (tiny instances)")
    oracle_p.add_argument("--n", type=int, required=True)
    oracle_p.add_argument("--d", type=int, required=True)
    oracle_p.add_argument("--m", type=int, required=True)
    oracle_p.add_argument("--strategy", type=str, required=True)
    oracle_p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    return parser


_CONFIG_KEYS = tuple(field.name for field in dataclasses.fields(ExperimentConfig))
_STRING_KEYS = ("rho", "strategy", "out", "fmt")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _file_value(key: str, name: str, value, path: str):
    """A config file's value for `key` (written `name` in the file), checked for type."""
    if key == "n_grid":
        ok, kind = isinstance(value, list) and all(map(_is_int, value)), "a list of integers"
    elif key in _STRING_KEYS:
        ok, kind = isinstance(value, str), "a string"
    else:
        ok, kind = _is_int(value), "an integer"
    if not ok:
        raise ConfigError(f"config key {name!r} in {path} must be {kind}, got {value!r}")
    return tuple(value) if key == "n_grid" else value


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    file_values = {}
    if getattr(args, "config", None):
        with open(args.config) as f:
            try:
                raw = json.load(f)
            except ValueError as exc:
                raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        alias = {"format": "fmt"}
        for name, value in raw.items():
            key = alias.get(name, name)
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r} in {args.config}")
            file_values[key] = _file_value(key, name, value, args.config)

    merged = {}
    for key in _CONFIG_KEYS:
        cli_value = getattr(args, key, None)
        if key == "n_grid" and isinstance(cli_value, str):
            try:
                cli_value = tuple(int(v) for v in cli_value.split(",") if v)
            except ValueError:
                raise ConfigError(f"--n-grid must list integers, got {cli_value!r}") from None
        if cli_value is not None:
            merged[key] = cli_value
        elif key in file_values:
            merged[key] = file_values[key]
    return ExperimentConfig(**merged)


def _emit_or_print(results, config: ExperimentConfig, include_runtime: bool) -> None:
    if config.out:
        emit(results, config.fmt, config.out, include_runtime=include_runtime)
        print(f"wrote {config.fmt} to {config.out}", file=sys.stderr)
    else:
        sys.stdout.write(format_results(results, config.fmt, include_runtime))


def cmd_run_or_sweep(args) -> int:
    config = _merge_config(args)
    results = run_experiment(config) if args.command == "run" else sweep(config)
    _emit_or_print(results, config, args.timing)
    return 0


def cmd_theory(args) -> int:
    if args.n > sys.float_info.max:
        raise ConfigError(f"n must be at most the largest float, got {args.n}")
    rho = rho_float(args.rho)
    l = ell(args.n, args.d)
    upper, lower = predicted_bounds(args.n, args.d, args.eps)
    betas = beta_sequence(args.n, args.d, rho).values
    rows = [
        ("n", args.n), ("d", args.d), ("rho", args.rho),
        ("ell", l), ("cap", math.floor(l)), ("d_ell", predicted_max(args.n, args.d)),
        ("eps", args.eps),
        ("upper_load", upper), ("lower_load", lower),
        ("upper_tail_rate", upper_tail_probability(args.n, args.eps)),
        ("lower_tail_rate", lower_tail_probability(args.n, args.d, args.eps)),
    ]
    rows += [(f"beta_{i + 1}", b) for i, b in enumerate(betas)]
    if args.fmt == "csv":
        print(",".join(str(k) for k, _ in rows))
        print(",".join(repr(v) if isinstance(v, float) else str(v) for _, v in rows))
    else:
        width = max(len(k) for k, _ in rows)
        for key, value in rows:
            shown = repr(value) if isinstance(value, float) else value
            print(f"{key:<{width}}  {shown}")
    return 0


def cmd_oracle(args) -> int:
    strategy = make_strategy(args.strategy, args.n, args.d)
    dist = exact_distribution(args.n, args.d, args.m, strategy, args.node_budget)
    print("maxload,probability")
    for value, mass in dist.as_floats().items():
        print(f"{value},{mass!r}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run_or_sweep, "sweep": cmd_run_or_sweep,
                "theory": cmd_theory, "oracle": cmd_oracle}
    try:
        return handlers[args.command](args)
    except (ValueError, RuntimeError) as exc:  # bad input, a node budget or a kernel build
        print(f"thinlab: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"thinlab: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
