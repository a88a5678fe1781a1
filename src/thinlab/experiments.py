"""Experiment harness: config, parallel trials, aggregation, file output.

Reproducibility rules: trial j of an experiment runs with the seed
mix_seed(base_seed, j), so results are independent of scheduling; the
aggregate is a pure function of the ordered trial list; and emitted files
are byte-stable for identical configs.  Wall-clock timing is therefore kept
out of emitted files unless explicitly requested (the runtime_ms column is
written as 0 in the default stable mode).
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction

from .core import (ConfigError, TrialResult, check_sizes, mix_seed, require_memory,
                   run_trial, trial_int64s)
from .strategies import make_strategy
from .theory import beta_sequence, ell


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: n bins (or a grid), floor(rho*n) balls, many trials."""

    n: int | None = None
    d: int = 2
    rho: str = "1"
    strategy: str = "threshold"
    trials: int = 1
    seed: int = 0
    threads: int = 1
    n_grid: tuple[int, ...] = ()
    out: str | None = None
    fmt: str = "csv"

    def validated(self) -> "ExperimentConfig":
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.fmt not in ("csv", "json", "plotdata"):
            raise ConfigError(f"unknown output format {self.fmt!r}")
        return self


def parse_rho(rho: str) -> Fraction:
    """The exact rho of a decimal or fraction string; refuses one that is not positive."""
    try:
        frac = Fraction(rho)
    except (ValueError, ZeroDivisionError):  # "1/0" parses, then divides by zero
        raise ConfigError(f"rho must be a positive decimal or fraction, got {rho!r}") from None
    if frac <= 0:
        raise ConfigError(f"rho must be positive, got {rho}")
    return frac


def rho_float(rho: str) -> float:
    """rho as a float; refuses one that rounds to 0 or past the largest float."""
    frac = parse_rho(rho)
    if frac > sys.float_info.max or float(frac) == 0:
        raise ConfigError(f"rho must be a positive number within a float's range, got {rho!r}")
    return float(frac)


def balls_from_rho(rho: str, n: int) -> int:
    """floor(rho*n) in exact integer arithmetic from the decimal rho string."""
    frac = parse_rho(rho)
    return (frac.numerator * n) // frac.denominator


@dataclass(frozen=True)
class AggregateResult:
    """Per-config summary over all trials.

    r_means holds the mean rejection counters for rounds 2..d (round 1 is
    always the ball count).  runtime_ms is wall-clock metadata, excluded
    from equality.
    """

    n: int
    d: int
    rho: str
    m: int
    strategy: str
    trials: int
    seed: int
    maxload_mean: float
    maxload_min: int
    maxload_p50: int
    maxload_p95: int
    maxload_p99: int
    maxload_max: int
    ell: float
    ratio_to_dell: float
    r_means: tuple[float, ...]
    phi_mean: float
    psi_mean: float
    frac_r_le_beta: float
    runtime_ms: float = field(compare=False, default=0.0)

    def to_dict(self, include_runtime: bool = False) -> dict:
        """Every field in declaration order; runtime_ms is 0.0 unless included."""
        out = dict(vars(self), r_means=list(self.r_means))
        if not include_runtime:
            out["runtime_ms"] = 0.0
        return out


def nearest_rank(sorted_values, pct: float):
    """Nearest-rank percentile: the ceil(pct/100 * N)-th smallest value."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def aggregate(trial_results: list[TrialResult], config: ExperimentConfig,
              m: int, runtime_ms: float = 0.0) -> AggregateResult:
    maxes = sorted(r.max_load for r in trial_results)
    trials = len(trial_results)
    d = config.d
    n = config.n

    if n >= 3:
        l = ell(n, d)
        ratio = (sum(maxes) / trials) / (d * l) if m else 0.0
        betas = beta_sequence(n, d, rho_float(config.rho)).values
        ok = sum(
            1 for r in trial_results
            if all(r.rejection_counters[i] <= betas[i] for i in range(1, d))
        )
        frac_r_le_beta = ok / trials
    else:
        l = math.nan
        ratio = math.nan
        frac_r_le_beta = math.nan

    r_means = tuple(
        sum(r.rejection_counters[i] for r in trial_results) / trials
        for i in range(1, d)
    )
    return AggregateResult(
        n=n, d=d, rho=config.rho, m=m, strategy=config.strategy,
        trials=trials, seed=config.seed,
        maxload_mean=sum(maxes) / trials,
        maxload_min=maxes[0],
        maxload_p50=nearest_rank(maxes, 50),
        maxload_p95=nearest_rank(maxes, 95),
        maxload_p99=nearest_rank(maxes, 99),
        maxload_max=maxes[-1],
        ell=l,
        ratio_to_dell=ratio,
        r_means=r_means,
        phi_mean=sum(r.phi for r in trial_results) / trials,
        psi_mean=sum(r.psi for r in trial_results) / trials,
        frac_r_le_beta=frac_r_le_beta,
        runtime_ms=runtime_ms,
    )


def run_experiment(config: ExperimentConfig, keep_trials: bool = False):
    """Run all trials of one config; deterministic in the config alone."""
    config = config.validated()
    if config.n is None:
        raise ConfigError("run_experiment needs a single n (use sweep for grids)")
    m = balls_from_rho(config.rho, config.n)
    check_sizes(config.n, config.d, m)
    rho_float(config.rho)  # the aggregate's beta sequence takes rho as a float
    strategy = make_strategy(config.strategy, config.n, config.d)
    concurrent = min(config.threads, config.trials)
    require_memory(concurrent * trial_int64s(config.n, config.d),
                   f"an experiment with n={config.n}, d={config.d}, m={m} "
                   f"on {concurrent} thread(s)")
    start = time.perf_counter()

    def one(trial_index: int) -> TrialResult:
        return run_trial(config.n, config.d, m, strategy,
                         mix_seed(config.seed, trial_index))

    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        results = list(pool.map(one, range(config.trials)))

    runtime_ms = (time.perf_counter() - start) * 1e3
    agg = aggregate(results, config, m, runtime_ms)
    if keep_trials:
        return agg, results
    return agg


def sweep(config: ExperimentConfig) -> list[AggregateResult]:
    """One aggregate per n in the grid (each with its ratio-to-d*ell column)."""
    config = config.validated()
    if not config.n_grid:
        raise ConfigError("sweep needs a non-empty n grid")
    if any(n < 3 for n in config.n_grid):
        raise ConfigError("sweep grid values must be >= 3 (the d*ell overlay "
                          "needs ln ln n > 0)")
    out = []
    for n in config.n_grid:
        out.append(run_experiment(replace(config, n=n, n_grid=())))
    return out


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


_CSV_HEADS = {"phi_mean": "phi", "psi_mean": "psi"}


def csv_header(d: int) -> list[str]:
    """AggregateResult's field names in order, as the csv heads them.

    r_means spreads over r2_mean..rd_mean, and `_CSV_HEADS` shortens the
    phi and psi means.
    """
    head = []
    for f in fields(AggregateResult):
        if f.name == "r_means":
            head += [f"r{i}_mean" for i in range(2, d + 1)]
        else:
            head.append(_CSV_HEADS.get(f.name, f.name))
    return head


def _csv_row(r: AggregateResult, include_runtime: bool) -> list[str]:
    row = []
    for name, value in r.to_dict(include_runtime).items():
        row += value if name == "r_means" else [value]
    return [_format_value(v) for v in row]


def format_results(results, fmt: str, include_runtime: bool = False) -> str:
    """Render aggregates as csv, json or plotdata text; depends only on inputs.

    Wall-clock runtime is suppressed (written as 0) unless include_runtime
    is set, so identical configs always reproduce identical text.
    """
    if isinstance(results, AggregateResult):
        results = [results]
    if not results:
        raise ConfigError("output needs at least one result")
    if fmt == "csv":
        d = results[0].d
        if any(r.d != d for r in results):
            raise ConfigError("csv output needs a single d across rows")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header(d))
        writer.writerows(_csv_row(r, include_runtime) for r in results)
        return buf.getvalue()
    if fmt == "json":
        payload = [r.to_dict(include_runtime) for r in results]
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "plotdata":
        return "# n maxload_mean d_ell\n" + "".join(
            f"{r.n} {_format_value(r.maxload_mean)} {_format_value(r.d * r.ell)}\n"
            for r in results)
    raise ConfigError(f"unknown output format {fmt!r}")


def emit(results, fmt: str, path, include_runtime: bool = False) -> None:
    """Write `format_results(results, fmt, include_runtime)` to path."""
    text = format_results(results, fmt, include_runtime)
    try:
        with open(path, "w", newline="") as f:
            f.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {fmt} output to {path}: {exc}") from exc
