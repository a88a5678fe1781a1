"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines inline.  Every criterion must pass.

Criterion 2 checks the threshold strategy at n = 10**6 against the finite-n
law it obeys there, computed by a Poissonized recursion that does not use
the engine (`threshold_recursion` below).  The paper's (d +- o(1))*ell is
asymptotic: at this n its lower edge (d-0.75)*ell is no promise (the
measured d=3 mean max load is 5.10, the recursion predicts 5.15, the floor
is 5.64), so only the upper edge (d+0.75)*ell is kept from it.
"""

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from thinlab.core import mix_seed, run_greedy_d_choice, run_trial
from thinlab.experiments import ExperimentConfig, emit, run_experiment
from thinlab.oracle import compare_empirical, exact_distribution
from thinlab.strategies import AlwaysAccept, ThresholdStrategy, make_strategy
from thinlab.theory import beta_sequence, ell, real_factorial

from paper_lemmas import ell_relation, lower_bound_sequences, poissonization_bound_check

CRIT2_SEED = 1009


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nCRITERION {criterion}: {status} — {detail}")


def crit2_config(d: int) -> ExperimentConfig:
    return ExperimentConfig(n=10**6, d=d, rho="1", strategy="threshold",
                            trials=50, seed=CRIT2_SEED, threads=8)


@pytest.fixture(scope="module")
def crit2_d2():
    start = time.perf_counter()
    agg, trials = run_experiment(crit2_config(2), keep_trials=True)
    return agg, trials, time.perf_counter() - start


@pytest.fixture(scope="module")
def crit2_d3():
    start = time.perf_counter()
    agg, trials = run_experiment(crit2_config(3), keep_trials=True)
    return agg, trials, time.perf_counter() - start


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    instances = [
        (2, 2, 2, ThresholdStrategy(0.5)),   # floor(ell) = 0
        (3, 2, 3, ThresholdStrategy(0.5)),   # floor(ell) = 0
        (3, 2, 3, ThresholdStrategy(1.5)),   # floor(ell) = 1
        (2, 1, 2, AlwaysAccept()),
    ]
    worst_z = 0.0
    for n, d, m, strategy in instances:
        dist = exact_distribution(n, d, m, strategy)
        assert abs(float(dist.total_mass()) - 1.0) < 1e-12
        result = compare_empirical(dist, trials=10**5, seed=101)
        worst_z = max(worst_z, result.max_abs_z)
        assert result.passed, f"instance (n={n}, d={d}, m={m}): max |z| = {result.max_abs_z:.2f}"
    elapsed = time.perf_counter() - start
    passed = elapsed < 10.0
    report(1, passed, f"4 instances, worst |z| = {worst_z:.2f}, {elapsed:.1f}s (< 10s)")
    assert passed, f"criterion 1 took {elapsed:.1f}s, budget is 10s"


# Pois(lambda) mass beyond this many terms is below 1e-80 for lambda <= 1.
POISSON_TERMS = 60
# Model allowances on top of the 4-standard-error sampling term.  They were
# fixed from engine runs on seeds other than CRIT2_SEED (n = 10**4, 10**5,
# 10**6 with 2000, 500, 200 trials; d = 2, 3), whose largest deviations from
# the recursion were 0.031 ball in the mean max load and 0.10% in a mean r_i.
MAX_LOAD_ALLOWANCE = 0.05
R_RELATIVE_ALLOWANCE = 0.002


@dataclass(frozen=True)
class ThresholdLaw:
    max_mean: float
    max_sd: float
    r_means: tuple[float, ...]  # predicted r_2..r_d
    r_sds: tuple[float, ...]


def _poisson_pmf(lam: float) -> list[float]:
    return [math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
            for k in range(POISSON_TERMS)]


def _convolve(a: list[float], b: list[float]) -> list[float]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def threshold_recursion(n: int, d: int, rho: float, cap: int) -> ThresholdLaw:
    """Poissonized finite-n law of the threshold rule with round cap `cap`.

    A bin sees X_i ~ Pois(lambda_i) round-i offers, lambda_1 = rho.  A round
    i < d accepts min(X_i, cap+1) and passes lambda_{i+1} = E[(X_i-cap-1)^+]
    on; round d accepts all of X_d.  A bin's load law is the convolution over
    rounds, and with bins independent P(max <= k) = exp(n*log1p(-P(L > k))).
    r_{i+1} is a sum of n independent (X_i-cap-1)^+, which gives its mean
    n*lambda_{i+1} and its standard deviation.
    """
    lam = rho
    load = [1.0]
    r_means, r_sds = [], []
    for _ in range(d - 1):
        pmf = _poisson_pmf(lam)
        accepted = [0.0] * (cap + 2)
        for k, p in enumerate(pmf):
            accepted[min(k, cap + 1)] += p
        load = _convolve(load, accepted)
        excess = [(k - cap - 1, p) for k, p in enumerate(pmf) if k > cap + 1]
        lam = sum(y * p for y, p in excess)
        second = sum(y * y * p for y, p in excess)
        r_means.append(n * lam)
        r_sds.append(math.sqrt(n * (second - lam * lam)))
    load = _convolve(load, _poisson_pmf(lam))
    # P(max > k) for k = 0, 1, ...; the tail sums avoid 1 - cdf cancellation.
    exceed = [-math.expm1(n * math.log1p(-sum(load[k + 1:]))) for k in range(len(load))]
    mean = sum(exceed)
    second = sum((2 * k + 1) * p for k, p in enumerate(exceed))
    return ThresholdLaw(max_mean=mean, max_sd=math.sqrt(second - mean * mean),
                        r_means=tuple(r_means), r_sds=tuple(r_sds))


def test_criterion_2_desk_scale_law(crit2_d2, crit2_d3):
    agg2, _, elapsed2 = crit2_d2
    agg3, _, elapsed3 = crit2_d3
    failures = []
    for d, agg in ((2, agg2), (3, agg3)):
        l = ell(10**6, d)
        law = threshold_recursion(10**6, d, 1.0, math.floor(l))
        root_trials = math.sqrt(agg.trials)
        tol = 4.0 * law.max_sd / root_trials + MAX_LOAD_ALLOWANCE
        high = (d + 0.75) * l
        print(f"\n  d={d}: mean max load {agg.maxload_mean:.3f}, predicted "
              f"{law.max_mean:.3f} +- {tol:.3f}, upper edge {high:.3f}")
        if abs(agg.maxload_mean - law.max_mean) > tol:
            failures.append(f"d={d} mean max load {agg.maxload_mean:.3f} not within "
                            f"{tol:.3f} of predicted {law.max_mean:.3f}")
        if agg.maxload_mean > high:
            failures.append(f"d={d} mean max load {agg.maxload_mean:.3f} above "
                            f"(d+0.75)*ell = {high:.3f}")
        for i, (got, want, sd) in enumerate(zip(agg.r_means, law.r_means, law.r_sds), 2):
            r_tol = 4.0 * sd / root_trials + R_RELATIVE_ALLOWANCE * want
            print(f"  d={d}: mean r_{i} {got:.3f}, predicted {want:.3f} +- {r_tol:.3f}")
            if abs(got - want) > r_tol:
                failures.append(f"d={d} mean r_{i} {got:.3f} not within {r_tol:.3f} "
                                f"of predicted {want:.3f}")
    elapsed = elapsed2 + elapsed3
    in_time = elapsed < 120.0
    report(2, not failures and in_time,
           f"d=2 mean {agg2.maxload_mean:.3f}, d=3 mean {agg3.maxload_mean:.3f}, "
           f"{elapsed:.0f}s (< 120s)")
    assert in_time, f"criterion 2 took {elapsed:.0f}s, budget is 120s"
    assert not failures, "; ".join(failures)


def test_criterion_3_strategy_guarantee(crit2_d2, crit2_d3):
    violations = 0
    total = 0
    for d, (_, trials, _) in ((2, crit2_d2), (3, crit2_d3)):
        cap = math.floor(ell(10**6, d))
        for trial in trials:
            total += 1
            for i in range(d - 1):
                if trial.round_load_max[i] > cap + 1:
                    violations += 1
    report(3, violations == 0,
           f"0 expected cap violations, saw {violations} across {total} trials")
    assert violations == 0


def test_criterion_4_beta_sequence_event():
    n = 10**5
    agg, trials = run_experiment(
        ExperimentConfig(n=n, d=2, rho="1", strategy="threshold", trials=100,
                         seed=404, threads=8),
        keep_trials=True)
    beta2 = 2 * n / real_factorial(ell(n, 2))
    assert beta2 == pytest.approx(beta_sequence(n, 2, 1.0).values[1], rel=1e-12)
    good = sum(1 for t in trials if t.rejection_counters[1] <= beta2)
    assert agg.frac_r_le_beta == good / 100
    report(4, good >= 95, f"r_2 <= beta_2 ({beta2:.0f}) in {good}/100 trials (need >= 95)")
    assert good >= 95


def test_criterion_5_empirical_near_optimality():
    n, d, trials = 10**5, 2, 50
    l = ell(n, d)
    floor_value = (d - 0.9) * l

    def mean_max(spec: str) -> float:
        agg = run_experiment(ExperimentConfig(n=n, d=d, rho="1", strategy=spec,
                                              trials=trials, seed=505, threads=8))
        return agg.maxload_mean

    threshold_mean = mean_max("threshold")
    alternatives = ["always-accept", "beta-thinning:beta=0.5",
                    "beta-thinning:beta=0.9", "threshold-scaled:c=0.5",
                    "threshold-scaled:c=2"]
    means = {spec: mean_max(spec) for spec in alternatives}
    all_above_floor = all(m >= floor_value for m in means.values())
    none_beats = all(m >= 0.85 * threshold_mean for m in means.values())
    detail = ", ".join(f"{spec}={m:.2f}" for spec, m in means.items())
    report(5, all_above_floor and none_beats,
           f"threshold={threshold_mean:.2f}, floor={floor_value:.2f}, {detail}")
    for spec, m in means.items():
        assert m >= floor_value, f"{spec}: mean {m:.3f} below (d-0.9)*ell = {floor_value:.3f}"
        assert m >= 0.85 * threshold_mean, (
            f"{spec}: mean {m:.3f} beats threshold {threshold_mean:.3f} by more than 15%")


def test_criterion_6_theory_identities():
    start = time.perf_counter()
    grid = [(n, d, rho)
            for n in (10**5, 10**6, 10**7)
            for d in (2, 3, 4)
            for rho in (0.5, 1.0, 2.0)]
    grid += [(10**4, 2, 1.0), (10**8, 3, 1.0), (31623, 4, 0.7)]
    assert len(grid) == 30
    for n, d, rho in grid:
        seq = beta_sequence(n, d, rho)
        assert seq.values[-1] == pytest.approx(seq.closed_form_last, rel=1e-10), (n, d, rho)

    for n, d in [(16, 1), (10**4, 2), (10**6, 2), (10**6, 3), (10**9, 3), (10**12, 4)]:
        lhs, rhs = ell_relation(n, d)
        assert lhs == pytest.approx(rhs, rel=1e-10), (n, d)

    cascade_points = 0
    for d, eps in ((2, 0.5), (3, 0.5), (4, 0.25)):
        s1 = (d - eps) * ell(10**6, d)
        for k in _admissible_k_vectors(10**6, d, eps, s1):
            casc = lower_bound_sequences(10**6, d, 1.0, eps, k)
            for got, want in zip(casc.gamma, casc.gamma_closed):
                assert got == pytest.approx(want, rel=1e-10), (d, k)
            for got, want in zip(casc.theta, casc.theta_closed):
                assert got == pytest.approx(want, rel=1e-10), (d, k)
            cascade_points += 1
    elapsed = time.perf_counter() - start
    passed = elapsed < 1.0
    report(6, passed, f"30 beta points, 6 relation points, {cascade_points} cascades, "
                      f"{elapsed * 1e3:.0f}ms (< 1s)")
    assert passed, f"criterion 6 took {elapsed:.2f}s, budget is 1s"


def _admissible_k_vectors(n, d, eps, s1, limit_per_level=4):
    """Small grid of admissible k vectors (every s_i stays positive)."""
    if d == 2:
        return [(k1,) for k1 in range(1, min(math.ceil(s1), limit_per_level) + 1)]
    vectors = []

    def extend(prefix, s_current, level):
        if level == d:
            vectors.append(tuple(prefix))
            return
        for k_i in range(1, min(math.ceil(s_current), limit_per_level) + 1):
            s_next = s_current - (k_i - 1)
            if s_next > 0:
                extend(prefix + [k_i], s_next, level + 1)

    extend([], s1, 1)
    return vectors


def test_criterion_7_poissonization_direction():
    exact_multinomial = 1.0 - math.factorial(10) / 10**10
    assert exact_multinomial == pytest.approx(0.99963712, abs=1e-8)
    result = poissonization_bound_check(
        10, 1.0, lambda row: int(row.max()) >= 2, trials=10**5, seed=707)
    slack = 3.0 * (2.0 * result.se_poisson)
    ok = exact_multinomial <= 2.0 * result.p_poisson + slack
    report(7, ok and result.passed,
           f"exact multinomial {exact_multinomial:.6f} <= 2*{result.p_poisson:.6f} "
           f"+ {slack:.6f}")
    assert ok
    assert result.passed


def test_criterion_8_determinism(crit2_d2, tmp_path):
    agg_fixture, _, _ = crit2_d2
    first = tmp_path / "first.csv"
    rerun = tmp_path / "rerun.csv"
    serial = tmp_path / "serial.csv"
    emit(agg_fixture, "csv", first)

    agg_rerun = run_experiment(crit2_config(2))
    emit(agg_rerun, "csv", rerun)

    serial_config = ExperimentConfig(n=10**6, d=2, rho="1", strategy="threshold",
                                     trials=50, seed=CRIT2_SEED, threads=1)
    emit(run_experiment(serial_config), "csv", serial)

    rerun_ok = first.read_bytes() == rerun.read_bytes()
    serial_ok = first.read_bytes() == serial.read_bytes()
    report(8, rerun_ok and serial_ok,
           f"rerun bytes identical: {rerun_ok}, 8-thread vs serial identical: {serial_ok}")
    assert rerun_ok
    assert serial_ok


def test_criterion_9_baseline_separation():
    n = m = 10**6
    trials = 20
    one_choice = np.mean([
        run_trial(n, 1, m, AlwaysAccept(), mix_seed(909, j)).max_load
        for j in range(trials)
    ])
    thinning_strategy = make_strategy("threshold", n, 2)
    two_thinning = np.mean([
        run_trial(n, 2, m, thinning_strategy, mix_seed(919, j)).max_load
        for j in range(trials)
    ])
    greedy = np.mean([
        run_greedy_d_choice(n, 2, m, mix_seed(929, j)).max_load
        for j in range(trials)
    ])
    gap_one = one_choice - two_thinning
    gap_two = two_thinning - greedy
    ok = gap_one >= 1.0 and gap_two >= 1.0
    report(9, ok, f"one-choice {one_choice:.2f} > two-thinning {two_thinning:.2f} "
                  f"> greedy-2 {greedy:.2f} (gaps {gap_one:.2f}, {gap_two:.2f}, need >= 1)")
    assert gap_one >= 1.0, "one-choice vs two-thinning gap below 1 ball"
    assert gap_two >= 1.0, "two-thinning vs greedy two-choice gap below 1 ball"
