"""Self-test of the benchmark's checks: each passes the engine's real output
and rejects a deliberately wrong one, at sizes that run in seconds.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench/test_checks.py -q
"""

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from thinlab import (AlwaysAccept, ThresholdStrategy, compare_empirical,  # noqa: E402
                     exact_distribution, make_strategy, mix_seed,
                     multinomial_max_load_exact, run_greedy_d_choice, run_trial)

N = 10 ** 4
TRIALS = 30


def trials(d, strategy, n=N, seed=77):
    return [run_trial(n, d, n, strategy, mix_seed(seed, j)) for j in range(TRIALS)]


def threshold_problems(results, d):
    """Every check the benchmark applies to a threshold run."""
    cap = checks.cap_for(N, d)
    out = checks.check_law(results, checks.thinning_law(N, d, 1.0, cap), N)
    for r in results:
        out += checks.check_trial(r, N, d, N, cap=cap)
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_threshold_checks_pass_the_engine(d):
    assert threshold_problems(trials(d, make_strategy("threshold", N, d)), d) == []


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("shift", [-1, 1])
def test_threshold_checks_reject_a_cap_off_by_one(d, shift):
    wrong = ThresholdStrategy(checks.cap_for(N, d) + shift + 0.5)
    assert threshold_problems(trials(d, wrong), d)


def test_checks_reject_a_max_load_shifted_by_one():
    results = trials(2, make_strategy("threshold", N, 2))
    shifted = [replace(r, max_load=r.max_load + 1) for r in results]
    assert all(checks.check_trial(r, N, 2, N) for r in shifted)
    law = checks.thinning_law(N, 2, 1.0, checks.cap_for(N, 2))
    assert checks.check_law(results, law, N) == []
    assert checks.check_law(shifted, law, N)


def test_beta_thinning_law_tells_the_coin_apart():
    cap = checks.cap_for(N, 2)
    law = checks.thinning_law(N, 2, 1.0, cap, beta=0.5)
    assert checks.check_law(trials(2, make_strategy("beta-thinning:beta=0.5", N, 2)), law, N) == []
    assert checks.check_law(trials(2, ThresholdStrategy(cap + 0.5)), law, N)


def test_one_choice_and_greedy_histograms():
    n = 10 ** 5
    fluid = checks.greedy_fluid_limit(2, 1.0)
    greedy = run_greedy_d_choice(n, 2, n, 5)
    one = run_trial(n, 1, n, AlwaysAccept(), 5)
    assert checks.check_greedy_histogram(greedy, n, fluid) == []
    assert checks.check_one_choice_histogram(one, n, n) == []
    assert checks.check_greedy_histogram(one, n, fluid)
    assert checks.check_one_choice_histogram(greedy, n, n)
    one_law = checks.thinning_law(n, 1, 1.0, 0)
    assert checks.check_law([run_trial(n, 1, n, AlwaysAccept(), mix_seed(6, j))
                             for j in range(TRIALS)], one_law, n) == []


def test_oracle_checks():
    dist = exact_distribution(3, 2, 3, ThresholdStrategy(1.5))
    assert checks.check_exact_masses(dist.masses) == []
    assert checks.check_exact_masses({k: v / 2 for k, v in dist.masses.items()})
    one = exact_distribution(3, 1, 4, AlwaysAccept())
    reference = multinomial_max_load_exact(3, 4)
    assert checks.check_exact_masses(one.masses, reference) == []
    assert checks.check_exact_masses({k + 1: v for k, v in one.masses.items()}, reference)

    trials_ = 20000
    report = compare_empirical(dist, trials_, seed=3)
    counts = {a.value: round(a.empirical * trials_) for a in report.atoms if a.empirical}
    assert checks.check_empirical(dist.masses, counts, trials_) == []
    shifted = {v + 1: c for v, c in counts.items()}
    assert checks.check_empirical(dist.masses, shifted, trials_)
    assert checks.binomial_tail(0, 100, 0.5) < 1e-20
    assert checks.binomial_tail(50, 100, 0.5) == pytest.approx(1.0)
    assert sum(dist.masses.values(), Fraction(0)) == 1
