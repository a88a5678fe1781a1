"""Oracle tests: exact enumeration against independent computations."""

import math
from fractions import Fraction

import pytest

from thinlab.core import ConfigError
from thinlab.oracle import (OracleBudgetExceeded, compare_empirical,
                            exact_distribution, multinomial_max_load_exact)
from thinlab.strategies import AlwaysAccept, BetaThinning, ThresholdStrategy

from test_strategies import exact_beta_thinning_max_dist


class TestExactDistribution:
    def test_two_bins_cap_zero(self):
        dist = exact_distribution(2, 2, 2, ThresholdStrategy(0.5))
        assert dist.masses == {1: Fraction(3, 4), 2: Fraction(1, 4)}

    def test_one_choice_two_bins(self):
        dist = exact_distribution(2, 1, 2, AlwaysAccept())
        assert dist.masses == {1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_single_bin_point_mass(self):
        dist = exact_distribution(1, 2, 3, ThresholdStrategy(0.5))
        assert dist.masses == {3: Fraction(1)}

    def test_three_bins_cap_zero(self):
        dist = exact_distribution(3, 2, 3, ThresholdStrategy(0.5))
        assert dist.masses == {1: Fraction(38, 81), 2: Fraction(14, 27),
                               3: Fraction(1, 81)}

    def test_three_bins_cap_one(self):
        dist = exact_distribution(3, 2, 3, ThresholdStrategy(1.5))
        assert dist.masses == {1: Fraction(2, 9), 2: Fraction(20, 27),
                               3: Fraction(1, 27)}

    @pytest.mark.parametrize("n,d,m,ell_value", [(2, 2, 2, 0.5), (3, 2, 3, 1.5),
                                                 (2, 3, 3, 0.5), (4, 2, 2, 0.5)])
    def test_mass_sums_to_one_exactly(self, n, d, m, ell_value):
        dist = exact_distribution(n, d, m, ThresholdStrategy(ell_value))
        assert dist.total_mass() == 1
        assert abs(float(dist.total_mass()) - 1.0) < 1e-12

    @pytest.mark.parametrize("n,d,m", [(2, 2, 3), (3, 2, 4), (3, 3, 2)])
    def test_support_bounds(self, n, d, m):
        dist = exact_distribution(n, d, m, ThresholdStrategy(0.5))
        for value in dist.masses:
            assert math.ceil(m / n) <= value <= m

    def test_matches_independent_enumerator(self):
        for cap in (0, 1, 2):
            dist = exact_distribution(3, 2, 3, ThresholdStrategy(cap + 0.5))
            indep = exact_beta_thinning_max_dist(3, 3, Fraction(1), cap)
            assert dist.masses == indep

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (4, 2), (2, 5)])
    def test_always_accept_equals_multinomial(self, n, m):
        dist = exact_distribution(n, 2, m, AlwaysAccept())
        assert dist.masses == multinomial_max_load_exact(n, m)

    def test_slack_threshold_equals_one_choice(self):
        # a cap that can never bind makes d=2 thinning identical to one-choice
        dist = exact_distribution(3, 2, 3, ThresholdStrategy(5.0))
        assert dist.masses == multinomial_max_load_exact(3, 3)

    def test_rejects_negative_ball_count(self):
        with pytest.raises(ConfigError, match="ball count"):
            exact_distribution(2, 2, -1, ThresholdStrategy(0.5))

    def test_rejects_randomized_strategy(self):
        with pytest.raises(ConfigError):
            exact_distribution(2, 2, 2, BetaThinning(0.5, cap=0))
        # a strategy that claims to be deterministic but draws is refused at its first draw
        for draw in (lambda aux: aux.next(), lambda aux: aux.take(1)):
            class ClaimsDeterministic(ThresholdStrategy):
                def decide(self, i, bin_index, state, aux):
                    draw(aux)
                    return True

            with pytest.raises(ConfigError, match="consulted randomness"):
                exact_distribution(2, 2, 2, ClaimsDeterministic(0.5))

    def test_node_budget(self):
        with pytest.raises(OracleBudgetExceeded):
            exact_distribution(3, 2, 3, ThresholdStrategy(0.5), node_budget=10)

    def test_node_budget_below_one_refused(self):
        # refused even where the walk would visit no node
        with pytest.raises(ConfigError, match="node budget must be >= 1, got 0"):
            exact_distribution(2, 2, 0, ThresholdStrategy(0.5), node_budget=0)

    def test_as_floats(self):
        dist = exact_distribution(2, 2, 2, ThresholdStrategy(0.5))
        assert dist.as_floats() == {1: 0.75, 2: 0.25}


class TestCompareEmpirical:
    def test_passes_on_true_distribution(self):
        dist = exact_distribution(2, 2, 2, ThresholdStrategy(0.5))
        report = compare_empirical(dist, trials=20_000, seed=5)
        assert report.passed
        assert report.max_abs_z <= 4

    def test_unbatched_path_agrees(self):
        dist = exact_distribution(2, 2, 2, ThresholdStrategy(0.5))
        report = compare_empirical(dist, trials=2_000, seed=5, batched=False)
        assert report.passed

    def test_point_mass_must_match_exactly(self):
        dist = exact_distribution(1, 2, 3, ThresholdStrategy(0.5))
        report = compare_empirical(dist, trials=1_000, seed=1)
        assert report.passed
        assert report.atoms[0].empirical == 1.0

    def test_detects_wrong_distribution(self):
        strat = ThresholdStrategy(0.5)
        dist = exact_distribution(2, 2, 2, strat)
        skewed = type(dist)(n=2, d=2, m=2, strategy=strat,
                            masses={1: Fraction(1, 4), 2: Fraction(3, 4)})
        report = compare_empirical(skewed, trials=20_000, seed=5)
        assert not report.passed

    def test_zero_trials_rejected(self):
        dist = exact_distribution(2, 2, 2, ThresholdStrategy(0.5))
        with pytest.raises(ConfigError):
            compare_empirical(dist, trials=0)
