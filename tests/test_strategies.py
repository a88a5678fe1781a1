"""Decision-rule tests: threshold semantics, baselines, parsing."""

import math
from fractions import Fraction

import numpy as np
import pytest

from thinlab.core import (ConfigError, make_pools, new_state, run_trial,
                          simulate_max_load_counts, step)
from thinlab.strategies import (AlwaysAccept, BetaThinning, ThresholdStrategy,
                                beta_thinning, make_strategy, scaled_threshold,
                                threshold_for)
from thinlab.theory import ell


def state_with_round_counts(n, d, counts_round1):
    state = new_state(n, d)
    state.round_loads[0] = np.asarray(counts_round1, dtype=np.int64)
    return state


class TestThresholdDecide:
    def test_accept_at_cap(self):
        strat = ThresholdStrategy(3.2439)
        state = state_with_round_counts(4, 2, [3, 0, 0, 0])
        assert strat.decide(1, 0, state, None) is True

    def test_reject_above_cap(self):
        strat = ThresholdStrategy(3.2439)
        state = state_with_round_counts(4, 2, [4, 0, 0, 0])
        assert strat.decide(1, 0, state, None) is False

    def test_final_round_unconditional(self):
        strat = ThresholdStrategy(3.2439)
        state = new_state(2, 2)
        state.round_loads[1][0] = 10**6
        assert strat.decide(2, 0, state, None) is True

    def test_rejects_nonpositive_ell(self):
        with pytest.raises(ConfigError):
            ThresholdStrategy(0.0)

    def test_integerization(self):
        # acceptance at integer counts: count <= floor(ell) iff count > ell fails
        for ell_value in (0.5, 1.0, 2.7, 3.0):
            strat = ThresholdStrategy(ell_value)
            for count in range(8):
                state = state_with_round_counts(1, 2, [count])
                assert strat.decide(1, 0, state, None) == (not count > ell_value)


class TestThresholdGuarantee:
    @pytest.mark.parametrize("n,d,m,ell_value", [(5, 2, 300, 1.3), (4, 3, 400, 0.5),
                                                 (9, 3, 500, 2.2)])
    def test_cap_plus_one_and_acceptance_counts(self, n, d, m, ell_value):
        strat = ThresholdStrategy(ell_value)
        cap = strat.cap
        result, records = run_trial(n, d, m, strat, seed=17, collect_records=True)
        counts = np.zeros((d, n), dtype=np.int64)
        for rec in records:
            for i, bin_index in enumerate(rec.suggestions, start=1):
                if i == rec.chosen:
                    if i < d:
                        assert counts[i - 1][bin_index] <= cap
                    counts[i - 1][bin_index] += 1
                else:
                    assert counts[i - 1][bin_index] > cap  # rejection was forced
        for i in range(d - 1):
            assert counts[i].max() <= cap + 1
            assert result.round_load_max[i] <= cap + 1

    def test_trial_level_max_load_bound(self):
        strat = ThresholdStrategy(1.3)
        result = run_trial(6, 3, 300, strat, seed=23)
        bound = (3 - 1) * (strat.cap + 1) + result.round_load_max[-1]
        assert result.max_load <= bound


class TestAlwaysAccept:
    def test_no_rejections(self):
        res = run_trial(5, 3, 40, AlwaysAccept(), seed=1)
        assert res.rejection_counters == (40, 0, 0)
        assert res.chosen_counts == (40, 0, 0)

    def test_final_round_decide(self):
        state = new_state(2, 2)
        assert AlwaysAccept().decide(1, 0, state, None) is True


class TestBetaThinning:
    def test_requires_two_rounds(self):
        with pytest.raises(ConfigError):
            beta_thinning(0.5, d=3, cap=1)

    def test_beta_range(self):
        with pytest.raises(ConfigError):
            BetaThinning(1.0, cap=1)
        with pytest.raises(ConfigError):
            BetaThinning(-0.1, cap=1)

    def test_beta_zero_is_one_choice(self):
        base = run_trial(7, 2, 120, AlwaysAccept(), seed=44)
        thin = run_trial(7, 2, 120, BetaThinning(0.0, cap=0), seed=44)
        assert thin.histogram == base.histogram
        assert thin.rejection_counters == (120, 0)

    def test_beta_near_one_matches_threshold(self):
        # permission is granted for every ball at this seed, so the decisions
        # coincide with the pure threshold rule
        cap = 1
        thr = run_trial(6, 2, 2000, ThresholdStrategy(1.0), seed=9)
        btn = run_trial(6, 2, 2000, BetaThinning(1 - 1e-12, cap=cap), seed=9)
        assert btn.histogram == thr.histogram
        assert btn.rejection_counters == thr.rejection_counters

    def test_scripted_permissions(self):
        # first ball into bin 0; second primary 0 again: count 1 > cap 0, but
        # permission denied (u >= beta) forces acceptance
        from thinlab.core import Pool

        state = new_state(2, 2)
        pools = [Pool.replay([0, 0]), Pool.replay([1])]
        aux = Pool.replay([0.9, 0.9], float)  # both coins deny permission (beta=0.5)
        strat = BetaThinning(0.5, cap=0)
        step(state, strat, pools, aux)
        step(state, strat, pools, aux)
        assert state.loads.tolist() == [2, 0]

        state = new_state(2, 2)
        pools = [Pool.replay([0, 0]), Pool.replay([1])]
        aux = Pool.replay([0.9, 0.1], float)  # second coin grants permission
        step(state, strat, pools, aux)
        step(state, strat, pools, aux)
        assert state.loads.tolist() == [1, 1]


def exact_beta_thinning_max_dist(n, m, beta, cap):
    """Independent exact enumeration for the two-round beta-thinning rule."""
    dist = {}

    def place(ball, loads, counts1, weight):
        if ball == m:
            top = max(loads)
            dist[top] = dist.get(top, Fraction(0)) + weight
            return
        for b in range(n):
            w1 = weight * Fraction(1, n)
            if counts1[b] <= cap:
                commit_round1(ball, loads, counts1, b, w1)
            else:
                if beta < 1:
                    commit_round1(ball, loads, counts1, b, w1 * (1 - beta))
                for b2 in range(n):
                    loads2 = list(loads)
                    loads2[b2] += 1
                    place(ball + 1, loads2, counts1, w1 * beta * Fraction(1, n))

    def commit_round1(ball, loads, counts1, b, weight):
        loads2 = list(loads)
        counts2 = list(counts1)
        loads2[b] += 1
        counts2[b] += 1
        place(ball + 1, loads2, counts2, weight)

    place(0, [0] * n, [0] * n, Fraction(1))
    return dist


class TestBetaThinningLaw:
    def test_exact_enumeration_value(self):
        dist = exact_beta_thinning_max_dist(2, 2, Fraction(1, 2), cap=0)
        assert dist[2] == Fraction(3, 8)
        assert dist[1] == Fraction(5, 8)

    def test_monte_carlo_matches_enumeration(self):
        trials = 40_000
        counts = simulate_max_load_counts(2, 2, 2, BetaThinning(0.5, cap=0),
                                          trials, seed=3)
        p2 = counts.get(2, 0) / trials
        se = math.sqrt((3 / 8) * (5 / 8) / trials)
        assert abs(p2 - 3 / 8) <= 4 * se


class TestScaledThreshold:
    def test_c_one_is_identity(self):
        n, d = 100, 2
        a = run_trial(n, d, 300, threshold_for(n, d), seed=6)
        b = run_trial(n, d, 300, scaled_threshold(1.0, n, d), seed=6)
        assert a.histogram == b.histogram
        assert a.rejection_counters == b.rejection_counters

    def test_huge_c_is_one_choice(self):
        n, d = 100, 2
        a = run_trial(n, d, 300, AlwaysAccept(), seed=6)
        b = run_trial(n, d, 300, scaled_threshold(1e9, n, d), seed=6)
        assert a.histogram == b.histogram
        assert b.rejection_counters == (300, 0)

    def test_tiny_c_retry_growth(self):
        # cap 0: r_2 counts primaries into round-1-occupied bins; its mean
        # follows the exact occupancy recursion E[k_{t+1}] = E[k_t] + 1 - E[k_t]/n
        n, m, trials = 100, 50, 400
        strat = scaled_threshold(0.1, n, 2)
        assert strat.cap == 0
        expected_k = 0.0
        expected_r2 = 0.0
        for _ in range(m):
            expected_r2 += expected_k / n
            expected_k += 1 - expected_k / n
        mean_r2 = np.mean([
            run_trial(n, 2, m, strat, seed=1000 + j).rejection_counters[1]
            for j in range(trials)
        ])
        assert abs(mean_r2 - expected_r2) < 0.9  # ~4 standard errors
        assert abs(expected_r2 - m**2 / (2 * n)) / (m**2 / (2 * n)) < 0.25

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ConfigError):
            scaled_threshold(0.0, 100, 2)


class TestMakeStrategy:
    def test_known_names(self):
        assert make_strategy("always-accept", 100, 2).name == "always-accept"
        thr = make_strategy("threshold", 100, 2)
        assert thr.name == "threshold"
        assert thr.ell == pytest.approx(ell(100, 2))
        scaled = make_strategy("threshold-scaled:c=1.5", 100, 2)
        assert scaled.ell == pytest.approx(1.5 * ell(100, 2))
        btn = make_strategy("beta-thinning:beta=0.5", 100, 2)
        assert btn.beta == 0.5
        assert btn.cap == math.floor(ell(100, 2))

    def test_explicit_overrides(self):
        thr = make_strategy("threshold:ell=0.5", 2, 2)
        assert thr.cap == 0
        btn = make_strategy("beta-thinning:beta=0.25,cap=3", 100, 2)
        assert btn.cap == 3

    def test_errors(self):
        with pytest.raises(ConfigError):
            make_strategy("nope", 100, 2)
        with pytest.raises(ConfigError):
            make_strategy("beta-thinning", 100, 2)  # beta is required
        with pytest.raises(ConfigError):
            make_strategy("threshold:junk=1", 100, 2)
        with pytest.raises(ConfigError):
            make_strategy("threshold-scaled:c", 100, 2)

    def test_strategy_objects_reusable_across_trials(self):
        strat = make_strategy("threshold:ell=1.5", 10, 2)
        first = [run_trial(10, 2, 50, strat, seed=s) for s in (1, 2)]
        second = [run_trial(10, 2, 50, strat, seed=s) for s in (1, 2)]
        assert first == second
