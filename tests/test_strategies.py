"""Decision-rule tests: threshold semantics, baselines, parsing."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinlab.core import (ConfigError, _result_from_state, make_pools, new_state, run_trial,
                          simulate_max_load_counts, step)
from thinlab.strategies import (AlwaysAccept, BetaThinning, ThresholdStrategy,
                                make_strategy)
from thinlab.theory import ell

from test_core import reference_step_run


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
        state, records, _ = reference_step_run(n, d, m, strat, seed=17)
        result = _result_from_state(state, strat.name, 17)
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


class TestAcceptMask:
    """`accept_mask` accepts what a per-ball loop written from `RoundRule`'s docstring does."""

    @settings(deadline=None)
    @given(values=st.lists(st.integers(0, 12), max_size=80), cap=st.integers(0, 3),
           i=st.integers(1, 3), seed=st.integers(0, 2**32))
    @pytest.mark.parametrize("kind", ["threshold", "always-accept", "beta-thinning"])
    def test_mask_matches_per_ball_rule(self, kind, values, cap, i, seed):
        strat = {"threshold": ThresholdStrategy(cap + 0.5), "always-accept": AlwaysAccept(),
                 "beta-thinning": BetaThinning(0.5, cap)}[kind]
        rule, aux = strat.rule, make_pools(1, 1, seed)[1]
        # the mask is asked about rounds before the last; a coin rule binds in round 1 only
        binds = rule.beta is None or i == 1
        accepted, expected = [0] * 13, []
        for b in values:
            coin = aux.next() if binds and rule.beta is not None else None
            ok = (not binds or rule.cap is None or accepted[b] <= rule.cap
                  or (coin is not None and coin >= rule.beta))
            accepted[b] += ok
            expected.append(ok)
        mask = strat.accept_mask(i, np.asarray(values, dtype=np.int64), make_pools(1, 1, seed)[1])
        assert mask.tolist() == expected


class MaskOnly:
    """A strategy seen only through the mask protocol, as a delegating proxy sees it."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.deterministic = inner.deterministic

    def decide(self, i, bin_index, state, aux):
        return self._inner.decide(i, bin_index, state, aux)

    def accept_mask(self, i, suggestions, aux):
        return self._inner.accept_mask(i, suggestions, aux)


class TestMaskOnlyStrategy:
    """An object without a `rule` runs the compiled loop on its masks as coins, to the same bytes."""

    STRATEGIES = [ThresholdStrategy(0.5), ThresholdStrategy(1.5), AlwaysAccept(),
                  BetaThinning(0.5, 0), BetaThinning(0.9, 1)]
    IDS = ["cap0", "cap1", "always", "beta0.5-cap0", "beta0.9-cap1"]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("strat", STRATEGIES, ids=IDS)
    def test_trial_matches_bare_strategy(self, strat, d):
        for n, m, seed in ((1, 5, 1), (7, 40, 2), (500, 1500, 3), (3, 0, 4)):
            wrapped = run_trial(n, d, m, MaskOnly(strat), seed)
            assert wrapped.to_json() == run_trial(n, d, m, strat, seed).to_json()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("strat", STRATEGIES, ids=IDS)
    def test_batched_run_is_refused(self, strat, d):
        with pytest.raises(ConfigError, match=f"strategy {re.escape(repr(strat.name))} has no"):
            simulate_max_load_counts(3, d, 4, MaskOnly(strat), 300, seed=4)

    def test_mask_rejecting_first_offers(self):
        # no RoundRule rejects a bin's first offer in a round; this mask rejects all of round 2
        class SkipRoundTwo(MaskOnly):
            def decide(self, i, bin_index, state, aux):
                return i != 2 and super().decide(i, bin_index, state, aux)

            def accept_mask(self, i, suggestions, aux):
                return super().accept_mask(i, suggestions, aux) & (i != 2)

        strat = SkipRoundTwo(ThresholdStrategy(0.5))
        for n, m, seed in ((7, 40, 2), (500, 1500, 3)):
            result = run_trial(n, 3, m, strat, seed)
            state, _, _ = reference_step_run(n, 3, m, strat, seed)
            assert result == _result_from_state(state, strat.name, seed)
            assert result.rejection_counters[1] == result.rejection_counters[2] > 0

    def test_mask_rejecting_a_bins_first_primary(self):
        # this mask rejects all of round 1, yet ψ counts every bin offered as a primary
        class SkipRoundOne(MaskOnly):
            def decide(self, i, bin_index, state, aux):
                return i != 1 and super().decide(i, bin_index, state, aux)

            def accept_mask(self, i, suggestions, aux):
                return super().accept_mask(i, suggestions, aux) & (i != 1)

        strat = SkipRoundOne(ThresholdStrategy(0.5))
        for n, m, seed in ((7, 40, 2), (500, 1500, 3)):
            result = run_trial(n, 2, m, strat, seed)
            state, _, _ = reference_step_run(n, 2, m, strat, seed)
            assert result == _result_from_state(state, strat.name, seed)
            assert result.rejection_counters == (m, m) and result.psi > 0


class TestBetaThinning:
    def test_requires_two_rounds(self):
        with pytest.raises(ConfigError):
            make_strategy("beta-thinning:beta=0.5,cap=1", 100, 3)

    def test_beta_range(self):
        with pytest.raises(ConfigError):
            BetaThinning(1.0, cap=1)
        with pytest.raises(ConfigError):
            BetaThinning(-0.1, cap=1)
        with pytest.raises(ConfigError, match="cap must be >= 0"):
            BetaThinning(0.5, cap=-1)

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
        assert state.round_loads.sum(axis=0).tolist() == [2, 0]

        state = new_state(2, 2)
        pools = [Pool.replay([0, 0]), Pool.replay([1])]
        aux = Pool.replay([0.9, 0.1], float)  # second coin grants permission
        step(state, strat, pools, aux)
        step(state, strat, pools, aux)
        assert state.round_loads.sum(axis=0).tolist() == [1, 1]


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
        a = run_trial(n, d, 300, make_strategy("threshold", n, d), seed=6)
        b = run_trial(n, d, 300, make_strategy("threshold-scaled:c=1.0", n, d), seed=6)
        assert a.histogram == b.histogram
        assert a.rejection_counters == b.rejection_counters

    def test_huge_c_is_one_choice(self):
        n, d = 100, 2
        a = run_trial(n, d, 300, AlwaysAccept(), seed=6)
        b = run_trial(n, d, 300, make_strategy("threshold-scaled:c=1e9", n, d), seed=6)
        assert a.histogram == b.histogram
        assert b.rejection_counters == (300, 0)

    def test_tiny_c_retry_growth(self):
        # cap 0: r_2 counts primaries into round-1-occupied bins; its mean
        # follows the exact occupancy recursion E[k_{t+1}] = E[k_t] + 1 - E[k_t]/n
        n, m, trials = 100, 50, 400
        strat = make_strategy("threshold-scaled:c=0.1", n, 2)
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
            make_strategy("threshold-scaled:c=0.0", 100, 2)


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

    @pytest.mark.parametrize("spec,key,what", [
        ("beta-thinning:beta=0.5,cap=1.5", "cap", "an integer"),
        ("threshold:ell=abc", "ell", "a number"),
        ("threshold-scaled:c=x", "c", "a number"),
        ("beta-thinning:beta=", "beta", "a number"),
    ])
    def test_names_unconvertible_argument(self, spec, key, what):
        message = f"argument {key!r} of strategy {spec!r} must be {what}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            make_strategy(spec, 100, 2)

    @pytest.mark.parametrize("spec,key", [("threshold:ell=1.5,ell=9", "ell"),
                                          ("beta-thinning:beta=0.1,beta=0.9", "beta")])
    def test_refuses_a_repeated_argument(self, spec, key):
        message = f"argument {key!r} is given twice in strategy {spec!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            make_strategy(spec, 100, 2)

    @pytest.mark.parametrize("spec", ["threshold:ell=inf", "threshold:ell=-inf",
                                      "threshold:ell=nan", "threshold-scaled:c=inf",
                                      "threshold-scaled:c=nan"])
    def test_refuses_non_finite_ell(self, spec):
        with pytest.raises(ConfigError, match="must be positive"):
            make_strategy(spec, 100, 2)

    def test_strategy_objects_reusable_across_trials(self):
        strat = make_strategy("threshold:ell=1.5", 10, 2)
        first = [run_trial(10, 2, 50, strat, seed=s) for s in (1, 2)]
        second = [run_trial(10, 2, 50, strat, seed=s) for s in (1, 2)]
        assert first == second
