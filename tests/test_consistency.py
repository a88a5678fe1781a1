"""Cross-implementation checks.

An intentionally naive list-based re-implementation of the process consumes
the same suggestion streams as the engine; agreement on every tracked
quantity guards the vectorised paths at scales the exact oracle cannot
reach.  Greedy d-choice is checked the same way against a per-ball loop, and
batched runs against a trial-by-trial run of the batched process.
"""

from collections import Counter

import numpy as np
import pytest

from thinlab.core import (AUX_TAG, POOL_TAG, ConfigError, RoundRule, _generator,
                          _result_from_state, _run_batch, _summary, make_pools, new_state,
                          run_greedy_d_choice, run_trial, simulate_max_load_counts)
from thinlab.oracle import compare_empirical, exact_distribution, multinomial_max_load_exact
from thinlab.strategies import (AlwaysAccept, BetaThinning, Strategy, ThresholdStrategy,
                                make_strategy)

from test_core import reference_step_run
from test_strategies import MaskOnly


def naive_greedy_run(n, d, m, seed):
    """Greedy d-choice one ball at a time, on the streams `run_greedy_d_choice` uses.

    Ball t's offers are value t of each round pool; it goes to its
    least-loaded offer, the lowest bin index on ties.
    """
    state = new_state(n, d)
    pools, _ = make_pools(n, d, seed)
    loads = [0] * n
    block = 1 << 16
    for start in range(0, m, block):
        takes = [pool.take(min(block, m - start)) for pool in pools]
        state.psi_seen[takes[0]] = True
        columns = [take.tolist() for take in takes]
        if d == 2:
            for a, b in zip(*columns):
                la, lb = loads[a], loads[b]
                if lb < la or (lb == la and b < a):
                    a = b
                loads[a] += 1
        else:
            for offers in zip(*columns):
                best = min(offers, key=lambda b: (loads[b], b))
                loads[best] += 1
    state.round_loads[0] = loads
    state.t = m
    return _result_from_state(state, f"greedy-{d}-choice", seed)


def first_full_ball(n, d, seed):
    """Index of greedy d-choice's first ball whose least-loaded offer already holds 255 balls."""
    pools, _ = make_pools(n, d, seed)
    loads, t = [0] * n, 0
    while True:
        for offers in zip(*(pool.take(1 << 16).tolist() for pool in pools)):
            best = min(offers, key=lambda b: (loads[b], b))
            if loads[best] == 255:
                return t
            loads[best] += 1
            t += 1


def naive_rule_run(n, d, m, cap, beta, rounds, pools, aux):
    """A round rule run one ball at a time with lists, as `RoundRule`'s docstring states it.

    Each ball meets rounds 1..d in turn and draws its round-i offer from
    pool i, until a round accepts it.  In rounds 1..rounds before the last
    (every round before the last if rounds is None) the ball reads one aux
    coin if beta is set, and is accepted if cap is None, if its bin's count
    in the round so far is at most cap, or if its coin is at least beta.
    Other rounds accept it.  Returns the loads, the per-round counts,
    r_1..r_d and the primaries.
    """
    loads = [0] * n
    counts = [[0] * n for _ in range(d)]
    reached = [0] * d
    primaries = set()
    for _ in range(m):
        for i in range(1, d + 1):
            b = pools[i - 1].next()
            if i == 1:
                primaries.add(b)
            reached[i - 1] += 1
            binds = i < d and (rounds is None or i <= rounds)
            coin = aux.next() if binds and beta is not None else None
            if (not binds or cap is None or counts[i - 1][b] <= cap
                    or (coin is not None and coin >= beta)):
                counts[i - 1][b] += 1
                loads[b] += 1
                break
    return loads, counts, reached, primaries


def naive_result(n, d, m, cap, beta, rounds, name, seed):
    """The `TrialResult` of `naive_rule_run` on the streams of seed's trial."""
    loads, counts, reached, primaries = naive_rule_run(n, d, m, cap, beta, rounds,
                                                       *make_pools(n, d, seed))
    return _summary(np.array(loads), len(primaries), reached, [max(row) for row in counts],
                    name, seed)


def rule_args(strat):
    """A built-in strategy's (cap, beta, rounds) for the naive runs: a coin binds in round 1."""
    rule = strat.rule
    return rule.cap, rule.beta, None if rule.beta is None else 1


def naive_batched_run(n, d, m, cap, trials, seed, beta=None, rounds=None):
    """The batched process run trial by trial with lists, reported as `_run_batch` reports it.

    Round 1 reads trials·m values of the batch stream, one trial after
    another; each later round reads one value per rejected ball, in (trial,
    ball) order.  The rule binds in rounds 1..rounds before the last (every
    round before the last if rounds is None).  There, with beta set, each
    ball reads one aux coin in the same order, and a ball is accepted if
    cap is None, if its bin's count so far is at most cap, or if its coin is
    >= beta.  Other rounds accept every ball.  Returns the loads per key
    (trial t's bin b is key t·n + b), ψ (the keys offered in round 1),
    r_1..r_d and each round's largest accepted count.
    """
    rng = _generator(seed, POOL_TAG, 0)
    coins = iter(_generator(seed, AUX_TAG).random(trials * m * d).tolist())
    values = rng.integers(0, n, size=trials * m).tolist()
    offers = [values[t * m:(t + 1) * m] for t in range(trials)]
    loads = [[0] * n for _ in range(trials)]
    psi = sum(len(set(trial)) for trial in offers)
    reached, top = [], []
    for i in range(1, d + 1):
        reached.append(sum(map(len, offers)))
        binds = i < d and (rounds is None or i <= rounds)
        rejected, largest = [], 0
        for t in range(trials):
            counts = [0] * n
            rejected.append(0)
            for b in offers[t]:
                forced = binds and beta is not None and next(coins) >= beta
                if not binds or forced or cap is None or counts[b] <= cap:
                    counts[b] += 1
                    loads[t][b] += 1
                else:
                    rejected[t] += 1
            largest = max(largest, *counts)
        top.append(largest)
        fresh = rng.integers(0, n, size=sum(rejected)).tolist() if i < d else []
        offers, start = [], 0
        for r in rejected:
            offers.append(fresh[start:start + r])
            start += r
    return [v for trial in loads for v in trial], psi, reached, top


def max_load_table(loads, n):
    """The max-load frequency table of per-key loads, n keys a trial."""
    return dict(Counter(max(loads[k:k + n]) for k in range(0, len(loads), n)))


def naive_batched_counts(n, d, m, cap, trials, seed, beta=None, rounds=None):
    """Max-load table of `naive_batched_run`."""
    return max_load_table(naive_batched_run(n, d, m, cap, trials, seed, beta, rounds)[0], n)


class TestNaiveAgreement:
    @pytest.mark.parametrize("n,d,m,ell_value,seed", [
        (5, 2, 60, 1.3, 41), (4, 3, 120, 0.5, 42), (7, 2, 200, 2.2, 43),
        (3, 3, 90, 1.0, 44), (50, 2, 800, 1.9, 45),
    ])
    def test_threshold_all_quantities(self, n, d, m, ell_value, seed):
        self.check(n, d, m, ThresholdStrategy(ell_value), seed)

    @pytest.mark.parametrize("d,seed", [(2, 46), (3, 47)])
    def test_threshold_sparse_regime(self, d, seed):
        # The optimal cap at n = 20,000 is 2 for d = 2 and 3: about 2% of
        # bins get more than cap+1 offers, so few balls are ranked, as at
        # n = 10**6.
        n = m = 20_000
        reached = self.check(n, d, m, make_strategy("threshold", n, d), seed)
        assert reached[1] < m // 20

    @pytest.mark.parametrize("beta,cap,seed", [(0.3, 0, 51), (0.7, 1, 52),
                                               (0.95, 2, 53)])
    def test_beta_thinning_all_quantities(self, beta, cap, seed):
        self.check(6, 2, 300, BetaThinning(beta, cap), seed)

    def test_beta_thinning_sparse_regime(self):
        n = m = 20_000
        reached = self.check(n, 2, m, BetaThinning(0.9, 3), 54)
        assert reached[1] < m // 100

    @staticmethod
    def check(n, d, m, strat, seed):
        """`run_trial` gives `naive_rule_run`'s bytes; returns r_1..r_d."""
        naive = naive_result(n, d, m, *rule_args(strat), strat.name, seed)
        assert run_trial(n, d, m, strat, seed).to_json() == naive.to_json()
        return naive.rejection_counters


class TestGreedyAgreement:
    """The compiled loop places every ball where the per-ball Python loop does."""

    @staticmethod
    def check(n, d, m, seed):
        result = run_greedy_d_choice(n, d, m, seed)
        assert result.to_json() == naive_greedy_run(n, d, m, seed).to_json()
        return result

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10])
    def test_dense(self, n, d):
        # few bins: nearly every ball repeats an offer of an earlier one (or
        # its own), and load ties are common
        for m in (0, 1, 37, 1000):
            self.check(n, d, m, seed=100 * n + 10 * d + m % 7)

    @pytest.mark.parametrize("n,d", [(2, 2), (10, 3)])
    def test_dense_long(self, n, d):
        self.check(n, d, 10**4, seed=71)

    @pytest.mark.parametrize("d", [2, 3])
    def test_loads_past_one_byte(self, d):
        # 300 balls a bin: loads pass what one byte holds
        assert self.check(100, d, 3 * 10**4, seed=73 + d).max_load > 255

    def test_sparse(self):
        # many bins and several 2**16-ball blocks, the last one partial
        self.check(10**5, 2, 10**6, seed=72)

    # The seeds are the first found by scanning seeds upward from 0 at n = 258,
    # where a bin first reaches 255 balls near ball 2**16.  The loads widen on
    # the second block's first ball, on the first block's last ball, or on
    # the last ball of a trial of one partial block.
    @pytest.mark.parametrize("n,d,m,seed,ball", [
        (258, 2, 2**17 + 1000, 636, 2**16), (258, 3, 2**17 + 1000, 17, 2**16),
        (258, 3, 2**17 + 1000, 129, 2**16 - 1), (258, 2, 65432, 0, 65431)],
        ids=["first-2", "first-3", "last-3", "last-of-trial-2"])
    def test_widening_at_a_block_edge(self, n, d, m, seed, ball):
        assert first_full_ball(n, d, seed) == ball
        assert self.check(n, d, m, seed).max_load > 255


class TestBatchedAgreement:
    """The keyed round loop gives the trial-by-trial run's table exactly."""

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 5), (5, 9)])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("ell_value", [0.5, 1.5])
    def test_threshold(self, n, m, d, ell_value):
        strat = ThresholdStrategy(ell_value)
        seed = 10 * n + d
        assert simulate_max_load_counts(n, d, m, strat, 300, seed) == \
            naive_batched_counts(n, d, m, strat.cap, 300, seed)

    @pytest.mark.parametrize("beta,cap", [(0.5, 0), (0.9, 1)])
    @pytest.mark.parametrize("n,m", [(3, 5), (5, 9)])
    def test_beta_thinning(self, n, m, beta, cap):
        seed = 20 * n + cap
        assert simulate_max_load_counts(n, 2, m, BetaThinning(beta, cap), 300, seed) == \
            naive_batched_counts(n, 2, m, cap, 300, seed, beta=beta)


class TestRuleStream:
    """Every rule's compiled stream gives the per-ball loops' bytes.

    A single trial is checked against `naive_rule_run` and `step`, a batch
    against `naive_batched_run` in full (per-key loads, ψ, r_1..r_d and
    each round's largest count) and its max-load table.  The last cases put
    bins past 255 balls in the rows and the loads, so the one-byte counts
    widen, and their batches span two 2**16-value blocks; there the mask
    path (`MaskOnly`) widens too, to the bare strategy's result.
    """

    STRATEGIES = [ThresholdStrategy(0.5), ThresholdStrategy(1.5), AlwaysAccept(),
                  BetaThinning(0.5, 0), BetaThinning(0.9, 1)]
    IDS = ["cap0", "cap1", "always", "beta0.5-cap0", "beta0.9-cap1"]

    @staticmethod
    def check_single(n, d, m, strat, seed):
        result = run_trial(n, d, m, strat, seed)
        naive = naive_result(n, d, m, *rule_args(strat), strat.name, seed)
        assert result.to_json() == naive.to_json()
        state, _, _ = reference_step_run(n, d, m, strat, seed)
        assert result == _result_from_state(state, strat.name, seed)
        return result

    @staticmethod
    def check_batched(n, d, m, strat, trials, seed):
        loads, psi, r, top = _run_batch(n, d, m, strat, trials, seed)
        cap, beta, rounds = rule_args(strat)
        naive = naive_batched_run(n, d, m, cap, trials, seed, beta, rounds)
        assert (loads.tolist(), int(psi), r, [int(v) for v in top]) == naive
        assert simulate_max_load_counts(n, d, m, strat, trials, seed) == \
            max_load_table(naive[0], n)
        return loads, top

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("strat", STRATEGIES, ids=IDS)
    def test_single(self, strat, d):
        for n, m, seed in ((1, 5, 1), (7, 40, 2), (500, 1500, 3)):
            self.check_single(n, d, m, strat, seed)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("strat", STRATEGIES, ids=IDS)
    def test_batched(self, strat, d):
        for n, m, trials in ((3, 4, 2000), (5, 9, 300)):
            self.check_batched(n, d, m, strat, trials, seed=n + d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("strat", [AlwaysAccept(), BetaThinning(0.1, 1),
                                       ThresholdStrategy(255.5)],
                             ids=["always", "beta0.1-cap1", "cap255"])
    def test_counts_past_one_byte(self, strat, d):
        # 300 balls a bin: a round's row and the loads pass what one byte holds
        n, m = 100, 3 * 10**4
        result = self.check_single(n, d, m, strat, seed=90 + d)
        assert result.max_load > 255 and max(result.round_load_max) > 255
        assert run_trial(n, d, m, MaskOnly(strat), seed=90 + d) == result
        loads, top = self.check_batched(n, d, m, strat, trials=3, seed=95 + d)
        assert loads.max() > 255 and max(top) > 255


def rule_strategy(round_rule):
    """A bare `Strategy` subclass that sets only `name` and `rule`."""
    class RuleOnly(Strategy):
        name = "rule-only"
        rule = round_rule
    return RuleOnly()


def bound_rounds(rounds, d):
    """How many of d rounds a rule binding in rounds 1..rounds before the last binds in."""
    return d - 1 if rounds is None else min(rounds, d - 1)


class TestRoundRuleGrid:
    """Every round rule the grid states, run as a bare `Strategy`, gives one result on every path.

    A cell is cap in {None, 0, 1}, beta in {None, 0.4} and rounds in {None,
    0, 1, 2}, at d = 1, 2, 3: the rule binds in rounds 1..rounds before the
    last (every round before the last if rounds is None), as the naive
    references state it.  `cell_rule` runs it as a `RoundRule`.  A single
    trial gives the same bytes from `run_trial` (the compiled loop), the
    mask path (`MaskOnly`), `step` and `naive_rule_run`, and a batch gives
    `naive_batched_counts`' table.  A coin binds in round 1 only, so the
    grid has no cell whose coin could decide a ball in round 2.
    """

    RULES = [(cap, beta) for cap in (None, 0, 1) for beta in (None, 0.4)]
    CELLS = [(cap, beta, rounds, d) for cap, beta in RULES for rounds in (None, 0, 1, 2)
             for d in (1, 2, 3)
             if beta is None or cap is None or bound_rounds(rounds, d) <= 1]
    IDS = [f"cap{cap}-beta{beta}-rounds{rounds}-{d}" for cap, beta, rounds, d in CELLS]

    @staticmethod
    def cell_rule(cap, beta, rounds, d):
        """The `RoundRule` that binds as the cell states.

        A rule binding in no round accepts every ball, as cap None does.  A
        cap binding in round 1 only, before two more rounds, is a coin rule
        whose coin, below 1, never reaches beta 1.
        """
        binding = bound_rounds(rounds, d)
        if binding == 0:
            return RoundRule()
        if beta is None and binding < d - 1:
            return RoundRule(cap, beta=1.0)
        return RoundRule(cap, beta)

    @pytest.mark.parametrize("cap,beta,rounds,d", CELLS, ids=IDS)
    def test_single(self, cap, beta, rounds, d):
        strat = rule_strategy(self.cell_rule(cap, beta, rounds, d))
        for n, m, seed in ((1, 5, 1), (7, 40, 2), (60, 400, 3)):
            result = run_trial(n, d, m, strat, seed)
            assert run_trial(n, d, m, MaskOnly(strat), seed).to_json() == result.to_json()
            state, _, _ = reference_step_run(n, d, m, strat, seed)
            assert _result_from_state(state, strat.name, seed).to_json() == result.to_json()
            naive = naive_result(n, d, m, cap, beta, rounds, strat.name, seed)
            assert naive.to_json() == result.to_json()

    @pytest.mark.parametrize("cap,beta,rounds,d", CELLS, ids=IDS)
    def test_batched(self, cap, beta, rounds, d):
        strat = rule_strategy(self.cell_rule(cap, beta, rounds, d))
        for n, m, trials in ((3, 4, 400), (5, 9, 200)):
            seed = n + d
            assert simulate_max_load_counts(n, d, m, strat, trials, seed) == \
                naive_batched_counts(n, d, m, cap, trials, seed, beta=beta, rounds=rounds)

    def test_deterministic_iff_no_coin(self):
        assert ThresholdStrategy(1.5).deterministic and AlwaysAccept().deterministic
        assert not BetaThinning(0.5, 1).deterministic
        for cap, beta in self.RULES:
            assert rule_strategy(RoundRule(cap, beta)).deterministic == (beta is None)
        with pytest.raises(ConfigError, match="randomized"):
            exact_distribution(2, 2, 2, rule_strategy(RoundRule(cap=0, beta=0.4)))

    @pytest.mark.parametrize("beta", [None, 0.4])
    def test_refuses_negative_cap(self, beta):
        # cap -1 would reject a bin's first offer, and ψ counts round 1's accepted bins
        with pytest.raises(ConfigError, match="cap must be >= 0, got -1"):
            RoundRule(cap=-1, beta=beta)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rule_binding_in_no_round_is_one_choice(self, d):
        # no RoundRule with a cap binds in no round, so the mask protocol states this one
        class NoRound(MaskOnly):
            def decide(self, i, bin_index, state, aux):
                return True

            def accept_mask(self, i, suggestions, aux):
                return np.ones(suggestions.size, dtype=bool)

        strat = NoRound(ThresholdStrategy(0.5))
        assert exact_distribution(3, d, 3, strat).masses == multinomial_max_load_exact(3, 3)
        result = run_trial(20, d, 60, strat, seed=5)
        assert result.rejection_counters == (60,) + (0,) * (d - 1)
        assert result.histogram == run_trial(20, d, 60, AlwaysAccept(), seed=5).histogram
        loads, _, _, _ = naive_rule_run(20, d, 60, 0, None, 0, *make_pools(20, d, 5))
        assert dict(Counter(loads)) == result.histogram


class TestEmptyRounds:
    """A round that no ball reaches reports `round_load_max` 0, on few keys or on many."""

    M = 6
    STRATEGIES = [AlwaysAccept(), ThresholdStrategy(M + 10.5), MaskOnly(AlwaysAccept()),
                  MaskOnly(ThresholdStrategy(M + 10.5))]
    IDS = ["always", "threshold", "always-mask", "threshold-mask"]

    @pytest.mark.parametrize("strat", STRATEGIES, ids=IDS)
    @pytest.mark.parametrize("n", [5, 10_000], ids=["dense", "sparse"])
    def test_single_trial(self, strat, n):
        result = run_trial(n, 3, self.M, strat, seed=81)
        assert result.rejection_counters == (self.M, 0, 0)
        assert result.round_load_max[1:] == (0, 0)
        assert result.round_load_max[0] == max(result.histogram)

    @pytest.mark.parametrize("strat", STRATEGIES[:2], ids=IDS[:2])
    @pytest.mark.parametrize("trials", [100, 5_000], ids=["dense", "sparse"])
    def test_batched(self, strat, trials):
        n = 3
        loads, _, reached, round_load_max = _run_batch(n, 3, self.M, strat, trials, seed=82)
        assert reached == [trials * self.M, 0, 0]
        assert round_load_max[1:] == [0, 0]
        assert round_load_max[0] == loads.max()
        assert simulate_max_load_counts(n, 3, self.M, strat, trials, seed=82) == \
            naive_batched_counts(n, 3, self.M, self.M + 10, trials, seed=82)


class TestBatchedRunnerLaw:
    def test_three_round_instance_against_oracle(self):
        # d=3 exercises two consecutive capped rounds in the batched runner
        strat = ThresholdStrategy(0.5)
        dist = exact_distribution(3, 3, 3, strat)
        report = compare_empirical(dist, trials=30_000, seed=61)
        assert report.passed, f"max |z| = {report.max_abs_z:.2f}"

    def test_zero_ball_batch(self):
        counts = simulate_max_load_counts(4, 2, 0, ThresholdStrategy(0.5), 50, seed=1)
        assert counts == {0: 50}

    def test_batch_matches_per_trial_law(self):
        # same exact reference, two engine paths
        strat = ThresholdStrategy(1.5)
        dist = exact_distribution(3, 2, 4, strat)
        batched = compare_empirical(dist, trials=20_000, seed=62, batched=True)
        looped = compare_empirical(dist, trials=4_000, seed=63, batched=False)
        assert batched.passed and looped.passed
