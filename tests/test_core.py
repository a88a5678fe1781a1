"""Engine tests: state transitions, pools, trial runs, induced traces."""

import math
import os
import platform
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from thinlab import core
from thinlab.core import (ConfigError, DecisionRecord, Pool, PoolExhausted,
                          _result_from_state, greedy_int64s, make_pools, mix_seed,
                          new_state, occurrence_rank, per_trial_max_load_counts,
                          run_greedy_d_choice, run_trial, simulate_max_load_counts,
                          step, trial_int64s)
from thinlab.experiments import ExperimentConfig, run_experiment
from thinlab.strategies import (AlwaysAccept, BetaThinning, ThresholdStrategy,
                                make_strategy)


def cap0_threshold():
    # floor(0.5) = 0: accept a non-final offer only into a round-empty bin
    return ThresholdStrategy(0.5)


def loads_of(state):
    """Each bin's load: its column sum of round_loads."""
    return state.round_loads.sum(axis=0).tolist()


def numbers_of(state):
    """The TrialResult `_result_from_state` derives from a state."""
    return _result_from_state(state, "state", 0)


class TestNewState:
    def test_empty_state(self):
        state = new_state(3, 2)
        assert state.t == 0
        assert loads_of(state) == [0, 0, 0]
        assert state.round_loads.shape == (2, 3)
        assert numbers_of(state).rejection_counters == (0, 0)
        assert not state.psi_seen.any()
        state.validate()

    def test_degenerate_single_bin(self):
        state = new_state(1, 1)
        assert loads_of(state) == [0]

    def test_rejects_zero_sizes(self):
        with pytest.raises(ConfigError):
            new_state(0, 2)
        with pytest.raises(ConfigError):
            new_state(3, 0)


class TestStep:
    def test_hand_trace_two_balls(self):
        # primaries 0,0 with cap 0: second ball is pushed to its secondary 0
        state = new_state(2, 2)
        pools = [Pool.replay([0, 0]), Pool.replay([0])]
        strat = cap0_threshold()

        rec1 = step(state, strat, pools)
        assert rec1 == DecisionRecord(t=0, chosen=1, suggestions=(0,), final=0)
        rec2 = step(state, strat, pools)
        assert rec2 == DecisionRecord(t=1, chosen=2, suggestions=(0, 0), final=0)

        assert loads_of(state) == [2, 0]
        assert numbers_of(state).rejection_counters == (2, 1)
        assert state.round_loads.tolist() == [[1, 0], [1, 0]]
        assert numbers_of(state).psi == 1
        state.validate()

    def test_single_bin_always_lands_zero(self):
        state = new_state(1, 2)
        pools = [Pool.replay([0]), Pool.replay([0])]
        rec = step(state, cap0_threshold(), pools)
        assert rec.final == 0

    def test_d1_is_one_choice(self):
        state = new_state(4, 1)
        pools = [Pool.replay([2, 2, 3])]
        recs = [step(state, cap0_threshold(), pools) for _ in range(3)]
        assert all(r.chosen == 1 for r in recs)
        assert loads_of(state) == [0, 0, 2, 1]

    def test_pool_exhaustion_propagates(self):
        state = new_state(2, 2)
        pools = [Pool.replay([0]), Pool.replay([])]
        step(state, cap0_threshold(), pools)
        with pytest.raises(PoolExhausted):
            step(state, cap0_threshold(), pools)  # primary 0 again, round 2 pool empty


class TestSubsetStats:
    def make_state(self, loads):
        state = new_state(len(loads), 1)
        state.round_loads[0] = loads
        state.t = int(sum(loads))
        return state

    def test_max_load_whole_state(self):
        assert numbers_of(self.make_state([3, 1, 2])).max_load == 3

    def test_max_load_empty_process(self):
        assert numbers_of(self.make_state([0, 0])).max_load == 0

    def test_max_load_singleton(self):
        assert numbers_of(self.make_state([5])).max_load == 5

    def test_phi_counts_nonempty(self):
        assert numbers_of(self.make_state([0, 2, 1])).phi == 2

    def test_psi_counts_primary_offers(self):
        state = new_state(2, 2)
        pools = [Pool.replay([0, 0]), Pool.replay([0])]
        step(state, cap0_threshold(), pools)
        step(state, cap0_threshold(), pools)
        assert numbers_of(state).psi == 1


class TestRunTrial:
    def test_no_balls(self):
        res = run_trial(4, 2, 0, AlwaysAccept(), seed=9)
        assert res.max_load == 0
        assert res.histogram == {0: 4}
        assert res.phi == 0 and res.psi == 0

    def test_single_bin_gets_everything(self):
        res = run_trial(1, 3, 7, cap0_threshold(), seed=5)
        assert res.max_load == 7
        assert res.histogram == {7: 1}

    def test_histogram_invariants(self):
        res = run_trial(17, 2, 60, ThresholdStrategy(1.5), seed=11)
        assert sum(res.histogram.values()) == 17
        assert sum(load * count for load, count in res.histogram.items()) == 60

    def test_rejects_negative_m(self):
        with pytest.raises(ConfigError):
            run_trial(3, 2, -1, AlwaysAccept(), seed=0)

    def test_deterministic_and_json_stable(self):
        a = run_trial(50, 2, 200, ThresholdStrategy(1.5), seed=123)
        b = run_trial(50, 2, 200, ThresholdStrategy(1.5), seed=123)
        assert a == b
        assert a.to_json() == b.to_json()
        c = run_trial(50, 2, 200, ThresholdStrategy(1.5), seed=124)
        assert c != a

    def test_empirical_quarter_for_two_bins(self):
        # exact brute force over pool outcomes gives P(max=2) = 1/4
        trials = 40_000
        counts = simulate_max_load_counts(2, 2, 2, cap0_threshold(), trials, seed=2)
        p2 = counts.get(2, 0) / trials
        se = math.sqrt(0.25 * 0.75 / trials)
        assert abs(p2 - 0.25) <= 4 * se


def reference_step_run(n, d, m, strategy, seed):
    """Step-by-step run through the public pieces; returns (state, records, pools)."""
    state = new_state(n, d)
    pools, aux = make_pools(n, d, seed)
    records = [step(state, strategy, pools, aux) for _ in range(m)]
    return state, records, pools


class TestFastPathEquivalence:
    @staticmethod
    def step_result(n, d, m, strategy, seed):
        state, _, _ = reference_step_run(n, d, m, strategy, seed)
        return _result_from_state(state, strategy.name, seed)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 7, 40])
    def test_threshold_matches_step_loop(self, n, d, m):
        strat = ThresholdStrategy(1.2)
        fast = run_trial(n, d, m, strat, seed=77)
        assert fast == self.step_result(n, d, m, strat, seed=77)

    @pytest.mark.parametrize("m", [0, 1, 13, 64])
    def test_beta_thinning_matches_step_loop(self, m):
        strat = BetaThinning(0.6, cap=0)
        fast = run_trial(3, 2, m, strat, seed=31)
        assert fast == self.step_result(3, 2, m, strat, seed=31)

    def test_always_accept_matches_step_loop(self):
        strat = AlwaysAccept()
        fast = run_trial(4, 3, 25, strat, seed=3)
        assert fast == self.step_result(4, 3, 25, strat, seed=3)


class TestProcessInvariants:
    @pytest.mark.parametrize("strategy", [AlwaysAccept(), ThresholdStrategy(0.5),
                                          ThresholdStrategy(2.1)])
    @pytest.mark.parametrize("n,d,m", [(2, 2, 9), (5, 3, 50), (3, 1, 20), (7, 2, 100)])
    def test_state_invariants_after_run(self, strategy, n, d, m):
        state, records, pools = reference_step_run(n, d, m, strategy, seed=8)
        state.validate()
        assert int(state.round_loads.sum()) == m
        counters = numbers_of(state).rejection_counters
        assert counters[0] == m
        # per-ball rejection count = chosen-1 <= d-1
        assert all(1 <= r.chosen <= d for r in records)
        assert all(len(r.suggestions) == r.chosen for r in records)
        assert all(r.suggestions[-1] == r.final for r in records)
        # pool accounting: pool i consumed exactly r_i values
        for i in range(d):
            assert pools[i].consumed == counters[i]
        # r_i equals the number of balls with chosen >= i+1
        for i in range(d):
            assert counters[i] == sum(1 for r in records if r.chosen >= i + 1)

    def test_always_accept_equals_one_choice_of_primary_pool(self):
        n, m, seed = 6, 40, 99
        result = run_trial(n, 3, m, AlwaysAccept(), seed=seed)
        pools, _ = make_pools(n, 3, seed)
        primary = pools[0].take(m)
        loads = np.bincount(primary, minlength=n)
        histogram = {int(v): int(c) for v, c in zip(*np.unique(loads, return_counts=True))}
        assert result.histogram == histogram
        assert result.rejection_counters == (m, 0, 0)
        assert result.chosen_counts == (m, 0, 0)


def induced_view(records, j, d=None):
    """Trace of the induced (d-j+1)-thinning strategy.

    Keeps, in order, the balls whose first j-1 offers were rejected and
    shifts their rounds down by j-1, so round i of the view is round i+j-1
    of the original.  j=1 returns the records unchanged.  Pass d to also
    validate j against the thinning depth (records alone cannot prove it).
    """
    if j < 1:
        raise ValueError(f"induced round index must be >= 1, got {j}")
    if d is not None and j > d:
        raise ValueError(f"induced round index {j} exceeds thinning depth {d}")
    if j == 1:
        return list(records)
    return [DecisionRecord(t=r.t, chosen=r.chosen - (j - 1),
                           suggestions=r.suggestions[j - 1:], final=r.final)
            for r in records if r.chosen >= j]


class TestInducedView:
    def trace(self):
        state = new_state(2, 2)
        pools = [Pool.replay([0, 0]), Pool.replay([0])]
        strat = cap0_threshold()
        return [step(state, strat, pools) for _ in range(2)]

    def test_j1_is_identity(self):
        records = self.trace()
        assert induced_view(records, 1) == records

    def test_j2_keeps_rejected_ball(self):
        view = induced_view(self.trace(), 2)
        assert len(view) == 1
        assert view[0].chosen == 1
        assert view[0].suggestions == (0,)  # the original secondary offer
        assert view[0].final == 0

    def test_view_lengths_match_rejection_counters(self):
        state, records, _ = reference_step_run(4, 3, 60, ThresholdStrategy(0.9), seed=21)
        r = numbers_of(state).rejection_counters
        for j in range(1, 4):
            assert len(induced_view(records, j)) == r[j - 1]

    def test_last_view_all_round_one(self):
        _, records, _ = reference_step_run(3, 3, 50, ThresholdStrategy(0.5), seed=4)
        view = induced_view(records, 3)
        assert all(r.chosen == 1 for r in view)

    def test_composition(self):
        _, records, _ = reference_step_run(3, 3, 80, ThresholdStrategy(0.5), seed=13)
        assert induced_view(induced_view(records, 2), 2) == induced_view(records, 3)

    def test_bad_j_rejected(self):
        with pytest.raises(ValueError):
            induced_view([], 0)
        with pytest.raises(ValueError):
            induced_view([], 4, d=3)


REPLAY_VALUES = pytest.mark.parametrize(
    "values,dtype", [([1, 2], np.int64), ([0.25, 0.75], np.float64)], ids=["int", "float"])


# n = 1 draws nothing; 10 and 2**32 take numpy's 32-bit bounded path, 2**32 + 1
# and 2**62 its 64-bit one
STREAMS = pytest.mark.parametrize("stream,n", [
    pytest.param("aux", 10, id="aux"),
    pytest.param("bins", 10, id="bins"),
    *(pytest.param("bins", n, id=f"bins-n={label}") for n, label in
      [(1, "1"), (2**32, "2**32"), (2**32 + 1, "2**32+1"), (2**62, "2**62")]),
])


class TestPools:
    # take sizes around and across the 2**16-value draw floor, each followed by
    # next(): 3 then 70,001 cross it partway through a buffer, 65,536 lands on it
    SIZES = (0, 1, 7, 65_535, 0, 3, 70_001, 1, 65_536, 131_073)

    @STREAMS
    def test_take_and_next_agree(self, stream, n):
        def fresh():
            pools, aux = make_pools(n, 1, seed=5)
            return pools[0] if stream == "bins" else aux

        pool, mixed = fresh(), []
        for k in self.SIZES:
            taken = pool.take(k)
            mixed += taken.tolist()
            taken[:] = 0  # served values are never served again
            mixed.append(pool.next())
        assert pool.consumed == len(mixed)
        assert type(mixed[-1]) is (int if stream == "bins" else float)
        reference = fresh()
        via_next = [reference.next() for _ in mixed]
        assert mixed == fresh().take(len(mixed)).tolist() == via_next

    def test_round_streams_differ(self):
        pools, _ = make_pools(1000, 2, seed=5)
        assert pools[0].take(50).tolist() != pools[1].take(50).tolist()

    @pytest.mark.parametrize("start", [0, 1], ids=["empty", "partway"])
    def test_pool_keeps_no_served_take(self, start):
        pools, _ = make_pools(10, 1, seed=5)
        for _ in range(start):
            pools[0].next()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            taken = pools[0].take(10**6)
            del taken
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held < 2**20

    @REPLAY_VALUES
    def test_replay_take_does_not_alias(self, values, dtype):
        source = np.array(values, dtype)
        taken = Pool.replay(source, dtype).take(2)
        taken += 1
        assert source.tolist() == values

    @REPLAY_VALUES
    def test_replay_exhaustion(self, values, dtype):
        pool = Pool.replay(values, dtype)
        assert pool.take(2).tolist() == values
        with pytest.raises(PoolExhausted):
            pool.next()

    @REPLAY_VALUES
    def test_replay_next_then_take(self, values, dtype):
        pool = Pool.replay(values, dtype)
        assert pool.next() == values[0]
        assert pool.take(1).tolist() == values[1:]
        assert pool.consumed == 2
        with pytest.raises(PoolExhausted):
            pool.take(1)


class TestMemoryRefusal:
    """Runs that cannot fit are refused before any array is allocated.

    The memory figure is patched down, so every config here is small.
    """

    @pytest.fixture
    def memory(self, monkeypatch):
        def set_bytes(value):
            monkeypatch.setattr(core, "MEMORY_BYTES", value)
        return set_bytes

    def test_figure_is_at_most_physical_memory(self):
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert 0 < core.MEMORY_BYTES <= physical

    def test_run_trial_refused(self, memory):
        memory(10**6)
        with pytest.raises(ConfigError, match=r"n=100000, d=3.* needs about [\d,]+ MB"):
            run_trial(10**5, 3, 10**5, AlwaysAccept(), seed=0)

    def test_small_trial_still_runs(self, memory):
        memory(2 * 10**6)  # the two pools' 2**16-value blocks take 1 MB
        assert run_trial(1000, 2, 1000, AlwaysAccept(), seed=0).m == 1000

    def test_run_experiment_counts_concurrent_trials(self, memory):
        # one n = m = 1000, d = 2 trial (1.7 MB with its pool blocks) fits,
        # two at once do not
        memory(2_500_000)
        config = ExperimentConfig(n=1000, d=2, strategy="always-accept", trials=2)
        assert run_experiment(config).trials == 2
        with pytest.raises(ConfigError, match=r"on 2 thread\(s\)"):
            run_experiment(replace(config, threads=2))
        assert run_experiment(replace(config, threads=2, trials=1)).trials == 1

    def test_batched_counts_refused(self, memory):
        memory(10**6)
        with pytest.raises(ConfigError, match="batched trials"):
            simulate_max_load_counts(4, 2, 4, ThresholdStrategy(1.5), 10**5, seed=0)

    def test_greedy_refused(self, memory):
        memory(10**6)
        with pytest.raises(ConfigError, match=r"greedy trial with n=100000, d=2.* needs about"):
            run_greedy_d_choice(10**5, 2, 10**5, seed=0)

    def test_long_greedy_trial_still_runs(self, memory):
        # offers are taken one pool block at a time, so m does not count
        memory(30 * 10**6)
        assert run_greedy_d_choice(1000, 2, 10**6, seed=0).m == 10**6


class TestBoundaryChecks:
    """Every allocator refuses bad input before estimating memory.

    Bad input is n < 1, d < 1, m < 0, a negative seed, or no trials.
    """

    @pytest.fixture(autouse=True)
    def no_memory(self, monkeypatch):
        # any memory estimate would now refuse with "needs about"
        monkeypatch.setattr(core, "MEMORY_BYTES", 1)

    @pytest.mark.parametrize("n,d,m,message", [
        (0, 2, 3, "bin count"), (3, 0, 3, "thinning depth"), (3, 2, -1, "ball count")],
        ids=["n=0", "d=0", "m=-1"])
    def test_batched_counts(self, n, d, m, message):
        with pytest.raises(ConfigError, match=message):
            simulate_max_load_counts(n, d, m, AlwaysAccept(), 10, 1)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_batched_counts_without_trials(self, trials):
        with pytest.raises(ConfigError, match=f"trial count must be >= 1, got {trials}"):
            simulate_max_load_counts(3, 2, 3, ThresholdStrategy(1.5), trials, 1)

    @pytest.mark.parametrize("n,d,m,message", [
        (5, 0, 10, "thinning depth"), (0, 2, 0, "bin count")], ids=["d=0", "n=0"])
    def test_greedy(self, n, d, m, message):
        with pytest.raises(ConfigError, match=message):
            run_greedy_d_choice(n, d, m, 1)

    @pytest.mark.parametrize("run", [
        lambda m: run_trial(10, 2, m, ThresholdStrategy(1.5), 1),
        lambda m: run_greedy_d_choice(10, 2, m, 1),
        lambda m: simulate_max_load_counts(10, 2, m, ThresholdStrategy(1.5), 10, 1),
        lambda m: per_trial_max_load_counts(10, 2, m, ThresholdStrategy(1.5), 10, 1),
    ], ids=["trial", "greedy", "batched-counts", "per-trial-counts"])
    def test_ball_count_past_int64(self, run):
        with pytest.raises(ConfigError, match=r"ball count must be at most 2\*\*63 - 1, got "
                                              f"{2**63}$"):
            run(2**63)

    # with no balls nothing is drawn, so only the check refuses the seed
    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("run", [
        lambda m: run_trial(10, 2, m, ThresholdStrategy(1.5), -1),
        lambda m: run_greedy_d_choice(10, 2, m, -1),
        lambda m: simulate_max_load_counts(10, 2, m, ThresholdStrategy(1.5), 10, -1),
        lambda m: per_trial_max_load_counts(10, 2, m, ThresholdStrategy(1.5), 10, -1),
    ], ids=["trial", "greedy", "batched-counts", "per-trial-counts"])
    def test_negative_seed(self, run, m):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            run(m)


def traced_peak(run) -> int:
    """Peak bytes traced while `run()` runs, after one untraced call.

    The untraced call leaves out what only a first call allocates (numpy's
    lazily built internals), which is not memory a run holds.
    """
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryEstimates:
    """Each estimate bounds the allocation peak of the run it refuses.

    Cap 0 is the mask path's worst case: nearly every ball in a round is
    ranked.
    """

    N = 10**5

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("ell_value", [0.5, 1.5, None])
    def test_threshold_trial(self, d, ell_value):
        n = self.N
        strat = (make_strategy("threshold", n, d) if ell_value is None
                 else ThresholdStrategy(ell_value))
        peak = traced_peak(lambda: run_trial(n, d, n, strat, seed=1))
        assert 8 * trial_int64s(n, d, n, strat) >= peak

    @pytest.mark.parametrize("cap", [0, 3])
    def test_beta_thinning_trial(self, cap):
        n = self.N
        strat = BetaThinning(0.9, cap)
        peak = traced_peak(lambda: run_trial(n, 2, n, strat, seed=1))
        assert 8 * trial_int64s(n, 2, n, strat) >= peak

    def test_always_accept_trial(self):
        n = self.N
        peak = traced_peak(lambda: run_trial(n, 1, n, AlwaysAccept(), seed=1))
        assert 8 * trial_int64s(n, 1, n, AlwaysAccept()) >= peak

    @pytest.mark.parametrize("d,strat", [
        (2, ThresholdStrategy(0.5)), (3, ThresholdStrategy(0.5)), (2, BetaThinning(0.9, 0))],
        ids=["threshold-cap0-d2", "threshold-cap0-d3", "beta0.9-cap0"])
    def test_mask_kernel_trial(self, d, strat):
        from test_strategies import MaskOnly  # test_strategies imports this module

        n = self.N
        peak = traced_peak(lambda: run_trial(n, d, n, MaskOnly(strat), seed=1))
        assert 8 * trial_int64s(n, d, n, MaskOnly(strat)) >= peak

    @pytest.mark.parametrize("d,balls_per_bin", [(2, 1), (3, 1), (2, 10)],
                             ids=["2", "3", "2-m=10n"])
    def test_greedy_trial(self, d, balls_per_bin):
        n = self.N
        peak = traced_peak(lambda: run_greedy_d_choice(n, d, balls_per_bin * n, seed=1))
        assert 8 * greedy_int64s(n, d) >= peak

    @pytest.mark.parametrize("n,d,m,strat,trials", [
        (4, 2, 4, ThresholdStrategy(0.5), 20_000),
        (3, 3, 3, ThresholdStrategy(0.5), 20_000),
        (100, 2, 100, ThresholdStrategy(1.5), 1_000),
        (4, 2, 4, BetaThinning(0.9, 0), 20_000),
        (4, 1, 4, AlwaysAccept(), 20_000),
    ])
    def test_batched_counts(self, n, d, m, strat, trials):
        peak = traced_peak(lambda: simulate_max_load_counts(n, d, m, strat, trials, seed=1))
        assert 8 * trial_int64s(trials * n, d, trials * m, strat) >= peak


class TestTrialPeak:
    """A rule trial holds two one-byte rows and a few pool blocks, less than three int64 rows."""

    def test_threshold_trial_at_a_million_bins(self):
        n = 10**6
        peak = traced_peak(lambda: run_trial(n, 3, n, make_strategy("threshold", n, 3), 1))
        assert peak <= 8 * 3 * n

    def test_beta_thinning_trial_at_a_million_bins(self):
        # a block of coins beside the rows and the bin blocks
        n = 10**6
        peak = traced_peak(lambda: run_trial(
            n, 2, n, make_strategy("beta-thinning:beta=0.5", n, 2), 1))
        assert peak <= 8 * 3.5 * n

    def test_batched_threshold_trials(self):
        n, trials = 1000, 200
        strat = make_strategy("threshold", n, 3)
        peak = traced_peak(lambda: simulate_max_load_counts(n, 3, n, strat, trials, 1))
        assert peak <= 8 * 3 * trials * n


def resident_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="thinlab pins glibc's malloc")
@pytest.mark.skipif(core._environment_sets_malloc_thresholds(),
                    reason="the environment sets malloc's thresholds")
class TestFreedMemory:
    """Freed arrays of 1 MiB or more leave the process, whichever thread frees them."""

    def test_worker_thread_keeps_no_freed_rows(self):
        n = 10**6
        np.ones(n)  # unmapping this would raise glibc's default thresholds past 8 MB

        def kept() -> int:
            before = resident_bytes()
            take, row = np.ones(n, np.int64), np.ones(n, np.int64)
            del take, row
            return resident_bytes() - before

        with ThreadPoolExecutor(1) as pool:
            assert pool.submit(kept).result() < 1 << 20


class TestHelpers:
    def test_occurrence_rank_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            values = rng.integers(0, 6, size=rng.integers(0, 40))
            seen = {}
            expected = []
            for v in values.tolist():
                expected.append(seen.get(v, 0))
                seen[v] = seen.get(v, 0) + 1
            assert occurrence_rank(values).tolist() == expected

    def test_mix_seed_reference_values(self):
        assert mix_seed(0, 0) == 16294208416658607535
        assert mix_seed(0, 1) == 7960286522194355700
        assert mix_seed(7, 3) == 10753165928301472203
        assert mix_seed(2**64 - 1, 5) == 15212506146343009075

    def test_mix_seed_distinct(self):
        assert len({mix_seed(42, i) for i in range(10_000)}) == 10_000

    def test_simulate_counts_total(self):
        counts = simulate_max_load_counts(3, 2, 4, ThresholdStrategy(0.5), 500, seed=6)
        assert sum(counts.values()) == 500
