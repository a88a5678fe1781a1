"""Engine tests: state transitions, pools, trial runs, induced traces."""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from thinlab import core
from thinlab.core import (ConfigError, DecisionRecord, Pool, PoolExhausted,
                          induced_view, make_pools, max_load, mix_seed,
                          new_state, occurrence_rank, phi, psi, run_trial,
                          simulate_max_load_counts, step, write_trace)
from thinlab.experiments import ExperimentConfig, run_experiment
from thinlab.strategies import AlwaysAccept, BetaThinning, ThresholdStrategy


def cap0_threshold():
    # floor(0.5) = 0: accept a non-final offer only into a round-empty bin
    return ThresholdStrategy(0.5)


class TestNewState:
    def test_empty_state(self):
        state = new_state(3, 2)
        assert state.t == 0
        assert state.loads.tolist() == [0, 0, 0]
        assert state.round_loads.shape == (2, 3)
        assert state.rejection_counters.tolist() == [0, 0]
        assert not state.psi_seen.any()
        state.validate()

    def test_degenerate_single_bin(self):
        state = new_state(1, 1)
        assert state.loads.tolist() == [0]

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

        assert state.loads.tolist() == [2, 0]
        assert state.rejection_counters.tolist() == [2, 1]
        assert state.round_loads.tolist() == [[1, 0], [1, 0]]
        assert psi(state) == 1
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
        assert state.loads.tolist() == [0, 0, 2, 1]

    def test_pool_exhaustion_propagates(self):
        state = new_state(2, 2)
        pools = [Pool.replay([0]), Pool.replay([])]
        step(state, cap0_threshold(), pools)
        with pytest.raises(PoolExhausted):
            step(state, cap0_threshold(), pools)  # primary 0 again, round 2 pool empty


class TestSubsetStats:
    def make_state(self, loads):
        state = new_state(len(loads), 1)
        state.loads = np.asarray(loads, dtype=np.int64)
        state.t = int(sum(loads))
        return state

    def test_max_load_subset(self):
        state = self.make_state([3, 1, 2])
        assert max_load(state, [1, 2]) == 2
        assert max_load(state) == 3

    def test_max_load_empty_process(self):
        assert max_load(self.make_state([0, 0]), [0, 1]) == 0

    def test_max_load_singleton(self):
        assert max_load(self.make_state([5]), [0]) == 5

    def test_max_load_rejects_empty_subset(self):
        with pytest.raises(ValueError):
            max_load(self.make_state([1, 2]), [])

    def test_max_load_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            max_load(self.make_state([1, 2]), [2])

    def test_phi_counts_nonempty(self):
        state = self.make_state([0, 2, 1])
        assert phi(state) == 2
        assert phi(state, [0]) == 0
        assert phi(state, [1]) == 1

    def test_psi_counts_primary_offers(self):
        state = new_state(2, 2)
        pools = [Pool.replay([0, 0]), Pool.replay([0])]
        step(state, cap0_threshold(), pools)
        step(state, cap0_threshold(), pools)
        assert psi(state) == 1
        assert psi(state, [0]) == 1
        assert psi(state, [1]) == 0


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
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 7, 40])
    def test_threshold_matches_step_loop(self, n, d, m):
        strat = ThresholdStrategy(1.2)
        fast = run_trial(n, d, m, strat, seed=77)
        slow, _ = run_trial(n, d, m, strat, seed=77, collect_records=True)
        assert fast == slow

    @pytest.mark.parametrize("m", [0, 1, 13, 64])
    def test_beta_thinning_matches_step_loop(self, m):
        strat = BetaThinning(0.6, cap=0)
        fast = run_trial(3, 2, m, strat, seed=31)
        slow, _ = run_trial(3, 2, m, strat, seed=31, collect_records=True)
        assert fast == slow

    def test_always_accept_matches_step_loop(self):
        strat = AlwaysAccept()
        fast = run_trial(4, 3, 25, strat, seed=3)
        slow, _ = run_trial(4, 3, 25, strat, seed=3, collect_records=True)
        assert fast == slow


class TestProcessInvariants:
    @pytest.mark.parametrize("strategy", [AlwaysAccept(), ThresholdStrategy(0.5),
                                          ThresholdStrategy(2.1)])
    @pytest.mark.parametrize("n,d,m", [(2, 2, 9), (5, 3, 50), (3, 1, 20), (7, 2, 100)])
    def test_state_invariants_after_run(self, strategy, n, d, m):
        state, records, pools = reference_step_run(n, d, m, strategy, seed=8)
        state.validate()
        assert int(state.loads.sum()) == m
        assert int(state.rejection_counters[0]) == m
        # per-ball rejection count = chosen-1 <= d-1
        assert all(1 <= r.chosen <= d for r in records)
        assert all(len(r.suggestions) == r.chosen for r in records)
        assert all(r.suggestions[-1] == r.final for r in records)
        # pool accounting: pool i consumed exactly r_i values
        for i in range(d):
            assert pools[i].consumed == int(state.rejection_counters[i])
        # r_i equals the number of balls with chosen >= i+1
        for i in range(d):
            assert int(state.rejection_counters[i]) == sum(1 for r in records if r.chosen >= i + 1)

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
        for j in range(1, 4):
            assert len(induced_view(records, j)) == int(state.rejection_counters[j - 1])

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


class TestPools:
    # take sizes around and across the 2**16-value refill, each followed by next()
    SIZES = (0, 1, 7, 65_535, 0, 3, 70_001, 1, 65_536, 131_073)

    @pytest.mark.parametrize("stream", ["bins", "aux"])
    def test_take_and_next_agree(self, stream):
        def fresh():
            pools, aux = make_pools(10, 1, seed=5)
            return pools[0] if stream == "bins" else aux

        pool, mixed = fresh(), []
        for k in self.SIZES:
            mixed += pool.take(k).tolist()
            mixed.append(pool.next())
        assert pool.consumed == len(mixed)
        assert type(mixed[-1]) is (int if stream == "bins" else float)
        reference = fresh()
        via_next = [reference.next() for _ in mixed]
        assert mixed == fresh().take(len(mixed)).tolist() == via_next

    def test_round_streams_differ(self):
        pools, _ = make_pools(1000, 2, seed=5)
        assert pools[0].take(50).tolist() != pools[1].take(50).tolist()

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
        memory(10**6)
        assert run_trial(1000, 2, 1000, AlwaysAccept(), seed=0).m == 1000

    def test_run_experiment_counts_concurrent_trials(self, memory):
        memory(120_000)  # one n = m = 1000, d = 2 trial fits, two at once do not
        config = ExperimentConfig(n=1000, d=2, strategy="always-accept", trials=2)
        assert run_experiment(config).trials == 2
        with pytest.raises(ConfigError, match=r"on 2 thread\(s\)"):
            run_experiment(replace(config, threads=2))
        assert run_experiment(replace(config, threads=2, trials=1)).trials == 1

    def test_batched_counts_refused(self, memory):
        memory(10**6)
        with pytest.raises(ConfigError, match="batched trials"):
            simulate_max_load_counts(4, 2, 4, ThresholdStrategy(1.5), 10**5, seed=0)


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

    def test_write_trace_jsonl(self, tmp_path):
        _, records, _ = reference_step_run(3, 2, 5, ThresholdStrategy(0.5), seed=2)
        path = tmp_path / "trace.jsonl"
        write_trace(records, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        first = json.loads(lines[0])
        assert set(first) == {"t", "chosen", "suggestions", "final"}
        assert first["t"] == 0
