"""Harness tests: reproducibility, aggregation, baselines, file output."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from thinlab.core import ConfigError, mix_seed, run_trial
from thinlab.experiments import (AggregateResult, ExperimentConfig,
                                 balls_from_rho, csv_header, emit,
                                 nearest_rank, run_experiment,
                                 run_greedy_d_choice, sweep)
from thinlab.strategies import AlwaysAccept
from thinlab.theory import ell


class TestBallsFromRho:
    def test_exact_decimal_arithmetic(self):
        assert balls_from_rho("1.5", 3) == 4
        assert balls_from_rho("0.1", 10) == 1
        assert balls_from_rho("0.3", 10) == 3  # float 0.3*10 would truncate to 2
        assert balls_from_rho("2", 5) == 10
        assert balls_from_rho("1", 10**6) == 10**6

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            balls_from_rho("0", 5)
        with pytest.raises(ConfigError):
            balls_from_rho("-1", 5)


class TestNearestRank:
    def test_reference_points(self):
        values = [1, 2, 3, 4]
        assert nearest_rank(values, 50) == 2
        assert nearest_rank(values, 95) == 4
        assert nearest_rank(values, 25) == 1
        assert nearest_rank([7], 99) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nearest_rank([], 50)


class TestRunExperiment:
    def config(self, **overrides):
        base = dict(n=500, d=2, rho="1", strategy="threshold", trials=12,
                    seed=7, threads=1)
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_deterministic_rerun(self):
        a = run_experiment(self.config())
        b = run_experiment(self.config())
        assert a == b

    def test_parallel_matches_serial(self):
        serial = run_experiment(self.config(threads=1))
        parallel = run_experiment(self.config(threads=8))
        assert serial == parallel

    def test_emitted_csv_bytes_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(run_experiment(self.config()), "csv", p1)
        emit(run_experiment(self.config(threads=8)), "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_summary_orderings(self):
        agg = run_experiment(self.config(trials=25))
        assert agg.maxload_min <= agg.maxload_p50 <= agg.maxload_max
        assert agg.maxload_p50 <= agg.maxload_p95 <= agg.maxload_p99
        assert 0.0 <= agg.frac_r_le_beta <= 1.0
        assert agg.m == 500
        assert agg.trials == 25

    def test_single_bin_degenerate(self):
        agg = run_experiment(ExperimentConfig(n=1, d=1, rho="5", strategy="always-accept",
                                              trials=3, seed=1))
        assert agg.maxload_mean == 5.0
        assert agg.maxload_min == agg.maxload_max == 5
        assert math.isnan(agg.ell)

    def test_keep_trials(self):
        agg, results = run_experiment(self.config(trials=4), keep_trials=True)
        assert len(results) == 4
        assert agg.maxload_mean == sum(r.max_load for r in results) / 4
        assert [r.seed for r in results] == [mix_seed(7, j) for j in range(4)]

    def test_invalid_strategy_spec(self):
        with pytest.raises(ConfigError):
            run_experiment(self.config(strategy="bogus"))

    def test_invalid_counts(self):
        with pytest.raises(ConfigError):
            run_experiment(self.config(trials=0))
        with pytest.raises(ConfigError):
            ExperimentConfig(n=10, d=2, rho="-1").validated()

    def test_r2_mean_tracks_trials(self):
        agg, results = run_experiment(self.config(trials=6), keep_trials=True)
        expected = sum(r.rejection_counters[1] for r in results) / 6
        assert agg.r_means == (expected,)


class TestSweep:
    def test_single_point_grid(self):
        config = ExperimentConfig(d=2, rho="1", strategy="threshold", trials=1,
                                  seed=3, n_grid=(10**4,))
        rows = sweep(config)
        assert len(rows) == 1
        assert rows[0].n == 10**4

    def test_ratio_column_present_and_bounded(self):
        config = ExperimentConfig(d=2, rho="1", strategy="threshold", trials=3,
                                  seed=3, n_grid=(10**4, 10**5, 10**6))
        rows = sweep(config)
        for row in rows:
            assert row.ratio_to_dell == pytest.approx(
                row.maxload_mean / (2 * ell(row.n, 2)), rel=1e-12)
            assert 0.55 <= row.ratio_to_dell <= 1.25

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep(ExperimentConfig(d=2, rho="1", n_grid=()))

    def test_tiny_grid_values_rejected(self):
        with pytest.raises(ConfigError):
            sweep(ExperimentConfig(d=2, rho="1", n_grid=(2, 100)))


def exact_greedy2_max_dist(n, m):
    """Direct enumeration of the two-choice greedy with lowest-index ties."""
    dist = {}

    def place(ball, loads, weight):
        if ball == m:
            top = max(loads)
            dist[top] = dist.get(top, Fraction(0)) + weight
            return
        for a in range(n):
            for b in range(n):
                pick = b if (loads[b], b) < (loads[a], a) else a
                nxt = list(loads)
                nxt[pick] += 1
                place(ball + 1, nxt, weight * Fraction(1, n * n))

    place(0, [0] * n, Fraction(1))
    return dist


class TestGreedyDChoice:
    def test_exact_small_instance(self):
        dist = exact_greedy2_max_dist(2, 2)
        assert dist == {1: Fraction(3, 4), 2: Fraction(1, 4)}

    def test_monte_carlo_matches_enumeration(self):
        trials = 4_000
        hits = sum(run_greedy_d_choice(2, 2, 2, mix_seed(11, j)).max_load == 2
                   for j in range(trials))
        se = math.sqrt(0.25 * 0.75 / trials)
        assert abs(hits / trials - 0.25) <= 4 * se

    def test_d1_matches_one_choice_engine(self):
        greedy = run_greedy_d_choice(20, 1, 150, seed=5)
        one_choice = run_trial(20, 1, 150, AlwaysAccept(), seed=5)
        assert greedy.histogram == one_choice.histogram
        assert greedy.max_load == one_choice.max_load

    def test_result_bookkeeping(self):
        res = run_greedy_d_choice(10, 3, 40, seed=2)
        assert res.strategy == "greedy-3-choice"
        assert sum(res.histogram.values()) == 10
        assert sum(load * cnt for load, cnt in res.histogram.items()) == 40
        assert res.rejection_counters == (40, 0, 0)

    def test_large_instance_range(self):
        # reference range for n = m = 10**6: the greedy max stays in [2, 6]
        for j in range(2):
            res = run_greedy_d_choice(10**6, 2, 10**6, seed=mix_seed(3, j))
            assert 2 <= res.max_load <= 6


class TestOneChoiceSanity:
    def test_million_ball_band(self):
        # classical single-choice max load concentrates near ln n/ln ln n * (1+o(1))
        l1 = ell(10**6, 1)
        maxes = [run_trial(10**6, 1, 10**6, AlwaysAccept(), mix_seed(5, j)).max_load
                 for j in range(3)]
        assert l1 * 0.9 <= np.mean(maxes) <= l1 * 2.2


class TestEmit:
    def agg(self, **overrides):
        base = dict(n=100, d=2, rho="1", m=100, strategy="threshold", trials=2,
                    seed=1, maxload_mean=3.5, maxload_min=3, maxload_p50=3,
                    maxload_p95=4, maxload_p99=4, maxload_max=4,
                    ell=ell(100, 2), ratio_to_dell=0.57, r_means=(2.5,),
                    phi_mean=60.0, psi_mean=62.0, frac_r_le_beta=1.0,
                    runtime_ms=12.5)
        base.update(overrides)
        return AggregateResult(**base)

    def test_csv_schema_d2(self, tmp_path):
        path = tmp_path / "out.csv"
        emit(self.agg(), "csv", path)
        lines = path.read_text().split("\n")
        assert lines[0] == ("n,d,rho,m,strategy,trials,seed,maxload_mean,maxload_min,"
                            "maxload_p50,maxload_p95,maxload_p99,maxload_max,ell,"
                            "ratio_to_dell,r2_mean,phi,psi,frac_r_le_beta,runtime_ms")
        assert lines[1].startswith("100,2,1,100,threshold,2,1,3.5,3,3,4,4,4,")
        assert lines[1].endswith(",0.0")  # stable mode suppresses wall time

    def test_csv_schema_d3_headers(self):
        assert csv_header(3)[15:17] == ["r2_mean", "r3_mean"]

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        emit(self.agg(), "csv", path)
        assert b"\r" not in path.read_bytes()

    def test_runtime_column_opt_in(self, tmp_path):
        stable = tmp_path / "stable.csv"
        timed = tmp_path / "timed.csv"
        emit(self.agg(), "csv", stable)
        emit(self.agg(), "csv", timed, include_runtime=True)
        assert stable.read_text().split("\n")[1].endswith(",0.0")
        assert timed.read_text().split("\n")[1].endswith(",12.5")

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "out.json"
        results = [self.agg(), self.agg(n=200, m=200)]
        emit(results, "json", path)
        with open(path) as f:
            assert json.load(f) == [r.to_dict() for r in results]

    def test_plotdata_triplets(self, tmp_path):
        path = tmp_path / "out.dat"
        emit(self.agg(), "plotdata", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# n maxload_mean d_ell"
        n_str, mean_str, dell_str = lines[1].split()
        assert n_str == "100"
        assert float(mean_str) == 3.5
        assert float(dell_str) == pytest.approx(2 * ell(100, 2))

    def test_quoted_strategy_round_trips(self, tmp_path):
        path = tmp_path / "out.csv"
        emit(self.agg(strategy="beta-thinning:beta=0.5,cap=0"), "csv", path)
        import csv as csv_mod

        with open(path) as f:
            rows = list(csv_mod.reader(f))
        assert rows[1][4] == "beta-thinning:beta=0.5,cap=0"

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit([], "csv", tmp_path / "x.csv")

    def test_io_error_has_path_context(self, tmp_path):
        target = tmp_path / "missing-dir" / "x.csv"
        with pytest.raises(OSError, match="missing-dir"):
            emit(self.agg(), "csv", target)

    def test_mixed_d_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit([self.agg(), self.agg(d=3, r_means=(1.0, 0.5))], "csv",
                 tmp_path / "x.csv")
