"""Harness tests: reproducibility, aggregation, baselines, file output."""

import ctypes
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from thinlab import core
from thinlab.core import ConfigError, mix_seed, run_greedy_d_choice, run_trial
from thinlab.experiments import (AggregateResult, ExperimentConfig,
                                 balls_from_rho, csv_header, emit, format_results,
                                 nearest_rank, run_experiment, sweep)
from thinlab.strategies import AlwaysAccept, ThresholdStrategy
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
        with pytest.raises(ConfigError, match="rho must be positive"):
            run_experiment(self.config(rho="-1"))
        with pytest.raises(ConfigError, match="threads must be >= 1"):
            run_experiment(self.config(threads=0))
        with pytest.raises(ConfigError, match="unknown output format 'xml'"):
            run_experiment(self.config(fmt="xml"))
        with pytest.raises(ConfigError, match="needs a single n"):
            run_experiment(self.config(n=None))

    def test_negative_bin_count(self):
        with pytest.raises(ConfigError, match="bin count"):
            run_experiment(self.config(n=-5, strategy="always-accept"))

    def test_negative_seed(self):
        # refused before any trial runs, with the allocators' message
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            run_experiment(self.config(seed=-1))
        with pytest.raises(ConfigError, match="seed must be >= 0, got -5"):
            sweep(ExperimentConfig(d=2, rho="1", strategy="threshold", trials=1,
                                   seed=-5, n_grid=(10, 20)))

    def test_zero_depth_uses_the_engine_check(self):
        with pytest.raises(ConfigError, match="thinning depth must be >= 1, got 0"):
            run_experiment(self.config(d=0))

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

    def test_zero_depth_uses_the_engine_check(self):
        with pytest.raises(ConfigError, match="thinning depth must be >= 1, got 0"):
            sweep(ExperimentConfig(d=0, rho="1", n_grid=(100,)))


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

    def test_kernels_compile_without_warnings(self):
        # every instantiation of PLACE and THIN, and tally, with warnings as errors
        compiled = subprocess.run(["cc", "-O2", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                                   core._KERNEL_SOURCE], capture_output=True, text=True,
                                  timeout=60)
        assert compiled.returncode == 0, compiled.stderr

    def test_every_kernel_is_declared(self):
        # undeclared, ctypes passes each argument as a C int, which can truncate a 64-bit
        # address or count; the kernels and their parameters are read from greedy.c: a plain
        # definition's own, and a macro instantiation's from its macro
        source = Path(core._KERNEL_SOURCE).read_text()
        macros = dict(re.findall(r"#define (\w+)\(name,[^)]*\)\s*\\\n\w+ name\(([^{]*)\)", source))
        signatures = dict(re.findall(r"^int64_t (\w+)\(([^)]*)\)\s*\{", source, re.M))
        signatures.update((name, macros[macro])
                          for macro, name in re.findall(r"^(\w+)\((\w+),", source, re.M))
        assert set(macros) == {"PLACE", "THIN"}
        assert set(signatures) == {"place_narrow", "place_wide", "thin_narrow", "thin_wide",
                                   "tally"}
        lib = core._kernels()
        for name, params in signatures.items():
            expected = [ctypes.c_void_p if "*" in param else
                        {"int64_t": ctypes.c_int64, "double": ctypes.c_double}[param.split()[0]]
                        for param in re.sub(r"\s*\\\n\s*", " ", params).split(",")]
            kernel = getattr(lib, name)
            assert list(kernel.argtypes or ()) == expected, name
            assert kernel.restype is ctypes.c_int64, name

    def test_no_compiler(self, empty_cache, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path))  # a directory with no cc in it
        for run in (lambda: run_greedy_d_choice(10, 2, 10, 1),
                    lambda: run_trial(10, 2, 10, ThresholdStrategy(0.5), 1)):
            with pytest.raises(RuntimeError, match=r"`cc -O2 -shared -fPIC -o \S+ \S+greedy\.c`, "
                                                   r"but no C compiler `cc` is on PATH"):
                run()
        assert not list(empty_cache.iterdir())

    def test_build_removes_stale_libraries(self, empty_cache):
        # a library of an earlier source goes; a concurrent builder's temporary stays
        empty_cache.mkdir()
        stale = empty_cache / "greedy-00000000.so"
        building = empty_cache / "greedy-00000000.so.1-2.tmp"
        stale.write_bytes(b"")
        building.write_bytes(b"")
        run_greedy_d_choice(10, 2, 10, 1)
        assert not stale.exists() and building.exists()
        library, = empty_cache.glob("greedy-*.so")
        assert re.fullmatch(r"greedy-[0-9a-f]{8}\.so", library.name)

    def test_cached_library_runs_no_compiler(self, tmp_path):
        package = tmp_path / "thinlab"
        shutil.copytree(Path(core.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        script = ("from thinlab import ThresholdStrategy, run_greedy_d_choice, run_trial; "
                  "print(run_greedy_d_choice(10, 2, 100, 1).to_json()); "
                  "print(run_trial(10, 2, 100, ThresholdStrategy(0.5), 1).to_json())")

        def fresh_process(path):
            env = {**os.environ, "PYTHONPATH": str(tmp_path), "PATH": path}
            return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                  capture_output=True, text=True, timeout=120).stdout

        built = fresh_process(os.environ["PATH"])
        library, = (package / "__pycache__").glob("greedy-*.so")
        stamp = library.stat().st_mtime_ns
        # with no cc on PATH, only loading the cached library can succeed
        assert fresh_process(str(tmp_path)) == built
        assert built == (run_greedy_d_choice(10, 2, 100, 1).to_json() + "\n"
                         + run_trial(10, 2, 100, ThresholdStrategy(0.5), 1).to_json() + "\n")
        assert library.stat().st_mtime_ns == stamp

    def test_threads_from_empty_cache(self, empty_cache):
        # four first calls start together, so each builds the kernels and moves them into place;
        # even seeds run greedy trials and odd ones threshold trials
        start = threading.Barrier(4)

        def trial(seed):
            if seed % 2:
                return run_trial(1000, 2, 10**5, ThresholdStrategy(1.5), seed).to_json()
            return run_greedy_d_choice(1000, 2, 10**5, seed).to_json()

        def first(seed):
            start.wait(timeout=60)
            return trial(seed)

        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(first, range(8), timeout=120))
        assert threaded == [trial(s) for s in range(8)]
        # one library, and no temporary left behind
        library, = empty_cache.iterdir()
        assert re.fullmatch(r"greedy-[0-9a-f]{8}\.so", library.name)


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

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError, match="unknown output format 'xml'"):
            format_results(self.agg(), "xml")

    def test_io_error_has_path_context(self, tmp_path):
        target = tmp_path / "missing-dir" / "x.csv"
        with pytest.raises(OSError, match="missing-dir"):
            emit(self.agg(), "csv", target)

    def test_mixed_d_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit([self.agg(), self.agg(d=3, r_means=(1.0, 0.5))], "csv",
                 tmp_path / "x.csv")
