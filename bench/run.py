#!/usr/bin/env python3
"""Benchmark thinlab's public API: trial throughput on three workloads.

Run from the repository root, with nothing installed:

    python3 bench/run.py --workload threshold-1e6 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

The program is imported from ./src. One run sets up, measures whole rounds
of its workload for about --seconds seconds, checks every output against the
independent computations in bench/checks.py, and prints as its last line one
JSON object with `correct`, `attempted`, `failed` and `metrics`. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the same
rounds also run instrumented trials and the metrics are the per-module ones.
Raw samples and spans go to bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
NPROC = len(os.sched_getaffinity(0))
N = 10 ** 6
SETUP_PROBES = 7
# oracle-tiny: trials per compare_empirical call, batched and one run_trial
# per trial, and single-thread run_trial calls timed per instance and round.
ORACLE_BATCHED_TRIALS = 20000
ORACLE_UNBATCHED_TRIALS = 200
ORACLE_TIMED_TRIALS = 20
# (n, d, m, strategy): tiny enough for the exhaustive tree walk, and with
# both threshold caps 0 and 1 and the always-accept reduction to one-choice.
ORACLE_INSTANCES = (
    (2, 2, 2, "threshold:ell=0.5"),
    (3, 2, 3, "threshold:ell=1.5"),
    (3, 3, 3, "threshold:ell=0.5"),
    (4, 2, 4, "threshold:ell=1.5"),
    (4, 3, 4, "threshold:ell=1.5"),
    (2, 3, 5, "threshold:ell=1.5"),
    (4, 1, 5, "always-accept"),
    (3, 2, 4, "always-accept"),
)

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "trials/s",
    "trial_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "core.pool_take_ms": "ms",
    "core.run_trial_self_ms": "ms",
    "core.run_trial_peak_alloc_mb": "MB",
    "core.simulate_max_load_counts_ms": "ms",
    "core.suggestions_per_ball": "ratio",
    "strategies.accept_mask_ms": "ms",
    "strategies.accept_mask_peak_alloc_mb": "MB",
    "strategies.decide_calls": "calls",
    "experiments.run_experiment_s": "s",
    "experiments.thread_speedup": "ratio",
    "experiments.aggregate_ms": "ms",
    "experiments.emit_ms": "ms",
    "experiments.greedy_trial_ms": "ms",
    "oracle.exact_distribution_ms": "ms",
    "oracle.compare_empirical_ms": "ms",
    "trace.overhead_pct": "%",
}


def import_thinlab():
    """Import thinlab from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "thinlab" / "__init__.py").is_file():
        sys.exit(f"bench: no thinlab sources under {src}")
    sys.path.insert(0, str(src))
    import thinlab
    if Path(thinlab.__file__).resolve().parent != (src / "thinlab").resolve():
        sys.exit(f"bench: imported thinlab from {thinlab.__file__}, not from {src}")
    return thinlab


def derive(seed: int, *keys) -> int:
    """A 63-bit seed for one call, fixed by the run seed and the call's keys."""
    digest = hashlib.blake2b(repr((seed, *keys)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def dur(span: dict) -> float:
    return span["end"] - span["start"]


class Tracer:
    """Spans kept in memory: name, start, end, the causing span and the round."""

    def __init__(self):
        self.spans: list[dict] = []
        self.round = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        rec = {"id": len(self.spans), "name": name, "round": self.round,
               "parent": parent if parent is not None else (self._stack[-1] if self._stack else None),
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def per_round(self, name: str, reduce=statistics.fmean, value=None) -> float:
        """Median over rounds of `reduce` over the round's spans; 0 if none ran."""
        value = value or dur
        rounds: dict[int, list[float]] = {}
        for s in self.named(name):
            rounds.setdefault(s["round"], []).append(value(s))
        if not rounds:
            return 0.0
        return statistics.median(reduce(v) for v in rounds.values())

    def children(self) -> dict[int, list[dict]]:
        kids: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                kids.setdefault(s["parent"], []).append(s)
        return kids


class TracedStrategy:
    """Strategy proxy: spans each accept_mask call and counts decide calls.

    Implements the public strategy protocol (name, deterministic,
    accept_mask, decide) by delegating to the wrapped strategy, so a trial
    run through it gives the same result. With `memory` set it also records
    the peak traced allocation of each accept_mask call; tracemalloc must be
    running then.
    """

    def __init__(self, inner, tracer: Tracer, memory: bool = False):
        self._inner = inner
        self._tracer = tracer
        self._memory = memory
        self.name = inner.name
        self.deterministic = inner.deterministic
        self.accept_mask = None if inner.accept_mask is None else self._accept_mask
        self.decide_calls = 0
        self.mask_peak = 0
        self.outer_peak = 0

    def decide(self, i, bin_index, state, aux):
        self.decide_calls += 1
        return self._inner.decide(i, bin_index, state, aux)

    def _accept_mask(self, i, suggestions, aux):
        if not self._memory:
            with self._tracer.span("strategies.accept_mask"):
                return self._inner.accept_mask(i, suggestions, aux)
        # reset_peak forgets the caller's peak so far; keep it in outer_peak.
        current, peak = tracemalloc.get_traced_memory()
        self.outer_peak = max(self.outer_peak, peak)
        tracemalloc.reset_peak()
        mask = self._inner.accept_mask(i, suggestions, aux)
        self.mask_peak = max(self.mask_peak, tracemalloc.get_traced_memory()[1] - current)
        return mask


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Shared bookkeeping: operations, samples, checks and instrumented trials."""

    name = ""

    def __init__(self, tl, seed: int, tracer: Tracer, trace: bool):
        self.tl = tl
        self.seed = seed
        self.tracer = tracer
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # run-level check failures
        # Keyed by trial config: seconds of each program call that ran trials,
        # the trials one such call runs, and single-thread trial times in ms.
        self.call_s: dict[str, list[float]] = {}
        self.call_trials: dict[str, int] = {}
        self.single_ms: dict[str, list[float]] = {}
        self.engine_trials: list = []  # every engine TrialResult, for r_i sums
        self.mem_peaks: list[tuple[float, float]] = []

    def operation(self, problems: list[str], what: str) -> None:
        """Count one operation, failed if its check found problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"bench: {self.name} {what}: " + "; ".join(problems), file=sys.stderr)

    def record_call(self, key: str, seconds: float, trials: int) -> None:
        self.call_s.setdefault(key, []).append(seconds)
        self.call_trials[key] = trials

    def timed_trial(self, key, n, d, m, strategy, seed):
        """One run_trial alone on this thread.

        In trace mode an instrumented copy with the same seed runs too, before
        or after it by turns, since the second of two equal trials runs warm.
        """
        copies = []
        if self.trace and len(self.engine_trials) % 2:
            copies = self.instrumented_trial(n, d, m, strategy, seed)
        with self.tracer.span("core.run_trial.plain") as rec:
            result = self.tl.run_trial(n, d, m, strategy, seed)
        self.single_ms.setdefault(key, []).append(dur(rec) * 1e3)
        if self.trace and not copies:
            copies = self.instrumented_trial(n, d, m, strategy, seed)
        if any(c.to_json() != result.to_json() for c in copies):
            self.problems.append(f"instrumented trial (n={n}, d={d}, seed={seed}) "
                                 "differs from the plain one")
        self.engine_trials.append(result)
        return result

    def final_checks(self) -> None:
        """Checks over the whole run; none by default."""

    def instrumented_trial(self, n, d, m, strategy, seed) -> list:
        """Spanned copy, pool replay and tracemalloc copy of one trial."""
        proxy = TracedStrategy(strategy, self.tracer)
        with self.tracer.span("core.run_trial") as rec:
            spanned = self.tl.run_trial(n, d, m, proxy, seed)
        # run_trial builds its pools inside; replay the same takes on fresh ones.
        with self.tracer.span("core.pool_take", parent=rec["id"]):
            pools, _ = self.tl.make_pools(n, d, seed)
            for pool, r in zip(pools, spanned.rejection_counters):
                pool.take(r)
        tracemalloc.start()
        try:
            proxy = TracedStrategy(strategy, self.tracer, memory=True)
            base = tracemalloc.get_traced_memory()[0]
            measured = self.tl.run_trial(n, d, m, proxy, seed)
            peak = max(proxy.outer_peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        self.mem_peaks.append(((peak - base) / 2 ** 20, proxy.mask_peak / 2 ** 20))
        return [spanned, measured]

    def end_to_end(self) -> dict[str, float]:
        """Per-config medians: trials_per_s from the calls, trial_ms_p50 from single trials."""
        call_s = sum(statistics.median(v) for v in self.call_s.values())
        return {
            "trials_per_s": sum(self.call_trials.values()) / call_s,
            "trial_ms_p50": statistics.fmean(statistics.median(v) for v in self.single_ms.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        t = self.tracer
        ms = 1e3
        traced = t.named("core.run_trial")
        plain = t.named("core.run_trial.plain")
        metrics = {name: 0.0 for name in PER_LAYER}
        if traced:
            kids = t.children()

            def kids_s(s, name=None):
                return sum(dur(c) for c in kids.get(s["id"], ()) if name in (None, c["name"]))

            metrics.update({
                "core.pool_take_ms": t.per_round("core.pool_take") * ms,
                # self time: the trial less its accept_mask spans and its pool replay
                "core.run_trial_self_ms": t.per_round(
                    "core.run_trial", value=lambda s: dur(s) - kids_s(s)) * ms,
                "core.run_trial_peak_alloc_mb": max(p for p, _ in self.mem_peaks),
                "strategies.accept_mask_ms": t.per_round(
                    "core.run_trial", value=lambda s: kids_s(s, "strategies.accept_mask")) * ms,
                "strategies.accept_mask_peak_alloc_mb": max(p for _, p in self.mem_peaks),
                "trace.overhead_pct": 100 * (sum(map(dur, traced)) / sum(map(dur, plain)) - 1),
            })
        if self.engine_trials:
            metrics["core.suggestions_per_ball"] = (
                sum(sum(r.rejection_counters) for r in self.engine_trials)
                / sum(r.m for r in self.engine_trials))
        metrics.update({
            "core.simulate_max_load_counts_ms":
                t.per_round("core.simulate_max_load_counts", reduce=sum) * ms,
            "strategies.decide_calls": t.per_round(
                "oracle.exact_distribution", reduce=sum, value=lambda s: s.get("decide_calls", 0)),
            "experiments.run_experiment_s": t.per_round("experiments.run_experiment"),
            "experiments.aggregate_ms": t.per_round("experiments.aggregate") * ms,
            "experiments.emit_ms": t.per_round("experiments.emit") * ms,
            "experiments.greedy_trial_ms": t.per_round("experiments.run_greedy_d_choice") * ms,
            "oracle.exact_distribution_ms": t.per_round("oracle.exact_distribution", reduce=sum) * ms,
            "oracle.compare_empirical_ms": t.per_round("oracle.compare_empirical", reduce=sum) * ms,
        })
        serial = t.named("experiments.run_experiment.serial")
        if serial:
            threaded = [s for s in t.named("experiments.run_experiment") if s["round"] == 0]
            metrics["experiments.thread_speedup"] = sum(map(dur, serial)) / sum(map(dur, threaded))
        return metrics


class ThresholdWorkload(Workload):
    """run_experiment with the threshold rule at n = m = 10**6, d = 2 and 3, nproc threads."""

    name = "threshold-1e6"
    DS = (2, 3)

    def __init__(self, tl, seed, tracer, trace):
        super().__init__(tl, seed, tracer, trace)
        self.configs = {d: tl.ExperimentConfig(n=N, d=d, rho="1", strategy="threshold",
                                                trials=2 * NPROC, threads=NPROC)
                        for d in self.DS}
        self.strategies = {d: tl.make_strategy("threshold", N, d) for d in self.DS}
        self.results = {d: [] for d in self.DS}
        self.first = {}

    def warm_up(self) -> None:
        for d in self.DS:
            self.tl.run_trial(10 ** 4, d, 10 ** 4, self.tl.make_strategy("threshold", 10 ** 4, d), 0)

    def check(self, result, d) -> list[str]:
        return checks.check_trial(result, N, d, N, cap=checks.cap_for(N, d))

    def run_round(self, r: int) -> None:
        tl, t = self.tl, self.tracer
        for d in self.DS:
            config = replace(self.configs[d], seed=derive(self.seed, r, d))
            with t.span("experiments.run_experiment") as rec:
                agg, results = tl.run_experiment(config, keep_trials=True)
            with t.span("experiments.emit") as out:
                tl.emit(agg, "csv", OUT / f"{self.name}-d{d}.csv")
            self.record_call(f"d={d}", out["end"] - rec["start"], len(results))
            if self.trace:
                with t.span("experiments.aggregate"):
                    tl.experiments.aggregate(results, config, N)
            if r == 0:
                self.first[d] = (config, results)
            for res in results:
                self.operation(self.check(res, d), f"trial d={d}")
            self.results[d].extend(results)
            self.engine_trials.extend(results)
        for d in self.DS:
            res = self.timed_trial(f"d={d}", N, d, N, self.strategies[d],
                                   derive(self.seed, r, d, "single"))
            self.operation(self.check(res, d), f"single trial d={d}")
            self.results[d].append(res)

    def final_checks(self) -> None:
        for d in self.DS:
            law = checks.thinning_law(N, d, 1.0, checks.cap_for(N, d))
            self.problems += [f"d={d}: {p}" for p in checks.check_law(self.results[d], law, N)]
            # Trial j of a config runs on seed mix_seed(seed, j) whatever the
            # thread count, so a serial run of the first trials must give their
            # bytes. The traced run reruns all of them, for thread_speedup.
            config, threaded = self.first[d]
            config = replace(config, threads=1, trials=config.trials if self.trace else 1)
            with self.tracer.span("experiments.run_experiment.serial"):
                _, serial = self.tl.run_experiment(config, keep_trials=True)
            if [x.to_json() for x in serial] != [x.to_json() for x in threaded[:config.trials]]:
                self.problems.append(f"d={d}: serial rerun differs from the threaded trials")


class BaselinesWorkload(Workload):
    """Comparison allocators at n = m = 10**6 on one thread: greedy-2, one-choice, beta-thinning."""

    name = "baselines-1e6"
    BETA = "beta-thinning:beta=0.5"

    def __init__(self, tl, seed, tracer, trace):
        super().__init__(tl, seed, tracer, trace)
        self.always = tl.make_strategy("always-accept", N, 1)
        self.beta = tl.make_strategy(self.BETA, N, 2)
        self.fluid = checks.greedy_fluid_limit(2, 1.0)
        self.always_results, self.beta_results = [], []

    def warm_up(self) -> None:
        self.tl.run_greedy_d_choice(10 ** 4, 2, 10 ** 4, 0)
        self.tl.run_trial(10 ** 4, 1, 10 ** 4, self.always, 0)
        self.tl.run_trial(10 ** 4, 2, 10 ** 4, self.beta, 0)

    def run_round(self, r: int) -> None:
        with self.tracer.span("experiments.run_greedy_d_choice") as rec:
            greedy = self.tl.run_greedy_d_choice(N, 2, N, derive(self.seed, r, "greedy"))
        self.single_ms.setdefault("greedy-2", []).append(dur(rec) * 1e3)
        self.operation(checks.check_trial(greedy, N, 2, N)
                       + checks.check_greedy_histogram(greedy, N, self.fluid), "greedy-2")
        always = self.timed_trial("always-accept", N, 1, N, self.always, derive(self.seed, r, "always"))
        self.operation(checks.check_trial(always, N, 1, N)
                       + checks.check_one_choice_histogram(always, N, N), "always-accept")
        self.always_results.append(always)
        beta = self.timed_trial("beta-thinning", N, 2, N, self.beta, derive(self.seed, r, "beta"))
        cap = checks.cap_for(N, 2)
        name = [] if beta.strategy == f"{self.BETA},cap={cap}" else [f"strategy {beta.strategy}"]
        self.operation(checks.check_trial(beta, N, 2, N) + name, "beta-thinning")
        self.beta_results.append(beta)
        # Each call here is one trial alone on this thread.
        for key, ms in self.single_ms.items():
            self.record_call(key, ms[-1] / 1e3, 1)

    def final_checks(self) -> None:
        cap = checks.cap_for(N, 2)
        self.problems += [f"always-accept: {p}" for p in checks.check_law(
            self.always_results, checks.thinning_law(N, 1, 1.0, cap), N)]
        self.problems += [f"beta-thinning: {p}" for p in checks.check_law(
            self.beta_results, checks.thinning_law(N, 2, 1.0, cap, beta=0.5), N)]


class OracleWorkload(Workload):
    """exact_distribution plus compare_empirical, batched and per trial, on tiny instances."""

    name = "oracle-tiny"

    def __init__(self, tl, seed, tracer, trace):
        super().__init__(tl, seed, tracer, trace)
        self.strategies = [tl.make_strategy(spec, n, d) for n, d, m, spec in ORACLE_INSTANCES]
        self.references = {}

    def warm_up(self) -> None:
        n, d, m, _ = ORACLE_INSTANCES[0]
        dist = self.tl.exact_distribution(n, d, m, self.strategies[0])
        self.tl.compare_empirical(dist, 10, 0)
        self.tl.compare_empirical(dist, 10, 0, batched=False)

    def reference(self, n, m):
        """Exact one-choice law by the separate n**m enumeration, made once and not timed."""
        if (n, m) not in self.references:
            self.references[n, m] = self.tl.multinomial_max_load_exact(n, m)
        return self.references[n, m]

    def run_round(self, r: int) -> None:
        tl, t = self.tl, self.tracer
        for k, ((n, d, m, spec), strategy) in enumerate(zip(ORACLE_INSTANCES, self.strategies)):
            walker = TracedStrategy(strategy, t) if self.trace else strategy
            with t.span("oracle.exact_distribution") as rec:
                dist = tl.exact_distribution(n, d, m, walker)
            if self.trace:
                rec["decide_calls"] = walker.decide_calls
                dist = replace(dist, strategy=strategy)
            problems = checks.check_exact_masses(
                dist.masses, self.reference(n, m) if spec == "always-accept" else None)
            elapsed = dur(rec)
            for batched, trials in ((True, ORACLE_BATCHED_TRIALS), (False, ORACLE_UNBATCHED_TRIALS)):
                seed = derive(self.seed, r, k, batched)
                with t.span("oracle.compare_empirical") as rec:
                    report = tl.compare_empirical(dist, trials, seed, batched=batched)
                elapsed += dur(rec)
                counts = {a.value: round(a.empirical * trials) for a in report.atoms if a.empirical}
                problems += checks.check_empirical(dist.masses, counts, trials)
                self.attempted += trials
                if batched and self.trace:
                    with t.span("core.simulate_max_load_counts"):
                        direct = tl.core.simulate_max_load_counts(n, d, m, strategy, trials, seed)
                    if direct != counts:
                        problems.append("simulate_max_load_counts disagrees with compare_empirical")
            self.operation(problems, f"instance {(n, d, m, spec)}")
            self.record_call(str(k), elapsed, ORACLE_BATCHED_TRIALS + ORACLE_UNBATCHED_TRIALS)
            cap = math.floor(float(spec.partition("=")[2])) if spec != "always-accept" else None
            for j in range(ORACLE_TIMED_TRIALS):
                res = self.timed_trial(str(k), n, d, m, strategy, derive(self.seed, r, k, j))
                self.operation(checks.check_trial(res, n, d, m, cap=cap), "trial")


WORKLOADS = {w.name: w for w in (ThresholdWorkload, BaselinesWorkload, OracleWorkload)}


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------


def setup(name: str, seed: int, trace: bool):
    """Imports, configs, strategies and one warm-up call: what setup_s times."""
    tl = import_thinlab()
    workload = WORKLOADS[name](tl, seed, Tracer(), trace)
    workload.warm_up()
    return workload


def probe_setup(name: str) -> float:
    """Seconds from starting a fresh process to the end of its setup."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, __file__, "--workload", name, "--setup-probe"],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            sys.exit(f"bench: setup probe for {name} failed")
    return elapsed


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = setup(name, seed, trace)
    setup_s = statistics.median(probe_setup(name) for _ in range(SETUP_PROBES)) if not trace else None
    OUT.mkdir(exist_ok=True)
    start = time.perf_counter()
    round_s = []
    while True:
        workload.tracer.round = len(round_s)
        began = time.perf_counter()
        workload.run_round(len(round_s))
        now = time.perf_counter()
        round_s.append(now - began)
        if now - start + statistics.median(round_s) > seconds:
            break
    workload.tracer.round = len(round_s)
    workload.final_checks()
    for p in workload.problems:
        print(f"bench: {name}: {p}", file=sys.stderr)

    if trace:
        values = workload.per_layer()
        units = PER_LAYER
    else:
        values = {"setup_s": setup_s, **workload.end_to_end()}
        units = END_TO_END
    result = {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    raw = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
           "nproc": NPROC, "rounds": len(round_s), "round_s": round_s,
           "call_s": workload.call_s, "call_trials": workload.call_trials,
           "single_ms": workload.single_ms, "problems": workload.problems, "result": result}
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"run-{tag}.json").write_text(json.dumps(raw, indent=1) + "\n")
    if trace:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(workload.tracer.spans) + "\n")
    return result


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"] or results[name]["failed"] > 0
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup(args.workload, 0, False)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for k, v in result["metrics"].items():
        print(f"{args.workload} {k} = {v['value']:.6g} {v['unit']}")
    print(f"{args.workload} attempted = {result['attempted']} failed = {result['failed']} "
          f"correct = {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
