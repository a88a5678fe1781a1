"""Exact engine for the d-thinning allocation process.

A ball is offered up to d consecutive uniformly random bins.  A strategy may
reject the first d-1 offers; the d-th offer is always placed.  The engine
tracks, per round i, how many balls reached that round (the rejection
counters r_i), the per-round accepted loads, and which bins were ever offered
as a primary suggestion.

Bins are indexed 0..n-1 and ball indices are 0-based throughout.

Randomness layout: round i (1-based) draws its suggestions from an
independent stream seeded with SeedSequence((seed, POOL_TAG, i)); a strategy
that needs its own coin flips gets one float stream seeded with
SeedSequence((seed, AUX_TAG)).  Streams are materialised in fixed-size chunks
so that the value sequence of each stream depends only on the seed, never on
the consumption pattern.
"""

from __future__ import annotations

import json
import os
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

POOL_TAG = 0x706F6F6C  # "pool"
AUX_TAG = 0x61757861  # "auxa"
_CHUNK = 1 << 16


class ConfigError(ValueError):
    """Invalid process or experiment configuration."""


class PoolExhausted(RuntimeError):
    """A finite replay pool ran out of values."""


def _memory_bytes() -> int:
    """Physical memory, lowered to the address-space limit when one is set."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return physical if soft == resource.RLIM_INFINITY else min(physical, soft)


MEMORY_BYTES = _memory_bytes()


def trial_int64s(n: int, d: int, m: int) -> int:
    """Estimated int64 values one trial holds at its peak.

    The state's d+1 n-length rows plus two n-length temporaries, and about
    five m-length arrays in a round (the take, the strategy's ranks and
    masks, the accepted suggestions).
    """
    return (d + 3) * n + 5 * m


def require_memory(int64s: int, what: str) -> None:
    """Refuse, before allocating anything, a run whose arrays cannot fit."""
    need = 8 * int64s
    if need > MEMORY_BYTES:
        raise ConfigError(f"{what} needs about {need / 1e6:,.0f} MB of int64 arrays, "
                          f"more than the {MEMORY_BYTES / 1e6:,.0f} MB of memory available")


# ---------------------------------------------------------------------------
# suggestion pools
# ---------------------------------------------------------------------------


class Pool:
    """Stream of values served from `block`, then from each block `draw()` returns.

    A seeded pool starts empty and draws fixed-size blocks, so its value sequence depends only
    on its seed, never on how take() and next() calls split it.  A replay
    pool (`Pool.replay`) holds one fixed block and raises PoolExhausted when
    asked for more.
    """

    def __init__(self, draw, block: np.ndarray):
        self._draw = draw
        self._buf = block
        self._pos = 0
        self.consumed = 0

    @classmethod
    def replay(cls, values, dtype=np.int64) -> "Pool":
        """Finite pool replaying `values`, for scripted runs."""
        block = np.asarray(values, dtype=dtype)

        def exhausted():
            raise PoolExhausted(f"replay pool exhausted after {block.size} values")
        return cls(exhausted, block)

    def _refill(self) -> None:
        self._buf = self._draw()
        self._pos = 0

    def take(self, k: int) -> np.ndarray:
        out = np.empty(k, dtype=self._buf.dtype)
        filled = 0
        while filled < k:
            if self._pos == self._buf.size:
                self._refill()
            span = min(k - filled, self._buf.size - self._pos)
            out[filled:filled + span] = self._buf[self._pos:self._pos + span]
            self._pos += span
            filled += span
        self.consumed += k
        return out

    def next(self):
        if self._pos == self._buf.size:
            self._refill()
        v = self._buf.item(self._pos)
        self._pos += 1
        self.consumed += 1
        return v


def _generator(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def _aux_pool(seed: int) -> Pool:
    """The strategy's stream of uniform floats on [0, 1)."""
    return Pool(partial(_generator(seed, AUX_TAG).random, _CHUNK), np.empty(0, np.float64))


def make_pools(n: int, d: int, seed: int) -> tuple[list[Pool], Pool]:
    """Build the d per-round suggestion streams (uniform on [0, n)) and the aux stream."""
    pools = [
        Pool(partial(_generator(seed, POOL_TAG, i).integers, 0, n, size=_CHUNK,
                     dtype=np.int64),
             np.empty(0, np.int64))
        for i in range(1, d + 1)
    ]
    return pools, _aux_pool(seed)


# ---------------------------------------------------------------------------
# process state
# ---------------------------------------------------------------------------


@dataclass
class AllocationState:
    """Live state of one allocation run.

    loads[m] is the total load of bin m; round_loads[i-1][m] counts balls that
    accepted bin m at round i; rejection_counters[i-1] is r_i(t), the number
    of balls whose first i-1 offers were all rejected (r_1 = t); psi_seen[m]
    flags bins ever offered as a primary.
    """

    n: int
    d: int
    t: int
    loads: np.ndarray
    round_loads: np.ndarray
    rejection_counters: np.ndarray
    psi_seen: np.ndarray

    def validate(self) -> None:
        """Assert the structural invariants; used by tests after every run."""
        assert int(self.loads.sum()) == self.t
        assert int(self.round_loads.sum()) == self.t
        r = self.rejection_counters
        assert r[0] == self.t
        assert all(int(r[i]) >= int(r[i + 1]) for i in range(self.d - 1))
        assert int(r[self.d - 1]) >= 0
        assert np.array_equal(self.round_loads.sum(axis=0), self.loads)


def new_state(n: int, d: int) -> AllocationState:
    """Fresh state for n bins and thinning depth d (no balls placed)."""
    if n < 1:
        raise ConfigError(f"bin count must be >= 1, got {n}")
    if d < 1:
        raise ConfigError(f"thinning depth must be >= 1, got {d}")
    return AllocationState(
        n=n,
        d=d,
        t=0,
        loads=np.zeros(n, dtype=np.int64),
        round_loads=np.zeros((d, n), dtype=np.int64),
        rejection_counters=np.zeros(d, dtype=np.int64),
        psi_seen=np.zeros(n, dtype=bool),
    )


@dataclass(frozen=True)
class DecisionRecord:
    """Per-ball outcome: offers seen, the accepting round, and the final bin."""

    t: int
    chosen: int
    suggestions: tuple[int, ...]
    final: int


def step(state: AllocationState, strategy, pools, aux=None) -> DecisionRecord:
    """Allocate exactly one ball, mutating `state`.

    Draws from pool 1; while the strategy rejects and rounds remain, draws
    from the next pool.  The d-th offer is placed without consulting the
    strategy (it can never be rejected).
    """
    d = state.d
    suggestions = []
    chosen = d
    final = -1
    for i in range(1, d + 1):
        b = pools[i - 1].next()
        suggestions.append(b)
        if i == d or strategy.decide(i, b, state, aux):
            chosen = i
            final = b
            break
    state.loads[final] += 1
    state.round_loads[chosen - 1][final] += 1
    state.rejection_counters[:chosen] += 1
    state.psi_seen[suggestions[0]] = True
    state.t += 1
    return DecisionRecord(t=state.t - 1, chosen=chosen, suggestions=tuple(suggestions), final=final)


# ---------------------------------------------------------------------------
# subset statistics
# ---------------------------------------------------------------------------


def _check_subset(state: AllocationState, subset) -> np.ndarray:
    # subsets are sorted index lists; strictness also rules out duplicates
    idx = np.asarray(subset, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= state.n):
        raise ValueError("subset indices out of range")
    if idx.size > 1 and not np.all(np.diff(idx) > 0):
        raise ValueError("subset must be a strictly increasing index list")
    return idx


def max_load(state: AllocationState, subset=None) -> int:
    """Maximum load over a non-empty subset of bins (default: all bins)."""
    if subset is None:
        return int(state.loads.max())
    idx = _check_subset(state, subset)
    if idx.size == 0:
        raise ValueError("max_load over an empty subset is undefined")
    return int(state.loads[idx].max())


def phi(state: AllocationState, subset=None) -> int:
    """Number of non-empty bins in the subset (default: all bins)."""
    if subset is None:
        return int((state.loads > 0).sum())
    idx = _check_subset(state, subset)
    return int((state.loads[idx] > 0).sum())


def psi(state: AllocationState, subset=None) -> int:
    """Number of bins in the subset ever offered as a primary suggestion."""
    if subset is None:
        return int(state.psi_seen.sum())
    idx = _check_subset(state, subset)
    return int(state.psi_seen[idx].sum())


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    """Summary of one completed trial.

    wall_ms is observability metadata and excluded from equality and from
    the serialised form, so identical (inputs, seed) reproduce identical
    results byte for byte.
    """

    n: int
    d: int
    m: int
    strategy: str
    seed: int
    max_load: int
    histogram: dict[int, int]
    rejection_counters: tuple[int, ...]
    phi: int
    psi: int
    chosen_counts: tuple[int, ...]
    round_load_max: tuple[int, ...]
    wall_ms: float = field(compare=False, default=0.0)

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "d": self.d,
            "m": self.m,
            "strategy": self.strategy,
            "seed": self.seed,
            "max_load": self.max_load,
            "histogram": {str(k): self.histogram[k] for k in sorted(self.histogram)},
            "rejection_counters": list(self.rejection_counters),
            "phi": self.phi,
            "psi": self.psi,
            "chosen_counts": list(self.chosen_counts),
            "round_load_max": list(self.round_load_max),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _result_from_state(state: AllocationState, m: int, strategy, seed: int,
                       wall_ms: float) -> TrialResult:
    counts = np.bincount(state.loads)
    histogram = {int(v): int(c) for v, c in enumerate(counts) if c > 0}
    chosen = tuple(
        int(state.rejection_counters[i]) -
        (int(state.rejection_counters[i + 1]) if i + 1 < state.d else 0)
        for i in range(state.d)
    )
    return TrialResult(
        n=state.n,
        d=state.d,
        m=m,
        strategy=strategy.name,
        seed=seed,
        max_load=int(state.loads.max()),
        histogram=histogram,
        rejection_counters=tuple(int(v) for v in state.rejection_counters),
        phi=phi(state),
        psi=psi(state),
        chosen_counts=chosen,
        round_load_max=tuple(int(v) for v in state.round_loads.max(axis=1)),
        wall_ms=wall_ms,
    )


def _run_vectorized(state: AllocationState, m: int, strategy, pools, aux) -> None:
    """Whole-round path; byte-identical to the step loop for mask strategies.

    Round i consumes exactly r_i pool values in one take(), applies the
    strategy's sequential acceptance mask, and moves the rejected balls to
    the next round.
    """
    d = state.d
    current = pools[0].take(m)
    state.psi_seen[current] = True
    for i in range(1, d + 1):
        state.rejection_counters[i - 1] = current.size
        if i < d:
            mask = strategy.accept_mask(i, current, aux)
            accepted = current[mask]
        else:
            accepted = current
        state.round_loads[i - 1] = np.bincount(accepted, minlength=state.n)
        if i < d:
            current = pools[i].take(int(current.size - accepted.size))
    state.loads = state.round_loads.sum(axis=0)
    state.t = m


def run_trial(n: int, d: int, m: int, strategy, seed: int,
              collect_records: bool = False):
    """Run one complete trial of m balls; deterministic in (inputs, seed).

    Returns a TrialResult, or (TrialResult, records) when collect_records is
    set (record collection forces the per-ball step path).
    """
    if m < 0:
        raise ConfigError(f"ball count must be >= 0, got {m}")
    require_memory(trial_int64s(n, d, m), f"a trial with n={n}, d={d}, m={m}")
    state = new_state(n, d)
    pools, aux = make_pools(n, d, seed)
    start = time.perf_counter()
    records = []
    if strategy.accept_mask is not None and not collect_records:
        _run_vectorized(state, m, strategy, pools, aux)
    else:
        for _ in range(m):
            record = step(state, strategy, pools, aux)
            if collect_records:
                records.append(record)
    wall_ms = (time.perf_counter() - start) * 1e3
    result = _result_from_state(state, m, strategy, seed, wall_ms)
    return (result, records) if collect_records else result


def per_trial_max_load_counts(n: int, d: int, m: int, strategy, trials: int,
                              seed: int) -> dict[int, int]:
    """Max-load frequency table of `run_trial` j with seed mix_seed(seed, j)."""
    return dict(Counter(run_trial(n, d, m, strategy, mix_seed(seed, j)).max_load
                        for j in range(trials)))


def simulate_max_load_counts(n: int, d: int, m: int, strategy, trials: int,
                             seed: int) -> dict[int, int]:
    """Max-load frequency table over many trials, batched across trials.

    Law-equivalent to running `run_trial` per trial (each trial sees i.i.d.
    uniform suggestion pools and independent strategy randomness) but runs
    all trials through one set of array operations.  Requires a strategy
    with a vectorised acceptance mask.  Within-trial sequential semantics
    are preserved by tagging each suggestion with its trial index.
    """
    if strategy.accept_mask is None:
        return per_trial_max_load_counts(n, d, m, strategy, trials, seed)
    # per trial: bin totals and their bincount, about nine m-length key arrays
    require_memory(trials * (2 * n + 9 * m), f"{trials} batched trials with n={n}, d={d}, m={m}")
    rng = _generator(seed, POOL_TAG, 0)
    aux = _aux_pool(seed)
    trial_of = np.repeat(np.arange(trials, dtype=np.int64), m)
    current = rng.integers(0, n, size=trials * m, dtype=np.int64)
    total = np.zeros(trials * n, dtype=np.int64)
    for i in range(1, d + 1):
        if i < d:
            # Offset bins by trial so occurrence ranks stay per-trial.
            mask = strategy.accept_mask(i, trial_of * n + current, aux)
            accepted_keys = trial_of[mask] * n + current[mask]
            trial_of = trial_of[~mask]
            current = rng.integers(0, n, size=int(trial_of.size), dtype=np.int64)
        else:
            accepted_keys = trial_of * n + current
        total += np.bincount(accepted_keys, minlength=trials * n)
    per_trial_max = total.reshape(trials, n).max(axis=1)
    values, freq = np.unique(per_trial_max, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, freq)}


MASK64 = (1 << 64) - 1


def mix_seed(base: int, index: int) -> int:
    """Per-trial seed: splitmix64 finalizer over base + (index+1)*golden."""
    z = (base + (index + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


# ---------------------------------------------------------------------------
# induced traces and trace dumps
# ---------------------------------------------------------------------------


def induced_view(records: Sequence[DecisionRecord], j: int, d: int | None = None) -> list[DecisionRecord]:
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
    out = []
    for r in records:
        if r.chosen >= j:
            out.append(DecisionRecord(
                t=r.t,
                chosen=r.chosen - (j - 1),
                suggestions=r.suggestions[j - 1:],
                final=r.final,
            ))
    return out


def occurrence_rank(values: np.ndarray) -> np.ndarray:
    """0-based rank of each element among earlier equal elements."""
    order = np.argsort(values, kind="stable")
    s = values[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]]) if s.size else np.empty(0, np.int64)
    grp_len = np.diff(np.append(starts, s.size))
    ranks_sorted = np.arange(s.size, dtype=np.int64) - np.repeat(starts, grp_len)
    out = np.empty(s.size, dtype=np.int64)
    out[order] = ranks_sorted
    return out


def write_trace(records: Sequence[DecisionRecord], path) -> None:
    """Dump one JSON line per ball: {t, chosen, suggestions, final}."""
    with open(path, "w", newline="\n") as f:
        for r in records:
            f.write(json.dumps(
                {"t": r.t, "chosen": r.chosen,
                 "suggestions": list(r.suggestions), "final": r.final},
                separators=(",", ":")) + "\n")
