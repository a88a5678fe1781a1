"""Exact engine for the d-thinning allocation process.

A ball is offered up to d consecutive uniformly random bins.  A strategy may
reject the first d-1 offers; the d-th offer is always placed.  The engine
reports, per round i, how many balls reached that round (the rejection
counters r_i) and the round's largest accepted count per bin, and how many
bins were ever offered as a primary suggestion.  A strategy states its
rule once, as data (`RoundRule`).  The per-ball `step` path keeps every
round's accepted loads, which the strategy's `decide` reads.  The engine
runs every round of the rule through one compiled per-ball loop (greedy.c),
for a single trial and for a batch of trials alike: each round is streamed
from its pool in 2¹⁶-value blocks into a one-byte round row and one-byte
loads, so a trial holds two bytes per bin.  An object with no rule, such as
a mask-only proxy, runs through the same loop, its mask of each whole round
before the last standing in for the round's coins.

Bins are indexed 0..n-1 and ball indices are 0-based throughout.

Randomness layout: round i (1-based) draws its suggestions from an
independent stream seeded with SeedSequence((seed, POOL_TAG, i)); a strategy
that needs its own coin flips gets one float stream seeded with
SeedSequence((seed, AUX_TAG)).  A stream's values depend only on its seed,
never on how its reads are split into calls: numpy's PCG64 integer and double
draws give the same values however a stream is cut, so a take draws what it
lacks in one call (`Pool`).  A stream's generator is seeded on its first
draw, so a stream that is never read costs no seeding.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import resource
import zlib
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

POOL_TAG = 0x706F6F6C  # "pool"
AUX_TAG = 0x61757861  # "auxa"
_CHUNK = 1 << 16


class ConfigError(ValueError):
    """Invalid process or experiment configuration."""


class PoolExhausted(RuntimeError):
    """A finite replay pool ran out of values."""


def check_sizes(n: int, d: int, m: int = 0, seed: int = 0) -> None:
    """Refuse a process with no bins, no rounds, a ball count outside int64 or a negative seed."""
    if n < 1:
        raise ConfigError(f"bin count must be >= 1, got {n}")
    if d < 1:
        raise ConfigError(f"thinning depth must be >= 1, got {d}")
    if m < 0:
        raise ConfigError(f"ball count must be >= 0, got {m}")
    if m > 2**63 - 1:
        raise ConfigError(f"ball count must be at most 2**63 - 1, got {m}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def _memory_bytes() -> int:
    """Physical memory, lowered to the address-space limit when one is set."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return physical if soft == resource.RLIM_INFINITY else min(physical, soft)


MEMORY_BYTES = _memory_bytes()

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def _environment_sets_malloc_thresholds() -> bool:
    """Whether a variable or a glibc tunable in the environment sets a malloc threshold."""
    return (any(k in os.environ for k in _MALLOC_ENV)
            or "threshold" in os.environ.get("GLIBC_TUNABLES", ""))


def _pin_malloc_thresholds() -> None:
    """Pin glibc's mmap threshold at two pool blocks (1 MiB) and its trim threshold at 2 MiB.

    glibc serves a request of at least the mmap threshold with its own
    mapping, unmapped when freed, and gives back a heap's free top once it
    passes the trim threshold.  By default it raises both thresholds each
    time it unmaps a block, so after the first n-length array is freed at
    n = 10⁶, such arrays come from the heaps, one per thread, and whether a
    worker's heap keeps a trial's freed 16 MB depends on how the freed
    arrays lie against the trim threshold.  Pinned, every array of 1 MiB or
    more is unmapped when freed, while pool blocks and tiny trials' arrays
    are reused from the heap, which keeps under 2 MiB free at its top.
    Nothing changes where the environment sets either threshold, or where
    the C library has no `mallopt`.
    """
    if _environment_sets_malloc_thresholds():
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mmap_bytes = 2 * 8 * _CHUNK
    mallopt(_M_MMAP_THRESHOLD, mmap_bytes)
    mallopt(_M_TRIM_THRESHOLD, 2 * mmap_bytes)


_pin_malloc_thresholds()


def trial_int64s(n: int, d: int, masked: int = 0) -> int:
    """Estimated int64 values a trial of n bins and d rounds holds at its peak.

    One estimate sizes a single trial, a batch (whose keys are bins) and a
    greedy trial: two bytes per bin (the round row and the loads, or greedy's
    loads and ψ flags; widening past 255 is not budgeted), one partly served
    2¹⁶-value block in each of the d+1 pools and 2¹³ values to spare.  Only a
    rule-less trial grows with m: it masks each round before the last whole,
    and its `masked` balls add eight arrays of that length: the take, the
    float coins and `accept_mask`'s ranking arrays (`occurrence_rank`'s
    order, sorted copy, group starts and lengths, and two rank arrays).
    """
    return (2 * n + 7) // 8 + (d + 1) * _CHUNK + _CHUNK // 8 + 8 * masked


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
    """Stream of values served from `block`, then from what `draw(k)` returns.

    `draw(k)` returns the stream's next k values.  A seeded pool's draws are
    numpy PCG64 bounded-integer or double draws, which give the same values
    however the stream is split into calls, so the values served depend only
    on the seed, never on how takes split them.  A take the buffer cannot
    serve makes one draw of what it lacks, at least 2¹⁶ values, so that
    tiny takes stay cheap; the rest stays buffered.  next() is a take of
    one.  A take is a slice of the buffer or of the fresh draw, copied only
    when it joins a leftover to fresh values, and a buffer served in full
    is dropped, so the pool keeps no take alive.  Served values are never
    served again, so callers may write into a take.  A replay pool
    (`Pool.replay`) holds a copy of its values and raises PoolExhausted when
    asked for more.
    """

    def __init__(self, draw, block: np.ndarray):
        self._draw = draw
        self._buf = block
        self._pos = 0
        self.consumed = 0

    @classmethod
    def replay(cls, values, dtype=np.int64) -> "Pool":
        """Finite pool replaying a copy of `values`, for scripted runs."""
        block = np.array(values, dtype=dtype)

        def exhausted(k):
            raise PoolExhausted(f"replay pool exhausted after {block.size} values")
        return cls(exhausted, block)

    def take(self, k: int) -> np.ndarray:
        buf, pos = self._buf, self._pos
        short = k - (buf.size - pos)
        if short <= 0:
            out = buf[pos:pos + k]
            pos += k
        else:
            fresh = self._draw(max(short, _CHUNK))
            out = fresh[:short] if pos == buf.size else np.concatenate((buf[pos:], fresh[:short]))
            buf, pos = fresh, short
        if pos == buf.size:
            buf, pos = np.empty(0, buf.dtype), 0
        self._buf, self._pos = buf, pos
        self.consumed += k
        return out

    def next(self):
        return self.take(1).item()


def _generator(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def _aux_pool(seed: int) -> Pool:
    """The strategy's stream of uniform floats on [0, 1), seeded on its first draw."""
    generator = cache(partial(_generator, seed, AUX_TAG))
    return Pool(lambda k: generator().random(k), np.empty(0, np.float64))


def _bin_pool(n: int, *key: int) -> Pool:
    """A stream of uniform bins on [0, n) from the generator seeded with `key` on its first draw."""
    generator = cache(partial(_generator, *key))
    return Pool(lambda k: generator().integers(0, n, size=k, dtype=np.int64),
                np.empty(0, np.int64))


def make_pools(n: int, d: int, seed: int) -> tuple[list[Pool], Pool]:
    """Build the d per-round suggestion streams (uniform on [0, n)) and the aux stream."""
    return [_bin_pool(n, seed, POOL_TAG, i) for i in range(1, d + 1)], _aux_pool(seed)


# ---------------------------------------------------------------------------
# process state
# ---------------------------------------------------------------------------


@dataclass
class AllocationState:
    """Live state of one per-ball run (`step`, and the oracle's tree walk).

    t balls have been placed.  round_loads[i-1][b] counts the balls that
    accepted bin b at round i, so bin b's load is round_loads[:, b].sum()
    and r_i, the balls that reached round i, is the total of rows i..d.
    psi_seen[b] flags bins ever offered as a primary.  `decide` reads only
    round_loads and d; `_result_from_state` derives a run's numbers from them all.
    """

    d: int
    t: int
    round_loads: np.ndarray
    psi_seen: np.ndarray

    def validate(self) -> None:
        """Assert the structural invariants: round_loads holds t balls and no negative count."""
        assert int(self.round_loads.sum()) == self.t
        assert int(self.round_loads.min()) >= 0


def new_state(n: int, d: int) -> AllocationState:
    """Fresh state for n bins and thinning depth d (no balls placed)."""
    check_sizes(n, d)
    return AllocationState(d=d, t=0, round_loads=np.zeros((d, n), dtype=np.int64),
                           psi_seen=np.zeros(n, dtype=bool))


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
    state.round_loads[chosen - 1, final] += 1
    state.psi_seen[suggestions[0]] = True
    state.t += 1
    return DecisionRecord(t=state.t - 1, chosen=chosen, suggestions=tuple(suggestions), final=final)


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    """Summary of one completed trial; identical (inputs, seed) give identical bytes."""

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

    def to_json(self) -> str:
        """Every field, tuples as lists, histogram keys as strings, keys sorted."""
        payload = dict(vars(self), histogram={str(k): c for k, c in self.histogram.items()})
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _summary(loads: np.ndarray, psi_count: int, rejection_counters, round_load_max,
             name: str, seed: int) -> TrialResult:
    """The TrialResult of a finished trial: its loads, ψ, r_1..r_d and per-round maxima.

    The load histogram also gives the max load (its last value) and φ (the
    bins not at load 0).  greedy.c's `tally` counts one-byte loads in place,
    in one pass, into 256 counts; `np.unique` counts int64 loads (a trial
    widened past 255, or `step`'s column sums) in memory that grows with the
    bins, not with the top load.
    """
    r = tuple(int(v) for v in rejection_counters)
    if loads.dtype == np.uint8:
        loads, counts = np.ascontiguousarray(loads), (ctypes.c_int64 * 256)()  # zeroed
        top = _kernels().tally(loads.ctypes.data, loads.size, counts)
        histogram = {v: c for v, c in enumerate(counts[:top + 1]) if c}
    else:
        values, counts = np.unique(loads, return_counts=True)
        if values[0] < 0:
            raise ValueError(f"loads must be >= 0, got {values[0]}")
        top, histogram = int(values[-1]), dict(zip(values.tolist(), counts.tolist()))
    return TrialResult(
        n=loads.size,
        d=len(r),
        m=r[0],
        strategy=name,
        seed=seed,
        max_load=top,
        histogram=histogram,
        rejection_counters=r,
        phi=loads.size - histogram.get(0, 0),
        psi=int(psi_count),
        chosen_counts=tuple(a - b for a, b in zip(r, r[1:] + (0,))),
        round_load_max=tuple(int(v) for v in round_load_max),
    )


def _result_from_state(state: AllocationState, name: str, seed: int) -> TrialResult:
    """The TrialResult of a state the per-ball `step` path filled.

    The loads are round_loads' column sums, and r_i is the number of balls
    accepted in rounds i..d: the row totals summed from the last row back.
    """
    counts = state.round_loads
    r = counts.sum(axis=1)[::-1].cumsum()[::-1]
    return _summary(counts.sum(axis=0), np.count_nonzero(state.psi_seen), r,
                    counts.max(axis=1), name, seed)


@dataclass(frozen=True)
class RoundRule:
    """A strategy's round rule, as plain data: the compiled loop runs it and `Strategy` reads it.

    In the rounds it binds in (`binds`), a ball is accepted if its bin's
    count in the round so far is at most cap (an integer, at least 0), or if
    its coin, one aux value per ball in ball order, is at least beta (not
    NaN).  cap None accepts every ball and beta None takes no coin.  Other
    rounds accept every ball and take no coin.
    """

    cap: int | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.cap is not None and not isinstance(self.cap, (int, np.integer)):
            raise ConfigError(f"cap must be an integer, got {self.cap!r}")
        if self.cap is not None and self.cap < 0:
            raise ConfigError(f"cap must be >= 0, got {self.cap}")
        if self.beta is not None and math.isnan(self.beta):
            raise ConfigError(f"beta must be a number, got {self.beta!r}")

    def binds(self, i: int, d: int) -> bool:
        """Round i of d binds if it is before the last, and is round 1 for a rule with a coin."""
        return i < d and (self.beta is None or i == 1)


def _run(strategy, trials: int, n: int, d: int, m: int, pools, aux):
    """The loads, ψ, r_1..r_d and each round's largest accepted count of trials of n bins.

    Trial t's bin b is key t·n + b.  Each round streams its offers from its
    pool in 2¹⁶-value blocks, in (trial, ball) order, through greedy.c's
    per-ball loop, which counts each accepted ball in a one-byte round row
    and in one-byte loads per key.  A call that stops short of its block's
    end has found a full load: both widen to int64, once, and the wide loop
    resumes from that ball.  ψ is the round-1 row's nonzero count: a bin's
    first round-1 offer is always accepted, since no rule's cap is below 0.
    An object with no `rule` runs one trial, whose keys are its bins: it
    takes each round before the last whole, and its `accept_mask` is the
    round's coins, so that with cap -1 and beta 0.5 a ball is accepted
    exactly where the mask is set.  Its ψ counts round 1's offers, flagged
    in the empty row, since a mask may reject a bin's first offer.
    """
    rule, lib = getattr(strategy, "rule", None), _kernels()
    thin = lib.thin_narrow
    row, loads = np.zeros(trials * n, np.uint8), np.zeros(trials * n, np.uint8)
    tally = np.zeros(2 + 2 * trials, np.int64)  # greedy.c's position and per-trial counts
    at, waiting, rejected = tally[:2], tally[2:2 + trials], tally[2 + trials:]
    at[0], waiting[:] = -1, m
    rows = row.ctypes.data, loads.ctypes.data  # each address takes µs to look up
    tally_at = tally.ctypes.data
    rejection_counters, round_load_max, psi_count = [], [], 0
    for i in range(1, d + 1):
        reached = int(waiting.sum())
        rejection_counters.append(reached)
        masked = rule is None and i < d
        cap, beta, block = 2**63 - 1, None, _CHUNK
        if masked:
            cap, beta, block = -1, 0.5, max(reached, 1)
        elif rule is not None and rule.binds(i, d):
            cap, beta = cap if rule.cap is None else min(rule.cap, cap), rule.beta
        round_args = n, trials, tally_at, cap, beta or 0.0
        for start in range(0, reached, block):
            bins = pools[i - 1].take(min(block, reached - start))
            if masked:
                coins = strategy.accept_mask(i, bins, aux).astype(np.float64)
                if i == 1:  # a mask may reject a bin's first offer: flag the offers in the row
                    row[bins] = 1
                    psi_count, row[:] = np.count_nonzero(row), 0
            else:
                coins = None if beta is None else aux.take(bins.size)
            block_at = bins.ctypes.data, None if beta is None else coins.ctypes.data
            stop = thin(*rows, *block_at, 0, bins.size, *round_args)
            if stop < bins.size:  # a one-byte load is full
                row, loads, thin = row.astype(np.int64), loads.astype(np.int64), lib.thin_wide
                rows = row.ctypes.data, loads.ctypes.data
                thin(*rows, *block_at, stop, bins.size, *round_args)
            del bins, coins  # so that no block is held while the next one is drawn
        if i == 1 and not masked:
            psi_count = np.count_nonzero(row)
        round_load_max.append(row.max())
        if i < d:
            row[:], at[:], waiting[:], rejected[:] = 0, (-1, 0), rejected, 0
    return loads, psi_count, rejection_counters, round_load_max


def run_trial(n: int, d: int, m: int, strategy, seed: int) -> TrialResult:
    """Run one complete trial of m balls; deterministic in (inputs, seed)."""
    check_sizes(n, d, m, seed)
    masked = m if getattr(strategy, "rule", None) is None else 0
    require_memory(trial_int64s(n, d, masked), f"a trial with n={n}, d={d}, m={m}")
    # the pools are freed before the summary counts the loads
    return _summary(*_run(strategy, 1, n, d, m, *make_pools(n, d, seed)), strategy.name, seed)


_KERNEL_SOURCE = os.path.join(os.path.dirname(__file__), "greedy.c")


@cache
def _kernels() -> ctypes.CDLL:
    """greedy.c's per-ball loops, built on first use; arrays are passed by address.

    The library is cached in the __pycache__ beside greedy.c, named by the
    source's crc32, so an edited source is built afresh and an unchanged one
    is only loaded, with no compiler run and no module imported.  It is
    compiled to a temporary name and moved into place with os.replace, so
    threads or processes that build at once each load a whole library.  A
    build then removes the other `greedy-*.so` there (not other builders'
    temporaries); a process that loaded one keeps it mapped.  ctypes
    releases the GIL while a loop runs.
    """
    with open(_KERNEL_SOURCE, "rb") as f:
        checksum = zlib.crc32(f.read())
    cache_dir = os.path.join(os.path.dirname(_KERNEL_SOURCE), "__pycache__")
    library = os.path.join(cache_dir, f"greedy-{checksum:08x}.so")
    if not os.path.exists(library):
        import contextlib
        import glob
        import subprocess
        import threading

        os.makedirs(cache_dir, exist_ok=True)
        built = f"{library}.{os.getpid()}-{threading.get_ident()}.tmp"
        command = ["cc", "-O2", "-shared", "-fPIC", "-o", built, _KERNEL_SOURCE]
        try:
            subprocess.run(command, check=True, capture_output=True, text=True)
            os.replace(built, library)
        except FileNotFoundError:
            raise RuntimeError(f"thinlab builds its kernels with `{' '.join(command)}`, "
                               f"but no C compiler `cc` is on PATH") from None
        except subprocess.CalledProcessError as exc:
            raise RuntimeError(f"`{' '.join(command)}` failed: {exc.stderr.strip()}") from None
        finally:
            if os.path.exists(built):
                os.remove(built)
        for stale in set(glob.glob(os.path.join(cache_dir, "greedy-*.so"))) - {library}:
            with contextlib.suppress(OSError):  # another builder may have removed it
                os.remove(stale)
    lib = ctypes.CDLL(library)
    address, i64 = ctypes.c_void_p, ctypes.c_int64
    for place in (lib.place_narrow, lib.place_wide):
        place.argtypes = [address] * 3 + [i64] * 3
    for thin in (lib.thin_narrow, lib.thin_wide):
        thin.argtypes = [address] * 4 + [i64] * 4 + [address, i64, ctypes.c_double]
    lib.tally.argtypes = [address, i64, address]
    for kernel in (lib.place_narrow, lib.place_wide, lib.thin_narrow, lib.thin_wide, lib.tally):
        kernel.restype = i64
    return lib


def run_greedy_d_choice(n: int, d: int, m: int, seed: int) -> TrialResult:
    """d-choice greedy baseline: least-loaded of d fresh uniform offers.

    Observes all d offers at once, which no thinning strategy may do, so it
    is a comparison allocator rather than a Strategy.  Ball t's offers are
    value t of each of the d round pools; it goes to its least-loaded offer,
    the lowest bin index on ties, and counts as accepted in round 1.

    The balls are placed one at a time, in ball order, by greedy.c's
    compiled loop (`_kernels`), one pool block of up to 2¹⁶ balls per call,
    which reads one take of every pool in place.  Pool takes do not depend
    on how they are split, so the block size changes no drawn value.  The
    loads are one byte per bin.  A call that stops short of its block's end
    has met a ball whose least-loaded offer holds 255: the loads widen to
    int64, once, and the wide loop resumes from that ball.
    """
    check_sizes(n, d, m, seed)
    require_memory(trial_int64s(n, d), f"a greedy trial with n={n}, d={d}, m={m}")
    lib = _kernels()
    place = lib.place_narrow
    loads, seen = np.zeros(n, np.uint8), np.zeros(n, np.uint8)
    pools, _ = make_pools(n, d, seed)
    for start in range(0, m, _CHUNK):
        k = min(_CHUNK, m - start)
        takes = [pool.take(k) for pool in pools]
        offers = (ctypes.c_void_p * d)(*(take.ctypes.data for take in takes))
        stop = place(loads.ctypes.data, seen.ctypes.data, offers, d, 0, k)
        if stop < k:  # a one-byte load is full
            loads, place = loads.astype(np.int64), lib.place_wide
            place(loads.ctypes.data, seen.ctypes.data, offers, d, stop, k)
        del takes  # so that no block is held while the next one is drawn
    del pools  # their partly served blocks are freed before the summary counts the loads
    rest = [0] * (d - 1)
    return _summary(loads, np.count_nonzero(seen), [m] + rest, [loads.max()] + rest,
                    f"greedy-{d}-choice", seed)


def per_trial_max_load_counts(n: int, d: int, m: int, strategy, trials: int,
                              seed: int) -> dict[int, int]:
    """Max-load frequency table of `run_trial` j with seed mix_seed(seed, j)."""
    check_sizes(n, d, m, seed)
    return dict(Counter(run_trial(n, d, m, strategy, mix_seed(seed, j)).max_load
                        for j in range(trials)))


def _run_batch(n: int, d: int, m: int, strategy, trials: int, seed: int):
    """`_run` over `trials` trials of m balls, all on the batch's one stream."""
    pool = _bin_pool(n, seed, POOL_TAG, 0)
    return _run(strategy, trials, n, d, m, [pool] * d, _aux_pool(seed))


def simulate_max_load_counts(n: int, d: int, m: int, strategy, trials: int,
                             seed: int) -> dict[int, int]:
    """Max-load frequency table over many trials, batched across trials.

    Law-equivalent to running `run_trial` per trial, but one `_run` call
    runs every trial on a state of trials·n bins, trial t's at keys t·n +
    bin.  Every round reads the one stream SeedSequence((seed, POOL_TAG, 0)):
    round 1 takes trials·m values, trial after trial, and each later round
    one per rejected ball, in (trial, ball) order.  The strategy must state
    a round `rule`; an object without one runs only through `run_trial`.
    """
    check_sizes(n, d, m, seed)
    if trials < 1:
        raise ConfigError(f"trial count must be >= 1, got {trials}")
    if getattr(strategy, "rule", None) is None:
        raise ConfigError(f"strategy {strategy.name!r} has no round rule, so it cannot run batched")
    # the batch also keeps each trial's rejected count and what it offers next
    require_memory(trial_int64s(trials * n, d) + 2 * trials,
                   f"{trials} batched trials with n={n}, d={d}, m={m}")
    loads, *_ = _run_batch(n, d, m, strategy, trials, seed)
    values, freq = np.unique(loads.reshape(trials, n).max(axis=1), return_counts=True)
    return {int(v): int(c) for v, c in zip(values, freq)}


MASK64 = (1 << 64) - 1


def mix_seed(base: int, index: int) -> int:
    """Per-trial seed: splitmix64 finalizer over base + (index+1)*golden."""
    z = (base + (index + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def occurrence_rank(values: np.ndarray) -> np.ndarray:
    """0-based rank of each element among earlier equal elements."""
    order = np.argsort(values, kind="stable")
    s = values[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]]) if s.size else np.empty(0, np.int64)
    grp_len = np.diff(np.append(starts, s.size))
    ranks_sorted = np.arange(s.size, dtype=np.int64)
    ranks_sorted -= np.repeat(starts, grp_len)
    out = np.empty(s.size, dtype=np.int64)
    out[order] = ranks_sorted
    return out
