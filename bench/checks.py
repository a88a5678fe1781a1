"""Reference laws and output checks for the benchmark, computed apart from the engine.

Nothing here imports thinlab. Trial results are read by attribute only
(`n`, `d`, `m`, `max_load`, `histogram`, `rejection_counters`,
`chosen_counts`, `round_load_max`), so a check sees exactly what a caller of
the public API sees.

Each check returns a list of problems; an empty list means the output passed.
Statistical checks use limits wide enough that the benchmark's whole run
count (hundreds of runs, each with dozens of checks) should see no false
alarm: 5 standard errors on means over a run, 6 standard deviations on a
single trial's histogram, and a binomial tail probability of 1e-9 on an
oracle atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Pois(lambda) mass beyond this many terms is below 1e-80 for lambda <= 1.
POISSON_TERMS = 60
# Allowances on top of the sampling term of a mean over a run: the Poisson
# model's own error at n = 10**4..10**6, as measured for criterion 2 of the
# acceptance suite (0.031 ball, 0.10% of r_i), rounded up.
MAX_LOAD_ALLOWANCE = 0.05
R_RELATIVE_ALLOWANCE = 0.002
# A late round's r_i is a rare count (d = 3 at n = 10**6: mean 0.012 per
# trial), whose run total is Poisson-like, not normal; these extra balls on
# the total keep such a count from failing on a few chance arrivals.
R_ABSOLUTE_ALLOWANCE = 5
MEAN_SIGMAS = 5.0
TRIAL_SIGMAS = 6.0
ATOM_P_LIMIT = 1e-9
# Greedy-2 levels with fewer expected bins than this are not checked.
MIN_LEVEL_COUNT = 100.0


def ell(n: int, d: int) -> float:
    """(d ln n / ln ln n)**(1/d), the paper's threshold."""
    return (d * math.log(n) / math.log(math.log(n))) ** (1.0 / d)


def cap_for(n: int, d: int) -> int:
    """Round cap of the optimal threshold rule: accept while count <= floor(ell)."""
    return math.floor(ell(n, d))


# ---------------------------------------------------------------------------
# reference laws
# ---------------------------------------------------------------------------


def _poisson_pmf(lam: float) -> list[float]:
    if lam == 0:
        return [1.0] + [0.0] * (POISSON_TERMS - 1)
    return [math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
            for k in range(POISSON_TERMS)]


def _binomial_pmf(k: int, p: float) -> list[float]:
    return [math.comb(k, j) * p ** j * (1 - p) ** (k - j) for j in range(k + 1)]


def _convolve(a: list[float], b: list[float]) -> list[float]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out[:POISSON_TERMS]


@dataclass(frozen=True)
class Law:
    """Predicted max-load law and rejection counters r_2..r_d for n bins."""

    max_mean: float
    max_sd: float
    r_means: tuple[float, ...]
    r_sds: tuple[float, ...]


def thinning_law(n: int, d: int, rho: float, cap: int, beta: float = 1.0) -> Law:
    """Poissonized law of the thinning rule with round cap `cap`.

    A bin sees X ~ Pois(lambda_i) round-i offers, lambda_1 = rho. In a round
    i < d its first cap+1 offers are accepted and each later one is rejected
    with probability beta (beta = 1 is the threshold rule, beta < 1 the
    permission coin of beta-thinning), so lambda_{i+1} = beta*E[(X-cap-1)^+].
    Round d accepts everything; d = 1 is one-choice. A bin's load law is the
    convolution over rounds, and with bins independent
    P(max <= k) = exp(n*log1p(-P(L > k))).
    """
    lam = rho
    load = [1.0]
    r_means, r_sds = [], []
    for _ in range(d - 1):
        accepted = [0.0] * POISSON_TERMS
        rejected_mean = rejected_second = 0.0
        for x, p in enumerate(_poisson_pmf(lam)):
            extra = max(x - cap - 1, 0)
            for kept, q in enumerate(_binomial_pmf(extra, 1.0 - beta)):
                if x - extra + kept < POISSON_TERMS:
                    accepted[x - extra + kept] += p * q
            # R ~ Binomial(extra, beta): E[R] = beta*extra, E[R^2] adds the variance.
            rejected_mean += p * beta * extra
            rejected_second += p * (beta * (1 - beta) * extra + (beta * extra) ** 2)
        load = _convolve(load, accepted)
        lam = rejected_mean
        r_means.append(n * lam)
        r_sds.append(math.sqrt(n * (rejected_second - lam * lam)))
    load = _convolve(load, _poisson_pmf(lam))
    # P(max > k) for k = 0, 1, ...; tail sums avoid 1 - cdf cancellation.
    exceed = [-math.expm1(n * math.log1p(-min(sum(load[k + 1:]), 1.0)))
              for k in range(len(load))]
    mean = sum(exceed)
    second = sum((2 * k + 1) * p for k, p in enumerate(exceed))
    return Law(max_mean=mean, max_sd=math.sqrt(max(second - mean * mean, 0.0)),
               r_means=tuple(r_means), r_sds=tuple(r_sds))


def one_choice_load_pmf(n: int, m: int, v: int) -> float:
    """P(a given bin holds v of m balls thrown uniformly into n bins)."""
    return math.exp(math.lgamma(m + 1) - math.lgamma(v + 1) - math.lgamma(m - v + 1)
                    + v * math.log(1.0 / n) + (m - v) * math.log1p(-1.0 / n))


def greedy_fluid_limit(d: int, t: float, levels: int = 12, steps: int = 2000) -> list[float]:
    """s_i(t), the fraction of bins with load >= i, from Mitzenmacher's ODE.

    ds_i/dt = s_{i-1}**d - s_i**d with s_0 = 1, integrated by RK4 from the
    empty start to t = m/n. Returns [s_0, s_1, ..., s_levels].
    """
    def deriv(s):
        return [0.0] + [s[i - 1] ** d - s[i] ** d for i in range(1, levels + 1)]

    s = [1.0] + [0.0] * levels
    h = t / steps
    for _ in range(steps):
        k1 = deriv(s)
        k2 = deriv([x + h / 2 * k for x, k in zip(s, k1)])
        k3 = deriv([x + h / 2 * k for x, k in zip(s, k2)])
        k4 = deriv([x + h * k for x, k in zip(s, k3)])
        s = [x + h / 6 * (a + 2 * b + 2 * c + e)
             for x, a, b, c, e in zip(s, k1, k2, k3, k4)]
    return s


# ---------------------------------------------------------------------------
# per-trial checks
# ---------------------------------------------------------------------------


def check_trial(result, n: int, d: int, m: int, cap: int | None = None) -> list[str]:
    """Structural checks every engine trial must pass.

    The histogram covers n bins and m balls, its top value is the max load,
    r_1 = m and the r_i do not increase, the chosen counts are the
    differences of the r_i, and with a cap every non-final round holds at
    most cap+1 accepted balls per bin.
    """
    out = []
    if (result.n, result.d, result.m) != (n, d, m):
        out.append(f"trial reports (n, d, m) = {(result.n, result.d, result.m)}")
    hist = result.histogram
    if sum(hist.values()) != n:
        out.append(f"histogram covers {sum(hist.values())} bins, not {n}")
    if sum(v * c for v, c in hist.items()) != m:
        out.append(f"histogram holds {sum(v * c for v, c in hist.items())} balls, not {m}")
    if hist and result.max_load != max(hist):
        out.append(f"max_load {result.max_load} is not the histogram's top value {max(hist)}")
    r = list(result.rejection_counters)
    if len(r) != d or r[0] != m:
        out.append(f"rejection counters {r} do not start at m = {m}")
    if any(a < b for a, b in zip(r, r[1:])):
        out.append(f"rejection counters {r} increase")
    chosen = [a - b for a, b in zip(r, r[1:] + [0])]
    if list(result.chosen_counts) != chosen:
        out.append(f"chosen counts {list(result.chosen_counts)} are not r_i - r_(i+1)")
    if cap is not None:
        over = [i + 1 for i in range(d - 1) if result.round_load_max[i] > cap + 1]
        if over:
            out.append(f"rounds {over} hold more than cap+1 = {cap + 1} balls in a bin")
    return out


def check_one_choice_histogram(result, n: int, m: int) -> list[str]:
    """Each load level's bin count against its binomial expectation."""
    out = []
    for v in range(POISSON_TERMS):
        p = one_choice_load_pmf(n, m, v)
        expected = n * p
        if expected < MIN_LEVEL_COUNT:
            if v > m / n:
                break
            continue
        # n*p*(1-p) bounds the occupancy count's variance from above.
        got = result.histogram.get(v, 0)
        if abs(got - expected) > TRIAL_SIGMAS * math.sqrt(expected * (1 - p)):
            out.append(f"{got} bins hold {v} balls, one-choice expects {expected:.0f}")
    return out


def check_greedy_histogram(result, n: int, fluid: list[float]) -> list[str]:
    """Bins with load >= i against n*s_i from the fluid limit `fluid`."""
    out = []
    for i in range(1, len(fluid)):
        expected = n * fluid[i]
        if expected < MIN_LEVEL_COUNT:
            break
        got = sum(c for v, c in result.histogram.items() if v >= i)
        sd = math.sqrt(expected * (1 - fluid[i]))
        if abs(got - expected) > TRIAL_SIGMAS * sd + R_RELATIVE_ALLOWANCE * expected:
            out.append(f"{got} bins hold >= {i} balls, the fluid limit expects {expected:.0f}")
    top = max(i for i in range(len(fluid)) if n * fluid[i] >= 1e-6)
    if result.max_load > top:
        out.append(f"max load {result.max_load} exceeds {top}, the last level the "
                   "fluid limit gives more than 1e-6 expected bins")
    return out


# ---------------------------------------------------------------------------
# checks over a run
# ---------------------------------------------------------------------------


def check_law(results, law: Law, n: int) -> list[str]:
    """Mean max load and mean r_2..r_d of a run's trials against `law`.

    Each mean must lie within 5 standard errors plus the model allowances
    of its prediction.
    """
    k = len(results)
    out = []
    if k == 0:
        return ["no trials to check"]
    mean_max = sum(r.max_load for r in results) / k
    tol = MEAN_SIGMAS * law.max_sd / math.sqrt(k) + MAX_LOAD_ALLOWANCE
    if abs(mean_max - law.max_mean) > tol:
        out.append(f"mean max load {mean_max:.3f} over {k} trials, law predicts "
                   f"{law.max_mean:.3f} +- {tol:.3f}")
    for i, (mu, sd) in enumerate(zip(law.r_means, law.r_sds), start=2):
        mean_r = sum(r.rejection_counters[i - 1] for r in results) / k
        tol = (MEAN_SIGMAS * sd / math.sqrt(k) + R_RELATIVE_ALLOWANCE * mu
               + R_ABSOLUTE_ALLOWANCE / k)
        if abs(mean_r - mu) > tol:
            out.append(f"mean r_{i} {mean_r:.1f} over {k} trials, law predicts "
                       f"{mu:.1f} +- {tol:.1f}")
    return out


# ---------------------------------------------------------------------------
# oracle checks
# ---------------------------------------------------------------------------


def binomial_tail(count: int, trials: int, p: float) -> float:
    """Two-sided tail probability of `count` successes under Binomial(trials, p)."""
    def pmf(j):
        return math.exp(math.lgamma(trials + 1) - math.lgamma(j + 1)
                        - math.lgamma(trials - j + 1)
                        + j * math.log(p) + (trials - j) * math.log1p(-p))

    mean = trials * p
    js = range(count, trials + 1) if count >= mean else range(count, -1, -1)
    total = 0.0
    for j in js:
        term = pmf(j)
        total += term
        if term < 1e-30 * total:
            break
    return min(1.0, 2.0 * total)


def check_exact_masses(masses: dict[int, Fraction], reference: dict | None = None) -> list[str]:
    """The exact law sums to exactly 1 and, with a reference, equals it."""
    out = []
    total = sum(masses.values(), Fraction(0))
    if total != 1:
        out.append(f"exact masses sum to {total}, not 1")
    if reference is not None and {k: v for k, v in masses.items() if v} != \
            {k: v for k, v in reference.items() if v}:
        out.append("exact masses differ from the reference enumeration")
    return out


def check_empirical(masses: dict[int, Fraction], counts: dict[int, int], trials: int) -> list[str]:
    """Engine max-load counts against the exact masses, atom by atom.

    A value of exact mass 0 must never occur; every other atom's count must
    have a two-sided binomial tail probability of at least ATOM_P_LIMIT.
    """
    out = []
    if sum(counts.values()) != trials:
        out.append(f"counts cover {sum(counts.values())} trials, not {trials}")
    for value in sorted(set(masses) | set(counts)):
        p = float(masses.get(value, 0))
        got = counts.get(value, 0)
        if p == 0.0 or p == 1.0:
            if got != p * trials:
                out.append(f"max load {value} seen {got} times, exact mass is {p}")
        elif binomial_tail(got, trials, p) < ATOM_P_LIMIT:
            out.append(f"max load {value} seen {got}/{trials} times, exact mass {p:.5f}")
    return out
