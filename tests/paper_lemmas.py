"""The paper's lemma bounds, Poissonization step and lower-bound cascade.

These are proof devices: the lab runs none of them, and at the lab's n the
cascade's bound is vacuous.  The tests check them against their closed forms
(`test_theory.py`, criteria 6 and 7 in `test_acceptance.py`).  Logarithms
are natural; probability bounds are clamped into [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from thinlab.core import ConfigError
from thinlab.theory import ell

_EXP_OVERFLOW = 700.0


def ell_relation(n: float, d: int) -> tuple[float, float]:
    """Both sides of the identity ell**d * ln ell = (1 - (lnlnln n - ln d)/lnln n) * ln n.

    Helper identity behind ell**(ell**d) = n**(1-o(1)).  Exact algebraically;
    the two sides must agree to ~1e-10 relative in double precision.
    """
    if n < 16:
        raise ConfigError(f"ell_relation needs n >= 16, got n={n}")
    l = ell(n, d)
    lhs = l ** d * math.log(l)
    loglog = math.log(math.log(n))
    logloglog = math.log(loglog)
    rhs = (1.0 - (logloglog - math.log(d)) / loglog) * math.log(n)
    return lhs, rhs


def lemma_max_bound(theta: float, k: int, s_size: float) -> float:
    """Bound on P(max load over S < k) after floor(theta*n) uniform balls.

    min(1, 2*exp(-theta**k * |S| / (e * k!))); evaluated in log space so huge
    k degrades to the vacuous 1 rather than overflowing.
    """
    if theta <= 0:
        raise ConfigError(f"theta must be positive, got {theta}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if s_size < 1:
        raise ConfigError(f"subset size must be >= 1, got {s_size}")
    log_term = k * math.log(theta) + math.log(s_size) - 1.0 - math.lgamma(k + 1.0)
    if log_term > _EXP_OVERFLOW:
        return 0.0
    return min(1.0, 2.0 * math.exp(-math.exp(log_term)))


def lemma_nonempty_bound(theta: float, s_size: float) -> tuple[float, float]:
    """Occupancy lower-tail bound after floor(theta*n) uniform balls.

    Returns (threshold, bound): the number of non-empty bins in S drops to
    theta*|S|/(2e) or below with probability at most
    min(1, 2*exp(-theta**2 * |S| / (2e**2))).
    """
    if theta <= 0:
        raise ConfigError(f"theta must be positive, got {theta}")
    if s_size < 1:
        raise ConfigError(f"subset size must be >= 1, got {s_size}")
    threshold = theta * s_size / (2.0 * math.e)
    exponent = theta * theta * s_size / (2.0 * math.e * math.e)
    bound = 0.0 if exponent > _EXP_OVERFLOW else min(1.0, 2.0 * math.exp(-exponent))
    return threshold, bound


@dataclass(frozen=True)
class PoissonizationReport:
    """Monte Carlo estimates of both sides of the Poisson domination bound."""

    p_multinomial: float
    se_multinomial: float
    p_poisson: float
    se_poisson: float
    passed: bool


def poissonization_bound_check(n: int, theta: float, event, trials: int,
                               seed: int = 0) -> PoissonizationReport:
    """Check P_multinomial(event) <= 2 * P_poisson(event) by simulation.

    The event must be a monotone predicate on an n-vector of bin counts
    (monotonicity is the caller's obligation).  The multinomial side throws
    floor(theta*n) balls uniformly; the Poisson side draws n independent
    Poisson(theta) loads.  Passes when the multinomial estimate is at most
    twice the Poisson estimate plus three combined standard errors.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x706F6973))))
    m = math.floor(theta * n)

    hits_multi = 0
    hits_poisson = 0
    chunk = max(1, min(trials, 10 ** 7 // max(1, n * max(m, 1))))
    done = 0
    while done < trials:
        c = min(chunk, trials - done)
        balls = rng.integers(0, n, size=(c, m)) if m else np.zeros((c, 0), dtype=np.int64)
        counts = np.zeros((c, n), dtype=np.int64)
        row_idx = np.repeat(np.arange(c), m)
        np.add.at(counts, (row_idx, balls.ravel()), 1)
        hits_multi += sum(1 for row in counts if event(row))
        poisson = rng.poisson(theta, size=(c, n))
        hits_poisson += sum(1 for row in poisson if event(row))
        done += c

    p_multi = hits_multi / trials
    p_poisson = hits_poisson / trials
    se_multi = math.sqrt(p_multi * (1.0 - p_multi) / trials)
    se_poisson = math.sqrt(p_poisson * (1.0 - p_poisson) / trials)
    slack = 3.0 * math.sqrt(se_multi ** 2 + (2.0 * se_poisson) ** 2)
    passed = p_multi <= 2.0 * p_poisson + slack
    return PoissonizationReport(p_multinomial=p_multi, se_multinomial=se_multi,
                                p_poisson=p_poisson, se_poisson=se_poisson, passed=passed)


@dataclass(frozen=True)
class LowerBoundCascade:
    """Stage parameters of the d-level thinning reduction.

    s[i-1] and theta[i-1] are the stage-i target load and width density (the
    stage width over n); gamma[i-1] is the stage-i surviving-bin count for
    the chosen k-vector.  gamma_closed and theta_closed are the same
    quantities evaluated through the explicit product forms for
    cross-checking.
    """

    s: tuple[float, ...]
    theta: tuple[float, ...]
    gamma: tuple[float, ...]
    gamma_closed: tuple[float, ...]
    theta_closed: tuple[float, ...]


def lower_bound_sequences(n: float, d: int, rho: float, eps: float,
                          k: tuple[int, ...]) -> LowerBoundCascade:
    """Evaluate the stage recursion s_i, theta_i, gamma_{i,k_i}.

    Starts from s_0 = (d-eps)*ell, k_0 = 1 and a budget of rho*n balls; each
    of the d-1 reduction stages picks k_i in [1, ceil(s_i)] and shrinks the
    bin budget by the factor (theta_i/4e)**k_i (the level-1 budget is n, the
    bin count).  All s_i must stay positive, otherwise the k-vector is
    inadmissible.
    """
    if len(k) != d - 1:
        raise ConfigError(f"k must have length d-1 = {d - 1}, got {len(k)}")
    if rho <= 0:
        raise ConfigError(f"rho must be positive, got {rho}")
    l = ell(n, d)
    s0 = (d - eps) * l
    if s0 <= 0:
        raise ConfigError(f"(d-eps)*ell must be positive, got {s0}")

    ks = (1,) + tuple(int(v) for v in k)
    s_vals: list[float] = []
    theta_vals: list[float] = []
    gamma_vals: list[float] = []

    s_prev = s0
    gamma_balls = rho * n  # ball budget feeding stage 1
    gamma_prev = None
    for i in range(1, d + 1):
        s_i = s_prev - (ks[i - 1] - 1)
        if s_i <= 0:
            raise ConfigError(
                f"stage {i} target s_{i} = {s_i} is not positive; "
                f"k-vector {tuple(k)} is inadmissible")
        theta_i = (gamma_balls if i == 1 else gamma_prev) / s_i / n
        s_vals.append(s_i)
        theta_vals.append(theta_i)
        if i <= d - 1:
            k_i = ks[i]
            if not 1 <= k_i <= math.ceil(s_i):
                raise ConfigError(
                    f"k_{i} = {k_i} outside [1, ceil(s_{i})] = [1, {math.ceil(s_i)}]")
            base = n if i == 1 else gamma_prev
            gamma_prev = base * (theta_i / (4.0 * math.e)) ** k_i
            gamma_vals.append(gamma_prev)
        s_prev = s_i

    # product closed forms
    gamma_closed = tuple(
        n * math.prod((theta_vals[j] / (4.0 * math.e)) ** ks[j + 1] for j in range(i))
        for i in range(1, d)
    )
    theta_closed = [rho / s_vals[0]]
    for i in range(2, d + 1):
        prod = math.prod((theta_vals[j] / (4.0 * math.e)) ** ks[j + 1] for j in range(i - 1))
        theta_closed.append(prod / s_vals[i - 1])

    return LowerBoundCascade(s=tuple(s_vals), theta=tuple(theta_vals), gamma=tuple(gamma_vals),
                             gamma_closed=gamma_closed, theta_closed=tuple(theta_closed))
