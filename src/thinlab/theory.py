"""Closed-form predictors and tail rates for the thinning process.

All logarithms are natural, and the factorial of a real argument is
Gamma(x+1).  Tail rates are clamped into [0, 1].  The paper's lemma bounds
and lower-bound cascade, which the lab never runs, live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ConfigError

_LOG_EXP_OVERFLOW = math.log(700.0)  # exp(-x) for x past 700 is below 1e-304: read as 0.0


def ell(n: float, d: int) -> float:
    """Optimal threshold (d*ln n / ln ln n)**(1/d); defined for n >= 3."""
    if d < 1:
        raise ConfigError(f"thinning depth must be >= 1, got {d}")
    if n < 3:
        raise ConfigError(f"ell needs n >= 3 (ln ln n must be positive), got n={n}")
    return (d * math.log(n) / math.log(math.log(n))) ** (1.0 / d)


def predicted_max(n: float, d: int) -> float:
    """The predicted maximum load d*ell(n, d)."""
    return d * ell(n, d)


def predicted_bounds(n: float, d: int, eps: float) -> tuple[float, float]:
    """(upper, lower) = ((d+eps)*ell, (d-eps)*ell), bracketing d*ell."""
    if not 0 <= eps < math.inf:
        raise ConfigError(f"eps must be finite and >= 0, got {eps}")
    l = ell(n, d)
    return (d + eps) * l, (d - eps) * l


def real_factorial(x: float) -> float:
    """x! for real x via Gamma(x+1)."""
    return math.gamma(x + 1.0)


@dataclass(frozen=True)
class BetaSequence:
    """Per-round rejection-count bounds beta_1..beta_d and their closed form.

    beta_1 = rho*n and beta_i/n = (2/ell!) * (beta_{i-1}/n)**ell.  The closed
    form for the last element is n * rho**(ell**(d-1)) * (2/ell!)**E with
    E = sum_{i=0}^{d-2} ell**i (the geometric-sum exponent, which is also
    safe at ell = 1 where the ratio form would be singular).
    """

    values: tuple[float, ...]
    closed_form_last: float


def beta_sequence(n: float, d: int, rho: float) -> BetaSequence:
    """The sequence at ell(n, d); refuses one that passes the largest float."""
    if rho <= 0:
        raise ConfigError(f"rho must be positive, got {rho}")
    l = ell(n, d)
    fact = real_factorial(l)
    try:
        values = [rho * n]
        for _ in range(d - 1):
            values.append(n * (2.0 / fact) * (values[-1] / n) ** l)
        if d == 1:
            closed = rho * n
        else:
            exponent = sum(l ** i for i in range(d - 1))
            closed = n * rho ** (l ** (d - 1)) * (2.0 / fact) ** exponent
    except OverflowError:
        closed = math.inf
    if not (math.isfinite(closed) and math.isfinite(values[-1])):
        raise ConfigError(f"the beta sequence passes the largest float at n={n}, d={d}, "
                          f"rho={rho!r}")
    return BetaSequence(values=tuple(values), closed_form_last=closed)


def upper_tail_probability(n: float, eps: float) -> float:
    """Failure probability n**(-eps/3) for exceeding (d+eps)*ell.

    An asymptotic rate: it bounds the probability only for n >= n_0(d, eps),
    and the paper does not give n_0.  Below that it is a rate, not a bound.
    """
    return min(1.0, n ** (-eps / 3.0))


def lower_tail_probability(n: float, d: int, eps: float) -> float:
    """Failure probability exp(-n**(eps/3d)) for any strategy staying below (d-eps)*ell.

    An asymptotic rate: it bounds the probability only for n >= n_0(d, eps),
    and the paper does not give n_0.  At n = 10**6, d = 3, eps = 0.75 it
    returns 0.042, yet the threshold strategy's max load stays below
    (d-eps)*ell = 5.64 in a typical run (mean about 5.1), so there it is no
    bound at all.
    """
    rate = eps / (3.0 * d)
    # compared in log space, since n**rate itself may pass the largest float
    if rate * math.log(n) > _LOG_EXP_OVERFLOW:
        return 0.0
    return min(1.0, math.exp(-n ** rate))
