"""Decision rules for the thinning engine.

A strategy answers accept/reject for the round-i offer of the current ball,
reading only the allocation state's `round_loads` and `d` (bin b's load is
`round_loads[:, b].sum()`) and, optionally, its own auxiliary randomness
stream.  Round d is always an accept and the engine never consults the
strategy there.  Strategies are immutable after construction and safe to
share across trials.

A strategy states its rule once, as plain data: `rule`, a `core.RoundRule`
(a cap on the bin's round count in every round before the last, and an
optional coin rate, with which the rule binds in round 1 only), which the
engine runs through one compiled per-ball loop and from which the base
class derives `decide` (for `step` and the oracle), `accept_mask` (the
coins of that loop's rounds in a rule-less proxy's trial) and
`deterministic`.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConfigError, RoundRule, occurrence_rank
from .theory import ell


class Strategy:
    """Base decision rule: a subclass sets `name` and `rule`, and the methods read the rule."""

    name = "strategy"
    rule: RoundRule

    @property
    def deterministic(self) -> bool:
        """Whether the rule takes no coin, so `decide` never reads the aux stream."""
        return self.rule.beta is None

    def decide(self, i: int, bin_index: int, state, aux) -> bool:
        """Accept the round-i offer of bin `bin_index`; one coin per ball in a binding round."""
        rule = self.rule
        if not rule.binds(i, state.d):
            return True
        permitted = rule.beta is None or aux.next() < rule.beta
        return (not permitted or rule.cap is None
                or int(state.round_loads[i - 1][bin_index]) <= rule.cap)

    def accept_mask(self, i: int, suggestions, aux):
        """The round-i balls the rule accepts: a bin's first cap+1 offers, and coins >= beta.

        The engine asks a rule-less proxy only for rounds before the last,
        so round i binds as it would in a process of i+1 rounds.
        """
        rule = self.rule
        if not rule.binds(i, i + 1):
            return np.ones(suggestions.size, dtype=bool)
        coins = None if rule.beta is None else aux.take(suggestions.size)
        mask = (np.ones(suggestions.size, dtype=bool) if rule.cap is None
                else occurrence_rank(suggestions) <= rule.cap)
        return mask if coins is None else mask | (coins >= rule.beta)


class AlwaysAccept(Strategy):
    """Accept every offer; reduces d-thinning to classical one-choice."""

    name = "always-accept"
    rule = RoundRule()


class ThresholdStrategy(Strategy):
    """Reject a round-i offer iff the bin's round-i accepted count exceeds ell.

    For integer counts "count > ell" is "count > floor(ell)", so acceptance
    is "count <= cap" with cap = floor(ell).  Each bin therefore ends a
    non-final round with at most cap+1 accepted balls.
    """

    def __init__(self, ell_value: float, name: str = "threshold"):
        if not 0 < ell_value < math.inf:
            raise ConfigError(f"threshold parameter must be positive and finite, got {ell_value}")
        self.ell = float(ell_value)
        self.cap = math.floor(self.ell)
        self.rule = RoundRule(cap=self.cap)
        self.name = name


class BetaThinning(Strategy):
    """Two-round baseline: rejection needs a permission coin of rate beta.

    At round 1 each ball flips one aux coin; with probability beta the greedy
    threshold rule may reject (bin's round-1 count above cap), otherwise the
    offer must be accepted.  Round 2 always accepts.  beta=0 is one-choice;
    beta near 1 approaches the two-thinning threshold strategy.
    """

    def __init__(self, beta: float, cap: int):
        if not 0 <= beta < 1:
            raise ConfigError(f"beta must lie in [0, 1), got {beta}")
        self.beta = float(beta)
        self.cap = int(cap)
        self.rule = RoundRule(cap=self.cap, beta=self.beta)
        self.name = f"beta-thinning:beta={self.beta!r},cap={self.cap}"


def make_strategy(spec: str, n: int, d: int) -> Strategy:
    """Build a strategy from its selection string.

    Accepted forms: "always-accept", "threshold", "threshold:ell=2.5",
    "threshold-scaled:c=1.5", "beta-thinning:beta=0.5" (optional ",cap=K").
    """
    kind, _, argstr = spec.partition(":")
    args, types = {}, {"ell": float, "c": float, "beta": float, "cap": int}
    if argstr:
        for item in argstr.split(","):
            key, _, value = item.partition("=")
            if not _:
                raise ConfigError(f"malformed strategy argument {item!r} in {spec!r}")
            key, value = key.strip(), value.strip()
            try:
                args[key] = types.get(key, str)(value)
            except ValueError:
                what = "an integer" if types[key] is int else "a number"
                raise ConfigError(f"argument {key!r} of strategy {spec!r} must be {what}, "
                                  f"got {value!r}") from None
    try:
        if kind == "always-accept":
            _reject_unknown(args, set(), spec)
            return AlwaysAccept()
        if kind == "threshold":
            _reject_unknown(args, {"ell"}, spec)
            if "ell" in args:
                return ThresholdStrategy(args["ell"], name=f"threshold:ell={args['ell']!r}")
            return ThresholdStrategy(ell(n, d))
        if kind == "threshold-scaled":
            _reject_unknown(args, {"c"}, spec)
            c = args["c"]
            if c <= 0:
                raise ConfigError(f"scale must be positive, got {c}")
            return ThresholdStrategy(c * ell(n, d), name=f"threshold-scaled:c={c!r}")
        if kind == "beta-thinning":
            _reject_unknown(args, {"beta", "cap"}, spec)
            cap = args["cap"] if "cap" in args else math.floor(ell(n, d))
            beta = args["beta"]
            if d != 2:
                raise ConfigError(f"beta-thinning is a two-round baseline, got d={d}")
            return BetaThinning(beta, cap)
    except KeyError as exc:
        raise ConfigError(f"strategy {spec!r} is missing argument {exc}") from None
    raise ConfigError(f"unknown strategy {spec!r}")


def _reject_unknown(args: dict, allowed: set, spec: str) -> None:
    extra = set(args) - allowed
    if extra:
        raise ConfigError(f"unknown arguments {sorted(extra)} for strategy {spec!r}")
