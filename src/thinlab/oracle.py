"""Exhaustive max-load distributions for tiny instances.

Walks the full decision tree of the allocation process: every round of every
ball branches over the n equally likely suggestions, so each leaf carries an
exact rational weight (1/n)**(number of draws).  The walk re-implements the
process transition rather than calling the engine's step(), which is what
lets it act as an independent validator: the engine's Monte Carlo
frequencies are checked against the enumerated masses.  It keeps one
`AllocationState`: a branch that places a ball adds it to `round_loads` and
`t`, and undoes both on return.  A leaf's max load is the largest column
sum of `round_loads`.

Only strategies whose decisions are deterministic functions of that state
qualify; a strategy that consults its randomness stream is rejected (the
stub stream raises `ConfigError`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (ConfigError, check_sizes, new_state, per_trial_max_load_counts,
                   simulate_max_load_counts)

DEFAULT_NODE_BUDGET = 10 ** 7


class OracleBudgetExceeded(RuntimeError):
    """The decision tree is larger than the configured node budget."""


class _ForbiddenAux:
    """Aux stream stub; any draw proves the strategy is randomized."""

    def take(self, k=1):
        raise ConfigError("oracle requires a deterministic strategy; it consulted randomness")

    next = take


@dataclass(frozen=True)
class ExactDistribution:
    """Exact max-load mass function for one (n, d, m, strategy) instance."""

    n: int
    d: int
    m: int
    strategy: object
    masses: dict[int, Fraction]

    def total_mass(self) -> Fraction:
        return sum(self.masses.values(), Fraction(0))

    def as_floats(self) -> dict[int, float]:
        return {k: float(v) for k, v in sorted(self.masses.items())}


def exact_distribution(n: int, d: int, m: int, strategy,
                       node_budget: int = DEFAULT_NODE_BUDGET) -> ExactDistribution:
    """Enumerate the decision tree and return the exact max-load masses.

    Practical for n <= 4, m <= 5, d <= 3 or so; the walk aborts once it has
    visited node_budget suggestion branches.
    """
    check_sizes(n, d, m)
    if node_budget < 1:
        raise ConfigError(f"node budget must be >= 1, got {node_budget}")
    if not strategy.deterministic:
        raise ConfigError(f"strategy {strategy.name!r} is randomized; the oracle only "
                          "enumerates deterministic decision rules")
    state = new_state(n, d)
    aux = _ForbiddenAux()
    inv_n = Fraction(1, n)
    masses: dict[int, Fraction] = {}
    nodes = 0

    def walk(i: int, weight: Fraction) -> None:
        """Branch over round i's offer of ball state.t, or record the leaf once m are placed."""
        nonlocal nodes
        if state.t == m:
            top = int(state.round_loads.sum(axis=0).max())
            masses[top] = masses.get(top, Fraction(0)) + weight
            return
        branch_weight = weight * inv_n
        for b in range(n):
            nodes += 1
            if nodes > node_budget:
                raise OracleBudgetExceeded(
                    f"decision tree exceeds the {node_budget}-node budget")
            if i == state.d or strategy.decide(i, b, state, aux):
                state.round_loads[i - 1, b] += 1
                state.t += 1
                walk(1, branch_weight)
                state.t -= 1
                state.round_loads[i - 1, b] -= 1
            else:
                walk(i + 1, branch_weight)

    walk(1, Fraction(1))
    return ExactDistribution(n=n, d=d, m=m, strategy=strategy, masses=masses)


def multinomial_max_load_exact(n: int, m: int) -> dict[int, Fraction]:
    """Classical one-choice max-load distribution by direct n**m enumeration.

    Independent of the tree walk above; used to validate the oracle itself
    for the always-accept strategy.
    """
    weight = Fraction(1, n ** m)
    masses: dict[int, Fraction] = {}
    loads = [0] * n

    def place(ball: int) -> None:
        if ball == m:
            top = max(loads)
            masses[top] = masses.get(top, Fraction(0)) + weight
            return
        for b in range(n):
            loads[b] += 1
            place(ball + 1)
            loads[b] -= 1

    place(0)
    return masses


@dataclass(frozen=True)
class AtomComparison:
    value: int
    exact: float
    empirical: float
    z: float


@dataclass(frozen=True)
class EmpiricalReport:
    """Per-atom z-scores of engine frequencies against exact masses."""

    trials: int
    atoms: tuple[AtomComparison, ...]
    max_abs_z: float
    passed: bool


def compare_empirical(dist: ExactDistribution, trials: int, seed: int = 0,
                      batched: bool = True) -> EmpiricalReport:
    """Run engine trials and z-test each atom of the exact distribution.

    Passes iff every atom's |z| <= 4 (atoms of exact mass 0 or 1 must match
    exactly).  Values observed outside the exact support fail the report.
    At least ~1000 trials are needed for the z approximation to mean much.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    strategy = dist.strategy
    if batched:
        counts = simulate_max_load_counts(dist.n, dist.d, dist.m, strategy, trials, seed)
    else:
        counts = per_trial_max_load_counts(dist.n, dist.d, dist.m, strategy, trials, seed)

    atoms = []
    support = set(dist.masses) | set(counts)
    max_abs_z = 0.0
    for value in sorted(support):
        p = float(dist.masses.get(value, Fraction(0)))
        emp = counts.get(value, 0) / trials
        if p in (0.0, 1.0):
            z = 0.0 if emp == p else math.inf
        else:
            z = (emp - p) / math.sqrt(p * (1.0 - p) / trials)
        atoms.append(AtomComparison(value=value, exact=p, empirical=emp, z=z))
        max_abs_z = max(max_abs_z, abs(z))
    return EmpiricalReport(
        trials=trials,
        atoms=tuple(atoms),
        max_abs_z=max_abs_z,
        passed=max_abs_z <= 4.0,
    )
