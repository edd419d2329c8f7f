"""Gambles, buy-price models, Choquet pricing, and belief valuations.

A gamble is a payoff vector over the outcomes of a space. A price model
assigns to every gamble the largest price the modeled agent pays for it
(its buy price); selling prices follow by duality, sell(X) = -buy(-X).
Three closed-form model families cover everything this package audits:

* :class:`LinearModel` prices by expectation under one probability vector.
* :class:`ChoquetModel` prices by lower expectation under a basic belief
  assignment: buy(X) = sum over focal sets S of m(S) * min of X on S.
* :class:`LowerEnvelopeModel` prices by the minimum expectation over a
  finite list of probability vectors.

All values are immutable; all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import BeliefBetError, SpaceMismatchError
from .setfn import (
    EXACT_TOL,
    BeliefFunction,
    MassFunction,
    OutcomeSpace,
    SetFunction,
    _butterfly,
    _frozen,
    _member_flags,
    zeta_transform,
)


def _check_same_space(a: OutcomeSpace, b: OutcomeSpace) -> None:
    if a != b:
        raise SpaceMismatchError(f"spaces differ: {a.labels!r} vs {b.labels!r}")


@dataclass(frozen=True, eq=False)
class Gamble:
    """A payoff vector: payoff[i] is the amount paid when outcome i obtains."""

    space: OutcomeSpace
    payoff: np.ndarray

    def __post_init__(self) -> None:
        p = np.array(self.payoff, dtype=float)
        if p.shape != (self.space.n,):
            raise BeliefBetError(
                f"need {self.space.n} payoffs, got shape {p.shape}"
            )
        if not np.all(np.isfinite(p)):
            raise BeliefBetError("payoffs must be finite")
        object.__setattr__(self, "payoff", _frozen(p))

    def __neg__(self) -> "Gamble":
        return Gamble(self.space, -self.payoff)

    def __add__(self, other: "Gamble | float") -> "Gamble":
        if isinstance(other, Gamble):
            _check_same_space(self.space, other.space)
            return Gamble(self.space, self.payoff + other.payoff)
        return Gamble(self.space, self.payoff + float(other))

    __radd__ = __add__

    def __sub__(self, other: "Gamble | float") -> "Gamble":
        return self + (-other if isinstance(other, Gamble) else -float(other))

    def __mul__(self, scale: float) -> "Gamble":
        return Gamble(self.space, self.payoff * float(scale))

    __rmul__ = __mul__


def indicator(space: OutcomeSpace, mask: int) -> Gamble:
    """The gamble paying 1 on the outcomes of ``mask`` and 0 elsewhere."""
    space.check_mask(mask)
    return Gamble(space, _member_flags(mask, space.n).astype(float))


def constant_gamble(space: OutcomeSpace, value: float) -> Gamble:
    return Gamble(space, np.full(space.n, float(value)))


def _additive_values(space: OutcomeSpace, prob: np.ndarray) -> np.ndarray:
    """Indicator prices under one probability vector, doubling one outcome at a
    time: v[2^i : 2^(i+1)] = v[:2^i] + p_i. Each entry is the same sum, in the
    same order, as in the zeta transform of the singleton seed."""
    v = np.empty(space.size)
    v[0] = 0.0
    for i, p in enumerate(prob):
        lo = 1 << i
        np.add(v[:lo], p, out=v[lo : 2 * lo])
    return v


def _check_probability_vector(p: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(p)):
        raise BeliefBetError(f"{what} must be finite")
    if np.any(p < 0.0):
        raise BeliefBetError(f"{what} must be nonnegative")
    total = math.fsum(p.tolist())
    if abs(total - 1.0) > EXACT_TOL:
        raise BeliefBetError(f"{what} must sum to 1, got {total!r}")
    return p


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Precise prices: buy and sell both equal the expectation under ``prob``."""

    space: OutcomeSpace
    prob: np.ndarray

    kind = "linear"

    def __post_init__(self) -> None:
        p = np.array(self.prob, dtype=float)
        if p.shape != (self.space.n,):
            raise BeliefBetError(f"need {self.space.n} probabilities, got shape {p.shape}")
        _check_probability_vector(p, "probability vector")
        object.__setattr__(self, "prob", _frozen(p))

    def buy_payoff(self, payoff: np.ndarray) -> float:
        return float(np.dot(self.prob, payoff))

    def buy_payoff_batch(self, payoffs: np.ndarray) -> np.ndarray:
        return payoffs @ self.prob

    def induced_values(self) -> np.ndarray:
        return _additive_values(self.space, self.prob)


def _focal_minima(masks: np.ndarray, payoff: np.ndarray) -> np.ndarray:
    """min of payoff over each focal set, resolved by one pass per outcome
    in ascending payoff order."""
    mins = np.empty(masks.shape[0])
    unresolved = np.ones(masks.shape[0], dtype=bool)
    for i in np.argsort(payoff, kind="stable"):
        hit = unresolved & (masks >> int(i) & 1).astype(bool)
        mins[hit] = payoff[i]
        unresolved &= ~hit
    return mins


@dataclass(frozen=True, eq=False)
class ChoquetModel:
    """Prices every gamble at its focal-weighted worst case."""

    mass: MassFunction
    _indices: tuple[np.ndarray, ...] = field(init=False, repr=False)

    kind = "choquet"

    def __post_init__(self) -> None:
        flags = _member_flags(self.mass.mask_array, self.space.n)
        object.__setattr__(self, "_indices", tuple(np.flatnonzero(row) for row in flags))

    @property
    def space(self) -> OutcomeSpace:
        return self.mass.space

    def buy_payoff(self, payoff: np.ndarray) -> float:
        mins = _focal_minima(self.mass.mask_array, payoff)
        return float(np.dot(self.mass.weight_array, mins))

    def buy_payoff_batch(self, payoffs: np.ndarray) -> np.ndarray:
        out = np.zeros(payoffs.shape[0])
        for w, idx in zip(self.mass.weight_array, self._indices):
            out += w * payoffs[:, idx].min(axis=1)
        return out

    def induced_values(self) -> np.ndarray:
        return zeta_transform(self.mass.as_dense())


@dataclass(frozen=True, eq=False)
class LowerEnvelopeModel:
    """Prices every gamble at the minimum expectation over ``rows``."""

    space: OutcomeSpace
    rows: np.ndarray

    kind = "lower_envelope"

    def __post_init__(self) -> None:
        r = np.array(self.rows, dtype=float)
        if r.ndim != 2 or r.shape[0] < 1 or r.shape[1] != self.space.n:
            raise BeliefBetError(
                f"need a nonempty (k, {self.space.n}) row matrix, got shape {r.shape}"
            )
        for i in range(r.shape[0]):
            _check_probability_vector(r[i], f"row {i}")
        object.__setattr__(self, "rows", _frozen(r))

    def buy_payoff(self, payoff: np.ndarray) -> float:
        return float((self.rows @ payoff).min())

    def buy_payoff_batch(self, payoffs: np.ndarray) -> np.ndarray:
        return (payoffs @ self.rows.T).min(axis=1)

    def induced_values(self) -> np.ndarray:
        low = _additive_values(self.space, self.rows[0])
        for row in self.rows[1:]:
            np.minimum(low, _additive_values(self.space, row), out=low)
        return low


PriceModel = Union[LinearModel, ChoquetModel, LowerEnvelopeModel]


def buy(pm: PriceModel, gamble: Gamble) -> float:
    """Largest price the model pays for the gamble."""
    _check_same_space(pm.space, gamble.space)
    return float(pm.buy_payoff(gamble.payoff))


def sell(pm: PriceModel, gamble: Gamble) -> float:
    """Smallest price the model sells the gamble for: -buy(-X), exactly."""
    _check_same_space(pm.space, gamble.space)
    return -float(pm.buy_payoff(-gamble.payoff))


def accepts(pm: PriceModel, gamble: Gamble) -> bool:
    """Acceptance at price zero: the gamble is taken iff its buy price is >= 0."""
    return buy(pm, gamble) >= 0.0


def buy_batch(pm: PriceModel, payoffs: np.ndarray) -> np.ndarray:
    """Buy prices for a (k, n) matrix of payoff rows in one call."""
    payoffs = np.asarray(payoffs, dtype=float)
    if payoffs.ndim != 2 or payoffs.shape[1] != pm.space.n:
        raise BeliefBetError(f"need a (k, {pm.space.n}) payoff matrix, got {payoffs.shape}")
    return np.asarray(pm.buy_payoff_batch(payoffs), dtype=float)


def choquet_expectation(mass: MassFunction, gamble: Gamble) -> float:
    """Focal-weighted worst case of a gamble: the lower expectation under ``mass``."""
    return buy(ChoquetModel(mass), gamble)


def induced_set_function(pm: PriceModel) -> SetFunction:
    """Buy prices of all indicator gambles, as a dense set function."""
    return SetFunction(pm.space, pm.induced_values())


def payoff_layers(
    payoff: np.ndarray, *, merge_tol: float = EXACT_TOL
) -> list[tuple[float, int]]:
    """Ascending distinct payoff levels with their upper-set masks.

    Each entry is (level, mask of outcomes paying at least level). Levels
    closer than ``merge_tol`` collapse into one, anchored at the lowest
    value of the group, so near-ties cannot create zero-width layers.
    """
    order = np.argsort(payoff, kind="stable")
    groups: list[tuple[float, int]] = []
    anchor = None
    mask = 0
    for i in order:
        v = float(payoff[i])
        if anchor is None or v - anchor >= merge_tol:
            if anchor is not None:
                groups.append((anchor, mask))
            anchor, mask = v, 0
        mask |= 1 << int(i)
    groups.append((anchor, mask))
    # upper-set masks: suffix union over the ascending groups
    out: list[tuple[float, int]] = []
    upper = 0
    for level, mask in reversed(groups):
        upper |= mask
        out.append((level, upper))
    out.reverse()
    return out


def choquet_layer_cake(bel: BeliefFunction, gamble: Gamble, *, merge_tol: float = EXACT_TOL) -> float:
    """Price a gamble by slicing it into payoff layers.

    Sums (level - previous level) * Bel(payoff >= level) over the
    ascending distinct levels, telescoping from 0, which matches the
    focal-sum value for any sign pattern of the payoffs.
    """
    _check_same_space(bel.space, gamble.space)
    total = 0.0
    prev = 0.0
    for level, upper in payoff_layers(gamble.payoff, merge_tol=merge_tol):
        total += (level - prev) * float(bel.values[upper])
        prev = level
    return total


@dataclass(frozen=True)
class BeliefValuation:
    """A two-valued valuation that fully believes exactly the supersets of
    its core."""

    space: OutcomeSpace
    core: int

    def __post_init__(self) -> None:
        self.space.check_mask(self.core)
        if self.core == 0:
            raise BeliefBetError("the core of a belief valuation cannot be empty")

    def holds(self, mask: int) -> bool:
        self.space.check_mask(mask)
        return self.core & ~mask == 0


@dataclass(frozen=True, eq=False)
class ValuationCheck:
    """Verdict of :func:`is_belief_valuation`."""

    valuation: BeliefValuation | None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.valuation is not None


def is_belief_valuation(f: SetFunction) -> ValuationCheck:
    """Classify a two-valued set function as a belief valuation.

    Checks, in order: no set is fully believed together with its
    complement; full belief is upward closed; full belief is closed under
    intersection; the whole space is fully believed. On acceptance the
    core is the intersection of all fully believed sets.
    """
    values = f.values
    if not np.all((values == 0.0) | (values == 1.0)):
        raise BeliefBetError("belief valuations must be two-valued (0 or 1)")
    ones = values.astype(bool)
    clash = ones & ones[::-1]
    if np.any(clash):
        mask = int(np.flatnonzero(clash)[0])
        return ValuationCheck(None, f"complement clash: {mask} and its complement both valued 1")
    up = _butterfly(np.array(ones), np.logical_or)
    drop = up & ~ones
    if np.any(drop):
        mask = int(np.flatnonzero(drop)[0])
        return ValuationCheck(None, f"monotonicity: value drops to 0 on superset {mask}")
    believed = np.flatnonzero(ones)
    running = np.bitwise_and.accumulate(believed)
    broken = np.flatnonzero(~ones[running])
    if broken.size:
        j = int(broken[0])
        return ValuationCheck(None, f"intersection closure: {running[j - 1]} and {believed[j]} "
                                    f"valued 1 but {running[j]} is not")
    if not ones[-1]:
        return ValuationCheck(None, "the whole space is not fully believed")
    return ValuationCheck(BeliefValuation(f.space, int(running[-1])))


def guaranteed_revenue(valuation: BeliefValuation, gamble: Gamble) -> float:
    """Worst payoff of the gamble over the valuation's core."""
    _check_same_space(valuation.space, gamble.space)
    return float(gamble.payoff[_member_flags(valuation.core, valuation.space.n)].min())
