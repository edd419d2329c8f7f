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

The Choquet pricer works on blocks of focal sets in ascending mask order.
A batch gathers each focal minimum through a padded member table and adds
the weighted minima of a block to running totals from 0 in focal order, so
each price has the bits of the loop ``0 + w0*min0 + w1*min1 + ...`` in any
batch; only this pricer is row-independent bit for bit. A scalar price
takes each focal set's first member in ascending payoff order instead, a
sweep over blocks of rows that shares no code with the gather; the audit's
duality probe plays the two against each other.

Every layer cake reads one table of stably sorted payoff levels and their
upper sets {X >= level}: only exactly tied payoffs share a layer.

All values are immutable; all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Union

import numpy as np

from .errors import BeliefBetError, SpaceMismatchError
from .setfn import (
    EXACT_TOL,
    MAX_OUTCOMES,
    BeliefFunction,
    MassFunction,
    OutcomeSpace,
    SetFunction,
    _Built,
    _additive_blocks,
    _butterfly,
    _doubled,
    _frozen,
    _member_flags,
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
    return Gamble(space, _member_flags(space.check_mask(mask), space.n).astype(float))


def constant_gamble(space: OutcomeSpace, value: float) -> Gamble:
    return Gamble(space, np.full(space.n, float(value)))


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
        return _doubled(0.0, self.prob, np.add, float)


#: Entries one block of the Choquet pricer gathers: focal sets times payoff
#: rows for a batch, focal sets times outcomes for a single price.
_GATHER_BUDGET = 1 << 15


def _focal_minima(masks: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
    """(rows, sets) minima: each set's first member in the row's stable
    ascending payoff order, found per block of sets as the first 1 among its
    membership bits taken in that order."""
    order = np.argsort(payoffs, axis=1, kind="stable")
    ranked_payoffs = np.take_along_axis(payoffs, order, axis=1)
    rows = np.arange(payoffs.shape[0])
    mins = np.empty((masks.shape[0], rows.size))
    step = max(1, _GATHER_BUDGET // order.size)
    for start in range(0, masks.shape[0], step):
        ranked = masks[start : start + step, None, None] >> order
        ranked &= 1
        mins[start : start + step] = ranked_payoffs[rows, ranked.argmax(axis=2)]
    return mins.T.copy()


@dataclass(frozen=True, eq=False)
class ChoquetModel:
    """Prices every gamble at its focal-weighted worst case.

    ``_members`` is the padded member table of the batch gather: row k lists
    the outcomes of focal set k in ascending order, padded to the largest
    focal size with its first member, which leaves every minimum unchanged.
    It is uint8, at most one byte per focal set and outcome. The scalar price
    is the rank-order sweep over blocks of rows; a row's batch price has the
    same bits in any batch, which no other family promises.
    """

    mass: MassFunction
    _members: np.ndarray = field(init=False, repr=False)

    kind = "choquet"

    def __post_init__(self) -> None:
        flags = _member_flags(self.mass.mask_array, self.space.n)
        sizes = flags.sum(axis=1)
        members = np.argsort(~flags, axis=1, kind="stable")[:, : sizes.max()].astype(np.uint8)
        padded = np.where(np.arange(members.shape[1]) < sizes[:, None], members, members[:, :1])
        object.__setattr__(self, "_members", _frozen(padded))

    @property
    def space(self) -> OutcomeSpace:
        return self.mass.space

    def buy_payoff(self, payoff: np.ndarray) -> float:
        return float(_buy_each(self, np.reshape(payoff, (1, -1)))[0])

    def buy_payoff_batch(self, payoffs: np.ndarray) -> np.ndarray:
        """Prices block by block of focal sets. Row 0 of ``table`` holds the
        running totals; the rows below it take the block's minima, one
        gather per member column, then its weighted terms, and one
        accumulate down the focal axis adds them to the totals in order."""
        rows = payoffs.shape[0]
        cols = np.ascontiguousarray(payoffs.T)
        weights = self.mass.weight_array
        focal, width = self._members.shape
        step = min(focal, max(1, _GATHER_BUDGET // max(rows, 1)))
        table = np.zeros((step + 1, rows))
        gathered = np.empty((step, rows))
        # the members are in range; mode="clip" lets take write into its
        # out array directly, where mode="raise" buffers a copy of it
        for start in range(0, focal, step):
            block = self._members[start : start + step]
            running = table[: block.shape[0] + 1]
            terms, column = running[1:], gathered[: block.shape[0]]
            np.take(cols, block[:, 0], axis=0, out=terms, mode="clip")
            for c in range(1, width):
                np.take(cols, block[:, c], axis=0, out=column, mode="clip")
                np.minimum(terms, column, out=terms)
            terms *= weights[start : start + step, None]
            np.add.accumulate(running, axis=0, out=running)
            table[0] = running[-1]
        return table[0].copy()

    def induced_values(self) -> np.ndarray:
        # the zeta transform of the dense mass, summed in place
        return _butterfly(self.mass.as_dense(), np.add)


@dataclass(frozen=True, eq=False)
class LowerEnvelopeModel:
    """Prices every gamble at the minimum expectation over ``rows``."""

    space: OutcomeSpace
    rows: np.ndarray

    kind = "lower_envelope"

    def __post_init__(self) -> None:
        try:
            r = np.array(self.rows, dtype=float)
        except ValueError as exc:
            raise BeliefBetError(
                f"need a nonempty (k, {self.space.n}) row matrix, got ragged or non-numeric rows"
            ) from exc
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
        """The minimum over the rows' additive tables, taken block by block:
        row 0's block first, then each other row's in order."""
        low = np.empty(self.space.size)
        for (at, block), *others in zip(*map(_additive_blocks, self.rows)):
            low[at] = reduce(np.minimum, [other for _, other in others], block)
        return low


PriceModel = Union[LinearModel, ChoquetModel, LowerEnvelopeModel]


def _row_exact(pm: PriceModel) -> bool:
    """Whether rows may be priced in whole-sample passes: Choquet models only."""
    return isinstance(pm, ChoquetModel)


def _own_mass(pm: PriceModel) -> MassFunction | None:
    """The Moebius inverse of the model's indicator prices, read from the
    model itself: a Choquet model's mass, or a linear model's probability on
    its single outcomes. None for any other model, whose inverse takes the
    lattice."""
    if isinstance(pm, ChoquetModel):
        return pm.mass
    if isinstance(pm, LinearModel):
        return MassFunction(pm.space, {1 << i: p for i, p in enumerate(pm.prob.tolist()) if p > 0.0})
    return None


def _buy_each(pm: PriceModel, payoffs: np.ndarray) -> np.ndarray:
    """float(pm.buy_payoff(row)) for every row, bit for bit."""
    if not _row_exact(pm):
        return np.array([float(pm.buy_payoff(row)) for row in payoffs])
    masks = pm.mass.mask_array
    step = max(1, _GATHER_BUDGET // masks.size)
    mins = (row for s in range(0, len(payoffs), step) for row in _focal_minima(masks, payoffs[s : s + step]))
    return np.array([float(np.dot(pm.mass.weight_array, row)) for row in mins])


def _buy_blocks(pm: PriceModel, blocks: list[np.ndarray]) -> list[np.ndarray]:
    """buy_batch(pm, block) for every nonempty block, bit for bit."""
    if not _row_exact(pm):
        return [buy_batch(pm, b) if len(b) else np.empty(0) for b in blocks]
    return np.split(buy_batch(pm, np.concatenate(blocks)), np.cumsum([len(b) for b in blocks[:-1]]))


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
    return SetFunction(pm.space, pm.induced_values().view(_Built))


def _layer_table(payoffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ascending levels and the upper-set masks beside them."""
    # stable: upper[:, j] is {X >= levels[:, j]} at each tie's first column
    order = np.argsort(payoffs, axis=1, kind="stable")
    levels = np.take_along_axis(payoffs, order, axis=1)
    upper = np.bitwise_or.accumulate((1 << order)[:, ::-1], axis=1)[:, ::-1]
    return levels, upper


def _layer_cakes(values: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
    """Each row's min plus its layer widths times ``values`` at their upper sets."""
    levels, upper = _layer_table(payoffs)
    return levels[:, 0] + (np.diff(levels, axis=1) * values[upper[:, 1:]]).sum(axis=1)


def payoff_layers(payoff: np.ndarray) -> list[tuple[float, int]]:
    """Ascending distinct payoff levels with their upper-set masks: each
    entry is (level, mask of outcomes paying at least level), the layer
    table's column at the first outcome of each level. Only exact ties,
    signed zeros included, share a level."""
    try:
        payoff = np.asarray(payoff, dtype=float)
    except (TypeError, ValueError) as exc:
        raise BeliefBetError("payoffs must be a numeric vector") from exc
    if payoff.ndim != 1 or not 1 <= payoff.size <= MAX_OUTCOMES:
        raise BeliefBetError(f"need a vector of 1 to {MAX_OUTCOMES} payoffs, got shape {payoff.shape}")
    if not np.all(np.isfinite(payoff)):
        raise BeliefBetError("payoffs must be finite")
    levels, upper = _layer_table(payoff[None])
    first = np.diff(levels[0], prepend=-np.inf) > 0
    return list(zip(levels[0, first].tolist(), upper[0, first].tolist()))


def choquet_layer_cake(bel: BeliefFunction, gamble: Gamble) -> float:
    """Price a gamble by its layer table: min X plus (x_j - x_(j-1)) *
    Bel(X >= x_j) over its ascending payoffs, reading Bel of the whole space
    as 1; the focal-sum value for any sign pattern of the payoffs."""
    _check_same_space(bel.space, gamble.space)
    return float(_layer_cakes(bel.values, gamble.payoff[None])[0])


@dataclass(frozen=True)
class BeliefValuation:
    """A two-valued valuation that fully believes exactly the supersets of
    its core."""

    space: OutcomeSpace
    core: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "core", self.space.check_mask(self.core))
        if self.core == 0:
            raise BeliefBetError("the core of a belief valuation cannot be empty")

    def holds(self, mask: int) -> bool:
        return self.core & ~self.space.check_mask(mask) == 0


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
