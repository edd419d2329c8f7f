"""Finite outcome spaces and set functions on the subset lattice.

Subsets of an n-outcome space are plain ints in [0, 2^n): bit i is set iff
outcome i belongs to the subset. Set functions are stored densely as float
arrays of length 2^n indexed by that mask, which keeps the O(n 2^n)
subset-sum (zeta) and Moebius transforms contiguous and cache friendly.

Every lattice pass is one butterfly, :func:`_butterfly`, with the operator
deciding what it computes: ``np.add`` the zeta transform (on a reversed
table, the sum over supersets), ``np.subtract`` the Moebius transform, and
``np.logical_or`` the up-closure of a family of sets. Every table over the
subsets of a list of steps is one doubling pass, :func:`_doubled`: ``np.add``
popcounts and (one block at a time, :func:`_additive_blocks`) additive prices,
``np.bitwise_and`` subfamily intersections and ``np.bitwise_or`` sublattices.

Stage b of the butterfly pairs entries 2^b apart, so its contiguous runs are
2^b entries long. numpy (2.4, default buffer size) copies runs shorter than
4096 entries through its iterator buffers, which makes the low stages two to
ten times slower per entry than the high ones. The butterfly therefore runs
its low stages on turned blocks: 16 rows of 2^12 entries are transposed into
a small scratch table, where stage b sweeps runs of 16 x 2^b entries. A low
stage only combines entries inside one row, so every entry still sees the
same operations in the same order and the result is the same bit for bit.

A belief verdict on a table (belief function or not, its mass) reads one
:class:`_MobiusReading` of it, which alone inverts and scans the table.

Every value here is immutable after construction and every operation is a
pure function of its inputs, so concurrent use needs no locking.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import (
    EndpointViolationError,
    BeliefBetError,
    DuplicateLabelError,
    FamilyTooLargeError,
    SizeOutOfRangeError,
)

#: Hard cap on outcomes so dense 2^n tables stay desk scale.
MAX_OUTCOMES = 24

#: Largest family accepted by inclusion_exclusion_slack (2^N - 1 subfamilies are scanned).
MAX_FAMILY_SIZE = 20

#: Default absolute tolerance separating arithmetic noise from structural failure.
DEFAULT_TOL = 1e-9

#: Tolerance used where exact cancellation is expected.
EXACT_TOL = 1e-12

#: The butterfly runs stages 0 .. _TURN_BITS - 1 on turned blocks of
#: _TURN_ROWS rows of 2^_TURN_BITS entries (a 512 KB float scratch), on tables
#: of at least 2^_TURN_MIN_BITS entries; below that the per-bit loop is faster.
_TURN_BITS = 12
_TURN_ROWS = 16
_TURN_MIN_BITS = 14


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class OutcomeSpace:
    """An ordered finite set of distinct outcome labels.

    The position of a label is its canonical identity: outcome i occupies
    bit i of every subset mask over this space.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.labels) <= MAX_OUTCOMES:
            raise SizeOutOfRangeError(
                f"need between 1 and {MAX_OUTCOMES} outcomes, got {len(self.labels)}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateLabelError(f"outcome labels must be distinct: {self.labels!r}")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def size(self) -> int:
        """Number of subsets, 2^n."""
        return 1 << len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    @functools.cached_property
    def _indices(self) -> dict[str, int]:
        """Each label's position, looked up by :meth:`index_of`."""
        return {label: i for i, label in enumerate(self.labels)}

    def index_of(self, label: str) -> int:
        try:
            return self._indices[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise KeyError(f"unknown outcome label {label!r}") from None

    def mask_of(self, names: Iterable[str]) -> int:
        """Mask of the subset holding the named outcomes."""
        mask = 0
        for name in names:
            mask |= 1 << self.index_of(name)
        return mask

    def members(self, mask: int) -> tuple[str, ...]:
        """Labels of the outcomes in ``mask``, in canonical order."""
        mask = self.check_mask(mask)
        return tuple(lab for i, lab in enumerate(self.labels) if mask >> i & 1)

    def check_mask(self, mask: int) -> int:
        """``mask`` as a Python int, if it is an integer (not a bool) naming a subset."""
        if type(mask) is not int:
            if isinstance(mask, bool) or not isinstance(mask, (int, np.integer)):
                raise BeliefBetError(f"mask must be an integer, got {mask!r}")
            mask = int(mask)
        if not 0 <= mask < self.size:
            raise BeliefBetError(f"mask {mask} out of range for a {self.n}-outcome space")
        return mask


def make_space(labels: Sequence[str]) -> OutcomeSpace:
    """Build an outcome space with canonical indexing in the order given."""
    return OutcomeSpace(tuple(labels))


def _table_bits(size: int) -> int:
    n = size.bit_length() - 1
    if size <= 0 or 1 << n != size:
        raise BeliefBetError(f"table length must be a power of two, got {size}")
    if n > MAX_OUTCOMES:
        raise SizeOutOfRangeError(f"table for {n} outcomes exceeds the {MAX_OUTCOMES} cap")
    return n


def _stages(flat: np.ndarray, op: np.ufunc, bits: range, width: int) -> None:
    """Butterfly stages ``bits`` on a table whose entries are runs of ``width``."""
    for b in bits:
        v = flat.reshape(-1, 2, width << b)
        op(v[:, 1, :], v[:, 0, :], out=v[:, 1, :])


def _butterfly(table: np.ndarray, op: np.ufunc) -> np.ndarray:
    """In place, for each bit b and each A holding b: table[A] = op(table[A],
    table[A - {b}]). O(n 2^n) on a dense table of length 2^n; returns ``table``.

    On large tables the low stages run on turned blocks: rows of 2^_TURN_BITS
    entries are copied, transposed, into one scratch table, so the row index
    holds the low bits and stage b sweeps runs of rows x 2^b entries instead
    of the 2^b runs numpy would buffer. Low stages never cross a row, so the
    bits equal those of the plain per-bit loop."""
    n = _table_bits(table.shape[0])
    low = _TURN_BITS if n >= _TURN_MIN_BITS else 0
    if low:
        rows = table.reshape(-1, 1 << low)
        step = min(_TURN_ROWS, rows.shape[0])
        turned = np.empty((1 << low, step), dtype=table.dtype)
        for r in range(0, rows.shape[0], step):
            block = rows[r : r + step]
            turned[...] = block.T
            _stages(turned.reshape(-1), op, range(low), step)
            block[...] = turned.T
    _stages(table, op, range(low, n), 1)
    return table


def _doubled(first, steps: Sequence, op: np.ufunc, dtype) -> np.ndarray:
    """The 2^len(steps) table with table[0] = first and, for each step i and
    every J < 2^i, table[J + 2^i] = op(table[J], steps[i])."""
    table = np.empty(1 << len(steps), dtype=dtype)
    table[0] = first
    for i, step in enumerate(steps):
        op(table[: 1 << i], step, out=table[1 << i : 2 << i])
    return table


def _additive_blocks(prices: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """The additive table of ``prices`` as (slice, block) pairs in mask order.
    Block h is the doubling of the 12 low prices plus h's high prices in bit
    order: ``_doubled(0.0, prices, np.add, float)``'s sums, in its order."""
    base, high = _doubled(0.0, prices[:12], np.add, float), prices[12:]
    for h in range(1 << len(high)):
        block = reduce(np.add, high[_member_flags(h, len(high))], base)
        yield slice(h * base.size, (h + 1) * base.size), block


def zeta_transform(values: np.ndarray) -> np.ndarray:
    """Subset-sum transform: out[A] = sum of values[B] over all B inside A."""
    return _butterfly(np.array(values, dtype=float), np.add)


def mobius_transform(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zeta_transform`, the alternating subset sum.

    out[A] = sum over B inside A of (-1)^|A minus B| values[B].
    """
    return _butterfly(np.array(values, dtype=float), np.subtract)


def _member_flags(masks: int | np.ndarray, n: int) -> np.ndarray:
    """out[..., i] is True iff outcome i belongs to the mask: the low n bits of
    each mask's little-endian uint32 bytes, one byte per bit."""
    raw = np.array(masks, dtype="<u4")[..., None].view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=n, bitorder="little").view(bool)


def _deletion_family(subset: int, deleted: int, n: int) -> np.ndarray:
    """``subset`` less one outcome of ``deleted`` each, in ascending mask order."""
    return np.sort(subset ^ 1 << np.flatnonzero(_member_flags(deleted, n)))


def _subfamily_intersections(top: int, masks: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Intersections of the nonempty subfamilies I of ``masks`` (bit i of I picks
    masks[i]; entry I - 1) and whether |I| is odd, doubling one member at a time."""
    inter = _doubled(top, masks, np.bitwise_and, np.int64)
    odd = (np.bitwise_count(np.arange(1, inter.shape[0])) & 1).astype(bool)
    return inter[1:], odd


class _Built(np.ndarray):
    """A view of a float table that no caller holds, one built here or the
    frozen values of another table: a table constructor freezes it in place
    instead of copying it."""


def _dense_values(space: OutcomeSpace, values: np.ndarray, what: str) -> np.ndarray:
    """A frozen float full 2^n table, checked for shape and finiteness: a copy
    of the values given, or the table a :class:`_Built` view shows."""
    v = values.view(np.ndarray) if isinstance(values, _Built) else np.array(values, dtype=float)
    if v.shape != (space.size,):
        raise BeliefBetError(
            f"need {space.size} values for a {space.n}-outcome space, got shape {v.shape}"
        )
    # min and max show any NaN or infinity without a 2^n temporary
    if not (np.isfinite(v.min()) and np.isfinite(v.max())):
        raise BeliefBetError(f"{what} values must be finite")
    return _frozen(v)


def _check_endpoints(values: np.ndarray) -> None:
    if abs(values[0]) > EXACT_TOL or abs(values[-1] - 1.0) > EXACT_TOL:
        raise EndpointViolationError(
            f"endpoints must be 0 and 1, got {float(values[0])!r} and {float(values[-1])!r}"
        )


def _check_tol(tol: float) -> None:
    """Reject a ``tol`` that is not a finite real number >= 0: a bool is no
    tolerance, NaN compares false and an infinite tolerance passes everything."""
    real = isinstance(tol, numbers.Real) and not isinstance(tol, (bool, np.bool_))
    if not (real and 0.0 <= tol < math.inf):
        raise BeliefBetError(f"tol must be a finite number >= 0, got {float(tol) if real else tol!r}")


def _fewest_outcomes(masks: np.ndarray, least: int = 0) -> int:
    """Canonical witness among ``masks``: fewest outcomes, those with fewer
    than ``least`` last, then the subset containing later outcomes."""
    counts = np.bitwise_count(masks)
    counts[counts < least] = np.iinfo(np.uint8).max
    return int(masks[counts == counts.min()].max())


@dataclass(frozen=True, eq=False)
class SetFunction:
    """A raw real-valued function on all subsets; no axioms assumed."""

    space: OutcomeSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _dense_values(self.space, self.values, "set function"))


@dataclass(frozen=True, eq=False)
class MassFunction:
    """Positive weights on nonempty focal sets, summing to one.

    Only focal sets are stored; iteration order is ascending mask.
    ``mask_array`` (int64) and ``weight_array`` (float) hold the focal sets
    and their weights in that order, as frozen arrays.
    """

    space: OutcomeSpace
    weights: Mapping[int, float]
    mask_array: np.ndarray = field(init=False, repr=False)
    weight_array: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        clean: dict[int, float] = {}
        for key in sorted(self.weights):
            mask = self.space.check_mask(key)
            w = float(self.weights[key])
            if mask == 0:
                raise BeliefBetError("the empty set cannot carry mass")
            if not w > 0.0:
                raise BeliefBetError(f"focal weights must be positive, got {w!r} on mask {mask}")
            clean[mask] = w
        total = math.fsum(clean.values())
        if abs(total - 1.0) > EXACT_TOL:
            raise BeliefBetError(f"focal weights must sum to 1, got {total!r}")
        object.__setattr__(self, "weights", clean)
        object.__setattr__(self, "mask_array", _frozen(np.fromiter(clean, dtype=np.int64, count=len(clean))))
        object.__setattr__(self, "weight_array", _frozen(np.fromiter(clean.values(), dtype=float, count=len(clean))))

    def as_dense(self) -> np.ndarray:
        dense = np.zeros(self.space.size)
        dense[self.mask_array] = self.weight_array
        return dense


@dataclass(frozen=True, eq=False)
class BeliefFunction:
    """A totally monotone set function pinned to 0 on the empty set and 1
    on the full set, stored densely.

    Construct through :func:`mass_to_belief`, or run a raw
    :class:`SetFunction` through :func:`is_belief_function` first; the
    constructor enforces only the endpoint axiom.
    """

    space: OutcomeSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        v = _dense_values(self.space, self.values, "belief")
        _check_endpoints(v)
        object.__setattr__(self, "values", v)

    def as_set_function(self) -> SetFunction:
        return SetFunction(self.space, self.values.view(_Built))


@dataclass(frozen=True, eq=False)
class NegativeMassReport:
    """Subsets whose Moebius weight falls below the negativity tolerance.

    ``masks`` holds the offending subsets in ascending order (int64) and
    ``weights`` their Moebius weights (float), as frozen copies of the
    arrays given; ``entries`` reads them back as (mask, weight) pairs.
    """

    space: OutcomeSpace
    masks: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "masks", _frozen(np.array(self.masks, dtype=np.int64)))
        object.__setattr__(self, "weights", _frozen(np.array(self.weights, dtype=float)))

    @property
    def entries(self) -> tuple[tuple[int, float], ...]:
        """(mask, weight) pairs in ascending mask order."""
        return tuple(zip(self.masks.tolist(), self.weights.tolist()))

    def worst(self) -> tuple[int, float]:
        """The most negative entry; the lowest mask among equal weights."""
        i = int(np.argmin(self.weights))
        return int(self.masks[i]), float(self.weights[i])

    def witness(self) -> int:
        """Canonical offending subset: fewest outcomes first, ties broken
        toward the subset containing later outcomes."""
        return _fewest_outcomes(self.masks)


@dataclass(frozen=True, eq=False)
class BeliefCheck:
    """Verdict of :func:`is_belief_function`, with a witness on failure."""

    ok: bool
    reason: str | None = None
    negative_subset: int | None = None
    negative_mass: float | None = None
    family: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


_TableLike = Union[SetFunction, BeliefFunction]


def mass_to_belief(m: MassFunction) -> BeliefFunction:
    """Accumulate focal weights over the lattice: Bel(A) = sum of m(C) for C inside A."""
    # the zeta transform of the dense mass, summed in place
    return BeliefFunction(m.space, _butterfly(m.as_dense(), np.add).view(_Built))


class _MobiusReading:
    """The one reading of a table ``f`` at one ``tol`` for its belief verdicts:
    ``mob``, its frozen Moebius transform, and ``negative``, the ascending
    masks whose weight is below -tol. It holds no 2^n bool table."""

    def __init__(self, f: _TableLike, tol: float) -> None:
        _check_tol(tol)
        self.f, self.tol, self.mob = f, tol, _frozen(mobius_transform(f.values))
        self.negative = np.flatnonzero(self.mob < -tol)

    def mass(self) -> MassFunction | NegativeMassReport:
        """:func:`belief_to_mass` of the table."""
        _check_endpoints(self.f.values)
        if self.negative.size:
            return NegativeMassReport(self.f.space, self.negative, self.mob[self.negative])
        masks = np.flatnonzero(self.mob[1:] > 0.0) + 1
        vals = self.mob[masks]
        total = math.fsum(vals.tolist())
        if abs(total - 1.0) > max(self.tol, EXACT_TOL):  # the renormalized mass checks EXACT_TOL
            raise BeliefBetError(f"recovered weights sum to {total!r}, too far from 1")
        if total != 1.0:
            vals = vals / total
        return MassFunction(self.f.space, dict(zip(masks.tolist(), vals.tolist())))


def belief_to_mass(
    f: _TableLike, *, tol: float = DEFAULT_TOL
) -> MassFunction | NegativeMassReport:
    """Invert the subset-sum transform and classify the result.

    Tiny negatives in [-tol, 0) are clamped to zero as arithmetic noise
    and the weights renormalized; anything below -tol is reported as a
    genuine violation, one entry per offending subset.
    """
    return _MobiusReading(f, tol).mass()


def is_belief_function(f: _TableLike, *, tol: float = DEFAULT_TOL) -> BeliefCheck:
    """Decide whether a set function is a belief function.

    Passes iff the endpoints are 0 and 1 and the Moebius transform is
    nowhere below -tol. On failure the check carries the offending subset
    and, when it has at least two outcomes, the family of its one-element
    deletions, whose inclusion-exclusion slack equals the negative weight.
    """
    _check_tol(tol)
    values = f.values
    if abs(values[0]) > EXACT_TOL:
        return BeliefCheck(False, reason=f"empty set must map to 0, got {float(values[0])!r}")
    if abs(values[-1] - 1.0) > EXACT_TOL:
        return BeliefCheck(False, reason=f"full set must map to 1, got {float(values[-1])!r}")
    reading = _MobiusReading(f, tol)
    if not reading.negative.size:
        return BeliefCheck(True)
    subset = _fewest_outcomes(reading.negative)
    family = tuple(_deletion_family(subset, subset, f.space.n).tolist()) if subset.bit_count() >= 2 else ()
    return BeliefCheck(
        False,
        reason=f"subset {subset} carries weight {float(reading.mob[subset])!r}",
        negative_subset=subset,
        negative_mass=float(reading.mob[subset]),
        family=family,
    )


def inclusion_exclusion_slack(f: _TableLike, family: Sequence[int]) -> float:
    """Slack of one inclusion-exclusion inequality instance.

    Returns f(union) minus the alternating sum, over every nonempty
    subfamily I, of (-1)^(|I|+1) f(intersection over I). Belief functions
    keep this nonnegative for every family; probabilities make it zero.
    """
    masks = [f.space.check_mask(a) for a in family]
    if len(masks) < 1:
        raise BeliefBetError("the family must contain at least one subset")
    if len(masks) > MAX_FAMILY_SIZE:
        raise FamilyTooLargeError(
            f"family of {len(masks)} sets exceeds the {MAX_FAMILY_SIZE} cap"
        )
    inter, odd = _subfamily_intersections(f.space.full_mask, masks)
    union = int(np.bitwise_or.reduce(masks))
    alternating = float(np.dot(np.where(odd, 1.0, -1.0), f.values[inter]))
    return float(f.values[union]) - alternating


def plausibility(bel: BeliefFunction, mask: int) -> float:
    """Conjugate value 1 - Bel(complement): the selling-price side of belief."""
    return 1.0 - float(bel.values[bel.space.full_mask ^ bel.space.check_mask(mask)])
