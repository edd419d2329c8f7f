"""Consistency audits for buy-price models.

The audit answers four questions about a model: do seeded probes confirm
the coherence properties (worst-case bound, scale invariance,
superadditivity), can a ledger priced at the model's own quotes lose at
every outcome, are the indicator prices additive (a probability), and do
all prices come from a belief function via the Choquet integral.

The last verdict needs the Moebius inverse of the indicator prices to be
nonnegative. Choquet models (their own mass) and linear models (a
probability on the single outcomes) carry that inverse, so their audit reads
it from the model, with no pass over the subset lattice; they agree with the
Choquet integral by construction, and the duality probe checks their batch
pricer. Lower envelopes and other model objects are inverted on the lattice,
and must agree with the Choquet integral of their own indicator prices (the
layer cake a gap certificate prices) on a seeded sample of gambles.
Failures ship a :class:`ViolationCertificate`, two lists of gambles whose
summed worst-case revenue is ordered one way for every two-valued
valuation while the summed buy prices are ordered strictly the other way;
:func:`verify_certificate` rechecks both facts from scratch.

Audits are pure functions of (model, plan); the plan's seed pins every
random draw, so any report can be replayed bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .errors import (
    BeliefBetError,
    NoGapError,
    NotNegativeError,
    SingletonCoreError,
)
from .previsions import (
    Gamble,
    PriceModel,
    buy,
    buy_batch,
    induced_set_function,
    sell,
    _buy_blocks,
    _buy_each,
    _check_same_space,
    _layer_cakes,
    _layer_table,
    _own_mass,
)
from .setfn import (
    DEFAULT_TOL,
    EXACT_TOL,
    MassFunction,
    NegativeMassReport,
    OutcomeSpace,
    SetFunction,
    belief_to_mass,
    _additive_blocks,
    _butterfly,
    _check_tol,
    _deletion_family,
    _doubled,
    _fewest_outcomes,
    _member_flags,
    _subfamily_intersections,
)

_PROBE_STREAM = 0
_SAMPLE_STREAM = 1
_LEDGER_STREAM = 2


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic probe plan. One seed fixes every draw of an audit.

    Coherent buy prices are positively homogeneous and translation-equivariant,
    so every gamble is drawn on the fixed range [-1, 1] and every audit prices
    32 sampled ledgers; only the sample count and the seed are settings."""

    num_samples: int = 256
    payoff_range: ClassVar[tuple[float, float]] = (-1.0, 1.0)
    seed: int = 0
    num_ledgers: ClassVar[int] = 32

    def __post_init__(self) -> None:
        for name in ("num_samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise BeliefBetError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.num_samples < 1:
            raise BeliefBetError("num_samples must be at least 1")
        if self.seed < 0:
            raise BeliefBetError(f"seed cannot be negative, got {self.seed}")


def _rng(plan: SamplePlan, stream: int) -> np.random.Generator:
    return np.random.default_rng([plan.seed, stream])


def sample_gambles(space: OutcomeSpace, plan: SamplePlan) -> np.ndarray:
    """The exact (num_samples, n) payoff matrix on which an audit compares
    model prices with the layer cakes of the model's own indicator prices,
    for the models not consistent by construction (lower envelopes and
    other model objects). Exposed so third parties can replay the sample."""
    lo, hi = plan.payoff_range
    return _rng(plan, _SAMPLE_STREAM).uniform(lo, hi, size=(plan.num_samples, space.n))


@dataclass(frozen=True, eq=False)
class TransactionLedger:
    """Positions taken at quoted prices: buys pay out their gamble, sells
    owe theirs."""

    buys: tuple[tuple[Gamble, float], ...]
    sells: tuple[tuple[Gamble, float], ...]

    def __post_init__(self) -> None:
        entries = list(self.buys) + list(self.sells)
        if not entries:
            raise BeliefBetError("a ledger needs at least one transaction")
        space = entries[0][0].space
        for g, price in entries:
            _check_same_space(space, g.space)
            if not math.isfinite(price):
                raise BeliefBetError("ledger prices must be finite")
        object.__setattr__(self, "buys", tuple((g, float(p)) for g, p in self.buys))
        object.__setattr__(self, "sells", tuple((g, float(p)) for g, p in self.sells))

    @property
    def space(self) -> OutcomeSpace:
        return (self.buys or self.sells)[0][0].space

    @classmethod
    def at_model_prices(
        cls,
        pm: PriceModel,
        buy_gambles: tuple[Gamble, ...] | list[Gamble] = (),
        sell_gambles: tuple[Gamble, ...] | list[Gamble] = (),
    ) -> "TransactionLedger":
        return cls(
            tuple((g, buy(pm, g)) for g in buy_gambles),
            tuple((g, sell(pm, g)) for g in sell_gambles),
        )


def exposure_profile(ledger: TransactionLedger) -> np.ndarray:
    """Net revenue of the ledger holder at each outcome."""
    profile = np.zeros(ledger.space.n)
    for g, price in ledger.buys:
        profile += g.payoff - price
    for g, price in ledger.sells:
        profile += price - g.payoff
    return profile


def sure_loss_exposure(pm: PriceModel, ledger: TransactionLedger) -> float:
    """Best-case net revenue of the ledger across outcomes.

    Nonnegative whenever the prices are the model's own quotes; a strictly
    negative value means the quoted prices lose at every outcome.
    """
    _check_same_space(pm.space, ledger.space)
    return float(exposure_profile(ledger).max())


@dataclass(frozen=True)
class PropertyProbe:
    worst_slack: float
    checked: int
    passed: int


@dataclass(frozen=True, eq=False)
class CoherenceProbeReport:
    """Worst slack and pass counts per probed pricing property."""

    probes: dict[str, PropertyProbe]

    @property
    def all_passed(self) -> bool:
        return all(p.passed == p.checked for p in self.probes.values())

    @property
    def worst_slack(self) -> float:
        return min(p.worst_slack for p in self.probes.values())


_PROBE_LAMBDAS = (0.5, 2.0, 10.0)


def coherence_probe(
    pm: PriceModel, plan: SamplePlan = SamplePlan(), *, tol: float = DEFAULT_TOL
) -> CoherenceProbeReport:
    """Probe the pricing properties of a coherent model on seeded gambles.

    Evaluates, per sampled gamble pair: buy above the worst payoff, buy
    below the best payoff, positive homogeneity at factors 0.5, 2 and 10,
    superadditivity, constant-shift equivariance, and buy/sell duality.
    Equality-style properties report slack as minus the absolute deviation,
    so every slack should sit above -tol.
    """
    _check_tol(tol)
    rng = _rng(plan, _PROBE_STREAM)
    lo, hi = plan.payoff_range
    num = plan.num_samples
    n = pm.space.n
    xs = rng.uniform(lo, hi, size=(num, n))
    ys = rng.uniform(lo, hi, size=(num, n))
    shifts = rng.uniform(lo, hi, size=num)

    bx = buy_batch(pm, xs)
    by = buy_batch(pm, ys)

    def probe(slacks: np.ndarray) -> PropertyProbe:
        return PropertyProbe(
            worst_slack=float(slacks.min()),
            checked=int(slacks.size),
            passed=int(np.count_nonzero(slacks >= -tol)),
        )

    lower = np.concatenate([bx - xs.min(axis=1), by - ys.min(axis=1)])
    upper = np.concatenate([xs.max(axis=1) - bx, ys.max(axis=1) - by])
    homog = np.concatenate(
        [-np.abs(buy_batch(pm, lam * xs) - lam * bx) for lam in _PROBE_LAMBDAS]
    )
    superadd = buy_batch(pm, xs + ys) - bx - by
    translation = -np.abs(buy_batch(pm, xs + shifts[:, None]) - bx - shifts)
    # batch route against the scalar sell route: -sell(-x) is buy_payoff(x) exactly
    duality = -np.abs(bx - _buy_each(pm, xs))

    probes = {
        "lower_bound": probe(lower),
        "upper_bound": probe(upper),
        "homogeneity": probe(homog),
        "superadditivity": probe(superadd),
        "translation": probe(translation),
        "duality": probe(duality),
    }
    return CoherenceProbeReport(probes)


@dataclass(frozen=True)
class ProbabilityCheck:
    is_probability: bool
    witness: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.is_probability


def _probability_verdict(values: np.ndarray, tol: float) -> ProbabilityCheck:
    """A probability iff every subset is priced within tol of the sum of its
    outcome prices, summed block by block as the additive pricer sums them.
    ``values`` is the dense table of indicator prices."""
    n = values.size.bit_length() - 1
    offends = np.empty(values.size, dtype=bool)
    for at, add in _additive_blocks(values[1 << np.arange(n)]):
        np.greater(np.abs(values[at] - add), tol, out=offends[at])
    offends[0] = False
    if not offends.any():
        return ProbabilityCheck(True)
    # the fewest-outcome, lowest offender: raise the others' popcounts past every count
    counts = _doubled(0, [1] * n, np.add, np.uint8)
    np.copyto(counts, np.iinfo(np.uint8).max, where=np.logical_not(offends, out=offends))
    del offends
    union = int(np.argmax(counts == counts.min()))
    singles = 1 << np.flatnonzero(_member_flags(union, n))
    gaps = np.abs(values[union] - values[union ^ singles] - values[singles])
    single = int(singles[np.argmax(gaps)])
    return ProbabilityCheck(False, tuple(sorted((union ^ single, single))))


def probability_check(pm: PriceModel, *, tol: float = DEFAULT_TOL) -> ProbabilityCheck:
    """Decide whether the model prices indicators additively.

    True iff every indicator price is within tol of the sum of its outcome
    prices. On failure the witness is (rest, single), ascending: the
    fewest-outcome, lowest offending union split at the outcome whose split
    gap is largest. That gap may be within tol when sub-tol gaps add up.
    A model's own mass on single outcomes (a linear model's) prices each
    subset at the sum of its outcome prices, added in the order the verdict
    adds them, so it passes with no table built; a Choquet model's table is
    its own, not copied.
    """
    _check_tol(tol)
    own = _own_mass(pm)
    if own is None:
        return _probability_verdict(induced_set_function(pm).values, tol)
    if np.all(np.bitwise_count(own.mask_array) == 1):
        return ProbabilityCheck(True)
    return _probability_verdict(pm.induced_values(), tol)


@dataclass(frozen=True)
class NegativeMassWitness:
    subset: int
    mass: float

    kind = "negative_mass"


@dataclass(frozen=True, eq=False)
class ChoquetGapWitness:
    gamble: Gamble
    model_price: float
    choquet_price: float

    kind = "choquet_gap"


CertificateWitness = Union[NegativeMassWitness, ChoquetGapWitness]


@dataclass(frozen=True, eq=False)
class ViolationCertificate:
    """Two gamble lists falsifying belief-consistent pricing.

    For every nonempty core the summed worst-case revenue of ``xs`` never
    exceeds that of ``ys``, yet the model pays strictly more for ``xs``
    than for ``ys``; ``buy_gap`` is that strictly positive difference.
    """

    space: OutcomeSpace
    xs: tuple[Gamble, ...]
    ys: tuple[Gamble, ...]
    buy_gap: float
    witness: CertificateWitness

    @property
    def kind(self) -> str:
        return self.witness.kind


def _gambles(space: OutcomeSpace, payoffs: np.ndarray) -> tuple[Gamble, ...]:
    return tuple(Gamble(space, row) for row in payoffs)


def _signed_gap(xs_prices: list[float], ys_prices: list[float]) -> float:
    """The ``xs`` prices minus the ``ys`` prices in one correctly rounded
    math.fsum, so its sign is exact: every certificate gap, compared with tol."""
    return math.fsum(xs_prices + [-p for p in ys_prices])


def certificate_from_negative_mass(
    f: SetFunction, subset: int, *, tol: float = DEFAULT_TOL
) -> ViolationCertificate:
    """Build a least-order certificate from a subset S with negative inverted weight.

    For B inside S with at least two outcomes, the family of deletions
    {S - {i} : i in B} has inclusion-exclusion slack Q_S(B), the summed weight
    of the sets between B and S; at B = S that is the negative weight. The
    certificate takes the least |B| with Q_S(B) below -tol, then the most
    negative slack, then the highest B, so it has 2^|B| gambles. ``ys`` holds
    S and the even-order intersections of the family, ``xs`` the odd-order
    ones. A pair's slack is read from the values, f(S) + f(S - B) - f(S - {hi})
    - f(S - {lo}); S itself always qualifies. The buy gap is the table prices
    of ``xs`` minus those of ``ys``, in one correctly rounded sum.
    """
    _check_tol(tol)
    space = f.space
    subset = space.check_mask(subset)
    if subset.bit_count() < 2:
        raise SingletonCoreError(
            f"subset {subset} has fewer than two outcomes; no family can witness it"
        )
    # the Moebius pass on the sublattice of subset repeats the full pass's
    # operations there in the same order, so its top entry has the same bits
    singles = 1 << np.flatnonzero(_member_flags(subset, space.n))
    inside = _doubled(0, singles, np.bitwise_or, np.int64)  # the sublattice
    values = f.values
    mob = _butterfly(values[inside], np.subtract)
    mass_value = float(mob[-1])
    if mass_value >= -tol:
        raise NotNegativeError(
            f"inverted weight at subset {subset} is {mass_value!r}, not below {-tol}"
        )
    slack = _butterfly(mob[::-1], np.add)[::-1]  # slack[J] = Q_S(inside[J])
    order = _doubled(0, [1] * singles.size, np.add, np.uint8)
    top, pairs = inside.shape[0] - 1, np.flatnonzero(order == 2)
    lo = pairs & -pairs
    slack[pairs] = (values[subset] + values[inside[top ^ pairs]]
                    - values[inside[top ^ pairs ^ lo]] - values[inside[top ^ lo]])
    np.copyto(order, np.iinfo(np.uint8).max, where=(order < 2) | (slack >= -tol))
    order[top] = singles.size  # S always qualifies: its weight is below -tol
    picks = np.flatnonzero(order == order.min())[::-1]  # highest B first
    pick = int(picks[np.argmin(slack[picks])])
    inter, odd = _subfamily_intersections(space.full_mask, _deletion_family(subset, inside[pick], space.n))
    xs_masks = inter[odd]
    ys_masks = np.concatenate(([subset], inter[~odd]))  # the union of the family first
    return ViolationCertificate(
        space=space,
        xs=_gambles(space, _member_flags(xs_masks, space.n).astype(float)),
        ys=_gambles(space, _member_flags(ys_masks, space.n).astype(float)),
        buy_gap=_signed_gap(values[xs_masks].tolist(), values[ys_masks].tolist()),
        witness=NegativeMassWitness(subset=subset, mass=float(mass_value)),
    )


def certificate_from_choquet_gap(
    pm: PriceModel, gamble: Gamble, *, tol: float = DEFAULT_TOL
) -> ViolationCertificate:
    """Build a certificate from a gamble priced away from its layer value.

    The gamble is shifted to a zero minimum, and each rise of its layer
    table, however small, gives a layer: the width times the indicator of
    the upper set. The layers rebuild the shifted gamble, so the worst-case
    revenues match on every core while the buy prices differ.
    ``choquet_price`` is the gamble's minimum plus the layers' summed prices.
    """
    _check_tol(tol)
    _check_same_space(pm.space, gamble.space)
    space = pm.space
    shift = float(gamble.payoff.min())
    shifted = Gamble(space, gamble.payoff - shift)
    levels, upper = _layer_table(shifted.payoff[None])
    widths = np.diff(levels[0])
    kept = widths > 0
    layer_gambles = _gambles(space, widths[kept, None] * _member_flags(upper[0, 1:][kept], space.n))
    layer_prices = [buy(pm, layer) for layer in layer_gambles]
    gap = _signed_gap([buy(pm, shifted)], layer_prices)
    if abs(gap) <= tol:
        raise NoGapError(
            f"model and layer prices agree within {tol} on this gamble ({gap!r})"
        )
    if gap > 0:
        xs: tuple[Gamble, ...] = (shifted,)
        ys: tuple[Gamble, ...] = layer_gambles
    else:
        xs = layer_gambles
        ys = (shifted,)
    return ViolationCertificate(
        space=space,
        xs=xs,
        ys=ys,
        buy_gap=abs(gap),
        witness=ChoquetGapWitness(
            gamble=gamble,
            model_price=buy(pm, gamble),
            choquet_price=shift + math.fsum(layer_prices),
        ),
    )


def verify_certificate(
    pm: PriceModel, cert: ViolationCertificate, *, tol: float = DEFAULT_TOL
) -> bool:
    """Recheck a certificate against a model from scratch.

    True iff, over every one of the 2^n - 1 nonempty cores, the summed
    worst-case revenue of ``xs`` does not exceed that of ``ys``, and the
    model's ``buy`` quotes of ``xs`` minus those of ``ys``, in one correctly
    rounded sum, exceed ``tol``: tol, 0 included, judges the float quotes.

    The revenues come from the layer cake: on a core C, a gamble X sorted as
    x_1 <= ... <= x_n earns min X plus x_j - x_(j-1) for every j >= 2 with
    C inside {X >= x_j}. The signed widths of both sides go into one 2^n
    table at their upper sets, so one superset-sum pass plus the signed sum
    of the minima gives revenue_x - revenue_y on every core, in O(n 2^n)
    for the whole certificate plus a sort of each gamble.
    """
    _check_tol(tol)
    _check_same_space(pm.space, cert.space)
    gambles = cert.xs + cert.ys
    for g in gambles:
        _check_same_space(cert.space, g.space)
    signs = np.repeat((1.0, -1.0), (len(cert.xs), len(cert.ys)))
    payoffs = np.array([g.payoff for g in gambles]).reshape(-1, cert.space.n)
    levels, upper = _layer_table(payoffs)
    widths = signs[:, None] * np.diff(levels, axis=1)
    table = np.bincount(upper[:, 1:].ravel(), widths.ravel(), minlength=cert.space.size)
    # as floats in place (no layers gives int64); reversed subset sums are superset sums
    gap = _butterfly(table.astype(float, copy=False)[::-1], np.add)[::-1]
    gap += math.fsum((signs * levels[:, 0]).tolist())
    if not gap[1:].max() <= 0.0:  # so that a NaN core fails too
        return False
    return _signed_gap([buy(pm, g) for g in cert.xs], [buy(pm, g) for g in cert.ys]) > tol


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Everything one audit run established, replayable from plan + seed."""

    space: OutcomeSpace
    model_kind: str
    plan: SamplePlan
    tolerances: dict[str, float]
    coherence: CoherenceProbeReport
    sure_loss_worst: float
    is_probability: bool
    probability_witness: tuple[int, int] | None
    is_belief_consistent: bool
    induced_mass: MassFunction | NegativeMassReport
    certificate: ViolationCertificate | None
    certificate_verified: bool | None

    def __post_init__(self) -> None:
        if (self.certificate is None) == (not self.is_belief_consistent):
            raise BeliefBetError("a certificate must accompany exactly the failing verdicts")


def _sampled_sure_loss(pm: PriceModel, plan: SamplePlan) -> float:
    """Worst exposure over seeded ledgers priced at the model's own quotes.
    All ledgers are drawn first; every side keeps the price bits of its own
    ``buy_batch`` call, and each profile is summed buys first, then sells."""
    rng = _rng(plan, _LEDGER_STREAM)
    lo, hi = plan.payoff_range
    n = pm.space.n
    buys, sells = [], []
    for _ in range(plan.num_ledgers):
        num_buys, num_sells = 0, 0
        while num_buys + num_sells == 0:
            num_buys = int(rng.integers(0, 6))
            num_sells = int(rng.integers(0, 6))
        buys.append(rng.uniform(lo, hi, size=(num_buys, n)))
        sells.append(rng.uniform(lo, hi, size=(num_sells, n)))
    worst = math.inf
    bids, asks = _buy_blocks(pm, buys), _buy_blocks(pm, [-payoffs for payoffs in sells])
    for bought, bid, sold, ask in zip(buys, bids, sells, asks):
        # an empty side adds +0.0, which leaves a sum begun at +0.0 unchanged
        profile = np.zeros(n) + (bought - bid[:, None]).sum(axis=0)
        profile += (-ask[:, None] - sold).sum(axis=0)
        worst = min(worst, float(profile.max()))
    return worst


def _lattice_certificate(pm: PriceModel, induced: SetFunction, inverted: MassFunction | NegativeMassReport,
                         plan: SamplePlan, tol: float) -> ViolationCertificate | None:
    """The certificate of a model inverted on the lattice, or None if it has
    none. A weight below -tol gives a negative-mass certificate at the
    fewest-outcome offending subset of two or more outcomes (ties broken
    toward later outcomes). Otherwise the model's prices of the plan's
    sampled gambles are compared with their layer cakes over ``induced``, and
    those whose gap exceeds tol are tried from the largest down, ties in
    sample order; the first whose gap certificate stays beyond tol is it."""
    if isinstance(inverted, NegativeMassReport):
        subset = _fewest_outcomes(inverted.masks, least=2)
        if subset.bit_count() < 2:
            raise BeliefBetError(
                "only singleton weights are negative; the model is outside the coherent family"
            )
        return certificate_from_negative_mass(induced, subset, tol=tol)
    samples = sample_gambles(pm.space, plan)
    gaps = np.abs(buy_batch(pm, samples) - _layer_cakes(induced.values, samples))
    for k in np.argsort(-gaps, kind="stable")[:np.count_nonzero(gaps > tol)]:
        try:
            return certificate_from_choquet_gap(pm, Gamble(pm.space, samples[k]), tol=tol)
        except NoGapError:
            continue
    return None


def belief_consistency_audit(
    pm: PriceModel, plan: SamplePlan = SamplePlan(), *, tol: float = DEFAULT_TOL
) -> AuditReport:
    """Full audit, in stages:

    * probes: :func:`coherence_probe` (which rejects a bad ``tol`` before any
      table is built), then the sampled sure-loss ledgers;
    * own mass: a Choquet or linear model's recovered mass is its own, its
      probability verdict is :func:`probability_check`, and it is
      belief-consistent by construction, so nothing is inverted or sampled;
    * lattice: any other model's indicator table is inverted by
      :func:`belief_to_mass` and decides its probability verdict;
    * certificate: :func:`_lattice_certificate` of the inverted table, checked
      by :func:`verify_certificate`; the model is belief-consistent iff it
      has none.
    """
    probe_report = coherence_probe(pm, plan, tol=tol)
    sure_worst = _sampled_sure_loss(pm, plan)
    own = _own_mass(pm)
    if own is not None:
        inverted, prob, certificate = own, probability_check(pm, tol=tol), None
    else:
        induced = induced_set_function(pm)
        inverted = belief_to_mass(induced, tol=tol)
        prob = _probability_verdict(induced.values, tol)
        certificate = _lattice_certificate(pm, induced, inverted, plan, tol)

    verified: bool | None = None
    if certificate is not None:
        verified = verify_certificate(pm, certificate, tol=tol)
        if not verified:
            raise BeliefBetError("internal error: emitted certificate failed verification")

    return AuditReport(
        space=pm.space,
        model_kind=getattr(pm, "kind", type(pm).__name__),
        plan=plan,
        tolerances={"tol": tol, "exact_tol": EXACT_TOL},
        coherence=probe_report,
        sure_loss_worst=sure_worst,
        is_probability=prob.is_probability,
        probability_witness=prob.witness,
        is_belief_consistent=certificate is None,
        induced_mass=inverted,
        certificate=certificate,
        certificate_verified=verified,
    )
