"""Consistency audits for buy-price models.

The audit answers four questions about a model: do seeded probes confirm
the coherence properties (worst-case bound, scale invariance,
superadditivity), can a ledger priced at the model's own quotes lose at
every outcome, are the indicator prices additive (a probability), and do
all prices come from a belief function via the Choquet integral.

The last verdict inverts the indicator prices on the subset lattice and
demands a nonnegative result. Choquet models (their own mass) and linear
models (a probability) then agree with the Choquet integral by
construction, and the duality probe checks their batch pricer; lower
envelopes and other model objects must agree with the recovered Choquet
prices on a seeded sample of gambles.
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
from typing import Union

import numpy as np

from .errors import (
    BeliefBetError,
    NoGapError,
    NotNegativeError,
    SingletonCoreError,
)
from .previsions import (
    ChoquetModel,
    Gamble,
    PriceModel,
    buy,
    buy_batch,
    choquet_expectation,
    indicator,
    induced_set_function,
    payoff_layers,
    sell,
    _buy_blocks,
    _buy_each,
    _check_same_space,
    _choquet_by_construction,
)
from .setfn import (
    DEFAULT_TOL,
    EXACT_TOL,
    MassFunction,
    NegativeMassReport,
    OutcomeSpace,
    SetFunction,
    _butterfly,
    _classify_mobius,
    _deletion_family,
    _doubled,
    _fewest_outcomes,
    _member_flags,
    _subfamily_intersections,
    belief_to_mass,
    mobius_transform,
)

_PROBE_STREAM = 0
_SAMPLE_STREAM = 1
_LEDGER_STREAM = 2


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic probe plan. One seed fixes every draw of an audit."""

    num_samples: int = 256
    payoff_range: tuple[float, float] = (-1.0, 1.0)
    seed: int = 0
    num_ledgers: int = 32

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise BeliefBetError("num_samples must be at least 1")
        lo, hi = self.payoff_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise BeliefBetError(f"payoff_range must be a finite (low, high) pair, got {self.payoff_range}")
        if self.num_ledgers < 0:
            raise BeliefBetError("num_ledgers cannot be negative")
        if self.seed < 0:
            raise BeliefBetError(f"seed cannot be negative, got {self.seed}")


def _rng(plan: SamplePlan, stream: int) -> np.random.Generator:
    return np.random.default_rng([plan.seed, stream])


def sample_gambles(space: OutcomeSpace, plan: SamplePlan) -> np.ndarray:
    """The exact (num_samples, n) payoff matrix an audit checks Choquet
    agreement on, for the models not consistent by construction (lower
    envelopes and other model objects; not Choquet or linear models).
    Exposed so third parties can replay the sample."""
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

    plan: SamplePlan
    tol: float
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
    return CoherenceProbeReport(plan=plan, tol=tol, probes=probes)


@dataclass(frozen=True)
class ProbabilityCheck:
    is_probability: bool
    witness: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.is_probability


def _probability_verdict(
    space: OutcomeSpace, values: np.ndarray, mob: np.ndarray, tol: float
) -> ProbabilityCheck:
    # star is the lowest mask among those with the fewest outcomes, two or
    # more, and |weight| > tol. A bool and a uint8 table pick it, so the
    # transient stays near 2 bytes per subset.
    heavy = mob > tol
    heavy |= mob < -tol
    heavy[0] = heavy[1 << np.arange(space.n)] = False
    if not heavy.any():
        return ProbabilityCheck(True)
    counts = _doubled(0, [1] * space.n, np.add, np.uint8)
    # Raise the counts of the light subsets past every popcount.
    np.copyto(counts, np.iinfo(np.uint8).max, where=np.logical_not(heavy, out=heavy))
    del heavy
    star = int(np.argmax(counts == counts.min()))
    a = star & -star
    b = star ^ a
    if abs(values[star] - values[a] - values[b]) > tol:
        return ProbabilityCheck(False, (a, b))
    # Interference from sub-tolerance weights. Test the singleton extensions
    # f(B + i) - f(B) - f(i), i not in B: exact additivity holds iff they
    # all vanish (induction on |A|), so n 2^n checks replace the 3^n pairs.
    # Report the first offender by union (popcount, mask), then lowest i.
    offending = np.zeros(space.size, dtype=bool)
    for i in range(space.n):
        v = values.reshape(-1, 2, 1 << i)
        gaps = np.abs(v[:, 1, :] - v[:, 0, :] - values[1 << i])
        offending.reshape(-1, 2, 1 << i)[:, 1, :] |= gaps > tol
    offending[1 << np.arange(space.n)] = False  # B empty
    unions = np.flatnonzero(offending)
    if not unions.size:
        return ProbabilityCheck(False)
    union = _fewest_outcomes(unions, lowest=True)
    singles = 1 << np.flatnonzero(_member_flags(union, space.n))
    gaps = np.abs(values[union] - values[union ^ singles] - values[singles])
    single = int(singles[np.argmax(gaps > tol)])
    rest = union ^ single
    return ProbabilityCheck(False, (min(rest, single), max(rest, single)))


def probability_check(pm: PriceModel, *, tol: float = DEFAULT_TOL) -> ProbabilityCheck:
    """Decide whether the model prices indicators additively.

    True iff the inversion of the indicator prices is carried by
    singletons; on failure the witness is a disjoint pair whose union is
    priced away from the sum of its parts.
    """
    induced = induced_set_function(pm)
    mob = mobius_transform(induced.values)
    return _probability_verdict(pm.space, induced.values, mob, tol)


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


def _indicators(space: OutcomeSpace, masks: np.ndarray) -> tuple[Gamble, ...]:
    return tuple(Gamble(space, row) for row in _member_flags(masks, space.n).astype(float))


def certificate_from_negative_mass(
    f: SetFunction, subset: int, *, tol: float = DEFAULT_TOL
) -> ViolationCertificate:
    """Build a certificate from a subset with negative inverted weight.

    The generating family removes one outcome of ``subset`` at a time; its
    inclusion-exclusion slack equals the negative weight. ``ys`` holds the
    union and the even-order intersections, ``xs`` the odd-order ones.
    When some two family members already violate the pair inequality, that
    minimal two-set instance is emitted instead.
    """
    space = f.space
    space.check_mask(subset)
    if subset.bit_count() < 2:
        raise SingletonCoreError(
            f"subset {subset} has fewer than two outcomes; no family can witness it"
        )
    # the Moebius pass on the sublattice of subset repeats the full pass's
    # operations there in the same order, so its top entry has the same bits
    singles = 1 << np.flatnonzero(_member_flags(subset, space.n))
    inside = _doubled(0, singles, np.bitwise_or, np.int64)  # the sublattice
    values = f.values
    mass_value = float(_butterfly(values[inside], np.subtract)[-1])
    if mass_value >= -tol:
        raise NotNegativeError(
            f"inverted weight at subset {subset} is {mass_value!r}, not below {-tol}"
        )
    family = _deletion_family(subset, space.n)
    # every pair of family members in lexicographic order; argmin keeps the first minimum
    i, j = np.triu_indices(family.shape[0], 1)
    a, b = family[i], family[j]
    pair_slack = values[subset] + values[a & b] - values[a] - values[b]
    best = int(np.argmin(pair_slack))
    if pair_slack[best] < -tol:
        xs_masks = np.array([a[best], b[best]])
        ys_masks = np.array([subset, a[best] & b[best]])
        gap = -float(pair_slack[best])
    else:
        inter, odd = _subfamily_intersections(space.full_mask, family)
        xs_masks = inter[odd]
        ys_masks = np.concatenate(([subset], inter[~odd]))  # the union of the family first
        gap = math.fsum(values[xs_masks].tolist()) - math.fsum(values[ys_masks].tolist())
    xs = _indicators(space, xs_masks)
    ys = _indicators(space, ys_masks)
    return ViolationCertificate(
        space=space,
        xs=xs,
        ys=ys,
        buy_gap=float(gap),
        witness=NegativeMassWitness(subset=subset, mass=float(mass_value)),
    )


def certificate_from_choquet_gap(
    pm: PriceModel, gamble: Gamble, *, tol: float = DEFAULT_TOL
) -> ViolationCertificate:
    """Build a certificate from a gamble priced away from its layer value.

    The gamble is shifted to a zero minimum so all layer widths are
    nonnegative; its worst-case revenue then equals the summed worst-case
    revenue of the scaled indicator layers on every core, while the buy
    prices differ. Requires the model's inverted indicator prices to be
    nonnegative.
    """
    _check_same_space(pm.space, gamble.space)
    inverted = belief_to_mass(induced_set_function(pm), tol=tol)
    if isinstance(inverted, NegativeMassReport):
        raise BeliefBetError(
            "inverted indicator prices are negative; use certificate_from_negative_mass"
        )
    return _choquet_gap_certificate(pm, gamble, inverted, tol)


def _choquet_gap_certificate(
    pm: PriceModel, gamble: Gamble, inverted: MassFunction, tol: float
) -> ViolationCertificate:
    """:func:`certificate_from_choquet_gap` for callers that already hold
    ``inverted``, the recovered mass of the model's indicator prices."""
    space = pm.space
    shift = float(gamble.payoff.min())
    shifted = Gamble(space, gamble.payoff - shift)
    layers = [
        (level, upper) for level, upper in payoff_layers(shifted.payoff) if level > 0.0
    ]
    layer_gambles: list[Gamble] = []
    prev = 0.0
    for level, upper in layers:
        layer_gambles.append((level - prev) * indicator(space, upper))
        prev = level
    model_price = buy(pm, shifted)
    layer_price = math.fsum(buy(pm, layer) for layer in layer_gambles)
    gap = model_price - layer_price
    if abs(gap) <= tol:
        raise NoGapError(
            f"model and layer prices agree within {tol} on this gamble ({gap!r})"
        )
    if gap > 0:
        xs: tuple[Gamble, ...] = (shifted,)
        ys: tuple[Gamble, ...] = tuple(layer_gambles)
    else:
        xs = tuple(layer_gambles)
        ys = (shifted,)
    return ViolationCertificate(
        space=space,
        xs=xs,
        ys=ys,
        buy_gap=abs(gap),
        witness=ChoquetGapWitness(
            gamble=gamble,
            model_price=buy(pm, gamble),
            choquet_price=choquet_expectation(inverted, gamble),
        ),
    )


def verify_certificate(
    pm: PriceModel,
    cert: ViolationCertificate,
    *,
    tol: float = DEFAULT_TOL,
    exact_tol: float = EXACT_TOL,
) -> bool:
    """Recheck a certificate against a model from scratch.

    True iff, over every one of the 2^n - 1 nonempty cores, the summed
    worst-case revenue of ``xs`` stays below that of ``ys`` (within
    ``exact_tol``), and the model's summed buy price of ``xs`` strictly
    exceeds that of ``ys`` by more than ``tol``.

    The revenues come from the layer cake: on a core C, a gamble X sorted as
    x_1 <= ... <= x_n earns min X plus x_j - x_(j-1) for every j >= 2 with
    C inside {X >= x_j}. The signed widths of both sides go into one 2^n
    table at their upper sets, so one superset-sum pass plus the signed sum
    of the minima gives revenue_x - revenue_y on every core, in O(n 2^n)
    for the whole certificate plus a sort of each gamble.
    """
    _check_same_space(pm.space, cert.space)
    gambles = cert.xs + cert.ys
    for g in gambles:
        _check_same_space(cert.space, g.space)
    signs = np.repeat((1.0, -1.0), (len(cert.xs), len(cert.ys)))
    payoffs = np.array([g.payoff for g in gambles]).reshape(-1, cert.space.n)
    order = np.argsort(payoffs, axis=1)
    levels = np.take_along_axis(payoffs, order, axis=1)
    # upper[:, j] is {X >= levels[:, j]} wherever widths[:, j - 1] is nonzero
    upper = np.bitwise_or.accumulate((1 << order)[:, ::-1], axis=1)[:, ::-1]
    widths = signs[:, None] * np.diff(levels, axis=1)
    table = np.bincount(upper[:, 1:].ravel(), widths.ravel(), minlength=cert.space.size)
    # the subset sums of the reversed table are the superset sums
    gap = _butterfly(table[::-1], np.add)[::-1] + math.fsum((signs * levels[:, 0]).tolist())
    if not np.all(gap[1:] <= exact_tol):
        return False
    bought_x = math.fsum(buy(pm, g) for g in cert.xs)
    bought_y = math.fsum(buy(pm, g) for g in cert.ys)
    return bought_x > bought_y + tol


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Everything one audit run established, replayable from plan + seed."""

    space: OutcomeSpace
    model_kind: str
    plan: SamplePlan
    tolerances: dict[str, float]
    coherence: CoherenceProbeReport
    sure_loss_worst: float | None
    is_probability: bool
    probability_witness: tuple[int, int] | None
    is_belief_consistent: bool
    induced_mass: MassFunction | NegativeMassReport
    certificate: ViolationCertificate | None
    certificate_verified: bool | None

    def __post_init__(self) -> None:
        if (self.certificate is None) == (not self.is_belief_consistent):
            raise BeliefBetError("a certificate must accompany exactly the failing verdicts")


def _sampled_sure_loss(pm: PriceModel, plan: SamplePlan) -> float | None:
    """Worst exposure over seeded ledgers priced at the model's own quotes.
    All ledgers are drawn first; every side keeps the price bits of its own
    ``buy_batch`` call, and each profile is summed buys first, then sells."""
    if plan.num_ledgers == 0:
        return None
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


def belief_consistency_audit(
    pm: PriceModel,
    plan: SamplePlan = SamplePlan(),
    *,
    tol: float = DEFAULT_TOL,
    exact_tol: float = EXACT_TOL,
) -> AuditReport:
    """Full audit: probes, sure-loss sampling, probability check, and the
    belief-consistency verdict with a verified certificate on failure.

    Verdict steps: invert the indicator prices with one Moebius transform;
    any weight below -tol yields a negative-mass certificate at the smallest
    offending subset (ties broken toward later outcomes). Otherwise Choquet
    and linear models are belief-consistent by construction and nothing is
    sampled. Any other model's prices are compared with the Choquet prices
    of the recovered weights on the plan's sampled gambles; the largest
    disagreement beyond tol yields a pricing-gap certificate. Certificates
    are verified before they are returned.
    """
    space = pm.space
    probe_report = coherence_probe(pm, plan, tol=tol)
    induced = induced_set_function(pm)
    mob = mobius_transform(induced.values)
    inverted = _classify_mobius(induced, mob, tol)
    prob = _probability_verdict(space, induced.values, mob, tol)
    sure_worst = _sampled_sure_loss(pm, plan)

    certificate: ViolationCertificate | None = None
    consistent = True
    if isinstance(inverted, NegativeMassReport):
        candidates = inverted.masks[np.bitwise_count(inverted.masks) >= 2]
        if not candidates.size:
            raise BeliefBetError(
                "only singleton weights are negative; the model is outside the coherent family"
            )
        subset = _fewest_outcomes(candidates)
        certificate = certificate_from_negative_mass(induced, subset, tol=tol)
        consistent = False
    elif not _choquet_by_construction(pm):
        samples = sample_gambles(space, plan)
        gaps = np.abs(buy_batch(pm, samples) - ChoquetModel(inverted).buy_payoff_batch(samples))
        worst = int(np.argmax(gaps))
        if gaps[worst] > tol:
            certificate = _choquet_gap_certificate(pm, Gamble(space, samples[worst]), inverted, tol)
            consistent = False

    verified: bool | None = None
    if certificate is not None:
        verified = verify_certificate(pm, certificate, tol=tol, exact_tol=exact_tol)
        if not verified:
            raise BeliefBetError("internal error: emitted certificate failed verification")

    return AuditReport(
        space=space,
        model_kind=getattr(pm, "kind", type(pm).__name__),
        plan=plan,
        tolerances={"tol": tol, "exact_tol": exact_tol},
        coherence=probe_report,
        sure_loss_worst=sure_worst,
        is_probability=prob.is_probability,
        probability_witness=prob.witness,
        is_belief_consistent=consistent,
        induced_mass=inverted,
        certificate=certificate,
        certificate_verified=verified,
    )
