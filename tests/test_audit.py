"""Coherence probes, sure-loss exposure, probability checks, the
belief-consistency audit, and certificate construction/verification."""

import math
import time
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beliefbet as bb
import beliefbet.audit
from beliefbet.previsions import _buy_blocks, _buy_each, _own_mass
from conftest import (
    dense_choquet,
    mass_functions,
    probability_vectors,
    random_mass,
    random_model,
    space_of,
    tied_payoffs,
    wide_mass,
)
from oracles import (
    additive_values_loop,
    additivity_offenders_naive,
    additivity_witness_naive,
    choquet_gap_layers_loop as layer_gambles,
    duality_rhs_by_sell,
    envelope_induced_naive,
    is_two_monotone,
    least_order_naive,
    mobius_naive,
    pair_certificate_triu,
    subfamily_intersections_loop,
    subset_minima_naive,
    sure_loss_per_ledger,
)


def test_negative_seed_rejected():
    with pytest.raises(bb.BeliefBetError, match="seed"):
        bb.SamplePlan(seed=-1)
    assert bb.SamplePlan(seed=0).seed == 0


@pytest.mark.parametrize(
    "field, value",
    [("seed", True), ("num_samples", True), ("num_samples", 2.5), ("seed", 2.5)],
    ids=["seed-bool", "samples-bool", "samples-float", "seed-float"],
)
def test_plan_values_must_be_integers(field, value):
    with pytest.raises(bb.BeliefBetError, match=f"{field} must be an integer, got {value!r}"):
        bb.SamplePlan(**{field: value})


def test_plan_stores_numpy_integers_as_ints():
    plan = bb.SamplePlan(num_samples=np.int64(5), seed=np.uint8(3))
    assert (type(plan.num_samples), type(plan.seed)) == (int, int)
    assert (plan.num_samples, plan.seed) == (5, 3)


@pytest.mark.parametrize("num_samples", [0, -3])
def test_sample_count_below_one_rejected(num_samples):
    with pytest.raises(bb.BeliefBetError, match="num_samples must be at least 1"):
        bb.SamplePlan(num_samples=num_samples)
    assert bb.SamplePlan(num_samples=1).num_samples == 1


@pytest.mark.parametrize("name", ["payoff_range", "num_ledgers"])
def test_payoff_range_and_ledger_count_are_fixed(name):
    with pytest.raises(TypeError, match=name):
        bb.SamplePlan(**{name: getattr(bb.SamplePlan, name)})
    assert (bb.SamplePlan.payoff_range, bb.SamplePlan.num_ledgers) == ((-1.0, 1.0), 32)


def bad_tol_calls():
    """Each public function that takes ``tol``, called on valid arguments."""
    sp = space_of(3)
    env = bb.LowerEnvelopeModel(sp, np.array([[0.2, 0.3, 0.5], [0.5, 0.3, 0.2], [0.3, 0.5, 0.2]]))
    gap_env = bb.LowerEnvelopeModel(sp, np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
    bel = bb.mass_to_belief(bb.MassFunction(sp, {0b001: 0.5, 0b110: 0.5}))
    signed = bb.SetFunction(sp, np.array([0.0, 0.2, 0.2, 0.3, 0.2, 0.3, 0.3, 1.0]))
    return {
        "belief_to_mass": lambda tol: bb.belief_to_mass(bel, tol=tol),
        "is_belief_function": lambda tol: bb.is_belief_function(signed, tol=tol),
        "coherence_probe": lambda tol: bb.coherence_probe(env, tol=tol),
        "probability_check": lambda tol: bb.probability_check(env, tol=tol),
        "certificate_from_negative_mass": lambda tol: bb.certificate_from_negative_mass(signed, 3, tol=tol),
        "certificate_from_choquet_gap": lambda tol: bb.certificate_from_choquet_gap(
            gap_env, bb.Gamble(sp, np.array([1.0, 0.0, 0.5])), tol=tol
        ),
        "verify_certificate": lambda tol: bb.verify_certificate(
            env, bb.belief_consistency_audit(env).certificate, tol=tol
        ),
        "belief_consistency_audit": lambda tol: bb.belief_consistency_audit(env, tol=tol),
    }


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9, True, False, None, "1e-9"])
@pytest.mark.parametrize("name", sorted(bad_tol_calls()))
def test_tol_must_be_finite_and_nonnegative(name, tol):
    call = bad_tol_calls()[name]
    with pytest.raises(bb.BeliefBetError, match=r"tol must be a finite number >= 0, got "):
        call(tol)
    call(0.0)


class MaxOracle:
    """Adversarial non-model: prices every gamble at its best payoff.

    Not coherent: willing to pay max X for X, so combining complementary
    indicators loses money. Used to show the probes catch it."""

    def __init__(self, space):
        self.space = space

    def buy_payoff(self, payoff):
        return float(np.max(payoff))

    def buy_payoff_batch(self, payoffs):
        return payoffs.max(axis=1)

    def induced_values(self):
        values = np.ones(self.space.size)
        values[0] = 0.0
        return values


class BumpModel:
    """Synthetic near-Choquet model: adds a constant bump to every gamble
    with more than one distinct nonzero payoff, so indicators and scaled
    indicators stay exact while general gambles are overpriced."""

    def __init__(self, mass, bump=0.1):
        self.mass = mass
        self.space = mass.space
        self.bump = bump

    def buy_payoff(self, payoff):
        base = bb.choquet_expectation(self.mass, bb.Gamble(self.space, np.array(payoff)))
        distinct = {float(v) for v in payoff if v != 0.0}
        return base + (self.bump if len(distinct) > 1 else 0.0)

    def buy_payoff_batch(self, payoffs):
        return np.array([self.buy_payoff(row) for row in payoffs])

    def induced_values(self):
        return bb.mass_to_belief(self.mass).values


class SkewedBatchModel:
    """Duck-typed linear model whose batch price sits 1e-6 above its scalar
    price, so the two routes the duality probe compares disagree."""

    def __init__(self, space, prob):
        self.space = space
        self.prob = prob

    def buy_payoff(self, payoff):
        return float(np.dot(self.prob, payoff))

    def buy_payoff_batch(self, payoffs):
        return payoffs @ self.prob + 1e-6


class ReversedBatchChoquet(bb.ChoquetModel):
    """A Choquet model whose batch pricer reads the outcomes in reverse order:
    a valid Choquet pricer, but of the mirrored mass, so only the duality
    probe, which sets it against the rank-order sweep, can tell."""

    def buy_payoff_batch(self, payoffs):
        return super().buy_payoff_batch(np.ascontiguousarray(payoffs[:, ::-1]))


class TestCoherenceProbe:
    def test_three_families_pass(self):
        rng = np.random.default_rng(31)
        plan = bb.SamplePlan(num_samples=64, seed=5)
        for kind in ("linear", "choquet", "lower_envelope"):
            for trial in range(5):
                pm = random_model(rng, space_of(int(rng.integers(1, 6))), kind)
                report = bb.coherence_probe(pm, plan)
                assert report.all_passed, (kind, trial, report.probes)
                assert report.worst_slack >= -1e-9

    def test_reference_model_passes(self, two_row_model):
        report = bb.coherence_probe(two_row_model, bb.SamplePlan(num_samples=128))
        assert report.all_passed

    def test_max_oracle_fails_superadditivity(self):
        sp = space_of(3)
        oracle = MaxOracle(sp)
        report = bb.coherence_probe(oracle, bb.SamplePlan(num_samples=64, seed=1))
        assert report.probes["superadditivity"].worst_slack < -1e-9
        assert not report.all_passed
        # the indicator split shows the failure directly:
        # buy(1_A) + buy(complement) = 2 > 1 = buy(1_A + complement)
        a = bb.indicator(sp, 0b011)
        b = bb.indicator(sp, 0b100)
        slack = (
            bb.buy(oracle, a + b) - bb.buy(oracle, a) - bb.buy(oracle, b)
        )
        assert slack == -1.0

    def test_duality_probe_catches_batch_off_scalar(self):
        pm = SkewedBatchModel(space_of(4), np.full(4, 0.25))
        report = bb.coherence_probe(pm, bb.SamplePlan(num_samples=64, seed=2))
        duality = report.probes["duality"]
        assert duality.passed == 0 and duality.checked == 64
        assert duality.worst_slack == pytest.approx(-1e-6, rel=1e-6)
        assert not report.all_passed

    def test_duality_probe_catches_broken_choquet_batch(self):
        # the audit takes a Choquet model as consistent by construction; the
        # duality probe is the check of its batch pricer
        sp = space_of(3)
        pm = ReversedBatchChoquet(bb.MassFunction(sp, {0b001: 0.6, 0b011: 0.4}))
        report = bb.belief_consistency_audit(pm, bb.SamplePlan(num_samples=64, seed=2))
        probes = report.coherence.probes
        assert probes["duality"].passed < probes["duality"].checked
        assert probes["duality"].worst_slack < -0.1
        assert all(p.passed == p.checked for name, p in probes.items() if name != "duality")
        assert not report.coherence.all_passed

    def test_probe_counts(self):
        pm = bb.LinearModel(space_of(2), np.array([0.5, 0.5]))
        plan = bb.SamplePlan(num_samples=10)
        report = bb.coherence_probe(pm, plan)
        assert report.probes["lower_bound"].checked == 20
        assert report.probes["homogeneity"].checked == 30
        assert report.probes["superadditivity"].checked == 10

    def test_deterministic(self, two_row_model):
        plan = bb.SamplePlan(num_samples=32, seed=9)
        first = bb.coherence_probe(two_row_model, plan)
        second = bb.coherence_probe(two_row_model, plan)
        assert first.probes == second.probes


ROUTE_KINDS = ["linear", "lower_envelope", "bump", "choquet-64", "choquet-600", "choquet-3000"]


def route_model(kind, n):
    """A model of the given kind on n outcomes; choquet-k has k focal sets
    (at most 2^n - 1)."""
    rng = np.random.default_rng([n, ROUTE_KINDS.index(kind)])
    if kind.startswith("choquet"):
        return bb.ChoquetModel(wide_mass(rng, n, int(kind.split("-")[1])))
    sp = bb.make_space([f"o{i}" for i in range(n)])
    if kind == "bump":
        return BumpModel(random_mass(rng, sp), bump=0.1)
    return random_model(rng, sp, kind)


def bits_equal(got, want):
    return np.array_equal(np.asarray(got, float).view(np.int64), np.asarray(want, float).view(np.int64))


class TestWholeSamplePasses:
    """The duality probe's scalar side and the sampled ledgers against the
    one-row and one-ledger routes of tests/oracles.py, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 14, 20])
    @pytest.mark.parametrize("kind", ROUTE_KINDS)
    def test_duality_rows_equal_sell_route(self, kind, n):
        pm = route_model(kind, n)
        plan = bb.SamplePlan(seed=n)
        stream = beliefbet.audit._rng(plan, beliefbet.audit._PROBE_STREAM)
        xs = stream.uniform(*plan.payoff_range, size=(plan.num_samples, n))
        for rows in (xs, tied_payoffs(np.random.default_rng(n), 64, n)):
            assert bits_equal(_buy_each(pm, rows), duality_rhs_by_sell(pm, rows))
        slacks = -np.abs(bb.buy_batch(pm, xs) - duality_rhs_by_sell(pm, xs))
        probe = bb.coherence_probe(pm, plan).probes["duality"]
        assert bits_equal(probe.worst_slack, slacks.min())
        assert probe.passed == np.count_nonzero(slacks >= -bb.DEFAULT_TOL)

    @pytest.mark.parametrize("n", [1, 2, 14, 20])
    @pytest.mark.parametrize("kind", ROUTE_KINDS)
    def test_sure_loss_equals_per_ledger_loop(self, kind, n):
        pm = route_model(kind, n)
        for seed in (0, 7, 3):
            plan = bb.SamplePlan(seed=seed)
            stream = beliefbet.audit._rng(plan, beliefbet.audit._LEDGER_STREAM)
            want = sure_loss_per_ledger(pm, stream, plan.num_ledgers, plan.payoff_range)
            assert bits_equal(beliefbet.audit._sampled_sure_loss(pm, plan), want)
        # the 32 ledgers give about 80 rows a side; blocks of 500 rows in all
        # make one Choquet call cross many pricer blocks (65 focal sets each)
        rng = np.random.default_rng(n)
        blocks = [tied_payoffs(rng, k, n) for k in (0, 3, 1, 0, 5, 2, 0, 245, 0, 244)]
        for block, prices in zip(blocks, _buy_blocks(pm, blocks)):
            assert bits_equal(prices, bb.buy_batch(pm, block) if len(block) else [])

    def test_audit_report_matches_routes(self):
        pm = route_model("choquet-600", 14)
        plan = bb.SamplePlan(seed=11)
        report = bb.belief_consistency_audit(pm, plan)
        stream = beliefbet.audit._rng(plan, beliefbet.audit._LEDGER_STREAM)
        want = sure_loss_per_ledger(pm, stream, plan.num_ledgers, plan.payoff_range)
        assert bits_equal(report.sure_loss_worst, want)
        probe = bb.coherence_probe(pm, plan)
        assert report.coherence.probes == probe.probes


class TestSureLossExposure:
    def test_single_buy_under_vacuous_model(self):
        sp = space_of(3)
        pm = bb.ChoquetModel(bb.MassFunction(sp, {sp.full_mask: 1.0}))
        g = bb.indicator(sp, 0b011)
        assert bb.buy(pm, g) == 0.0
        ledger = bb.TransactionLedger.at_model_prices(pm, [g])
        assert bb.sure_loss_exposure(pm, ledger) == 1.0

    def test_reference_complement_pair(self, paper_space, two_row_model):
        g_in = bb.indicator(paper_space, paper_space.mask_of(["2"]))
        g_out = bb.indicator(paper_space, paper_space.mask_of(["1", "3", "4"]))
        ledger = bb.TransactionLedger.at_model_prices(two_row_model, [g_in, g_out])
        assert ledger.buys[0][1] == 0.25
        assert ledger.buys[1][1] == 0.5
        # oracle: enumerate each outcome's net revenue by hand
        want = max(
            (g_in.payoff[w] - 0.25) + (g_out.payoff[w] - 0.5) for w in range(4)
        )
        assert want == 0.25
        assert bb.sure_loss_exposure(two_row_model, ledger) == 0.25

    def test_overquoted_buy_is_a_dutch_book(self):
        sp = space_of(3)
        pm = bb.LinearModel(sp, np.array([0.25, 0.25, 0.5]))
        ledger = bb.TransactionLedger(
            buys=((bb.indicator(sp, 0b011), 1.2),), sells=()
        )
        assert bb.sure_loss_exposure(pm, ledger) == pytest.approx(-0.2, abs=1e-15)

    def test_model_priced_ledgers_never_lose_everywhere(self):
        rng = np.random.default_rng(77)
        for kind in ("linear", "choquet", "lower_envelope"):
            for _ in range(40):
                n = int(rng.integers(1, 9))
                sp = bb.make_space([f"w{i}" for i in range(n)])
                pm = random_model(rng, sp, kind)
                num_buys = int(rng.integers(0, 6))
                num_sells = int(rng.integers(0, 6))
                if num_buys + num_sells == 0:
                    num_buys = 1
                buys = [
                    bb.Gamble(sp, rng.uniform(-1, 1, size=n)) for _ in range(num_buys)
                ]
                sells = [
                    bb.Gamble(sp, rng.uniform(-1, 1, size=n)) for _ in range(num_sells)
                ]
                ledger = bb.TransactionLedger.at_model_prices(pm, buys, sells)
                assert bb.sure_loss_exposure(pm, ledger) >= -1e-9

    def test_ledger_validation(self):
        with pytest.raises(bb.BeliefBetError):
            bb.TransactionLedger((), ())
        g2 = bb.Gamble(space_of(2), np.zeros(2))
        g3 = bb.Gamble(space_of(3), np.zeros(3))
        with pytest.raises(bb.SpaceMismatchError):
            bb.TransactionLedger(((g2, 0.0), (g3, 0.0)), ())


class TestProbabilityCheck:
    def test_linear_is_probability(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            pm = bb.LinearModel(space_of(n), rng.dirichlet(np.ones(n)))
            check = bb.probability_check(pm)
            assert check.is_probability and check.witness is None

    def test_vacuous_choquet_is_not(self):
        sp = space_of(3)
        pm = bb.ChoquetModel(bb.MassFunction(sp, {sp.full_mask: 1.0}))
        check = bb.probability_check(pm)
        assert not check.is_probability
        a, b = check.witness
        f = bb.induced_set_function(pm)
        assert a & b == 0
        assert abs(f.values[a | b] - f.values[a] - f.values[b]) > 1e-9

    def test_reference_model_witness(self, paper_space, two_row_model):
        check = bb.probability_check(two_row_model)
        assert not check.is_probability
        a, b = check.witness
        assert a & b == 0 and a and b
        f = bb.induced_set_function(two_row_model)
        assert abs(f.values[a | b] - f.values[a] - f.values[b]) > 1e-9
        # the documented instance: buy(1_{2}) + buy(1_{3}) differs from buy(1_{2,3})
        m2 = paper_space.mask_of(["2"])
        m3 = paper_space.mask_of(["3"])
        assert f.values[m2] + f.values[m3] != f.values[m2 | m3]

    def test_singleton_support_iff_probability(self):
        rng = np.random.default_rng(21)
        sp = space_of(4)
        for _ in range(20):
            mass = random_mass(rng, sp, singleton_only=bool(rng.integers(0, 2)))
            singleton = all(mask.bit_count() == 1 for mask in mass.weights)
            check = bb.probability_check(bb.ChoquetModel(mass))
            assert check.is_probability == singleton


class TableModel:
    """Duck-typed model that only quotes a fixed indicator-price table."""

    def __init__(self, space, values):
        self.space = space
        self.values = values

    def induced_values(self):
        return self.values


def near_additive_table(n, extra):
    """A uniform probability plus the Moebius weights {0,1} = -0.8e-9,
    {0,2} = -0.7e-9 and {0,1,2} = +1.5e-9 and any ``extra`` ones. The
    three weights cancel on {0,1,2}: one weight beyond tol, yet without
    ``extra`` every price is within tol of its outcome sum."""
    mob = np.zeros(1 << n)
    mob[1 << np.arange(n)] = 1.0 / n
    mob[0b011] += -0.8e-9
    mob[0b101] += -0.7e-9
    mob[0b111] += 1.5e-9
    for mask, weight in extra.items():
        mob[mask] += weight
    return bb.zeta_transform(mob)


class TestProbabilityFallback:
    @pytest.mark.parametrize("n", [12, 14])
    def test_sub_tolerance_interference_has_no_witness(self, n):
        # a weight beyond tol that cancels is no offence: the prices are additive within tol
        sp = bb.make_space([f"w{i}" for i in range(n)])
        pm = TableModel(sp, near_additive_table(n, {}))
        start = time.perf_counter()
        check = bb.probability_check(pm)
        elapsed = time.perf_counter() - start
        assert check.is_probability
        assert check.witness is None
        assert elapsed < 0.1

    def test_witnesses_are_real_disjoint_pairs(self):
        rng = np.random.default_rng(77)
        tol = 1e-9
        witnessed = 0
        for _ in range(60):
            n = int(rng.integers(3, 6))
            sp = space_of(n)
            free = [m for m in range(sp.size) if m.bit_count() >= 2 and m not in (3, 5, 7)]
            picks = rng.choice(free, size=min(3, len(free)), replace=False)
            values = near_additive_table(
                n, {int(m): float(rng.uniform(-0.9, 0.9)) * tol for m in picks}
            )
            # the split of {0,1,2} at its lowest outcome still cancels
            assert abs(values[7] - values[1] - values[6]) <= tol
            check = bb.probability_check(TableModel(sp, values), tol=tol)
            assert check.witness == additivity_witness_naive(values.tolist(), n, tol)
            assert check.is_probability is (check.witness is None)
            if check.witness is not None:
                witnessed += 1
                a, b = check.witness
                if abs(values[a | b] - values[a] - values[b]) > tol:
                    assert check.witness in additivity_offenders_naive(values, n, tol)
        assert witnessed >= 10


class TestPrimaryWitness:
    def test_split_of_the_first_offender(self):
        # star is the first subset by (popcount, mask) with a non-singleton
        # weight beyond tol; when its split into the lowest outcome and the
        # rest is priced non-additively, that split is the witness.
        rng = np.random.default_rng(58)
        tol = 1e-9
        split_witnesses = 0
        for kind in ("linear", "choquet", "lower_envelope"):
            for _ in range(40):
                sp = space_of(int(rng.integers(2, 7)))
                pm = random_model(rng, sp, kind)
                values = bb.induced_set_function(pm).values.tolist()
                mob = mobius_naive(values)
                offenders = [
                    m for m in range(sp.size) if m.bit_count() >= 2 and abs(mob[m]) > tol
                ]
                check = bb.probability_check(pm, tol=tol)
                if not offenders:
                    assert check.is_probability
                    continue
                star = min(offenders, key=lambda m: (m.bit_count(), m))
                a = star & -star
                b = star ^ a
                assert not check.is_probability
                if abs(values[star] - values[a] - values[b]) > tol:
                    assert check.witness == (a, b)
                    split_witnesses += 1
        assert split_witnesses >= 40

    def test_primary_pick_transient_at_twenty_outcomes(self):
        # The additive prices are built one block of 2^12 at a time and the
        # offender is picked from a bool and a uint8 table: under 3 bytes per
        # subset on top of the inputs, where a whole additive table takes 8.
        n = 20
        rng = np.random.default_rng(3)
        rows = rng.uniform(0.05, 1.0, size=(4, n))
        space = bb.make_space([f"w{i}" for i in range(n)])
        pm = bb.LowerEnvelopeModel(space, rows / rows.sum(axis=1, keepdims=True))
        f = bb.induced_set_function(pm)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            check = beliefbet.audit._probability_verdict(f.values, 1e-9)
            transient = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert transient < 3 << n
        additive = additive_values_loop(space, f.values[1 << np.arange(n)])
        offenders = np.flatnonzero(np.abs(f.values - additive) > 1e-9)
        union = int(offenders[np.argmin(np.bitwise_count(offenders))])
        singles = [1 << i for i in range(n) if union >> i & 1]
        gaps = [abs(f.values[union] - f.values[union ^ s] - f.values[s]) for s in singles]
        single = singles[int(np.argmax(gaps))]
        assert check.witness == tuple(sorted((single, union ^ single)))


class TestProbabilityVerdict:
    """A probability prices every subset within tol of the sum of its
    outcome prices; the witness splits the first offender."""

    def test_models_against_the_oracle(self):
        rng = np.random.default_rng(61)
        verdicts = set()
        for kind in ("linear", "choquet", "lower_envelope"):
            for _ in range(30):
                sp = space_of(int(rng.integers(1, 7)))
                pm = random_model(rng, sp, kind)
                values = bb.induced_set_function(pm).values.tolist()
                for tol in (1e-9, 0.0):
                    check = bb.probability_check(pm, tol=tol)
                    assert check.witness == additivity_witness_naive(values, sp.n, tol)
                    assert check.is_probability is (check.witness is None)
                    verdicts.add((kind, check.is_probability))
        assert verdicts == {("linear", True), ("choquet", True), ("choquet", False),
                            ("lower_envelope", True), ("lower_envelope", False)}

    def test_sub_tolerance_chains_against_the_oracle(self):
        # pair weights of 0.1-0.5 tol add up along chains, so the first
        # offender's best split can stay within tol; two weights of up to
        # 0.9 tol elsewhere
        rng = np.random.default_rng(62)
        tol = 1e-9
        chains = splits = 0
        for _ in range(120):
            n = int(rng.integers(4, 7))
            free = [m for m in range(1, 1 << n) if m.bit_count() >= 2 and m not in (3, 5, 7)]
            extra = {m: float(rng.uniform(0.1, 0.5)) * tol
                     for m in free if m.bit_count() == 2 and rng.random() < 0.6}
            picks = rng.choice(free, size=2, replace=False)
            extra.update({int(m): float(rng.uniform(-0.9, 0.9)) * tol for m in picks})
            values = near_additive_table(n, extra)
            check = bb.probability_check(TableModel(space_of(n), values), tol=tol)
            assert check.witness == additivity_witness_naive(values.tolist(), n, tol)
            assert check.is_probability is (check.witness is None)
            if check.witness is not None:
                a, b = check.witness
                union = a | b
                assert a & b == 0 and a < b
                additive = math.fsum(values[1 << i] for i in range(n) if union >> i & 1)
                assert abs(values[union] - additive) > tol
                if abs(values[union] - values[a] - values[b]) > tol:
                    splits += 1
                else:
                    chains += 1
        assert chains >= 10 and splits >= 10

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_dense_sub_tolerance_weights_are_not_a_probability(self, n):
        # every weight is within tol, but the prices are not additive:
        # f(all) - sum of f({i}) is the non-singleton mass, 2.2e-7 at n = 8
        pm = dense_choquet(n)
        check = bb.probability_check(pm)
        assert not check.is_probability
        a, b = check.witness
        values = bb.induced_set_function(pm).values
        additive = math.fsum(values[1 << i] for i in range(n) if (a | b) >> i & 1)
        assert a & b == 0 and abs(values[a | b] - additive) > 1e-9
        assert values[-1] - math.fsum(values[1 << np.arange(n)].tolist()) > 2e-7

    def test_linear_models_need_no_table(self, monkeypatch):
        # a linear model's indicator prices are the additive sums themselves,
        # so the table rule passes them; probability_check says so unbuilt
        rng = np.random.default_rng(63)
        cases = []
        for _ in range(40):
            p = rng.uniform(0.05, 1.0, int(rng.integers(1, 13)))
            p[rng.random(p.size) < 0.3] = 0.0
            p[-1] += 0.05
            pm = bb.LinearModel(space_of(p.size), p / math.fsum(p.tolist()))
            for tol in (0.0, 1e-12, 1e-9):
                table = beliefbet.audit._probability_verdict(bb.induced_set_function(pm).values, tol)
                cases.append((pm, tol, (table.is_probability, table.witness)))

        def no_table(model):
            raise AssertionError("the indicator table was built")

        monkeypatch.setattr(bb.LinearModel, "induced_values", no_table)
        for pm, tol, table in cases:
            check = bb.probability_check(pm, tol=tol)
            assert (check.is_probability, check.witness) == table == (True, None)

    def test_dense_audit_is_not_a_probability(self):
        report = bb.belief_consistency_audit(dense_choquet(8), bb.SamplePlan(num_samples=16))
        assert report.is_belief_consistent
        assert not report.is_probability and report.probability_witness == (1, 6)


class TestSharedWitnessRule:
    def test_three_witnesses_match_brute_force(self):
        rng = np.random.default_rng(31)
        plan = bb.SamplePlan(num_samples=16)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(3, 9))
            sp = bb.make_space([f"w{i}" for i in range(n)])
            pm = random_model(rng, sp, "lower_envelope")
            f = bb.induced_set_function(pm)
            mob = bb.mobius_transform(f.values)
            bad = [m for m in range(sp.size) if mob[m] < -1e-9]
            if not bad:
                continue
            expected = min(bad, key=lambda m: (m.bit_count(), -m))
            assert bb.is_belief_function(f).negative_subset == expected
            assert bb.belief_to_mass(f).witness() == expected
            if expected.bit_count() >= 2:
                report = bb.belief_consistency_audit(pm, plan)
                assert report.certificate.witness.subset == expected
            checked += 1
        assert checked >= 30


class TestNegativeMassCertificate:
    def test_reference_certificate_shape(self, paper_space, two_row_model):
        f = bb.induced_set_function(two_row_model)
        s0 = paper_space.mask_of(["2", "3", "4"])
        cert = bb.certificate_from_negative_mass(f, s0)
        xs_masks = [paper_space.mask_of(["2", "3"]), paper_space.mask_of(["2", "4"])]
        ys_masks = [s0, paper_space.mask_of(["2"])]
        assert [g.payoff.tolist() for g in cert.xs] == [
            bb.indicator(paper_space, m).payoff.tolist() for m in xs_masks
        ]
        assert [g.payoff.tolist() for g in cert.ys] == [
            bb.indicator(paper_space, m).payoff.tolist() for m in ys_masks
        ]
        assert cert.buy_gap == 0.25
        assert cert.witness.subset == s0
        assert cert.witness.mass == -0.25
        assert bb.verify_certificate(two_row_model, cert)

    def test_two_outcome_family_keeps_empty_indicator(self):
        sp = space_of(2)
        values = np.array([0.0, 0.6, 0.6, 1.0])  # pair weight 1 - 0.6 - 0.6 < 0
        f = bb.SetFunction(sp, values)
        cert = bb.certificate_from_negative_mass(f, 0b11)
        assert [g.payoff.tolist() for g in cert.xs] == [[1.0, 0.0], [0.0, 1.0]]
        assert [g.payoff.tolist() for g in cert.ys] == [[1.0, 1.0], [0.0, 0.0]]
        assert cert.buy_gap == pytest.approx(0.2, abs=1e-15)
        assert cert.buy_gap == pytest.approx(-mobius_naive(values.tolist())[3], abs=1e-15)

    def test_belief_function_input_rejected(self):
        sp = space_of(3)
        bel = bb.mass_to_belief(bb.MassFunction(sp, {0b011: 0.5, 0b111: 0.5}))
        with pytest.raises(bb.NotNegativeError):
            bb.certificate_from_negative_mass(bel.as_set_function(), 0b011)

    def test_singleton_rejected(self):
        sp = space_of(2)
        f = bb.SetFunction(sp, np.array([0.0, -0.5, 0.5, 1.0]))
        with pytest.raises(bb.SingletonCoreError):
            bb.certificate_from_negative_mass(f, 0b01)

    def test_full_family_when_pairs_stay_nonnegative(self):
        # pairwise slacks stay nonnegative while the triple weight is negative
        sp = space_of(3)
        values = np.zeros(sp.size)
        for mask in range(1, sp.size):
            values[mask] = {1: 0.0, 2: 0.45, 3: 1.0}[mask.bit_count()]
        mob = mobius_naive(values.tolist())
        assert mob[0b111] == pytest.approx(-0.35, abs=1e-15)
        f = bb.SetFunction(sp, values)
        for a, b in ((0b011, 0b101), (0b011, 0b110), (0b101, 0b110)):
            assert values[a | b] + values[a & b] - values[a] - values[b] >= 0
        cert = bb.certificate_from_negative_mass(f, 0b111)
        # full family: three pair indicators plus the triple intersection
        # (empty) on the x side, union plus three singletons on the y side
        assert len(cert.xs) == 4 and len(cert.ys) == 4
        assert cert.buy_gap == pytest.approx(0.35, abs=1e-15)


def indicator_masks(side):
    return [int(np.dot(g.payoff > 0.5, 1 << np.arange(g.space.n))) for g in side]


def graded_signed_table(rng):
    """Bel of a signed mass on 3 to 6 outcomes: heavy positive weights below a
    drawn order r, signed ones from r up, so least orders 2 to n all occur."""
    n = int(rng.integers(3, 7))
    r = int(rng.integers(2, n + 1))
    pop = np.bitwise_count(np.arange(1 << n))
    w = np.where(pop < r, rng.uniform(1.0, 2.0, 1 << n) * 2.0 ** (n - pop),
                 rng.uniform(-1.0, 0.3, 1 << n))
    w[0] = 0.0
    return bb.SetFunction(space_of(n), bb.zeta_transform(w / math.fsum(w.tolist())))


class TestLeastOrderCertificate:
    def test_least_order_matches_brute_force(self):
        rng = np.random.default_rng(81)
        seen = set()
        for _ in range(120):
            f = graded_signed_table(rng)
            mob = bb.mobius_transform(f.values)
            for subset in np.flatnonzero(mob < -bb.DEFAULT_TOL):
                subset = int(subset)
                if subset.bit_count() < 2:
                    continue
                cert = bb.certificate_from_negative_mass(f, subset)
                order = (len(cert.xs) + len(cert.ys)).bit_length() - 1
                assert len(cert.xs) + len(cert.ys) == 1 << order
                assert order == least_order_naive(f.values.tolist(), subset, bb.DEFAULT_TOL)
                assert bb.verify_certificate(IndicatorTableModel(f), cert)
                seen.add((subset.bit_count(), order))
        assert {(k, r) for k in range(2, 7) for r in range(2, k + 1)} <= seen

    @pytest.mark.parametrize("tol", [bb.DEFAULT_TOL, 0.0])
    def test_pair_certificates_keep_the_pair_scan(self, tol):
        rng = np.random.default_rng(82)
        pairs = 0
        for _ in range(60):
            n = int(rng.integers(2, 9))
            mob = np.zeros(1 << n)
            masks = 1 + rng.choice((1 << n) - 1, size=min(12, (1 << n) - 1), replace=False)
            raw = rng.uniform(0.05, 1.0, masks.size)
            raw[rng.random(masks.size) < 0.3] *= -0.4
            mob[masks] = raw / math.fsum(raw.tolist())
            f = bb.SetFunction(space_of(n), bb.zeta_transform(mob))
            for subset in np.flatnonzero(bb.mobius_transform(f.values) < -tol):
                subset = int(subset)
                route = pair_certificate_triu(f.values, subset, tol) if subset.bit_count() >= 2 else None
                if route is None:
                    continue
                cert = bb.certificate_from_negative_mass(f, subset, tol=tol)
                xs, ys, gap = route
                assert (indicator_masks(cert.xs), indicator_masks(cert.ys)) == (xs, ys)
                assert np.float64(cert.buy_gap).view(np.int64) == np.float64(gap).view(np.int64)
                pairs += 1
        assert pairs >= 100


class TestChoquetGapCertificate:
    def test_choquet_model_has_no_gap(self):
        rng = np.random.default_rng(3)
        sp = space_of(4)
        pm = bb.ChoquetModel(random_mass(rng, sp))
        for _ in range(10):
            g = bb.Gamble(sp, rng.uniform(-1, 1, size=4))
            with pytest.raises(bb.NoGapError):
                bb.certificate_from_choquet_gap(pm, g)

    def test_constant_gamble_has_no_gap(self, two_row_model):
        # constant gambles price exactly under every coherent family
        sp = two_row_model.space
        pm = bb.ChoquetModel(
            bb.belief_to_mass(
                bb.mass_to_belief(bb.MassFunction(sp, {sp.full_mask: 1.0}))
            )
        )
        with pytest.raises(bb.NoGapError):
            bb.certificate_from_choquet_gap(pm, bb.constant_gamble(sp, 3.0))

    def test_bump_model_yields_gap_certificate(self):
        rng = np.random.default_rng(8)
        sp = space_of(3)
        pm = BumpModel(random_mass(rng, sp), bump=0.1)
        g = bb.Gamble(sp, np.array([0.9, 0.4, 0.0]))
        cert = bb.certificate_from_choquet_gap(pm, g)
        assert cert.kind == "choquet_gap"
        assert cert.buy_gap == pytest.approx(0.1, abs=1e-12)
        assert bb.verify_certificate(pm, cert)

    def test_envelope_with_nonnegative_mass_but_gap(self):
        sp = space_of(3)
        pm = bb.LowerEnvelopeModel(
            sp, np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        )
        # oracle: the inverted indicator prices are nonnegative
        induced = envelope_induced_naive(pm.rows.tolist(), 3)
        assert min(mobius_naive(induced)) >= 0
        g = bb.Gamble(sp, np.array([1.0, 0.0, 0.5]))
        assert bb.buy(pm, g) == 0.5
        mass = bb.belief_to_mass(bb.induced_set_function(pm))
        assert bb.choquet_expectation(mass, g) == 0.25
        cert = bb.certificate_from_choquet_gap(pm, g)
        assert cert.buy_gap == pytest.approx(0.25, abs=1e-12)
        assert bb.verify_certificate(pm, cert)

    @pytest.mark.parametrize("kind", ["linear", "choquet", "lower_envelope", "bump"])
    def test_indicator_is_its_own_layer(self, kind):
        # an indicator's only layer is itself, so its model and layer prices
        # are one float and no indicator can carry a gap certificate; dyadic
        # parameters keep every inverted weight exact at tol 0
        sp = space_of(3)
        mass = bb.MassFunction(sp, {0b001: 0.25, 0b011: 0.5, 0b110: 0.25})
        pm = {
            "linear": lambda: bb.LinearModel(sp, np.array([0.25, 0.5, 0.25])),
            "choquet": lambda: bb.ChoquetModel(mass),
            "lower_envelope": lambda: bb.LowerEnvelopeModel(sp, np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])),
            "bump": lambda: BumpModel(mass, bump=0.1),
        }[kind]()
        for mask in range(sp.size):
            with pytest.raises(bb.NoGapError, match=r"\(-?0\.0\)$"):
                bb.certificate_from_choquet_gap(pm, bb.indicator(sp, mask), tol=0.0)

    def test_negative_inversion_is_not_refused(self):
        # the layer-cake identity holds for any model, so a model whose
        # inverted indicator prices are negative still gets certificates,
        # and every one verifies with a choquet_price read back from its sides
        rng = np.random.default_rng(19)
        built = models = 0
        while models < 40:
            n = int(rng.integers(3, 7))
            pm = random_model(rng, space_of(n), "lower_envelope")
            if not isinstance(bb.belief_to_mass(bb.induced_set_function(pm)), bb.NegativeMassReport):
                continue
            models += 1
            for payoff in np.vstack([rng.uniform(-1, 1, (4, n)), tied_payoffs(rng, 4, n)]):
                g = bb.Gamble(pm.space, payoff)
                try:
                    cert = bb.certificate_from_choquet_gap(pm, g)
                except bb.NoGapError:
                    continue
                built += 1
                assert bb.verify_certificate(pm, cert)
                # an envelope pays at least the layer cake: xs is the shifted gamble
                assert len(cert.xs) == 1
                want = float(payoff.min()) + math.fsum(bb.buy(pm, y) for y in cert.ys)
                assert cert.witness.choquet_price.hex() == want.hex()
        assert built > 100

    def test_negative_payoffs_are_shifted(self):
        sp = space_of(3)
        pm = bb.LowerEnvelopeModel(
            sp, np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        )
        g = bb.Gamble(sp, np.array([0.5, -0.5, 0.0]))
        cert = bb.certificate_from_choquet_gap(pm, g)
        assert bb.verify_certificate(pm, cert)
        assert all(x.payoff.min() >= 0.0 for x in cert.xs + cert.ys)


def hex_rows(gambles):
    return [[float(v).hex() for v in g.payoff] for g in gambles]


class TestGapLayersAgainstLoop:
    """The Choquet-gap certificate builds its layers as one width-times-flags
    matrix; every layer must equal the per-layer loop's Gamble bit for bit.
    Under a vacuous BumpModel a shifted gamble with two or more distinct
    nonzero payoffs is overpriced and every layer is priced exactly, so the
    certificate's xs is the shifted gamble and its ys the layers."""

    def layers(self, payoff):
        sp = space_of(len(payoff))
        pm = BumpModel(bb.MassFunction(sp, {sp.full_mask: 1.0}))
        cert = bb.certificate_from_choquet_gap(pm, bb.Gamble(sp, np.array(payoff)))
        (shifted,) = cert.xs
        assert hex_rows(cert.ys) == hex_rows(layer_gambles(shifted))
        return cert.ys

    def test_exact_ties(self):
        assert len(self.layers([0.3, 0.3, 0.7, 0.1, 0.7])) == 2

    def test_near_ties_merge(self):
        # 0.5 and 0.5 + 4e-13 are two levels: only exact ties share a layer
        assert len(self.layers([0.0, 0.5, 0.5 + 4e-13, 1.0])) == 3

    def test_near_tie_layers_rebuild_the_gamble(self):
        # each of the five distinct levels, 9.9e-13 apart in the middle, is a
        # level of its own, so the four layers earn what the shifted gamble
        # earns on every core
        payoff = [0.0, 0.5, 0.5 + 9.9e-13, 0.5 + 1.98e-12, 1.0]
        sp = space_of(len(payoff))
        pm = BumpModel(bb.MassFunction(sp, {sp.full_mask: 1.0}))
        cert = bb.certificate_from_choquet_gap(pm, bb.Gamble(sp, np.array(payoff)))
        assert len(cert.ys) == 4
        assert bb.verify_certificate(pm, cert)
        excess = max(
            math.fsum(bb.guaranteed_revenue(v, x) for x in cert.xs)
            - math.fsum(bb.guaranteed_revenue(v, y) for y in cert.ys)
            for v in (bb.BeliefValuation(sp, core) for core in range(1, sp.size))
        )
        assert excess <= 1e-15

    def test_negative_payoffs(self):
        assert len(self.layers([-0.7, 0.2, -0.7, -1.3, 0.4, -0.0])) == 4

    def test_tied_rows(self):
        rng = np.random.default_rng(65)
        checked = 0
        for row in tied_payoffs(rng, 200, 6):
            shifted = row - row.min()
            if len(set(shifted[shifted != 0.0].tolist())) >= 2:
                self.layers(row.tolist())
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("payoff", [[0.4], [-1.5], [2.5, 2.5, 2.5]], ids=["n1", "n1-neg", "constant"])
    def test_no_layers_no_gap(self, payoff):
        sp = space_of(len(payoff))
        g = bb.Gamble(sp, np.array(payoff))
        assert layer_gambles(g - float(g.payoff.min())) == ()
        pm = BumpModel(bb.MassFunction(sp, {sp.full_mask: 1.0}))
        with pytest.raises(bb.NoGapError):
            bb.certificate_from_choquet_gap(pm, g, tol=0.0)

    @staticmethod
    def audited_choquet_price(rows):
        """The audit's choquet_price of a 3-outcome envelope, checked to be
        the gamble's minimum plus the model's summed prices of the layers
        (the ys of an envelope's certificate), and the Choquet price of the
        recovered mass."""
        pm = bb.LowerEnvelopeModel(space_of(3), np.array(rows))
        report = bb.belief_consistency_audit(pm)
        cert = report.certificate
        assert cert.kind == "choquet_gap"
        shift = float(cert.witness.gamble.payoff.min())
        want = shift + math.fsum(bb.buy(pm, y) for y in cert.ys)
        assert cert.witness.choquet_price.hex() == want.hex()
        return want, bb.choquet_expectation(report.induced_mass, cert.witness.gamble)

    def test_envelope_audit_choquet_price(self):
        layered, recovered = self.audited_choquet_price([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        assert layered.hex() == recovered.hex()

    def test_decimal_envelope_choquet_price(self):
        # the layer sum and the recovered mass's Choquet price part in the last bits
        layered, recovered = self.audited_choquet_price([[0.1, 0.1, 0.8], [0.2, 0.3, 0.5]])
        assert layered != recovered
        assert layered == pytest.approx(recovered, abs=1e-15)


class TestVerifyCertificate:
    def test_equal_sides_fail(self, two_row_model):
        sp = two_row_model.space
        g = bb.indicator(sp, 5)
        cert = bb.ViolationCertificate(
            space=sp,
            xs=(g,),
            ys=(g,),
            buy_gap=0.0,
            witness=bb.NegativeMassWitness(subset=3, mass=-1.0),
        )
        assert not bb.verify_certificate(two_row_model, cert)

    def test_space_mismatch(self, two_row_model):
        sp = space_of(2)
        cert = bb.ViolationCertificate(
            space=sp,
            xs=(bb.indicator(sp, 1),),
            ys=(bb.indicator(sp, 2),),
            buy_gap=1.0,
            witness=bb.NegativeMassWitness(subset=3, mass=-1.0),
        )
        with pytest.raises(bb.SpaceMismatchError):
            bb.verify_certificate(two_row_model, cert)

    def test_never_verifies_against_choquet_models(self):
        # layer decompositions dominate exactly and price exactly, and
        # random gamble lists essentially never dominate, so no
        # certificate should survive against a focal-sum pricer
        rng = np.random.default_rng(55)
        sp = space_of(4)
        survived = 0
        for trial in range(300):
            pm = bb.ChoquetModel(random_mass(rng, sp))
            if trial % 2 == 0:
                g = bb.Gamble(sp, rng.uniform(0, 1, size=4))
                layers = []
                prev = 0.0
                for level, upper in bb.payoff_layers(g.payoff):
                    if level > 0:
                        layers.append((level - prev) * bb.indicator(sp, upper))
                        prev = level
                cert = bb.ViolationCertificate(
                    space=sp,
                    xs=(g,),
                    ys=tuple(layers),
                    buy_gap=1.0,
                    witness=bb.ChoquetGapWitness(g, 0.0, 0.0),
                )
            else:
                xs = tuple(
                    bb.Gamble(sp, rng.uniform(-1, 1, size=4))
                    for _ in range(int(rng.integers(1, 4)))
                )
                ys = tuple(
                    bb.Gamble(sp, rng.uniform(-1, 1, size=4))
                    for _ in range(int(rng.integers(1, 4)))
                )
                cert = bb.ViolationCertificate(
                    space=sp, xs=xs, ys=ys, buy_gap=1.0,
                    witness=bb.NegativeMassWitness(subset=3, mass=-1.0),
                )
            if bb.verify_certificate(pm, cert):
                survived += 1
        assert survived == 0


class SidePriced:
    """Duck-typed model that pays 1 for each gamble of ``xs`` and -1 for any
    other, so a certificate with a nonempty side passes the price check and
    its verdict is the domination check alone."""

    def __init__(self, space, xs):
        self.space = space
        self.xs = xs

    def buy_payoff(self, payoff):
        return 1.0 if any(payoff is g.payoff for g in self.xs) else -1.0


class IndicatorTableModel:
    """Duck-typed model that prices indicator gambles off a set-function table."""

    def __init__(self, f):
        self.space = f.space
        self.values = f.values

    def buy_payoff(self, payoff):
        return float(self.values[int(np.dot(payoff > 0.5, 1 << np.arange(self.space.n)))])


def dominated_naive(cert, exact_tol=bb.EXACT_TOL):
    """Brute force: the summed core minima of xs stay within exact_tol of ys."""
    xs, ys = ([subset_minima_naive(g.payoff.tolist()) for g in side] for side in (cert.xs, cert.ys))
    return all(
        math.fsum(t[mask] for t in xs) <= math.fsum(t[mask] for t in ys) + exact_tol
        for mask in range(1, cert.space.size)
    )


def side_certificate(sp, xs, ys):
    return bb.ViolationCertificate(
        space=sp, xs=tuple(xs), ys=tuple(ys), buy_gap=1.0,
        witness=bb.NegativeMassWitness(subset=sp.full_mask, mass=-1.0),
    )


class TestVerifierAgainstOracle:
    def check(self, cert):
        verdict = bb.verify_certificate(SidePriced(cert.space, cert.xs), cert)
        assert verdict == (dominated_naive(cert) and bool(cert.xs + cert.ys))
        return verdict

    def test_indicator_families(self):
        rng = np.random.default_rng(61)
        verdicts = []
        for _ in range(40):
            n = int(rng.integers(2, 7))
            sp = space_of(n)
            masks = rng.integers(0, sp.size, size=(2, int(rng.integers(1, 6))))
            xs, ys = ([bb.indicator(sp, int(m)) for m in row] for row in masks)
            verdicts.append(self.check(side_certificate(sp, xs, ys)))
            subset = int(rng.integers(1, sp.size))
            if subset.bit_count() >= 2:
                mob = rng.uniform(-0.3, 1.0, sp.size)
                mob[0] = 0.0
                mob[subset] = -0.5
                f = bb.SetFunction(sp, bb.zeta_transform(mob / mob.sum()))
                if mobius_naive(f.values.tolist())[subset] < -1e-9:
                    cert = bb.certificate_from_negative_mass(f, subset)
                    assert self.check(side_certificate(sp, cert.xs, cert.ys))
        assert True in verdicts and False in verdicts

    def test_layer_decompositions(self):
        rng = np.random.default_rng(62)
        for _ in range(40):
            sp = space_of(int(rng.integers(1, 8)))
            g = bb.Gamble(sp, rng.uniform(0, 1, size=sp.n))
            assert self.check(side_certificate(sp, [g], layer_gambles(g)))
            assert self.check(side_certificate(sp, layer_gambles(g), [g]))

    def test_random_gambles_with_ties_and_negative_payoffs(self):
        rng = np.random.default_rng(63)
        verdicts = []
        for _ in range(120):
            sp = space_of(int(rng.integers(1, 8)))

            def draw(count):
                return [bb.Gamble(sp, rng.integers(-3, 4, size=sp.n) / 2.0) for _ in range(count)]

            xs = draw(int(rng.integers(1, 4)))
            if rng.random() < 0.5:
                ys = draw(int(rng.integers(1, 4)))
            else:
                # the same gambles, one raised by a nonnegative lift: always dominated
                lift = bb.Gamble(sp, rng.integers(0, 3, size=sp.n) / 2.0)
                ys = [xs[0] + lift] + xs[1:]
            verdicts.append(self.check(side_certificate(sp, xs, ys)))
        assert True in verdicts and False in verdicts

    def test_empty_sides(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            sp = space_of(int(rng.integers(1, 6)))
            g = bb.Gamble(sp, rng.uniform(-1, 1, size=sp.n))
            self.check(side_certificate(sp, [], [g]))
            self.check(side_certificate(sp, [g], []))
        assert not self.check(side_certificate(sp, [], []))

    def test_lift_past_exact_tol_flips_the_verdict(self):
        rng = np.random.default_rng(65)
        for _ in range(20):
            sp = space_of(int(rng.integers(1, 8)))
            g = bb.Gamble(sp, rng.uniform(0, 1, size=sp.n))
            assert self.check(side_certificate(sp, [g], layer_gambles(g)))
            lifted = g.payoff.copy()
            lifted[int(rng.integers(0, sp.n))] += 2e-12
            lifted = bb.Gamble(sp, lifted)
            assert not self.check(side_certificate(sp, [lifted], layer_gambles(g)))

    def test_overflowing_widths_fail_the_check(self):
        # B on both sides: its width overflows to inf, so the +inf and -inf
        # meet on {o1} as NaN, while X earns 1 > EXACT_TOL on every core.
        # (The float oracle loses X's 1 against 1e308, so it is not asked.)
        sp = space_of(2)
        x = bb.Gamble(sp, [1.0, 1.0])
        b = bb.Gamble(sp, [-1e308, 1e308])
        cert = side_certificate(sp, [x, b], [b])
        with np.errstate(over="ignore", invalid="ignore"):
            assert not bb.verify_certificate(SidePriced(sp, cert.xs), cert)
            assert not bb.verify_certificate(bb.LinearModel(sp, np.array([0.5, 0.5])), cert)

    def test_full_deletion_family_at_fourteen_outcomes(self):
        # pair masses +eps and the full set -eps: every pair slack is zero and
        # every three-outcome slack is -eps, so the builder takes order 3
        n, eps = 14, 1e-6
        sp = bb.make_space([f"o{i}" for i in range(n)])
        i, j = np.triu_indices(n, 1)
        mob = np.zeros(sp.size)
        mob[(1 << i) | (1 << j)] = eps
        mob[sp.full_mask] = -eps
        mob[1 << np.arange(n)] = (1.0 - eps * (i.size - 1)) / n
        f = bb.SetFunction(sp, bb.zeta_transform(mob))
        model = IndicatorTableModel(f)
        cert = bb.certificate_from_negative_mass(f, sp.full_mask)
        assert len(cert.xs) + len(cert.ys) == 8
        assert bb.verify_certificate(model, cert)
        # the whole deletion family, 2^14 indicators, built here
        family = sorted(sp.full_mask ^ (1 << k) for k in range(n))
        inter, odd = subfamily_intersections_loop(sp.full_mask, family)
        xs = [bb.indicator(sp, int(m)) for m in inter[odd]]
        ys = [bb.indicator(sp, int(m)) for m in [sp.full_mask, *inter[~odd]]]
        full = bb.ViolationCertificate(
            space=sp, xs=tuple(xs), ys=tuple(ys), buy_gap=eps, witness=cert.witness
        )
        assert len(full.xs) + len(full.ys) == 1 << n
        start = time.perf_counter()
        assert bb.verify_certificate(model, full)
        assert time.perf_counter() - start < 0.5


class TestBeliefConsistencyAudit:
    @given(mass_functions(max_n=5))
    @settings(max_examples=25)
    def test_choquet_models_are_fixed_points(self, m):
        report = bb.belief_consistency_audit(
            bb.ChoquetModel(m), bb.SamplePlan(num_samples=32)
        )
        assert report.is_belief_consistent
        assert report.certificate is None
        assert isinstance(report.induced_mass, bb.MassFunction)
        assert np.abs(report.induced_mass.as_dense() - m.as_dense()).max() <= 1e-12

    def test_reference_model(self, paper_space, two_row_model):
        report = bb.belief_consistency_audit(two_row_model)
        assert not report.is_belief_consistent
        assert report.certificate.kind == "negative_mass"
        s0 = paper_space.mask_of(["2", "3", "4"])
        assert report.certificate.witness.subset == s0
        assert report.certificate.witness.mass == pytest.approx(-0.25, abs=1e-12)
        assert report.certificate.buy_gap == pytest.approx(0.25, abs=1e-12)
        assert report.certificate_verified
        assert isinstance(report.induced_mass, bb.NegativeMassReport)
        assert not report.is_probability
        assert report.coherence.all_passed
        assert report.sure_loss_worst >= -1e-9

    def test_linear_model(self):
        pm = bb.LinearModel(space_of(3), np.array([0.25, 0.25, 0.5]))
        report = bb.belief_consistency_audit(pm)
        assert report.is_belief_consistent
        assert report.is_probability

    def test_two_monotone_but_not_totally_monotone_envelope(self):
        # two-row envelopes never show this split (their 2-monotone cases
        # come out totally monotone), so search three-row envelopes
        rng = np.random.default_rng(2024)
        sp = space_of(5)
        found = None
        for _ in range(500):
            rows = rng.dirichlet(np.ones(5), size=3)
            induced = envelope_induced_naive(rows.tolist(), 5)
            if not is_two_monotone(induced, 5):
                continue
            if min(mobius_naive(induced)) < -1e-6:
                found = rows
                break
        assert found is not None, "no 2-monotone non-belief envelope found"
        pm = bb.LowerEnvelopeModel(sp, found)
        report = bb.belief_consistency_audit(pm)
        assert not report.is_belief_consistent
        assert report.certificate.kind == "negative_mass"
        assert report.certificate.witness.subset.bit_count() >= 3
        assert report.certificate_verified

    def test_gap_only_envelope(self):
        sp = space_of(3)
        pm = bb.LowerEnvelopeModel(sp, np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
        report = bb.belief_consistency_audit(pm)
        assert not report.is_belief_consistent
        assert report.certificate.kind == "choquet_gap"
        assert report.certificate_verified
        assert isinstance(report.induced_mass, bb.MassFunction)

    def test_bump_model_gap_size(self):
        rng = np.random.default_rng(12)
        pm = BumpModel(random_mass(rng, space_of(3)), bump=0.1)
        report = bb.belief_consistency_audit(pm, bb.SamplePlan(num_samples=64))
        assert not report.is_belief_consistent
        assert report.certificate.kind == "choquet_gap"
        assert report.certificate.buy_gap == pytest.approx(0.1, abs=1e-9)
        assert report.certificate_verified

    def test_emitted_certificates_always_verify(self):
        rng = np.random.default_rng(1234)
        plan = bb.SamplePlan(num_samples=64)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            sp = bb.make_space([f"w{i}" for i in range(n)])
            pm = random_model(rng, sp, "lower_envelope")
            report = bb.belief_consistency_audit(pm, plan)
            if not report.is_belief_consistent:
                assert report.certificate_verified
                assert bb.verify_certificate(pm, report.certificate)

    def test_probability_iff_singleton_support(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            sp = bb.make_space([f"w{i}" for i in range(n)])
            kind = ("linear", "choquet", "lower_envelope")[int(rng.integers(0, 3))]
            pm = random_model(rng, sp, kind)
            report = bb.belief_consistency_audit(pm, bb.SamplePlan(num_samples=16))
            if isinstance(report.induced_mass, bb.MassFunction):
                singleton = all(
                    mask.bit_count() == 1
                    for mask, w in report.induced_mass.weights.items()
                    if w > 1e-9
                )
                assert report.is_probability == singleton
            else:
                assert not report.is_probability

    def test_report_invariant_enforced(self, two_row_model):
        report = bb.belief_consistency_audit(two_row_model)
        with pytest.raises(bb.BeliefBetError):
            bb.AuditReport(
                space=report.space,
                model_kind=report.model_kind,
                plan=report.plan,
                tolerances=report.tolerances,
                coherence=report.coherence,
                sure_loss_worst=report.sure_loss_worst,
                is_probability=report.is_probability,
                probability_witness=report.probability_witness,
                is_belief_consistent=False,
                induced_mass=report.induced_mass,
                certificate=None,
                certificate_verified=None,
            )

    def test_audit_is_replayable(self, two_row_model):
        plan = bb.SamplePlan(num_samples=32, seed=42)
        a = bb.belief_consistency_audit(two_row_model, plan)
        b = bb.belief_consistency_audit(two_row_model, plan)
        assert a.coherence.probes == b.coherence.probes
        assert a.sure_loss_worst == b.sure_loss_worst
        assert a.certificate.buy_gap == b.certificate.buy_gap
        assert np.array_equal(
            bb.sample_gambles(two_row_model.space, plan),
            bb.sample_gambles(two_row_model.space, plan),
        )


def sample_gamble_calls(monkeypatch):
    """Count the audit's calls of sample_gambles."""
    calls = []
    real = beliefbet.audit.sample_gambles

    def counted(space, plan):
        calls.append(plan)
        return real(space, plan)

    monkeypatch.setattr(beliefbet.audit, "sample_gambles", counted)
    return calls


class TestAgreementByFamily:
    """Choquet and linear models are belief-consistent by construction; the
    other models are compared on samples with the layer cake of their own
    indicator prices."""

    def test_zero_tolerance_choquet_model(self):
        # a sampled gamble's price differs from the Choquet price of the
        # recovered mass by a roundoff 2.2e-16, which tol 0 does not absorb
        sp = space_of(3)
        mass = bb.MassFunction(sp, {0b001: 0.1, 0b011: 0.2, 0b110: 0.3, 0b111: 0.4})
        report = bb.belief_consistency_audit(bb.ChoquetModel(mass), tol=0.0)
        assert report.is_belief_consistent
        assert report.certificate is None and report.certificate_verified is None
        assert isinstance(report.induced_mass, bb.MassFunction)

    @pytest.mark.parametrize("kind", ["linear", "choquet"])
    def test_constructed_families_are_not_sampled(self, kind, monkeypatch):
        calls = sample_gamble_calls(monkeypatch)
        rng = np.random.default_rng(71)
        for n in (1, 2, 5, 9):
            pm = random_model(rng, space_of(n), kind)
            assert _own_mass(pm) is not None
            report = bb.belief_consistency_audit(pm, bb.SamplePlan(num_samples=32))
            assert report.is_belief_consistent
        assert calls == []

    def test_other_models_are_sampled(self, monkeypatch):
        calls = sample_gamble_calls(monkeypatch)
        plan = bb.SamplePlan(num_samples=64)
        sp = space_of(3)
        envelope = bb.LowerEnvelopeModel(sp, np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
        bump = BumpModel(random_mass(np.random.default_rng(12), sp), bump=0.1)
        for pm in (envelope, bump):
            assert _own_mass(pm) is None
            report = bb.belief_consistency_audit(pm, plan)
            assert report.certificate.kind == "choquet_gap"
            assert report.certificate_verified
        # on one outcome the best payoff is the only payoff, which is consistent
        oracle = MaxOracle(space_of(1))
        assert _own_mass(oracle) is None
        assert bb.belief_consistency_audit(oracle, plan).is_belief_consistent
        assert calls == [plan] * 3


#: Document 39 of scripts/compare_outputs.py's corpus: a near-copy two-row
#: envelope on 8 outcomes.
NEAR_COPY_39 = (
    ("0x1.141a1d74958ffp-3", "0x1.a29c8b6052dcap-6", "0x1.46e279478ac9bp-3", "0x1.5dbd27010777ap-5",
     "0x1.9f34a79730ddep-4", "0x1.23d4085a7764cp-2", "0x1.b75e03c72e85bp-3", "0x1.2a80973f76ba9p-5"),
    ("0x1.141a1d7402c66p-3", "0x1.a29c8b571f61ep-6", "0x1.46e2794a86afap-3", "0x1.5dbd270d139fap-5",
     "0x1.9f34a78c95a05p-4", "0x1.23d4085ba4082p-2", "0x1.b75e03c604190p-3", "0x1.2a80973edaf2bp-5"),
)


def test_near_copy_envelope_is_judged_on_its_own_table():
    # Its inversion has sub-tol negatives that the recovered mass drops; the
    # worst sample is more than tol from the Choquet price of that mass, but
    # within tol of the layer cake over the model's own indicator prices,
    # the layers a gap certificate would price, so the envelope is consistent.
    rows = np.array([[float.fromhex(h) for h in row] for row in NEAR_COPY_39])
    pm = bb.LowerEnvelopeModel(space_of(8), rows)
    report = bb.belief_consistency_audit(pm)
    assert report.is_belief_consistent and report.certificate is None
    samples = bb.sample_gambles(pm.space, report.plan)
    prices = bb.buy_batch(pm, samples)
    recovered = bb.ChoquetModel(report.induced_mass).buy_payoff_batch(samples)
    assert np.abs(prices - recovered).max() > bb.DEFAULT_TOL
    worst = bb.Gamble(pm.space, samples[int(np.argmax(np.abs(prices - recovered)))])
    with pytest.raises(bb.NoGapError):
        bb.certificate_from_choquet_gap(pm, worst)


class TestCertificateWeight:
    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_weight_is_the_reported_entry(self, n):
        rng = np.random.default_rng(70 + n)
        sp = space_of(n)
        rows = rng.uniform(0.05, 1.0, size=(4, n))
        pm = bb.LowerEnvelopeModel(sp, rows / rows.sum(axis=1, keepdims=True))
        report = bb.belief_consistency_audit(pm)
        assert isinstance(report.induced_mass, bb.NegativeMassReport)
        witness = report.certificate.witness
        assert witness.mass == dict(report.induced_mass.entries)[witness.subset]

    def test_whole_space_witness_at_twenty_outcomes(self):
        # the sublattice of a 20-outcome witness has 2^20 masks; building it
        # must not take a (2^20, 20) member table
        n = 20
        rng = np.random.default_rng(20)
        sp = bb.make_space([f"w{i}" for i in range(n)])
        values = rng.uniform(0.0, 0.01, size=sp.size)
        values[0], values[-1] = 0.0, 1.0
        values[sp.full_mask ^ (1 << np.arange(n))] = 0.6  # every pair slack is about -0.2
        f = bb.SetFunction(sp, values)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            cert = bb.certificate_from_negative_mass(f, sp.full_mask)
            transient = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert transient < 32 << 20
        weight = bb.mobius_transform(values)[-1]
        assert np.float64(cert.witness.mass).view(np.int64) == np.float64(weight).view(np.int64)
        family = sorted(sp.full_mask ^ (1 << i) for i in range(n))
        slacks = [(values[-1] + values[a & b] - values[a] - values[b], a, b)
                  for k, a in enumerate(family) for b in family[k + 1 :]]
        slack, a, b = min(slacks, key=lambda t: t[0])
        assert cert.buy_gap == -slack
        assert [g.payoff.tolist() for g in cert.xs] == [
            bb.indicator(sp, a).payoff.tolist(), bb.indicator(sp, b).payoff.tolist()
        ]


def test_envelope_audit_holds_no_moebius_table():
    # the audit reads belief_to_mass, whose Moebius table dies inside it; on
    # this seed-3 4-row envelope the audit peaks at 32.0 bytes per subset,
    # against 36.7 when it held that table through its certificate
    n = 20
    rng = np.random.default_rng(3)
    rows = rng.uniform(0.05, 1.0, size=(4, n))
    pm = bb.LowerEnvelopeModel(bb.make_space([f"o{i}" for i in range(n)]), rows / rows.sum(axis=1, keepdims=True))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        report = bb.belief_consistency_audit(pm, bb.SamplePlan(num_samples=16))
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert report.certificate.kind == "negative_mass" and report.certificate_verified
    assert peak < 34 << n


class TestVerdictsDoNotDependOnEncoding:
    """At the default tol, one pricing functional written as different
    documents gets the same verdict; a probability is one at tol 0 too, and
    a linear model and its singleton mass agree at every tol. Relabeling the
    outcomes keeps the verdicts of own-mass models and 4-row envelopes."""

    @given(st.integers(1, 5).flatmap(probability_vectors))
    def test_probability_as_linear_envelope_and_singleton_mass(self, p):
        sp = space_of(p.size)
        singletons = bb.MassFunction(sp, {1 << i: w for i, w in enumerate(p.tolist())})
        for pm in (bb.LinearModel(sp, p), bb.LowerEnvelopeModel(sp, p[None]), bb.ChoquetModel(singletons)):
            report = bb.belief_consistency_audit(pm)
            assert report.is_belief_consistent and report.is_probability, pm.kind

    @given(st.integers(1, 10).flatmap(probability_vectors))
    def test_probability_encodings_at_tol_zero(self, p):
        # each encoding's indicator prices are the additive table itself
        sp = space_of(p.size)
        singletons = bb.MassFunction(sp, {1 << i: w for i, w in enumerate(p.tolist())})
        for pm in (bb.LinearModel(sp, p), bb.LowerEnvelopeModel(sp, p[None]), bb.ChoquetModel(singletons)):
            check = bb.probability_check(pm, tol=0.0)
            assert check.is_probability and check.witness is None, pm.kind

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9])
    def test_linear_and_its_singleton_mass_at_every_tol(self, tol):
        # both carry the mass of p on the single outcomes, so neither
        # inverts a table and neither meets roundoff at tol 0
        rng = np.random.default_rng(90)
        plan = bb.SamplePlan(num_samples=8)
        for n in range(2, 13):
            for _ in range(3):
                p = rng.uniform(0.05, 1.0, n)
                p[rng.random(n) < 0.3] = 0.0
                p[-1] += 0.05
                p /= math.fsum(p.tolist())
                sp = space_of(n)
                singletons = bb.MassFunction(sp, {1 << i: w for i, w in enumerate(p.tolist()) if w > 0.0})
                linear, choquet = (bb.belief_consistency_audit(pm, plan, tol=tol)
                                   for pm in (bb.LinearModel(sp, p), bb.ChoquetModel(singletons)))
                assert linear.is_belief_consistent and choquet.is_belief_consistent
                assert linear.induced_mass.weights == choquet.induced_mass.weights == singletons.weights
                assert (linear.is_probability, linear.probability_witness) == (True, None)
                assert (choquet.is_probability, choquet.probability_witness) == (True, None)

    @given(mass_functions(max_n=5))
    def test_mass_as_choquet_and_as_its_core_vertices(self, m):
        # each outcome order's vertex gives every focal weight to the set's
        # first outcome in that order, so its entries are nonnegative
        sp = m.space
        vertices = set()
        for sigma in permutations(range(sp.n)):
            vertex = [0.0] * sp.n
            for mask, w in m.weights.items():
                vertex[next(i for i in sigma if mask >> i & 1)] += w
            vertices.add(tuple(vertex))
        envelope = bb.LowerEnvelopeModel(sp, np.array(sorted(vertices)))
        for pm in (bb.ChoquetModel(m), envelope):
            assert bb.belief_consistency_audit(pm).is_belief_consistent, pm.kind

    @staticmethod
    def relabeled(pm, sigma):
        """The model with outcome i moved to position sigma[i]."""
        if isinstance(pm, bb.ChoquetModel):
            return bb.ChoquetModel(bb.MassFunction(pm.space, relabeled_weights(pm.mass.weights, sigma)))
        columns = np.argsort(sigma)
        if isinstance(pm, bb.LinearModel):
            return bb.LinearModel(pm.space, pm.prob[columns])
        return bb.LowerEnvelopeModel(pm.space, pm.rows[:, columns])

    def assert_relabelings_agree(self, pm, rng, tol):
        plan = bb.SamplePlan(num_samples=16)
        report = bb.belief_consistency_audit(pm, plan, tol=tol)
        for _ in range(3):
            sigma = rng.permutation(pm.space.n)
            moved = bb.belief_consistency_audit(self.relabeled(pm, sigma), plan, tol=tol)
            assert moved.is_belief_consistent == report.is_belief_consistent, pm.kind
            assert moved.is_probability == report.is_probability, pm.kind
            assert getattr(moved.certificate, "kind", None) == getattr(report.certificate, "kind", None)
            if isinstance(report.induced_mass, bb.MassFunction):
                want = relabeled_weights(report.induced_mass.weights, sigma)
                assert list(moved.induced_mass.weights.items()) == sorted(want.items()), pm.kind

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9])
    def test_own_mass_models_under_relabeling(self, tol):
        """Choquet and linear models keep their verdicts under every tried
        relabeling of their outcomes and recover the relabeled mass bit for
        bit. Lower envelopes are left to the next test: at tol 0 a 4-row
        envelope at n=16 raises "internal error: emitted certificate failed
        verification" on roundoff weights (ROADMAP item 1(g)), and the
        sampled verdict of a drop-one core-vertex envelope flips under
        relabeling (item 6)."""
        rng = np.random.default_rng(91)
        p = rng.uniform(0.0, 1.0, 16)
        p[::5] = 0.0
        linear = bb.LinearModel(bb.make_space([f"o{i}" for i in range(16)]), p / math.fsum(p.tolist()))
        models = (bb.ChoquetModel(wide_mass(rng, 14, 64)), linear, dense_choquet(8))
        for pm in models:
            self.assert_relabelings_agree(pm, rng, tol)

    def test_envelopes_under_relabeling(self):
        # seeded 4-row envelopes at the default tol: negative-mass verdicts
        rng = np.random.default_rng(92)
        sp = bb.make_space([f"o{i}" for i in range(16)])
        for _ in range(3):
            rows = rng.uniform(0.05, 1.0, size=(4, sp.n))
            self.assert_relabelings_agree(bb.LowerEnvelopeModel(sp, rows / rows.sum(axis=1, keepdims=True)),
                                          rng, bb.DEFAULT_TOL)


def relabeled_weights(weights, sigma):
    """Focal weights with outcome i of every mask moved to bit sigma[i]."""
    return {sum(1 << int(sigma[i]) for i in range(len(sigma)) if mask >> i & 1): w
            for mask, w in weights.items()}
