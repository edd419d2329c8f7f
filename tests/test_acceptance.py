"""Acceptance gate: one test per criterion, at the stated tolerance and
runtime budget, printing one pass line each. Run with `pytest -s` to see
the lines; a failed assert marks the criterion failed."""

import json
import math
import time

import numpy as np

import beliefbet as bb
from beliefbet.cli import main
from oracles import (
    bits,
    envelope_induced_naive,
    min_over,
    mobius_naive,
)

PAPER_SPACE = bb.make_space(["1", "2", "3", "4"])
TWO_ROW_MODEL = bb.LowerEnvelopeModel(
    PAPER_SPACE, np.array([[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
)


def note(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:02d}] PASS: {message}")


def seeded_space(n: int) -> bb.OutcomeSpace:
    return bb.make_space([f"w{i}" for i in range(n)])


def seeded_mass(rng, space, singleton_only=False, max_focal=12):
    if singleton_only:
        candidates = [1 << i for i in range(space.n)]
    else:
        candidates = list(range(1, space.size))
    k = int(rng.integers(1, min(max_focal, len(candidates)) + 1))
    picks = rng.choice(len(candidates), size=k, replace=False)
    raw = rng.uniform(0.05, 1.0, size=k)
    total = math.fsum(raw.tolist())
    return bb.MassFunction(
        space, {candidates[int(i)]: float(w) / total for i, w in zip(picks, raw)}
    )


def seeded_model(rng, space, kind):
    if kind == "linear":
        raw = rng.uniform(0.05, 1.0, size=space.n)
        return bb.LinearModel(space, raw / math.fsum(raw.tolist()))
    if kind == "choquet":
        return bb.ChoquetModel(seeded_mass(rng, space))
    k = int(rng.integers(1, 5))
    rows = rng.uniform(0.05, 1.0, size=(k, space.n))
    return bb.LowerEnvelopeModel(space, rows / rows.sum(axis=1, keepdims=True))


def test_criterion_01_example_reproduction():
    masks = {
        name: PAPER_SPACE.mask_of(list(name))
        for name in ("234", "2", "23", "24")
    }
    xs = [bb.indicator(PAPER_SPACE, masks["23"]), bb.indicator(PAPER_SPACE, masks["24"])]
    ys = [bb.indicator(PAPER_SPACE, masks["234"]), bb.indicator(PAPER_SPACE, masks["2"])]

    def evaluate():
        prices = {
            name: bb.buy(TWO_ROW_MODEL, bb.indicator(PAPER_SPACE, mask))
            for name, mask in masks.items()
        }
        dominated = all(
            sum(min_over(s, g.payoff) for g in xs)
            <= sum(min_over(s, g.payoff) for g in ys)
            for s in range(1, PAPER_SPACE.size)
        )
        return prices, dominated

    evaluate()  # warm caches before timing
    start = time.perf_counter()
    prices, dominated = evaluate()
    elapsed = time.perf_counter() - start

    assert abs(prices["234"] + prices["2"] - 0.75) <= 1e-15
    assert abs(prices["23"] + prices["24"] - 1.0) <= 1e-15
    assert dominated
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"
    note(1, f"price sums 0.75 and 1.0 exact, revenue dominance on all 15 cores, {elapsed * 1e6:.0f} us")


def test_criterion_02_audit_verdict_on_example():
    bb.belief_consistency_audit(TWO_ROW_MODEL)  # warm caches before timing
    start = time.perf_counter()
    report = bb.belief_consistency_audit(TWO_ROW_MODEL)
    elapsed = time.perf_counter() - start

    assert not report.is_belief_consistent
    s0 = PAPER_SPACE.mask_of(["2", "3", "4"])
    assert report.certificate.kind == "negative_mass"
    assert report.certificate.witness.subset == s0
    assert abs(report.certificate.witness.mass + 0.25) <= 1e-12
    assert abs(report.certificate.buy_gap - 0.25) <= 1e-12
    recovered = dict(report.induced_mass.entries)
    assert abs(recovered[s0] + 0.25) <= 1e-12
    assert bb.verify_certificate(TWO_ROW_MODEL, report.certificate)
    assert elapsed < 10e-3, f"took {elapsed * 1e3:.2f} ms"
    note(2, f"negative-mass verdict at {{2,3,4}}, gap 0.25, verified, {elapsed * 1e3:.2f} ms")


def test_criterion_03_mobius_round_trip():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        space = seeded_space(n)
        m = seeded_mass(rng, space, max_focal=16)
        recovered = bb.belief_to_mass(bb.mass_to_belief(m))
        assert isinstance(recovered, bb.MassFunction)
        worst = max(worst, float(np.abs(recovered.as_dense() - m.as_dense()).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    note(3, f"1000 round trips, worst error {worst:.2e}, {elapsed:.2f} s")


def test_criterion_04_choquet_identity():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    worst_pair = 0.0
    worst_linear = 0.0
    linear_cases = 0
    for trial in range(1000):
        n = int(rng.integers(1, 9))
        space = seeded_space(n)
        singleton = trial % 2 == 0
        m = seeded_mass(rng, space, singleton_only=singleton)
        bel = bb.mass_to_belief(m)
        g = bb.Gamble(space, rng.uniform(-1.0, 1.0, size=n))
        layered = bb.choquet_layer_cake(bel, g)
        focal = bb.choquet_expectation(m, g)
        worst_pair = max(worst_pair, abs(layered - focal))
        if all(mask.bit_count() == 1 for mask in m.weights):
            linear_cases += 1
            prob = np.zeros(n)
            for mask, w in m.weights.items():
                prob[mask.bit_length() - 1] = w
            expectation = bb.buy(bb.LinearModel(space, prob), g)
            worst_linear = max(worst_linear, abs(layered - expectation))
    elapsed = time.perf_counter() - start
    assert worst_pair <= 1e-9
    assert worst_linear <= 1e-12
    assert linear_cases >= 400
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    note(
        4,
        f"1000 layer/focal agreements (worst {worst_pair:.2e}), "
        f"{linear_cases} singleton cases match expectations (worst {worst_linear:.2e}), {elapsed:.2f} s",
    )


def test_criterion_05_coherence_suite():
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    worst = math.inf
    for kind in ("linear", "choquet", "lower_envelope"):
        for trial in range(100):
            space = seeded_space(int(rng.integers(1, 9)))
            pm = seeded_model(rng, space, kind)
            plan = bb.SamplePlan(num_samples=100, seed=int(rng.integers(0, 2**32)))
            report = bb.coherence_probe(pm, plan)
            worst = min(worst, report.worst_slack)
            assert report.all_passed, (kind, trial, report.probes)
    elapsed = time.perf_counter() - start
    assert worst >= -1e-9
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    note(5, f"300 models x 100 gamble pairs, worst slack {worst:.2e}, {elapsed:.2f} s")


def test_criterion_06_no_sure_loss():
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    worst = math.inf
    kinds = ("linear", "choquet", "lower_envelope")
    for trial in range(500):
        space = seeded_space(int(rng.integers(1, 9)))
        pm = seeded_model(rng, space, kinds[trial % 3])
        num_buys = int(rng.integers(0, 6))
        num_sells = int(rng.integers(0, 6))
        if num_buys + num_sells == 0:
            num_buys = 1
        buys = [bb.Gamble(space, rng.uniform(-1, 1, size=space.n)) for _ in range(num_buys)]
        sells = [bb.Gamble(space, rng.uniform(-1, 1, size=space.n)) for _ in range(num_sells)]
        ledger = bb.TransactionLedger.at_model_prices(pm, buys, sells)
        exposure = bb.sure_loss_exposure(pm, ledger)
        worst = min(worst, exposure)
        assert exposure >= -1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    note(6, f"500 model-priced ledgers, worst exposure {worst:.2e}, {elapsed:.2f} s")


def test_criterion_07_probability_characterization():
    rng = np.random.default_rng(707)
    for _ in range(50):
        space = seeded_space(int(rng.integers(1, 7)))
        raw = rng.uniform(0.05, 1.0, size=space.n)
        pm = bb.LinearModel(space, raw / math.fsum(raw.tolist()))
        assert bb.probability_check(pm).is_probability

    positives = negatives = 0
    while positives < 50 or negatives < 50:
        space = seeded_space(int(rng.integers(2, 7)))
        want_singleton = positives < 50 and (negatives >= 50 or bool(rng.integers(0, 2)))
        m = seeded_mass(rng, space, singleton_only=want_singleton)
        is_singleton = all(mask.bit_count() == 1 for mask in m.weights)
        if is_singleton and positives >= 50:
            continue
        if not is_singleton and negatives >= 50:
            continue
        pm = bb.ChoquetModel(m)
        check = bb.probability_check(pm)
        assert check.is_probability == is_singleton
        if is_singleton:
            positives += 1
        else:
            negatives += 1
            a, b = check.witness
            assert a and b and a & b == 0
            f = bb.induced_set_function(pm)
            assert abs(f.values[a | b] - f.values[a] - f.values[b]) > 1e-9
    note(7, "50 linear + 50 singleton models accepted, 50 rejected with valid witnesses")


def oracle_choquet_batch(mob, space, payoffs):
    """Focal-sum prices from an oracle inversion, vectorized per focal set."""
    out = np.zeros(payoffs.shape[0])
    for mask, w in enumerate(mob):
        if mask == 0 or w == 0.0:
            continue
        idx = bits(mask)
        out += w * payoffs[:, idx].min(axis=1)
    return out


def test_criterion_08_certificate_soundness_fuzz():
    rng = np.random.default_rng(808)
    negative_cases = agree_cases = gap_cases = skipped = 0
    for trial in range(200):
        n = int(rng.integers(2, 7))
        space = seeded_space(n)
        k = int(rng.integers(1, 5))
        rows = rng.uniform(0.05, 1.0, size=(k, n))
        rows = rows / rows.sum(axis=1, keepdims=True)
        pm = bb.LowerEnvelopeModel(space, rows)
        plan = bb.SamplePlan(num_samples=256, seed=trial)
        report = bb.belief_consistency_audit(pm, plan)

        induced_oracle = envelope_induced_naive(rows.tolist(), n)
        mob = mobius_naive(induced_oracle)
        if min(mob) < -1e-6:
            negative_cases += 1
            assert not report.is_belief_consistent
            assert bb.verify_certificate(pm, report.certificate)
            continue
        if min(mob) < 0.0:
            skipped += 1  # between the oracle floor and zero: no claim
            continue
        samples = bb.sample_gambles(space, plan)
        indicator_payoffs = np.array(
            [bb.indicator(space, mask).payoff for mask in range(space.size)]
        )
        oracle_buys = np.array(
            [
                min(math.fsum(p * x for p, x in zip(row, payoff)) for row in rows.tolist())
                for payoff in np.vstack([indicator_payoffs, samples]).tolist()
            ]
        )
        oracle_choquet = oracle_choquet_batch(
            mob, space, np.vstack([indicator_payoffs, samples])
        )
        if np.abs(oracle_buys - oracle_choquet).max() <= 1e-9:
            agree_cases += 1
            assert report.is_belief_consistent, trial
        else:
            gap_cases += 1
            assert not report.is_belief_consistent, trial
            assert report.certificate.kind == "choquet_gap"
            assert bb.verify_certificate(pm, report.certificate)
    assert negative_cases + agree_cases + gap_cases + skipped == 200
    assert negative_cases >= 20 and agree_cases >= 20
    note(
        8,
        f"200 envelopes: {negative_cases} negative-mass, {agree_cases} agreeing, "
        f"{gap_cases} gap-certified, {skipped} below-floor skips, zero disagreements",
    )


def test_criterion_09_deletion_family_slack_identity():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        space = seeded_space(n)
        values = rng.uniform(0.0, 1.0, size=space.size)
        f = bb.SetFunction(space, values)
        mob_fast = bb.mobius_transform(values)
        mob_brute = mobius_naive(values.tolist())
        for subset in range(space.size):
            if subset.bit_count() < 2:
                continue
            family = [subset ^ (1 << i) for i in bits(subset)]
            slack = bb.inclusion_exclusion_slack(f, family)
            worst = max(worst, abs(slack - mob_fast[subset]), abs(slack - mob_brute[subset]))
    assert worst <= 1e-12
    note(9, f"100 tables, every deletion family matches its inverted weight, worst {worst:.2e}")


def test_criterion_10_performance():
    rng = np.random.default_rng(1010)
    space = seeded_space(12)
    rows = rng.uniform(0.05, 1.0, size=(4, 12))
    pm = bb.LowerEnvelopeModel(space, rows / rows.sum(axis=1, keepdims=True))
    start = time.perf_counter()
    report = bb.belief_consistency_audit(pm)
    audit_elapsed = time.perf_counter() - start
    assert report.certificate is None or report.certificate_verified
    assert audit_elapsed < 3.0, f"audit took {audit_elapsed:.2f} s"

    values = rng.uniform(0.0, 1.0, size=1 << 20)
    start = time.perf_counter()
    up = bb.zeta_transform(values)
    zeta_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    bb.mobius_transform(up)
    mobius_elapsed = time.perf_counter() - start
    assert zeta_elapsed < 2.0, f"zeta took {zeta_elapsed:.2f} s"
    assert mobius_elapsed < 2.0, f"mobius took {mobius_elapsed:.2f} s"
    note(
        10,
        f"12-outcome audit {audit_elapsed * 1e3:.0f} ms, 20-outcome transforms "
        f"{zeta_elapsed * 1e3:.0f}/{mobius_elapsed * 1e3:.0f} ms",
    )


def test_criterion_11_machine_report_budget(tmp_path):
    rng = np.random.default_rng(1111)
    rows = rng.uniform(0.05, 1.0, size=(4, 20))
    doc = {"space": [f"w{i}" for i in range(20)], "kind": "lower_envelope",
           "rows": (rows / rows.sum(axis=1, keepdims=True)).tolist()}
    model, out = tmp_path / "model.json", tmp_path / "report.json"
    model.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["audit", str(model), "--format", "machine", "--out", str(out)])
    elapsed = time.perf_counter() - start
    report = json.loads(out.read_text())
    assert code == 1 and report["certificate_verified"] is True
    assert elapsed < 3.0, f"machine audit took {elapsed:.2f} s"
    note(
        11,
        f"20-outcome machine envelope audit {elapsed:.2f} s, "
        f"{len(report['negative_mass'])} negative entries listed",
    )
