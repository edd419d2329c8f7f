"""Gamble pricing, duality, layer-cake agreement, and belief valuations."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import beliefbet as bb
from beliefbet.previsions import _buy_each
from conftest import (
    gambles,
    mass_functions,
    price_models,
    probability_vectors,
    random_mass,
    space_of,
    spaces,
    tied_payoffs,
    wide_mass,
)
from oracles import (
    choquet_batch_per_set,
    choquet_naive,
    envelope_buy_naive,
    intersection_walk_naive,
    linear_induced_naive,
    min_over,
    payoff_layers_two_pass,
    valuation_oracle,
)


class TestGamble:
    def test_validation(self):
        sp = space_of(2)
        with pytest.raises(bb.BeliefBetError):
            bb.Gamble(sp, np.array([1.0]))
        with pytest.raises(bb.BeliefBetError):
            bb.Gamble(sp, np.array([1.0, np.inf]))

    def test_arithmetic(self):
        sp = space_of(3)
        g = bb.Gamble(sp, np.array([1.0, -2.0, 0.5]))
        assert ((-g).payoff == [-1.0, 2.0, -0.5]).all()
        assert ((g + 1.5).payoff == [2.5, -0.5, 2.0]).all()
        assert ((2.0 * g).payoff == [2.0, -4.0, 1.0]).all()
        h = bb.Gamble(sp, np.array([0.0, 1.0, 1.0]))
        assert ((g + h).payoff == [1.0, -1.0, 1.5]).all()

    def test_indicator_and_constant(self):
        sp = space_of(3)
        assert bb.indicator(sp, 0b101).payoff.tolist() == [1.0, 0.0, 1.0]
        assert bb.constant_gamble(sp, 2.5).payoff.tolist() == [2.5, 2.5, 2.5]

    def test_space_mismatch_on_add(self):
        g = bb.Gamble(space_of(2), np.zeros(2))
        h = bb.Gamble(space_of(3), np.zeros(3))
        with pytest.raises(bb.SpaceMismatchError):
            g + h


class TestBuy:
    def test_vacuous_choquet_prices_at_minimum(self):
        sp = space_of(3)
        pm = bb.ChoquetModel(bb.MassFunction(sp, {sp.full_mask: 1.0}))
        g = bb.Gamble(sp, np.array([3.0, -1.0, 2.0]))
        assert bb.buy(pm, g) == -1.0

    def test_reference_indicator_prices(self, paper_space, two_row_model):
        rows = two_row_model.rows
        masks = {
            "234": paper_space.mask_of(["2", "3", "4"]),
            "2": paper_space.mask_of(["2"]),
            "23": paper_space.mask_of(["2", "3"]),
            "24": paper_space.mask_of(["2", "4"]),
        }
        prices = {}
        for name, mask in masks.items():
            g = bb.indicator(paper_space, mask)
            oracle = envelope_buy_naive(rows.tolist(), g.payoff.tolist())
            prices[name] = bb.buy(two_row_model, g)
            assert prices[name] == oracle
        assert prices == {"234": 0.5, "2": 0.25, "23": 0.5, "24": 0.5}
        assert prices["234"] + prices["2"] == 0.75
        assert prices["23"] + prices["24"] == 1.0

    @given(price_models(), st.data())
    def test_buy_matches_direct_oracle(self, pm, data):
        g = data.draw(gambles(pm.space))
        got = bb.buy(pm, g)
        if isinstance(pm, bb.LinearModel):
            want = math.fsum(p * x for p, x in zip(pm.prob, g.payoff))
        elif isinstance(pm, bb.ChoquetModel):
            want = choquet_naive(pm.mass.weights, g.payoff.tolist())
        else:
            want = envelope_buy_naive(pm.rows.tolist(), g.payoff.tolist())
        assert got == pytest.approx(want, abs=1e-12)

    def test_space_mismatch(self):
        pm = bb.LinearModel(space_of(2), np.array([0.5, 0.5]))
        with pytest.raises(bb.SpaceMismatchError):
            bb.buy(pm, bb.Gamble(space_of(3), np.zeros(3)))

    def test_buy_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        sp = space_of(4)
        models = [
            bb.LinearModel(sp, rng.dirichlet(np.ones(4))),
            bb.ChoquetModel(random_mass(rng, sp)),
            bb.LowerEnvelopeModel(sp, rng.dirichlet(np.ones(4), size=3)),
        ]
        payoffs = rng.uniform(-2, 2, size=(32, 4))
        for pm in models:
            batch = bb.buy_batch(pm, payoffs)
            for row, want in zip(payoffs, batch):
                assert bb.buy(pm, bb.Gamble(sp, row)) == pytest.approx(want, abs=1e-12)


class TestChoquetPricer:
    """The blocked pricer against the one-focal-set-at-a-time loop, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 14, 24])
    @pytest.mark.parametrize("focal", [1, 64, 600, 3000])
    def test_batch_equals_per_set_loop(self, n, focal):
        rng = np.random.default_rng([n, focal])
        mass = wide_mass(rng, n, focal)
        pm = bb.ChoquetModel(mass)
        for rows in (0, 1, 3, 256, 4097):
            payoffs = tied_payoffs(rng, rows, n)
            got = bb.buy_batch(pm, payoffs)
            want = choquet_batch_per_set(mass.mask_array, mass.weight_array, payoffs)
            assert got.shape == (rows,)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), rows

    @pytest.mark.parametrize("n", [1, 2, 14, 24])
    @pytest.mark.parametrize("focal", [1, 64, 600, 3000])
    def test_single_price_is_dot_of_minima(self, n, focal):
        rng = np.random.default_rng([n, focal, 1])
        mass = wide_mass(rng, n, focal)
        pm = bb.ChoquetModel(mass)
        for payoff in tied_payoffs(rng, 4, n):
            minima = [min_over(int(m), payoff) for m in mass.mask_array]
            want = np.float64(np.dot(mass.weight_array, minima))
            got = np.float64(bb.buy(pm, bb.Gamble(mass.space, payoff)))
            assert got.view(np.int64) == want.view(np.int64)

    @pytest.mark.parametrize("n", [1, 2, 5, 14, 20])
    def test_linear_batch_is_gather_of_singleton_mass(self, n):
        # the audit takes a linear model as the Choquet integral of its
        # probability, as a singleton mass, without comparing the two
        rng = np.random.default_rng([n, 2])
        sp = bb.make_space([f"o{i}" for i in range(n)])
        raw = rng.uniform(0.05, 1.0, size=n)
        pm = bb.LinearModel(sp, raw / math.fsum(raw.tolist()))
        singletons = bb.ChoquetModel(bb.MassFunction(sp, {1 << i: float(p) for i, p in enumerate(pm.prob)}))
        for payoffs in (rng.uniform(-1.0, 1.0, size=(256, n)), tied_payoffs(rng, 64, n)):
            gaps = np.abs(bb.buy_batch(pm, payoffs) - singletons.buy_payoff_batch(payoffs))
            assert gaps.max() <= bb.DEFAULT_TOL

    def test_member_table_is_at_most_one_byte_per_set_and_outcome(self):
        for n, focal in ((1, 1), (14, 600), (24, 3000)):
            mass = wide_mass(np.random.default_rng(n), n, focal)
            members = bb.ChoquetModel(mass)._members
            assert members.dtype == np.uint8
            assert members.nbytes <= len(mass.weights) * n

    @staticmethod
    def _transient(call):
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    def test_batch_transient_is_bounded(self):
        # one block of gathered minima and running sums, never a full
        # rows x focal-sets table (600 x 256 doubles are 1.2 MB)
        rng = np.random.default_rng(8)
        pm = bb.ChoquetModel(wide_mass(rng, 14, 600))
        payoffs = rng.normal(size=(256, 14))
        assert self._transient(lambda: pm.buy_payoff_batch(payoffs)) < 1 << 20

    def test_single_price_transient_is_bounded(self):
        # blocks of ranked membership bits, never a full focal-sets x
        # outcomes table (2^16 x 20 int64 entries are 10.5 MB)
        n = 20
        rng = np.random.default_rng(9)
        masks = 1 + rng.choice((1 << n) - 1, size=1 << 16, replace=False)
        space = bb.make_space([f"o{i}" for i in range(n)])
        mass = bb.MassFunction(space, dict.fromkeys(masks.tolist(), 2.0 ** -16))
        pm = bb.ChoquetModel(mass)
        payoff = rng.normal(size=n)
        assert self._transient(lambda: pm.buy_payoff(payoff)) < 2 << 20

    def test_row_block_sweep_transient_is_bounded(self):
        # the minima of one block of rows at a time, never a full rows x
        # focal-sets table (256 x 2^16 doubles are 128 MiB)
        n = 20
        rng = np.random.default_rng(10)
        masks = 1 + rng.choice((1 << n) - 1, size=1 << 16, replace=False)
        space = bb.make_space([f"o{i}" for i in range(n)])
        pm = bb.ChoquetModel(bb.MassFunction(space, dict.fromkeys(masks.tolist(), 2.0 ** -16)))
        payoffs = rng.normal(size=(256, n))
        assert self._transient(lambda: _buy_each(pm, payoffs)) < 2 << 20


class TestSell:
    @given(spaces(max_n=4), st.data())
    def test_linear_buy_equals_sell(self, sp, data):
        pm = bb.LinearModel(sp, data.draw(probability_vectors(sp.n)))
        g = data.draw(gambles(sp))
        assert bb.sell(pm, g) == pytest.approx(bb.buy(pm, g), abs=1e-12)

    def test_vacuous_choquet_sells_at_maximum(self):
        sp = space_of(3)
        pm = bb.ChoquetModel(bb.MassFunction(sp, {sp.full_mask: 1.0}))
        g = bb.Gamble(sp, np.array([3.0, -1.0, 2.0]))
        assert bb.sell(pm, g) == 3.0

    def test_reference_sell_by_conjugacy(self, paper_space, two_row_model):
        # sell(1_{2}) = 1 - buy(1_{1,3,4}) = 1 - min(1/2, 3/4)
        sold = bb.sell(two_row_model, bb.indicator(paper_space, paper_space.mask_of(["2"])))
        rest = bb.buy(
            two_row_model, bb.indicator(paper_space, paper_space.mask_of(["1", "3", "4"]))
        )
        assert rest == 0.5
        assert sold == 1.0 - rest == 0.5

    @given(price_models(), st.data())
    def test_duality_exact(self, pm, data):
        g = data.draw(gambles(pm.space))
        assert bb.buy(pm, g) == -bb.sell(pm, -g)

    @given(price_models(), st.data())
    def test_accepts_threshold(self, pm, data):
        g = data.draw(gambles(pm.space))
        assert bb.accepts(pm, g) == (bb.buy(pm, g) >= 0.0)


class TestCoherenceProperties:
    @given(price_models(), st.data())
    def test_bounds(self, pm, data):
        g = data.draw(gambles(pm.space))
        lo, hi = g.payoff.min(), g.payoff.max()
        b, s = bb.buy(pm, g), bb.sell(pm, g)
        assert b >= lo - 1e-9
        assert s >= b - 1e-9
        assert hi >= s - 1e-9

    @given(price_models(), st.sampled_from([0.5, 2.0, 10.0]), st.data())
    def test_positive_homogeneity(self, pm, lam, data):
        g = data.draw(gambles(pm.space))
        b = bb.buy(pm, g)
        assert bb.buy(pm, lam * g) == pytest.approx(lam * b, abs=1e-9 * max(1.0, abs(b)))

    @given(price_models(), st.data())
    def test_superadditivity(self, pm, data):
        g = data.draw(gambles(pm.space))
        h = data.draw(gambles(pm.space))
        assert bb.buy(pm, g + h) >= bb.buy(pm, g) + bb.buy(pm, h) - 1e-9

    @given(price_models(), st.floats(-10, 10), st.data())
    def test_translation(self, pm, shift, data):
        g = data.draw(gambles(pm.space))
        assert bb.buy(pm, g + shift) == pytest.approx(bb.buy(pm, g) + shift, abs=1e-12 * max(1.0, abs(shift)) * 10)


class TestChoquetLayerCake:
    def test_constant_gamble(self):
        sp = space_of(3)
        bel = bb.mass_to_belief(bb.MassFunction(sp, {0b011: 0.5, 0b111: 0.5}))
        for c in (-2.5, 0.0, 3.25):
            assert bb.choquet_layer_cake(bel, bb.constant_gamble(sp, c)) == c

    def test_indicator_gives_belief_value(self):
        sp = space_of(3)
        m = bb.MassFunction(sp, {0b011: 0.25, 0b101: 0.25, 0b111: 0.5})
        bel = bb.mass_to_belief(m)
        for mask in range(sp.size):
            got = bb.choquet_layer_cake(bel, bb.indicator(sp, mask))
            assert got == pytest.approx(bel.values[mask], abs=1e-15)

    def test_integer_gambles_match_focal_sum(self):
        rng = np.random.default_rng(17)
        sp = space_of(4)
        for _ in range(50):
            m = random_mass(rng, sp)
            bel = bb.mass_to_belief(m)
            payoff = rng.integers(-3, 4, size=4).astype(float)
            g = bb.Gamble(sp, payoff)
            want = choquet_naive(m.weights, payoff.tolist())
            assert bb.choquet_layer_cake(bel, g) == pytest.approx(want, abs=1e-9)
            assert bb.choquet_expectation(m, g) == pytest.approx(want, abs=1e-12)

    @given(mass_functions(max_n=5), st.data())
    def test_matches_focal_sum_on_floats(self, m, data):
        g = data.draw(gambles(m.space))
        bel = bb.mass_to_belief(m)
        assert bb.choquet_layer_cake(bel, g) == pytest.approx(
            bb.choquet_expectation(m, g), abs=1e-9
        )

    def test_near_tie_payoffs_merge(self):
        sp = space_of(2)
        bel = bb.mass_to_belief(bb.MassFunction(sp, {0b11: 1.0}))
        g = bb.Gamble(sp, np.array([0.5, 0.5 + 1e-13]))
        assert bb.choquet_layer_cake(bel, g) == pytest.approx(0.5, abs=1e-12)


class TestPayoffLayers:
    """payoff_layers against the two-loop grouping of tests/oracles.py: the
    same levels, bit for bit, the same masks and the same Python types."""

    @staticmethod
    def check(payoff):
        got = bb.payoff_layers(np.array(payoff, dtype=float))
        want = payoff_layers_two_pass(np.array(payoff, dtype=float))
        assert [(level.hex(), mask) for level, mask in got] == [
            (level.hex(), mask) for level, mask in want
        ]
        assert all(type(level) is float and type(mask) is int for level, mask in got)
        return got

    def test_one_outcome(self):
        for x in (-2.0, 0.0, 0.75):
            assert self.check([x]) == [(x, 1)]

    def test_exact_ties(self):
        assert self.check([0.5, 0.2, 0.5, 0.2, -0.1]) == [(-0.1, 31), (0.2, 15), (0.5, 5)]
        rng = np.random.default_rng(8)
        for _ in range(200):
            self.check(rng.integers(-3, 4, size=int(rng.integers(1, 13))) / 4)

    def test_near_tie_chains_keep_the_anchor(self):
        # each step is inside 1e-12, the chain is not: a new level starts once
        # a value is 1e-12 above its group's lowest value
        got = self.check([0.0, 6e-13, 1.2e-12, 1.8e-12])
        assert got == [(0.0, 15), (1.2e-12, 12)]
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            base = rng.choice([-1.0, -0.25, 0.0, 0.5], size=n)
            self.check(base + rng.integers(0, 6, size=n) * rng.uniform(2e-13, 9e-13))

    def test_negative_payoffs(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            self.check(rng.uniform(-1.0, 0.0, size=int(rng.integers(1, 25))))


class TestGuaranteedRevenue:
    def test_full_core_is_minimum(self):
        sp = space_of(3)
        v = bb.BeliefValuation(sp, sp.full_mask)
        g = bb.Gamble(sp, np.array([2.0, -1.0, 0.0]))
        assert bb.guaranteed_revenue(v, g) == -1.0

    def test_singleton_core_reads_payoff(self):
        sp = space_of(3)
        g = bb.Gamble(sp, np.array([2.0, -1.0, 0.0]))
        for i in range(3):
            assert bb.guaranteed_revenue(bb.BeliefValuation(sp, 1 << i), g) == g.payoff[i]

    def test_reference_case(self, paper_space):
        v = bb.BeliefValuation(paper_space, paper_space.mask_of(["2", "3"]))
        g = bb.indicator(paper_space, paper_space.mask_of(["2", "3", "4"]))
        assert bb.guaranteed_revenue(v, g) == 1.0

    def test_indicator_link(self):
        sp = space_of(4)
        for core in range(1, sp.size):
            v = bb.BeliefValuation(sp, core)
            for mask in range(sp.size):
                want = 1.0 if core & ~mask == 0 else 0.0
                assert bb.guaranteed_revenue(v, bb.indicator(sp, mask)) == want
                assert v.holds(mask) == bool(want)

    def test_empty_core_rejected(self):
        with pytest.raises(bb.BeliefBetError):
            bb.BeliefValuation(space_of(2), 0)


class TestIsBeliefValuation:
    def test_truth_valuation_accepted(self):
        sp = space_of(3)
        values = np.array([float(mask >> 1 & 1) for mask in range(sp.size)])
        check = bb.is_belief_valuation(bb.SetFunction(sp, values))
        assert check
        assert check.valuation.core == 0b010

    def test_all_ones_rejected_as_complement_clash(self):
        sp = space_of(3)
        check = bb.is_belief_valuation(bb.SetFunction(sp, np.ones(sp.size)))
        assert not check
        assert "complement clash" in check.reason

    def test_two_outcome_core(self):
        sp = space_of(3)
        core = 0b011
        values = np.array([float(core & ~mask == 0) for mask in range(sp.size)])
        # oracle: all four properties by direct enumeration of the 8 subsets
        want_core, bullet = valuation_oracle(values.tolist(), 3)
        assert bullet is None and want_core == core
        check = bb.is_belief_valuation(bb.SetFunction(sp, values))
        assert check and check.valuation.core == core

    def test_monotonicity_rejection(self):
        sp = space_of(2)
        values = np.array([0.0, 1.0, 0.0, 0.0])
        check = bb.is_belief_valuation(bb.SetFunction(sp, values))
        assert not check and "monotonicity" in check.reason

    def test_intersection_rejection(self):
        sp = space_of(3)
        # believe {a,b} and {b,c} and all supersets, but not {b}
        values = np.zeros(sp.size)
        for mask in (0b011, 0b110, 0b111):
            values[mask] = 1.0
        check = bb.is_belief_valuation(bb.SetFunction(sp, values))
        assert not check and "intersection" in check.reason

    def test_full_set_rejection(self):
        sp = space_of(2)
        check = bb.is_belief_valuation(bb.SetFunction(sp, np.zeros(sp.size)))
        assert not check and "whole space" in check.reason

    def test_non_two_valued_rejected(self):
        sp = space_of(2)
        with pytest.raises(bb.BeliefBetError):
            bb.is_belief_valuation(bb.SetFunction(sp, np.array([0.0, 0.5, 0.0, 1.0])))

    def test_exhaustive_three_outcomes_against_oracle(self):
        sp = space_of(3)
        for assignment in product((0.0, 1.0), repeat=sp.size):
            values = np.array(assignment)
            want_core, bullet = valuation_oracle(values.tolist(), 3)
            check = bb.is_belief_valuation(bb.SetFunction(sp, values))
            if bullet is None:
                assert check, f"oracle accepts {assignment}"
                assert check.valuation.core == want_core
            else:
                assert not check, f"oracle rejects {assignment} at bullet {bullet}"
                expected_reason = {
                    1: "complement clash",
                    2: "monotonicity",
                    3: "intersection",
                    4: "whole space",
                }[bullet]
                assert expected_reason in check.reason
                if bullet == 3:
                    cur, a, nxt = intersection_walk_naive(values.tolist(), 3)
                    assert check.reason == (
                        f"intersection closure: {cur} and {a} valued 1 but {nxt} is not"
                    )


class TestInducedSetFunction:
    def test_linear_gives_probability(self):
        sp = space_of(4)
        rng = np.random.default_rng(6)
        p = rng.dirichlet(np.ones(4))
        f = bb.induced_set_function(bb.LinearModel(sp, p))
        want = linear_induced_naive(p.tolist())
        assert np.abs(f.values - np.array(want)).max() <= 1e-12

    @given(mass_functions(max_n=6))
    def test_choquet_gives_its_belief(self, m):
        f = bb.induced_set_function(bb.ChoquetModel(m))
        assert np.array_equal(f.values, bb.mass_to_belief(m).values)

    def test_reference_envelope_closed_form(self, paper_space, two_row_model):
        f = bb.induced_set_function(two_row_model)
        half = paper_space.mask_of(["1", "2"])
        for mask in range(paper_space.size):
            want = min((mask & half).bit_count() / 2.0, mask.bit_count() / 4.0)
            assert f.values[mask] == want

    @given(price_models())
    def test_endpoints(self, pm):
        f = bb.induced_set_function(pm)
        assert f.values[0] == 0.0
        assert f.values[-1] == pytest.approx(1.0, abs=1e-12)

    @given(price_models())
    def test_matches_indicator_buys(self, pm):
        f = bb.induced_set_function(pm)
        for mask in range(pm.space.size):
            assert f.values[mask] == pytest.approx(
                bb.buy(pm, bb.indicator(pm.space, mask)), abs=1e-12
            )
