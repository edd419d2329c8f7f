"""Spaces, lattice transforms, and the mass <-> belief correspondence."""

import dataclasses
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given

import beliefbet as bb
import beliefbet.previsions
import beliefbet.setfn
from conftest import mass_functions, random_mass, space_of, wide_mass
from oracles import (
    additive_values_loop,
    bits,
    butterfly_per_bit,
    inclusion_exclusion_slack_naive,
    mobius_naive,
    popcounts_loop,
    recovered_weights_by_dict,
    subfamily_intersections_loop,
    sublattice_loop,
    zeta_naive,
)


class TestMakeSpace:
    def test_smallest_space(self):
        sp = bb.make_space(["a"])
        assert sp.n == 1
        assert sp.size == 2
        assert sp.full_mask == 1

    def test_four_outcomes(self):
        sp = bb.make_space(["1", "2", "3", "4"])
        assert sp.n == 4
        assert sp.mask_of(["2", "3", "4"]) == 0b1110
        assert sp.members(0b1110) == ("2", "3", "4")

    def test_duplicate_label_rejected(self):
        with pytest.raises(bb.DuplicateLabelError):
            bb.make_space(["a", "a"])

    def test_size_bounds(self):
        with pytest.raises(bb.SizeOutOfRangeError):
            bb.make_space([])
        with pytest.raises(bb.SizeOutOfRangeError):
            bb.make_space([f"x{i}" for i in range(25)])

    def test_mask_range_checked(self):
        sp = bb.make_space(["a", "b"])
        with pytest.raises(bb.BeliefBetError):
            sp.members(4)

    def test_unknown_label(self):
        sp = bb.make_space(["a", "b"])
        with pytest.raises(KeyError):
            sp.mask_of(["z"])
        for label in ("z", ["a"]):
            with pytest.raises(KeyError) as caught:
                sp.index_of(label)
            assert caught.value.args[0] == f"unknown outcome label {label!r}"

    def test_label_lookup_leaves_the_space_as_it_was(self):
        labels = [f"o{i}" for i in range(24)]
        sp = bb.make_space(labels)
        before = (repr(sp), hash(sp))
        assert [sp.index_of(label) for label in labels] == list(range(24))
        assert sp.mask_of(["o23", "o0", "o23"]) == 1 << 23 | 1
        assert (repr(sp), hash(sp)) == before and sp == bb.make_space(labels)
        assert [f.name for f in dataclasses.fields(sp)] == ["labels"]


def mask_calls():
    """Each public entry point that reads a subset mask, called on ``m``; the
    repr of what it returns or keeps shows any numpy integer left in it."""
    sp = space_of(3)
    bel = bb.mass_to_belief(bb.MassFunction(sp, {0b001: 0.5, 0b110: 0.5}))
    signed = bb.SetFunction(sp, np.array([0.0, 0.2, 0.2, 0.3, 0.2, 0.3, 0.3, 1.0]))
    return {
        "members": lambda m: repr(sp.members(m)),
        "MassFunction": lambda m: repr(dict(bb.MassFunction(sp, {m: 1.0}).weights)),
        "indicator": lambda m: repr(bb.indicator(sp, m).payoff.tolist()),
        "inclusion_exclusion_slack": lambda m: repr(bb.inclusion_exclusion_slack(bel, [m, 0b101])),
        "plausibility": lambda m: repr(bb.plausibility(bel, m)),
        "BeliefValuation": lambda m: repr((bb.BeliefValuation(sp, m).core, bb.BeliefValuation(sp, 7).holds(m))),
        "certificate_from_negative_mass": lambda m: repr(bb.certificate_from_negative_mass(signed, m).witness),
    }


@pytest.mark.parametrize("mask", [2.5, 3.0, np.float64(3.0), True, np.True_, "3", None])
@pytest.mark.parametrize("name", sorted(mask_calls()))
def test_non_integer_masks_rejected(name, mask):
    with pytest.raises(bb.BeliefBetError, match=r"mask must be an integer, got "):
        mask_calls()[name](mask)


@pytest.mark.parametrize("name", sorted(mask_calls()))
def test_numpy_integer_masks_read_as_ints(name):
    call = mask_calls()[name]
    assert call(np.int64(3)) == call(np.uint8(3)) == call(3)


def test_check_mask_returns_a_python_int():
    sp = space_of(3)
    assert type(sp.check_mask(np.int64(3))) is int
    with pytest.raises(bb.BeliefBetError, match="mask 8 out of range"):
        sp.check_mask(np.int64(8))


class TestTransforms:
    @given(mass_functions(max_n=8))
    def test_zeta_matches_naive(self, m):
        fast = bb.zeta_transform(m.as_dense())
        brute = zeta_naive(m.as_dense().tolist())
        assert np.abs(fast - np.array(brute)).max() <= 1e-13

    @given(mass_functions(max_n=8))
    def test_mobius_matches_naive(self, m):
        bel = bb.mass_to_belief(m)
        fast = bb.mobius_transform(bel.values)
        brute = mobius_naive(bel.values.tolist())
        assert np.abs(fast - np.array(brute)).max() <= 1e-13

    def test_agreement_at_ten_outcomes(self):
        rng = np.random.default_rng(7)
        sp = space_of(10)
        raw = rng.uniform(0.0, 1.0, size=sp.size)
        raw[0] = 0.0
        dense = raw / math.fsum(raw.tolist())
        assert np.abs(bb.zeta_transform(dense) - np.array(zeta_naive(dense.tolist()))).max() <= 1e-13
        bel = bb.zeta_transform(dense)
        assert np.abs(bb.mobius_transform(bel) - np.array(mobius_naive(bel.tolist()))).max() <= 1e-13

    @given(mass_functions(max_n=6))
    def test_round_trip_recovers_mass(self, m):
        recovered = bb.belief_to_mass(bb.mass_to_belief(m))
        assert isinstance(recovered, bb.MassFunction)
        assert np.abs(recovered.as_dense() - m.as_dense()).max() <= 1e-12

    def test_round_trip_up_to_twelve_outcomes(self):
        rng = np.random.default_rng(11)
        for n in range(2, 13):
            sp = bb.make_space([f"w{i}" for i in range(n)])
            masks = rng.choice(sp.size - 1, size=min(16, sp.size - 1), replace=False) + 1
            raw = rng.uniform(0.05, 1.0, size=masks.size)
            total = math.fsum(raw.tolist())
            m = bb.MassFunction(sp, {int(mk): float(w) / total for mk, w in zip(masks, raw)})
            recovered = bb.belief_to_mass(bb.mass_to_belief(m))
            assert np.abs(recovered.as_dense() - m.as_dense()).max() <= 1e-12

    def test_rejects_non_power_of_two(self):
        with pytest.raises(bb.BeliefBetError):
            bb.zeta_transform(np.zeros(5))


class TestButterflyKernel:
    """The blocked butterfly against the per-bit loop, bit for bit."""

    @pytest.mark.parametrize("n", [1, 11, 12, 13, 14, 15, 16, 17, 20])
    @pytest.mark.parametrize("op", [np.add, np.subtract, np.logical_or])
    @pytest.mark.parametrize("reversed_view", [False, True])
    def test_bit_identical_to_the_per_bit_loop(self, n, op, reversed_view):
        rng = np.random.default_rng([64, n])
        if op is np.logical_or:
            got = rng.random(1 << n) < 2.0 ** -(n // 2 + 1)
        else:
            got = rng.uniform(-1.0, 1.0, size=1 << n)
        table = got[::-1] if reversed_view else got
        table[0], table[-1] = 1, 0
        before = got.copy()
        expected = got.copy()
        assert beliefbet.setfn._butterfly(table, op) is table
        butterfly_per_bit(expected[::-1] if reversed_view else expected, op)
        if op is np.logical_or:
            assert np.array_equal(got, expected)
        else:
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert not np.array_equal(got, before)


class TestMassToBelief:
    def test_vacuous(self):
        sp = space_of(3)
        bel = bb.mass_to_belief(bb.MassFunction(sp, {sp.full_mask: 1.0}))
        for mask in range(sp.size):
            assert bel.values[mask] == (1.0 if mask == sp.full_mask else 0.0)

    def test_singleton_mass_is_additive(self):
        sp = space_of(3)
        p = [0.2, 0.3, 0.5]
        bel = bb.mass_to_belief(bb.MassFunction(sp, {1 << i: p[i] for i in range(3)}))
        for mask in range(sp.size):
            assert bel.values[mask] == pytest.approx(
                math.fsum(p[i] for i in bits(mask)), abs=1e-15
            )

    def test_two_outcome_example(self):
        # oracle: direct subset-sum enumeration over all 4 subsets
        sp = space_of(2)
        weights = {0b01: 0.3, 0b11: 0.7}
        expected = [
            math.fsum(w for mk, w in weights.items() if mk & a == mk)
            for a in range(4)
        ]
        assert expected == [0.0, 0.3, 0.0, 1.0]
        bel = bb.mass_to_belief(bb.MassFunction(sp, weights))
        assert bel.values.tolist() == expected

    @given(mass_functions(max_n=6))
    def test_monotone_under_inclusion(self, m):
        bel = bb.mass_to_belief(m)
        v = np.array(bel.values)
        for b in range(m.space.n):
            grown = v.reshape(-1, 2, 1 << b)
            assert np.all(grown[:, 0, :] <= grown[:, 1, :] + 1e-12)

    @given(mass_functions(max_n=6))
    def test_output_is_belief_function(self, m):
        assert bb.is_belief_function(bb.mass_to_belief(m))


def induced_two_row_values(space):
    """Closed form of the reference model's indicator prices:
    min(|A * {1,2}| / 2, |A| / 4)."""
    half = space.mask_of(["1", "2"])
    return np.array(
        [
            min((mask & half).bit_count() / 2.0, mask.bit_count() / 4.0)
            for mask in range(space.size)
        ]
    )


class TestBeliefToMass:
    def test_vacuous_round_trip_exact(self):
        sp = space_of(3)
        m = bb.MassFunction(sp, {sp.full_mask: 1.0})
        recovered = bb.belief_to_mass(bb.mass_to_belief(m))
        assert recovered.weights == {sp.full_mask: 1.0}

    def test_reference_table_has_negative_mass(self, paper_space):
        values = induced_two_row_values(paper_space)
        s0 = paper_space.mask_of(["2", "3", "4"])
        # oracle first: inclusion-exclusion over the 8 subsets of {2,3,4}
        expected = math.fsum(
            (-1) ** ((s0 ^ sub).bit_count()) * values[sub]
            for sub in range(paper_space.size)
            if sub & s0 == sub
        )
        assert expected == -0.25
        report = bb.belief_to_mass(bb.SetFunction(paper_space, values))
        assert isinstance(report, bb.NegativeMassReport)
        assert dict(report.entries)[s0] == pytest.approx(-0.25, abs=1e-15)
        assert report.witness() == s0

    def test_additive_probability_gives_singletons(self):
        sp = space_of(4)
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(4))
        values = np.array([math.fsum(p[i] for i in bits(mask)) for mask in range(sp.size)])
        m = bb.belief_to_mass(bb.SetFunction(sp, values))
        assert isinstance(m, bb.MassFunction)
        dense = m.as_dense()
        for mask in range(sp.size):
            if mask.bit_count() != 1:
                assert abs(dense[mask]) <= 1e-12
        for i in range(4):
            assert dense[1 << i] == pytest.approx(p[i], abs=1e-12)

    def test_endpoint_violations_raise(self):
        sp = space_of(2)
        with pytest.raises(bb.EndpointViolationError):
            bb.belief_to_mass(bb.SetFunction(sp, np.array([0.1, 0.2, 0.2, 1.0])))
        with pytest.raises(bb.EndpointViolationError):
            bb.belief_to_mass(bb.SetFunction(sp, np.array([0.0, 0.2, 0.2, 0.9])))

    def test_tiny_negative_noise_is_clamped(self):
        sp = space_of(2)
        # a belief table nudged by less than the tolerance at one subset
        values = np.array([0.0, 0.5 - 5e-10, 0.25, 1.0])
        m = bb.belief_to_mass(bb.SetFunction(sp, values))
        assert isinstance(m, bb.MassFunction)
        assert math.fsum(m.weights.values()) == pytest.approx(1.0, abs=1e-15)

    def test_genuine_negative_is_reported(self):
        sp = space_of(2)
        values = np.array([0.0, 0.6, 0.6, 1.0])
        report = bb.belief_to_mass(bb.SetFunction(sp, values))
        assert isinstance(report, bb.NegativeMassReport)
        assert report.entries == ((3, pytest.approx(-0.2, abs=1e-15)),)


def noisy_belief_values(mass, delta):
    """Bel of ``mass`` with a Moebius weight of -delta at its lowest proper
    subset that is not focal and +delta more at the whole space, so the endpoints
    keep their values and a clamped sub-tolerance negative appears."""
    dense = mass.as_dense()
    dense[np.flatnonzero(dense[1:-1] == 0.0)[0] + 1] = -delta
    dense[-1] += delta
    return bb.zeta_transform(dense)


class TestRecoveredMassArrays:
    """The array-built recovered mass against the dict route of
    tests/oracles.py, hex for hex, with and without renormalization."""

    def recover(self, values, tol=bb.DEFAULT_TOL):
        space = bb.make_space([f"o{i}" for i in range(len(values).bit_length() - 1)])
        f = bb.SetFunction(space, values)
        reading = beliefbet.setfn._MobiusReading(f, tol)
        mob = reading.mob
        got = reading.mass()
        want = recovered_weights_by_dict(mob)
        assert list(got.weights) == list(want)
        assert [w.hex() for w in got.weights.values()] == [w.hex() for w in want.values()]
        positive = mob[1:][mob[1:] > 0.0]
        return math.fsum(positive.tolist()) != 1.0

    def test_seeded_tables_equal_dict_route(self):
        rng = np.random.default_rng(64)
        renormalized = 0
        for _ in range(120):
            mass = random_mass(rng, space_of(int(rng.integers(1, 11))))
            renormalized += self.recover(bb.mass_to_belief(mass).values)
            if np.any(mass.as_dense()[1:-1] == 0.0):
                assert self.recover(noisy_belief_values(mass, 4e-10))
                renormalized += 1
        assert renormalized > 120

    @pytest.mark.parametrize("n", [16, 17])
    def test_wide_tables_equal_dict_route(self, n):
        mass = wide_mass(np.random.default_rng(n), n, 600)
        self.recover(bb.mass_to_belief(mass).values)
        assert self.recover(noisy_belief_values(mass, 3e-10))


class TestIsBeliefFunction:
    def test_reference_table_rejected_with_canonical_witness(self, paper_space):
        values = induced_two_row_values(paper_space)
        check = bb.is_belief_function(bb.SetFunction(paper_space, values))
        assert not check
        s0 = paper_space.mask_of(["2", "3", "4"])
        assert check.negative_subset == s0
        assert check.negative_mass == pytest.approx(-0.25, abs=1e-15)
        expected_family = tuple(sorted(s0 ^ (1 << i) for i in bits(s0)))
        assert check.family == expected_family

    def test_counting_measure_accepted(self):
        sp = space_of(4)
        values = np.array([mask.bit_count() / 4.0 for mask in range(sp.size)])
        assert bb.is_belief_function(bb.SetFunction(sp, values))

    def test_endpoint_failures(self):
        sp = space_of(2)
        bad_empty = bb.SetFunction(sp, np.array([0.5, 0.5, 0.5, 1.0]))
        check = bb.is_belief_function(bad_empty)
        assert not check and "empty" in check.reason
        bad_full = bb.SetFunction(sp, np.array([0.0, 0.5, 0.5, 0.7]))
        check = bb.is_belief_function(bad_full)
        assert not check and "full" in check.reason

    def test_endpoint_failures_invert_nothing(self, monkeypatch):
        # the endpoints are read before the one Moebius pass, and a bad tol
        # before the endpoints
        calls, original = [], beliefbet.setfn.mobius_transform
        monkeypatch.setattr(beliefbet.setfn, "mobius_transform",
                            lambda values: calls.append(len(values)) or original(values))
        sp = space_of(2)
        bad_empty, bad_full, negative = (bb.SetFunction(sp, np.array(values)) for values in
                                         ([0.5, 0.5, 0.5, 1.0], [0.0, 0.5, 0.5, 0.7], [0.0, 0.75, 0.5, 1.0]))
        for f in (bad_empty, bad_full):
            assert not bb.is_belief_function(f)
            with pytest.raises(bb.BeliefBetError, match="tol must be a finite number"):
                bb.is_belief_function(f, tol=-1.0)
        assert calls == []
        assert bb.is_belief_function(negative).negative_subset == 3
        assert calls == [4]

    def test_reasons_print_plain_floats(self):
        sp = space_of(2)
        reasons = [
            bb.is_belief_function(bb.SetFunction(sp, np.array(values))).reason
            for values in ([0.5, 0.5, 0.5, 1.0], [0.0, 0.5, 0.5, 0.7], [0.0, 0.75, 0.5, 1.0])
        ]
        assert reasons == [
            "empty set must map to 0, got 0.5",
            "full set must map to 1, got 0.7",
            "subset 3 carries weight -0.25",
        ]

    def test_witness_family_slack_equals_mass(self):
        # negative-mass witness soundness on 5-outcome tables
        rng = np.random.default_rng(23)
        sp = space_of(5)
        found = 0
        for _ in range(200):
            values = rng.uniform(0.0, 1.0, size=sp.size)
            values[0] = 0.0
            values[-1] = 1.0
            f = bb.SetFunction(sp, values)
            check = bb.is_belief_function(f)
            if check or check.negative_subset is None:
                continue
            if check.negative_subset.bit_count() < 2:
                continue
            found += 1
            slack = bb.inclusion_exclusion_slack(f, check.family)
            assert slack == pytest.approx(check.negative_mass, abs=1e-12)
            assert slack == pytest.approx(
                inclusion_exclusion_slack_naive(values.tolist(), list(check.family)), abs=1e-12
            )
        assert found >= 50


class TestInclusionExclusionSlack:
    def test_single_set_slack_is_exactly_zero(self):
        sp = space_of(3)
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 1, sp.size)
        f = bb.SetFunction(sp, values)
        for mask in range(sp.size):
            assert bb.inclusion_exclusion_slack(f, [mask]) == 0.0

    def test_reference_pair_slack(self, paper_space):
        values = induced_two_row_values(paper_space)
        f = bb.SetFunction(paper_space, values)
        family = [paper_space.mask_of(["2", "3"]), paper_space.mask_of(["2", "4"])]
        slack = bb.inclusion_exclusion_slack(f, family)
        # Bel({2,3,4}) + Bel({2}) - Bel({2,3}) - Bel({2,4}) = 3/4 - 1
        assert slack == 0.75 - 1.0
        assert slack == pytest.approx(inclusion_exclusion_slack_naive(values.tolist(), family), abs=1e-15)

    def test_dyadic_probability_slack_exactly_zero(self):
        sp = space_of(3)
        p = [0.25, 0.25, 0.5]
        values = np.array([math.fsum(p[i] for i in bits(mask)) for mask in range(sp.size)])
        f = bb.SetFunction(sp, values)
        for count in (1, 2, 3):
            for family in combinations(range(sp.size), count):
                assert bb.inclusion_exclusion_slack(f, list(family)) == 0.0

    def test_all_small_families_nonnegative_for_masses(self):
        rng = np.random.default_rng(9)
        sp = space_of(5)
        for _ in range(5):
            m = random_mass(rng, sp)
            f = bb.mass_to_belief(m).as_set_function()
            for count in (1, 2, 3):
                for family in combinations(range(sp.size), count):
                    assert bb.inclusion_exclusion_slack(f, list(family)) >= -1e-9

    def test_family_size_limit(self):
        sp = space_of(2)
        f = bb.SetFunction(sp, np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(bb.FamilyTooLargeError):
            bb.inclusion_exclusion_slack(f, [1] * 21)
        with pytest.raises(bb.BeliefBetError):
            bb.inclusion_exclusion_slack(f, [])

    def test_deletion_family_slack_is_mobius_weight(self):
        # holds for arbitrary tables, not just beliefs
        rng = np.random.default_rng(41)
        for n in (2, 3, 4):
            sp = space_of(n)
            for _ in range(20):
                values = rng.uniform(0.0, 1.0, size=sp.size)
                f = bb.SetFunction(sp, values)
                mob = mobius_naive(values.tolist())
                for subset in range(3, sp.size):
                    if subset.bit_count() < 2:
                        continue
                    family = [subset ^ (1 << i) for i in bits(subset)]
                    slack = bb.inclusion_exclusion_slack(f, family)
                    assert slack == pytest.approx(mob[subset], abs=1e-12)


class TestPlausibility:
    def test_vacuous_plausibility_one(self):
        sp = space_of(3)
        bel = bb.mass_to_belief(bb.MassFunction(sp, {sp.full_mask: 1.0}))
        for mask in range(1, sp.size - 1):
            assert bb.plausibility(bel, mask) == 1.0

    def test_probability_self_conjugate(self):
        sp = space_of(3)
        p = [0.25, 0.25, 0.5]
        bel = bb.mass_to_belief(bb.MassFunction(sp, {1 << i: p[i] for i in range(3)}))
        for mask in range(sp.size):
            assert bb.plausibility(bel, mask) == pytest.approx(bel.values[mask], abs=1e-15)

    def test_reference_value(self, paper_space, two_row_model):
        # conjugate of {2} is 1 - value({1,3,4}) = 1 - min(1/2, 3/4)
        rest = paper_space.mask_of(["1", "3", "4"])
        assert induced_two_row_values(paper_space)[rest] == 0.5
        f = bb.induced_set_function(two_row_model)
        assert 1.0 - f.values[rest] == 0.5

    @given(mass_functions(max_n=6))
    def test_plausibility_dominates_belief(self, m):
        bel = bb.mass_to_belief(m)
        for mask in range(m.space.size):
            assert bb.plausibility(bel, mask) >= bel.values[mask] - 1e-12


def dyadic_signed_table(rng, n):
    """A table with f(empty) = 0 and f(full) = 1 whose other entries are small
    multiples of 1/8, so every Moebius sum is exact and equal weights tie."""
    values = rng.integers(-4, 9, size=1 << n) / 8.0
    values[0], values[-1] = 0.0, 1.0
    return values


class TestNegativeMassArrays:
    def test_arrays_are_the_mobius_entries(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            n = int(rng.integers(2, 11))
            values = rng.uniform(-1.0, 1.0, size=1 << n)
            values[0], values[-1] = 0.0, 1.0
            report = bb.belief_to_mass(bb.SetFunction(space_of(n), values), tol=1e-3)
            assert isinstance(report, bb.NegativeMassReport)
            assert report.masks.dtype == np.int64 and report.weights.dtype == float
            assert np.all(np.diff(report.masks) > 0)
            mob = bb.mobius_transform(values)
            assert np.array_equal(report.weights.view(np.int64), mob[report.masks].view(np.int64))
            assert np.array_equal(report.masks, np.flatnonzero(mob < -1e-3))
            assert not report.masks.flags.writeable and not report.weights.flags.writeable

    def test_entries_worst_and_witness_against_brute_force(self):
        rng = np.random.default_rng(62)
        ties = 0
        for _ in range(150):
            n = int(rng.integers(2, 7))
            values = dyadic_signed_table(rng, n)
            mob = mobius_naive(values.tolist())
            negative = [(a, w) for a, w in enumerate(mob) if w < -1e-9]
            report = bb.belief_to_mass(bb.SetFunction(space_of(n), values))
            if not negative:
                assert isinstance(report, bb.MassFunction)
                continue
            assert report.entries == tuple(negative)
            lowest = min(w for _, w in negative)
            first = next(a for a, w in negative if w == lowest)
            ties += sum(w == lowest for _, w in negative) > 1
            assert report.worst() == (first, lowest)
            expected = min((a for a, _ in negative), key=lambda a: (a.bit_count(), -a))
            assert report.witness() == expected
            assert type(report.witness()) is int and type(report.worst()[0]) is int
        assert ties >= 10

    def test_constructor_copies_and_freezes(self):
        sp = space_of(3)
        masks, weights = np.array([3, 6]), np.array([-0.5, -0.25])
        report = bb.NegativeMassReport(sp, masks, weights)
        masks[0], weights[0] = 5, 0.0
        assert report.entries == ((3, -0.5), (6, -0.25))
        assert masks.flags.writeable
        with pytest.raises(ValueError):
            report.weights[0] = 1.0


def singleton_zeta(space, prob):
    """Indicator prices the way they used to be computed: zeta of the singleton seed."""
    seed = np.zeros(space.size)
    seed[1 << np.arange(space.n)] = prob
    return bb.zeta_transform(seed)


class TestAdditiveTablesByDoubling:
    def test_bit_identical_to_the_zeta_route(self):
        rng = np.random.default_rng(63)
        for _ in range(240):
            n = int(rng.integers(1, 17))
            space = bb.make_space([f"x{i}" for i in range(n)])
            rows = rng.uniform(0.05, 1.0, size=(int(rng.integers(1, 5)), n))
            rows /= rows.sum(axis=1, keepdims=True)
            zeta_rows = [singleton_zeta(space, row) for row in rows]
            got = beliefbet.previsions._additive_values(space, rows[0])
            assert np.array_equal(got.view(np.int64), zeta_rows[0].view(np.int64))
            envelope = bb.LowerEnvelopeModel(space, rows).induced_values()
            assert np.array_equal(
                envelope.view(np.int64), np.minimum.reduce(zeta_rows).view(np.int64)
            )
            linear = bb.LinearModel(space, rows[0]).induced_values()
            assert np.array_equal(linear.view(np.int64), zeta_rows[0].view(np.int64))


class TestDoublingBuilder:
    """Every table _doubled builds against the loop it replaced in
    tests/oracles.py, bit for bit."""

    @staticmethod
    def same_bits(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 9, 16])
    def test_additive_prices(self, n):
        rng = np.random.default_rng(n)
        space = bb.make_space([f"x{i}" for i in range(n)])
        for _ in range(8):
            prob = rng.uniform(0.05, 1.0, n)
            prob /= prob.sum()
            want = additive_values_loop(space, prob)
            self.same_bits(beliefbet.previsions._additive_values(space, prob), want)
            self.same_bits(bb.LinearModel(space, prob).induced_values(), want)

    def test_subfamily_intersections(self):
        rng = np.random.default_rng(41)
        for k in range(1, 21):
            masks = [int(m) for m in rng.integers(0, 1 << 20, size=k)]
            got = beliefbet.setfn._subfamily_intersections((1 << 20) - 1, masks)
            want = subfamily_intersections_loop((1 << 20) - 1, masks)
            for g, w in zip(got, want):
                self.same_bits(g, w)

    def test_sublattices(self):
        rng = np.random.default_rng(42)
        for k in range(2, 21):
            singles = 1 << np.sort(rng.choice(24, size=k, replace=False))
            got = beliefbet.setfn._doubled(0, singles, np.bitwise_or, np.int64)
            self.same_bits(got, sublattice_loop(singles.tolist()))

    @pytest.mark.parametrize("n", range(21))
    def test_popcounts(self, n):
        got = beliefbet.setfn._doubled(0, [1] * n, np.add, np.uint8)
        self.same_bits(got, popcounts_loop(n))
        assert np.array_equal(got, np.bitwise_count(np.arange(1 << n)))


class TestMemberFlags:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 24])
    def test_bits_of_every_shape(self, n):
        masks = np.random.default_rng(n).integers(0, 1 << n, size=(3, 40))
        for given in (masks, masks[:, ::3], masks[0].tolist(), int(masks[0, 0]), masks[:0]):
            expected = (np.asarray(given)[..., None] >> np.arange(n) & 1).astype(bool)
            got = beliefbet.setfn._member_flags(given, n)
            assert got.dtype == bool and got.shape == expected.shape
            assert np.array_equal(got, expected)

    def test_no_wide_transient(self):
        # one byte per mask and outcome for the result, not eight on the way
        masks = np.random.default_rng(5).integers(0, 1 << 20, size=1 << 16)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            flags = beliefbet.setfn._member_flags(masks, 20)
            transient = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert flags.shape == (1 << 16, 20)
        assert transient < 3 << 20
