"""Independent brute-force references the test suite checks the library
against. Everything here enumerates subsets directly with exact fsum
accumulation and never calls the fast lattice transforms. The two numpy
references are plain loops that a blocked kernel must equal bit for bit:
butterfly_per_bit, one stage per bit, for the lattice butterfly, and
choquet_batch_per_set, one focal set at a time, for the batch Choquet
pricer. recovered_weights_by_dict builds the recovered mass one Moebius
entry at a time, as the array-built one must equal bit for bit. Two route
references replay, through the public pricing calls, the audit's sampling
one row or one ledger at a time, as whole-sample passes must equal it bit
for bit: duality_rhs_by_sell and sure_loss_per_ledger. Five loops keep the
subset tables built before the doubling builder ``setfn._doubled`` took them
over, which must equal them bit for bit: additive_values_loop,
subfamily_intersections_loop, sublattice_loop, popcounts_loop, and
payoff_layers_two_pass for the grouping of payoff levels."""

import math
from itertools import combinations

import numpy as np

import beliefbet as bb


def bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def zeta_naive(values):
    """out[a] = sum of values[b] over b inside a, by double loop."""
    size = len(values)
    return [
        math.fsum(values[b] for b in range(size) if b & a == b) for a in range(size)
    ]


def mobius_naive(values):
    """Alternating inclusion-exclusion sums, by double loop."""
    size = len(values)
    return [
        math.fsum(
            (-1) ** ((a ^ b).bit_count()) * values[b] for b in range(size) if b & a == b
        )
        for a in range(size)
    ]


def butterfly_per_bit(table, op):
    """In place, for each bit b in turn and each A holding b:
    table[A] = op(table[A], table[A - {b}]), one whole-table stage per bit."""
    for b in range(len(table).bit_length() - 1):
        v = table.reshape(-1, 2, 1 << b)
        op(v[:, 1, :], v[:, 0, :], out=v[:, 1, :])
    return table


def choquet_batch_per_set(masks, weights, payoffs):
    """Buy prices of the rows of ``payoffs``, adding w * (row minimum over
    the focal set) to a zero total one focal set at a time, in the given
    order."""
    out = np.zeros(payoffs.shape[0])
    for mask, w in zip(masks, weights):
        out += w * payoffs[:, bits(int(mask))].min(axis=1)
    return out


def recovered_weights_by_dict(mob):
    """The recovered mass of a nonnegative Moebius array, one numpy scalar at
    a time: every positive weight off the empty set, divided by their fsum
    total when it is not exactly 1. Returns the weights dict."""
    weights = {int(mask): float(mob[mask]) for mask in np.flatnonzero(mob > 0.0) if mask != 0}
    total = math.fsum(weights.values())
    if total != 1.0:
        weights = {mask: w / total for mask, w in weights.items()}
    return weights


def additive_values_loop(space, prob):
    """Indicator prices under one probability vector, doubling one outcome at a
    time: v[2^i : 2^(i+1)] = v[:2^i] + p_i."""
    v = np.empty(space.size)
    v[0] = 0.0
    for i, p in enumerate(prob):
        lo = 1 << i
        np.add(v[:lo], p, out=v[lo : 2 * lo])
    return v


def subfamily_intersections_loop(top, masks):
    """Intersections of the nonempty subfamilies I of ``masks`` (bit i of I picks
    masks[i]; entry I - 1) and whether |I| is odd, doubling one member at a time."""
    inter = np.empty(1 << len(masks), dtype=np.int64)
    inter[0] = top
    for i, a in enumerate(masks):
        lo = 1 << i
        inter[lo : 2 * lo] = inter[:lo] & a
    odd = (np.bitwise_count(np.arange(1, inter.shape[0])) & 1).astype(bool)
    return inter[1:], odd


def sublattice_loop(singles):
    """Every union of the one-outcome masks ``singles`` (a list of ints), in
    the order the certificate's Moebius pass reads them."""
    inside = np.zeros(1 << len(singles), dtype=np.int64)
    for i, single in enumerate(singles):
        inside[1 << i : 2 << i] = inside[: 1 << i] | single
    return inside


def popcounts_loop(n):
    """The uint8 popcount of every mask below 2^n, doubling one bit at a time."""
    counts = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        np.add(counts[: 1 << i], 1, out=counts[1 << i : 2 << i])
    return counts


def payoff_layers_two_pass(payoff, merge_tol=1e-12):
    """Ascending payoff levels merged within ``merge_tol`` of their group's
    lowest value, with upper-set masks: one loop groups, a second one takes
    the suffix unions."""
    order = np.argsort(payoff, kind="stable")
    groups = []
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
    out = []
    upper = 0
    for level, mask in reversed(groups):
        upper |= mask
        out.append((level, upper))
    out.reverse()
    return out


def duality_rhs_by_sell(pm, xs):
    """The scalar side of the duality probe, one gamble per row: -sell(-x)."""
    return np.array([-bb.sell(pm, bb.Gamble(pm.space, -x)) for x in xs])


def sure_loss_per_ledger(pm, rng, num_ledgers, payoff_range):
    """Worst exposure over ledgers drawn from ``rng`` and priced one at a
    time, each side by its own buy_batch call, buys before sells."""
    lo, hi = payoff_range
    n = pm.space.n
    worst = math.inf
    for _ in range(num_ledgers):
        num_buys, num_sells = 0, 0
        while num_buys + num_sells == 0:
            num_buys = int(rng.integers(0, 6))
            num_sells = int(rng.integers(0, 6))
        profile = np.zeros(n)
        if num_buys:
            payoffs = rng.uniform(lo, hi, size=(num_buys, n))
            prices = bb.buy_batch(pm, payoffs)
            profile += (payoffs - prices[:, None]).sum(axis=0)
        if num_sells:
            payoffs = rng.uniform(lo, hi, size=(num_sells, n))
            prices = -bb.buy_batch(pm, -payoffs)
            profile += (prices[:, None] - payoffs).sum(axis=0)
        worst = min(worst, float(profile.max()))
    return worst


def min_over(mask, payoff):
    return min(payoff[i] for i in bits(mask))


def subset_minima_naive(payoff):
    """out[mask] = min of payoff over the outcomes of mask (inf at 0)."""
    return [math.inf] + [min_over(mask, payoff) for mask in range(1, 1 << len(payoff))]


def choquet_naive(weights, payoff):
    """Focal-weighted minima by direct enumeration; weights is mask -> w."""
    return math.fsum(w * min_over(mask, payoff) for mask, w in weights.items())


def inclusion_exclusion_slack_naive(values, family):
    """f(union) minus the alternating sum over nonempty subfamilies."""
    union = 0
    for a in family:
        union |= a
    total = [values[union]]
    for r in range(1, len(family) + 1):
        for picked in combinations(family, r):
            inter = picked[0]
            for a in picked[1:]:
                inter &= a
            total.append(-((-1) ** (r + 1)) * values[inter])
    return math.fsum(total)


def envelope_induced_naive(rows, n):
    """Indicator prices of a lower envelope: min over rows of the row sum."""
    return [
        min(math.fsum(row[i] for i in bits(mask)) for row in rows)
        for mask in range(1 << n)
    ]


def linear_induced_naive(prob):
    n = len(prob)
    return [math.fsum(prob[i] for i in bits(mask)) for mask in range(1 << n)]


def envelope_buy_naive(rows, payoff):
    return min(math.fsum(p * x for p, x in zip(row, payoff)) for row in rows)


def is_two_monotone(values, n, tol=1e-12):
    """f(A union B) + f(A intersect B) >= f(A) + f(B) for every pair."""
    for a in range(1 << n):
        for b in range(1 << n):
            if values[a | b] + values[a & b] < values[a] + values[b] - tol:
                return False
    return True


def valuation_oracle(values, n):
    """Direct check of the four belief-valuation properties, in order.

    Returns (core, None) on acceptance, (None, bullet_index) on rejection,
    bullets numbered 1..4.
    """
    size = 1 << n
    full = size - 1
    for a in range(size):
        if values[a] == 1 and values[full ^ a] == 1:
            return None, 1
    for a in range(size):
        for b in range(size):
            if a & b == a and values[a] == 1 and values[b] == 0:
                return None, 2
    for a in range(size):
        for b in range(size):
            if values[a] == 1 and values[b] == 1 and values[a & b] == 0:
                return None, 3
    if values[full] != 1:
        return None, 4
    core = full
    for a in range(size):
        if values[a] == 1:
            core &= a
    return core, None


def intersection_walk_naive(values, n):
    """Running intersection over the fully believed sets in ascending mask
    order, stopping at the first one it meets whose intersection with the
    running value is not fully believed. Returns (running, mask,
    intersection) at that point, or None if the walk completes."""
    believed = [a for a in range(1 << n) if values[a] == 1]
    if not believed:
        return None
    cur = believed[0]
    for a in believed[1:]:
        nxt = cur & a
        if values[nxt] != 1:
            return cur, a, nxt
        cur = nxt
    return None


def additivity_offenders_naive(values, n, tol):
    """Every disjoint nonempty pair (a, b), a < b, whose union is priced
    more than tol away from the sum of its parts."""
    size = 1 << n
    return {
        (a, b)
        for a in range(1, size)
        for b in range(a + 1, size)
        if a & b == 0 and abs(values[a | b] - values[a] - values[b]) > tol
    }
