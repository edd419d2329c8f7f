"""Independent brute-force references the test suite checks the library
against. Everything here enumerates subsets directly with exact fsum
accumulation and never calls the fast lattice transforms."""

import math
from itertools import combinations


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
