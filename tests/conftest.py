import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import beliefbet as bb

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

ALPHABET = "abcdefghijkl"


def space_of(n: int) -> bb.OutcomeSpace:
    return bb.make_space(list(ALPHABET[:n]))


@st.composite
def spaces(draw, min_n=1, max_n=6):
    return space_of(draw(st.integers(min_n, max_n)))


@st.composite
def mass_functions(draw, space=None, min_n=1, max_n=6, max_focal=6):
    if space is None:
        space = draw(spaces(min_n, max_n))
    top = space.size - 1
    k = draw(st.integers(1, min(max_focal, top)))
    masks = draw(
        st.lists(st.integers(1, top), min_size=k, max_size=k, unique=True)
    )
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    total = math.fsum(raw)
    return bb.MassFunction(space, {m: w / total for m, w in zip(masks, raw)})


@st.composite
def payoff_arrays(draw, n, lo=-5.0, hi=5.0):
    vals = draw(
        st.lists(
            st.floats(lo, hi, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    return np.array(vals, dtype=float)


@st.composite
def gambles(draw, space, lo=-5.0, hi=5.0):
    return bb.Gamble(space, draw(payoff_arrays(space.n, lo, hi)))


@st.composite
def probability_vectors(draw, n):
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = math.fsum(raw)
    return np.array([w / total for w in raw])


@st.composite
def price_models(draw, space=None, min_n=1, max_n=5):
    if space is None:
        space = draw(spaces(min_n, max_n))
    kind = draw(st.sampled_from(["linear", "choquet", "lower_envelope"]))
    if kind == "linear":
        return bb.LinearModel(space, draw(probability_vectors(space.n)))
    if kind == "choquet":
        return bb.ChoquetModel(draw(mass_functions(space=space)))
    rows = draw(
        st.lists(probability_vectors(space.n), min_size=1, max_size=4)
    )
    return bb.LowerEnvelopeModel(space, np.array(rows))


def random_mass(rng: np.random.Generator, space: bb.OutcomeSpace, max_focal=8,
                singleton_only=False) -> bb.MassFunction:
    if singleton_only:
        candidates = [1 << i for i in range(space.n)]
    else:
        candidates = list(range(1, space.size))
    k = int(rng.integers(1, min(max_focal, len(candidates)) + 1))
    masks = rng.choice(len(candidates), size=k, replace=False)
    raw = rng.uniform(0.05, 1.0, size=k)
    total = math.fsum(raw.tolist())
    return bb.MassFunction(
        space, {candidates[int(m)]: float(w) / total for m, w in zip(masks, raw)}
    )


def random_model(rng: np.random.Generator, space: bb.OutcomeSpace, kind: str):
    if kind == "linear":
        raw = rng.uniform(0.05, 1.0, size=space.n)
        return bb.LinearModel(space, raw / math.fsum(raw.tolist()))
    if kind == "choquet":
        return bb.ChoquetModel(random_mass(rng, space))
    k = int(rng.integers(1, 5))
    rows = rng.uniform(0.05, 1.0, size=(k, space.n))
    rows = rows / rows.sum(axis=1, keepdims=True)
    return bb.LowerEnvelopeModel(space, rows)


def wide_mass(rng, n, focal):
    """A mass on n outcomes with ``focal`` focal sets, among them a singleton
    and the whole space, so that both extreme sizes are priced."""
    space = bb.make_space([f"o{i}" for i in range(n)])
    full = (1 << n) - 1
    focal = min(focal, full)
    drawn = 1 + rng.choice(full, size=focal, replace=False)
    masks = list(dict.fromkeys([1 << (n - 1), full][:focal] + drawn.tolist()))[:focal]
    raw = rng.uniform(0.05, 1.0, size=focal)
    total = math.fsum(raw.tolist())
    return bb.MassFunction(space, {m: float(w) / total for m, w in zip(masks, raw)})


def dense_choquet(n, weight=0.9e-9):
    """A Choquet model with ``weight`` on every subset of two or more of n
    outcomes and the rest shared by the singletons."""
    sp = bb.make_space([f"w{i}" for i in range(n)])
    k = sp.size - 1 - n
    weights = {m: weight for m in range(1, sp.size) if m.bit_count() >= 2}
    weights.update({1 << i: (1.0 - k * weight) / n for i in range(n)})
    return bb.ChoquetModel(bb.MassFunction(sp, weights))


def near_tie_envelope(seed):
    """Two rows p and normalize(p + d), with d centred and max |d| drawn
    from 1e-11 to 1e-8: the near-tie envelopes of ROADMAP item 1(a)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 15))
    p = rng.uniform(0.05, 1.0, n)
    p = p / p.sum()
    d = rng.normal(size=n)
    d -= d.mean()
    d *= 10.0 ** rng.uniform(-11, -8) / np.abs(d).max()
    q = p + d
    space = bb.make_space([f"w{i}" for i in range(n)])
    return bb.LowerEnvelopeModel(space, np.array([p, q / q.sum()]))


def tied_payoffs(rng, rows, n):
    """Rows drawn from a pool of six values, two negative, two positive and
    both zeros, so that ties, signed zeros and rounded products all occur."""
    pool = np.concatenate([-np.abs(rng.normal(size=2)), np.abs(rng.normal(size=2)), [0.0, -0.0]])
    return rng.choice(pool, size=(rows, n))


@pytest.fixture
def paper_space() -> bb.OutcomeSpace:
    return bb.make_space(["1", "2", "3", "4"])


@pytest.fixture
def two_row_model(paper_space) -> bb.LowerEnvelopeModel:
    """The reference model: lower envelope of (1/2,1/2,0,0) and the uniform row."""
    return bb.LowerEnvelopeModel(
        paper_space,
        np.array([[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]]),
    )
