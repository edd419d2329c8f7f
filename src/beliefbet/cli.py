"""Command line front end: transform tables, price gambles, audit models,
and score transaction ledgers, all through JSON documents.

Exit codes: 0 success (for ``audit``: the model passed), 1 the audit found
the model not belief-consistent and verified its certificate, 2 malformed
input (unreadable, undecodable, too long or too deep JSON, schema violations,
numbers out of float range, ragged rows, space mismatches, an unwritable
``--out``), 3 endpoint axiom violation on a belief table. ``--out`` is checked
before any document is read; each command builds only the format asked for.

Documents use one schema per role; subsets are keyed by comma-joined
labels in canonical space order (empty string for the empty set), and all
subset listings are emitted in ascending mask order.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .audit import (
    AuditReport,
    SamplePlan,
    TransactionLedger,
    ViolationCertificate,
    belief_consistency_audit,
    exposure_profile,
)
from .errors import EndpointViolationError, BeliefBetError, SchemaError
from .previsions import (
    ChoquetModel,
    Gamble,
    LinearModel,
    LowerEnvelopeModel,
    PriceModel,
    buy,
    induced_set_function,
    sell,
    _own_mass,
)
from .setfn import (
    DEFAULT_TOL,
    EXACT_TOL,
    MassFunction,
    OutcomeSpace,
    SetFunction,
    _MobiusReading,
    _doubled,
    make_space,
    mass_to_belief,
)

_MODEL_KINDS = tuple(model.kind for model in (LinearModel, ChoquetModel, LowerEnvelopeModel))


# ---------------------------------------------------------------- loading


def _read_document(path: str) -> tuple[dict, bytes]:
    """The document at ``path`` and the bytes it was parsed from, read once."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        doc = json.loads(data)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, too long or too deep
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    return doc, data


def _reader(read: Callable[..., Any]) -> Callable[..., Any]:
    """The reader, reporting a library error it meets as a schema error."""

    @functools.wraps(read)
    def checked(*args: Any) -> Any:
        try:
            return read(*args)
        except BeliefBetError as exc:
            raise SchemaError(str(exc)) from exc

    return checked


@_reader
def _space_from(doc: dict) -> OutcomeSpace:
    labels = doc.get("space")
    if not isinstance(labels, list) or not labels:
        raise SchemaError("field 'space' must be a nonempty list of labels")
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            raise SchemaError(f"outcome labels must be nonempty strings, got {lab!r}")
        if "," in lab:
            raise SchemaError(f"outcome labels cannot contain commas: {lab!r}")
    return make_space(labels)


def _key_tables(labels: Sequence[str], before: str = "", after: str = "") -> list[np.ndarray]:
    """Object tables of key pieces, one per byte of a mask over ``labels``.

    Entry b of byte j's table holds the labels of the bits set in b, joined
    by commas. Below the top byte the table has a second half: entry 256 + b
    is the same text with a trailing comma, for masks with a higher byte set.
    Table 0's entries begin with ``before`` and the top table's end with
    ``after``. Both halves are built by doubling, one label at a time."""
    tables = []
    for lo in range(0, len(labels), 8):
        labs = labels[lo : lo + 8]
        top = lo + 8 >= len(labels)
        head, tail = before if lo == 0 else "", after if top else ""
        trailing = _doubled(head, [label + "," for label in labs], np.add, object)
        # the labels of J + 2^i are those of J, each followed by a comma, then label i
        joined = np.empty_like(trailing)
        joined[0] = head + tail
        for i, label in enumerate(labs):
            np.add(trailing[: 1 << i], label + tail, out=joined[1 << i : 2 << i])
        tables.append(joined if top else np.concatenate([joined, trailing]))
    return tables


def _key_pieces(tables: list[np.ndarray], masks: np.ndarray) -> list[np.ndarray]:
    """The key pieces of int64 ``masks``, one object array per table of
    :func:`_key_tables`, each gathered with one fancy index."""
    top = len(tables) - 1
    pieces = [
        table[(masks >> 8 * j & 255) | (masks >> 8 * (j + 1) > 0) << 8]
        for j, table in enumerate(tables[:top])
    ]
    return pieces + [tables[top][masks >> 8 * top]]


def subset_keys(labels: Sequence[str], masks: Sequence[int] | np.ndarray) -> list[str]:
    """:func:`subset_key` of every mask over a space with these labels (or with
    their JSON-escaped texts, which gives the escaped keys): the byte pieces
    of :func:`_key_pieces`, added elementwise. The tables are built on every
    call."""
    pieces = _key_pieces(_key_tables(labels), np.asarray(masks, dtype=np.int64))
    return functools.reduce(np.add, pieces).tolist()


def subset_key(space: OutcomeSpace, mask: int) -> str:
    """Comma-joined labels in canonical order; empty string for the empty set."""
    return subset_keys(space.labels, [space.check_mask(mask)])[0]


def parse_subset_key(space: OutcomeSpace, key: str) -> int:
    if key == "":
        return 0
    names = key.split(",")
    if len(set(names)) != len(names):
        raise SchemaError(f"subset key repeats a label: {key!r}")
    try:
        return space.mask_of(names)
    except KeyError as exc:
        raise SchemaError(f"subset key {key!r}: {exc.args[0]}") from exc


def _number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise SchemaError(f"{what} must be a number in float range") from exc


def _vector(value: Any, what: str) -> list[float]:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list of numbers")
    return [_number(v, what) for v in value]


def _subset_numbers(payload: dict, field: str, space: OutcomeSpace) -> dict[int, float]:
    """The numbers of a subset-keyed object by mask, in document order."""
    numbers: dict[int, float] = {}
    for key, value in payload.items():
        mask = parse_subset_key(space, key)
        if mask in numbers:
            raise SchemaError(f"subset {key!r} listed twice")
        numbers[mask] = _number(value, f"{field}[{key!r}]")
    return numbers


@_reader
def _mass_from(doc: dict, space: OutcomeSpace) -> MassFunction:
    payload = doc.get("mass")
    if not isinstance(payload, dict) or not payload:
        raise SchemaError("field 'mass' must be a nonempty object of subset keys to weights")
    return MassFunction(space, _subset_numbers(payload, "mass", space))


@_reader
def _set_function_from(doc: dict, space: OutcomeSpace) -> SetFunction:
    payload = doc.get("values")
    if not isinstance(payload, dict):
        raise SchemaError("field 'values' must be an object of subset keys to numbers")
    values = _subset_numbers(payload, "values", space)
    if len(values) != space.size:
        raise SchemaError(f"'values' must cover all {space.size} subsets, got {len(values)}")
    return SetFunction(space, [values[mask] for mask in range(space.size)])


@_reader
def _model_from(doc: dict) -> PriceModel:
    space = _space_from(doc)
    kind = doc.get("kind")
    if kind == "linear":
        return LinearModel(space, np.array(_vector(doc.get("prob"), "prob")))
    if kind == "choquet":
        return ChoquetModel(_mass_from(doc, space))
    if kind == "lower_envelope":
        rows = doc.get("rows")
        if not isinstance(rows, list) or not rows:
            raise SchemaError("field 'rows' must be a nonempty list of probability vectors")
        return LowerEnvelopeModel(space, [_vector(r, "row") for r in rows])
    raise SchemaError(f"model kind must be one of {_MODEL_KINDS}, got {kind!r}")


@_reader
def _gambles_from(doc: dict) -> tuple[OutcomeSpace, list[tuple[str, Gamble]]]:
    space = _space_from(doc)
    payload = doc.get("gambles")
    if not isinstance(payload, list) or not payload:
        raise SchemaError("field 'gambles' must be a nonempty list")
    out = []
    for i, entry in enumerate(payload):
        if not isinstance(entry, dict):
            raise SchemaError("each gamble must be an object with a 'payoff' field")
        name = entry.get("name", f"g{i + 1}")
        if not isinstance(name, str):
            raise SchemaError(f"gamble name must be a string, got {name!r}")
        payoff = _vector(entry.get("payoff"), f"payoff of {name}")
        out.append((name, Gamble(space, np.array(payoff))))
    return space, out


@_reader
def _ledger_from(doc: dict) -> tuple[OutcomeSpace, TransactionLedger]:
    space = _space_from(doc)

    def side(field: str) -> tuple[tuple[Gamble, float], ...]:
        payload = doc.get(field, [])
        if not isinstance(payload, list):
            raise SchemaError(f"field {field!r} must be a list")
        out = []
        for entry in payload:
            if not isinstance(entry, dict) or "payoff" not in entry or "price" not in entry:
                raise SchemaError(f"each {field} entry needs 'payoff' and 'price' fields")
            payoff = _vector(entry["payoff"], f"{field} payoff")
            price = _number(entry["price"], f"{field} price")
            out.append((Gamble(space, np.array(payoff)), price))
        return tuple(out)

    return space, TransactionLedger(side("buys"), side("sells"))


# ------------------------------------------------------------- rendering


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _check_out(path: str) -> None:
    """Append nothing to a missing or regular ``--out`` file or a directory (which
    fails), removing a file this created; a FIFO or device is left to :func:`_emit`."""
    created = not os.path.lexists(path)
    if created or os.path.isfile(path) or os.path.isdir(path):
        _emit((), path, "a")
        if created:
            os.remove(path)


def _emit(pieces: Iterable[str], out_path: str | None, mode: str = "w") -> None:
    if out_path:
        try:
            with open(out_path, mode, encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise SchemaError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.writelines(pieces)


def _human(lines: Sequence[str]) -> tuple[str]:
    return ("\n".join(lines) + "\n",)


#: Entries per piece of a streamed subset listing, and so the most values
#: :func:`_json_float_texts` formats at once.
_LISTING_CHUNK = 1 << 13

#: Chunks shorter than this are spelled one float.__repr__ at a time: below it
#: the numpy kernel's fixed cost outweighs what it saves. On a 2-core Xeon VM
#: (Python 3.11, numpy 2.4), best of 500 runs on negative Moebius weights of a
#: 16-outcome envelope and on uniform (0, 1) draws, the kernel against
#: float.__repr__ took 190-206 against 192-196 us for 384 values, 232-260
#: against 262-269 us for 512 and 1.9 against 4.1 ms for 8,192.
_SHORTEST_TEXTS_MIN = 512

#: How far from every rounding boundary and tie the kernel's scaled value
#: must lie, in units of its last (17th) digit, for its digits to be taken.
_DIGITS_MARGIN = 1e-9

#: Veltkamp's splitter for float64: 2^27 + 1 cuts a double into two halves of
#: 26 bits, whose products with other halves are exact.
_SPLITTER = 134217729.0

#: Powers 10^q for q in _POW10_QS as double-doubles: rows hi, hi's upper and
#: lower Veltkamp halves, and lo = fl(10^q - hi). The scale 16 - floor(log10|x|)
#: of 1e-30 <= |x| < 1e30 lies in -13..46; one more power at each end covers
#: a log10 rounded across a power of 10.
_POW10_QS = range(-14, 48)


def _pow10_rows() -> np.ndarray:
    """_POW10 from integers: int true division rounds correctly."""
    hi, lo = [], []
    for q in _POW10_QS:
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        hi.append(num / den)
        hi_num, hi_den = hi[-1].as_integer_ratio()
        lo.append((num * hi_den - hi_num * den) / (den * hi_den))
    hi = np.array(hi)
    upper = _SPLITTER * hi - (_SPLITTER * hi - hi)
    return np.array([hi, upper, hi - upper, lo])


_POW10 = _pow10_rows()

#: "00" to "99" as 2-byte ASCII codes.
_DIGIT_PAIRS = np.frombuffer("".join(map("{:02d}".format, range(100))).encode(), dtype=np.uint16)


def _repr_texts(values: np.ndarray) -> list[str]:
    """What json.dumps writes for each float64 in ``values``, one
    float.__repr__ at a time, or NaN, Infinity or -Infinity."""
    texts = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[i] = json.dumps(float(values[i]))
    return texts


def _scaled(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """y = x * 10^(16 - k) for x in [1e-30, 1e30) and k = floor(log10 x),
    give or take 1: its integer part n (int64), its fraction frac (in
    [0, 1]) and, in units of y, the half-widths below and above x of the
    interval that rounds to x. y is the double-double product p + tail of x
    with 10^(16 - k) from _POW10: p = fl(x * hi), Dekker's exact error of
    that product, and x * lo; n + frac is within 5e-15 of y and the
    half-widths within 1.3e-15 of theirs. Its temporaries are freed on
    return, before the digits are chosen: the process's heap then grows and
    shrinks less per chunk."""
    hi, upper, lower, lo = _POW10.take(16 - k - _POW10_QS.start, axis=1)
    x_upper = _SPLITTER * x - (_SPLITTER * x - x)
    x_lower = x - x_upper
    p = x * hi
    tail = (((x_upper * upper - p) + x_upper * lower + x_lower * upper) + x_lower * lower) + x * lo
    whole = np.floor(tail)
    mantissa, exponent = np.frexp(x)
    half_up = np.ldexp(hi, exponent - 54)
    half_down = np.where(mantissa == 0.5, 0.5 * half_up, half_up)
    return p.astype(np.int64) + whole.astype(np.int64), tail - whole, half_down, half_up


def _shortest_digits(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The shortest round-trip digits of the float64 ``values`` that numpy
    can decide: their indices, the digits as 17-digit ints (padded with
    zeros on the right), the decimal point positions, and a level: 0 for 17
    digits, 1 for 16, 2 for a multiple of 100, whose count is 17 less its
    trailing zeros.

    An entry with 1e-30 <= |x| < 1e30 is scaled by :func:`_scaled` to y with
    17 digits before its point, y = n + frac. Each distance from y to the
    multiples of 1, 10 and 100 on either side of it is then exact to within
    3e-14 and the half-widths of the interval that rounds to x to within
    1.3e-15. float.__repr__ writes the fewest digits that round to x,
    nearest x among those. The interval is at most 22.3 units of y wide, so
    it holds at most one multiple of 100: that one, if any, has the fewest
    digits; else the nearest multiple of 10 inside it gives 16 digits; else
    the nearest integer, always inside, gives 17. An entry is decided when n
    has 17 digits and every distance this choice compares lies more than
    _DIGITS_MARGIN (1e-9) from its boundary or tie, far beyond the 1e-13 the
    errors sum to. Zero, nonfinite values, values outside that range, a
    log10 rounded across a power of 10 and a boundary within the margin are
    left undecided."""
    x = np.abs(values)
    fast = (x >= 1e-30) & (x < 1e30)
    x[~fast] = 1.0
    k = np.floor(np.log10(x)).astype(np.intp)
    n, frac, half_down, half_up = _scaled(x, k)
    n10, n100 = n // 10 * 10, n // 100 * 100
    below10, below100 = (n - n10) + frac, (n - n100) + frac
    above10, above100 = 10.0 - below10, 100.0 - below100
    down10, up10 = below10 < half_down, above10 < half_up
    down100, up100 = below100 < half_down, above100 < half_up
    margin = np.abs(frac - 0.5)
    for distance, bound in ((below100, half_down), (above100, half_up), (below10, half_down),
                            (above10, half_up), (below10, 5.0)):
        np.minimum(margin, np.abs(distance - bound), out=margin)
    rows = np.flatnonzero(fast & (n >= 10**16) & (n < 10**17) & (margin > _DIGITS_MARGIN))
    tens, hundreds = down10 | up10, down100 | up100
    shortest = np.select(
        [hundreds, tens],
        [n100 + 100 * up100, n10 + 10 * (up10 & ~(down10 & (below10 < 5.0)))],
        n + (frac > 0.5),
    )[rows]
    decpt = k[rows] + 1
    carry = shortest == 10**17  # 1 with the point one place later
    shortest[carry] = 10**16
    decpt += carry
    return rows, shortest, decpt, (tens + hundreds.astype(np.intp))[rows]


def _json_float_texts(values: np.ndarray) -> list[str]:
    """:func:`_repr_texts` of ``values``, at most _LISTING_CHUNK of them: the
    digits :func:`_shortest_digits` decides, laid out per group of (decimal
    point position, sign, digit count) in a uint32 matrix read as
    24-character strings the way float.__repr__ writes them (an exponent when
    the point falls 4 or more places before the first digit or more than 16
    after it), and :func:`_repr_texts` of the undecided entries and of every
    entry of a chunk shorter than _SHORTEST_TEXTS_MIN."""
    if values.size < _SHORTEST_TEXTS_MIN:
        return _repr_texts(values)
    rows, shortest, decpt, level = _shortest_digits(values)
    # 17 ASCII digits per row, gathered in pairs: "0" and the first digit, then 8 pairs
    high = shortest // 10**8
    first = high // 10**8
    pairs = np.empty((rows.size, 9), dtype=np.uint16)
    pairs[:, 0] = _DIGIT_PAIRS[first]
    for j, eight in enumerate((high - first * 10**8, shortest - high * 10**8)):
        four = eight // 10**4
        for i, quad in enumerate((four, eight - four * 10**4)):
            two = quad // 100
            pairs[:, 4 * j + 2 * i + 1] = _DIGIT_PAIRS[two]
            pairs[:, 4 * j + 2 * i + 2] = _DIGIT_PAIRS[quad - two * 100]
    counts = 17 - level
    few = np.flatnonzero(level == 2)  # a multiple of 100 drops its trailing zeros
    counts[few] = 17 - np.argmax(pairs[few].view(np.uint8)[:, :0:-1] != ord("0"), axis=1)
    keys = ((decpt + 29) * 2 + (values[rows] < 0)) * 18 + counts
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    keys = keys[order]
    digits = pairs[order].view(np.uint8)[:, 1:]
    chars = np.zeros((rows.size, 24), dtype=np.uint32)
    starts = [0, *(np.flatnonzero(np.diff(keys)) + 1).tolist()] if rows.size else []
    for start, stop in zip(starts, [*starts[1:], rows.size]):
        key = int(keys[start])
        decpt, sign, count = key // 36 - 29, "-" * (key // 18 % 2), key % 18
        # the text is head, digits[:point], mid, digits[point:count], end
        head, point, mid, end = sign, decpt, ".", ""
        if decpt <= -4 or decpt > 16:
            point, mid, end = 1, "." * (count > 1), f"e{decpt - 1:+03d}"
        elif decpt <= 0:
            head, point, mid = sign + "0", 0, "." + "0" * -decpt
        elif decpt >= count:  # the digits run on in zeros up to the point
            count, end = decpt, "0"
        text = head + "0" * point + mid + "0" * (count - point) + end
        group = chars[start:stop]
        group[:, : len(text)] = np.frombuffer(text.encode(), dtype=np.uint8)
        group[:, len(head) : len(head) + point] = digits[start:stop, :point]
        group[:, len(text) - len(end) - count + point : len(text) - len(end)] = digits[start:stop, point:count]
    texts = np.empty(values.size, dtype=object)
    texts[rows[order]] = chars.view("U24").ravel().tolist()
    rest = np.ones(values.size, dtype=bool)
    rest[rows] = False
    texts[rest] = _repr_texts(values[rest])
    return texts.tolist()


@dataclass(frozen=True, eq=False)
class _Listing:
    """A subset-keyed block of a machine document: ascending masks, one float each."""

    space: OutcomeSpace
    masks: np.ndarray
    values: np.ndarray


def _listing_text(
    listing: _Listing, indent: str | None = None, flagged: np.ndarray | None = None
) -> Iterator[str]:
    """The block in chunks of _LISTING_CHUNK entries: as json.dumps(indent=2)
    writes it one level down or, given an ``indent``, one human line
    ``{key}: value`` per entry after it, with "  NEGATIVE" where the bool array
    ``flagged`` is set. The byte tables are built once per listing, with the
    text before and after each key. A chunk is one join of its entries'
    pieces: the key pieces gathered from those tables, then the value's text:
    what json writes, from :func:`_json_float_texts` (float.__repr__,
    computed for the chunk at once in numpy), or .17g and a newline."""
    if indent is None:
        if not listing.masks.size:
            yield "{}"
            return
        # JSON escapes a string one character at a time, so a key built from
        # the escaped labels is the escaped key
        labels = [encode_basestring_ascii(label)[1:-1] for label in listing.space.labels]
        first, lead, trail = '{\n    "', ',\n    "', '": '
    else:
        labels, trail = listing.space.labels, "}: "
        first = lead = indent + "{"
    tables = _key_tables(labels, lead, trail)
    width = len(tables) + 1
    for lo in range(0, listing.masks.size, _LISTING_CHUNK):
        values = listing.values[lo : lo + _LISTING_CHUNK]
        if indent is None:
            texts = _json_float_texts(values)
        else:
            texts = list(map("{:.17g}\n".format, values.tolist()))
        if flagged is not None:
            for i in np.flatnonzero(flagged[lo : lo + _LISTING_CHUNK]).tolist():
                texts[i] = texts[i][:-1] + "  NEGATIVE\n"
        pieces = [""] * (width * len(texts))
        for j, column in enumerate(_key_pieces(tables, listing.masks[lo : lo + _LISTING_CHUNK])):
            pieces[j::width] = column.tolist()
        pieces[width - 1 :: width] = texts
        if not lo:  # the first entry opens the block instead of following one
            pieces[0] = first + pieces[0][len(lead) :]
        yield "".join(pieces)
    if indent is None:
        yield "\n  }"


def _machine(doc: dict) -> Iterator[str]:
    """``json.dumps(doc, indent=2) + "\\n"`` in pieces, each top-level
    :class:`_Listing` streamed by :func:`_listing_text`."""
    sep = "{"
    for name, value in doc.items():
        yield f"{sep}\n  {encode_basestring_ascii(name)}: "
        sep = ","
        if isinstance(value, _Listing):
            yield from _listing_text(value)
        else:
            # json.dumps indents a nested value's lines once more than its own
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
    yield "\n}\n"


def _gamble_doc(g: Gamble) -> dict:
    return {"payoff": g.payoff.tolist()}


def _describe_gambles(space: OutcomeSpace, gambles: Sequence[Gamble]) -> list[str]:
    """Indicator-aware rendering: 1_{a,b} and w*1_{a,b} stay readable."""
    payoffs = np.array([g.payoff for g in gambles]).reshape(-1, space.n)
    supports = payoffs != 0.0
    keys = subset_keys(space.labels, supports @ (1 << np.arange(space.n)))
    out = []
    for payoff, nonzero, key in zip(payoffs, supports, keys):
        distinct = set(payoff[nonzero].tolist())
        if len(distinct) == 1:
            w = distinct.pop()
            out.append(f"1_{{{key}}}" if w == 1.0 else f"{_fmt(w)}*1_{{{key}}}")
        elif not distinct:
            out.append("0")
        else:
            out.append("(" + ", ".join(_fmt(v) for v in payoff) + ")")
    return out


def _certificate_doc(space: OutcomeSpace, cert: ViolationCertificate) -> dict:
    doc: dict[str, Any] = {
        "kind": cert.kind,
        "buy_gap": cert.buy_gap,
        "xs": [_gamble_doc(g) for g in cert.xs],
        "ys": [_gamble_doc(g) for g in cert.ys],
    }
    if cert.kind == "negative_mass":
        doc["subset"] = subset_key(space, cert.witness.subset)
        doc["mass"] = cert.witness.mass
    else:
        doc["gamble"] = _gamble_doc(cert.witness.gamble)
        doc["model_price"] = cert.witness.model_price
        doc["choquet_price"] = cert.witness.choquet_price
    return doc


def _certificate_lines(space: OutcomeSpace, cert: ViolationCertificate) -> list[str]:
    lines = [f"certificate ({cert.kind}):"]
    if cert.kind == "negative_mass":
        lines.append(
            f"  subset {{{subset_key(space, cert.witness.subset)}}} "
            f"carries weight {_fmt(cert.witness.mass)}"
        )
    else:
        lines.append(
            f"  gamble {_describe_gambles(space, [cert.witness.gamble])[0]}: "
            f"model price {_fmt(cert.witness.model_price)}, "
            f"choquet price {_fmt(cert.witness.choquet_price)}"
        )
    lines.append("  xs: " + ", ".join(_describe_gambles(space, cert.xs)))
    lines.append("  ys: " + ", ".join(_describe_gambles(space, cert.ys)))
    lines.append(f"  buy gap: {_fmt(cert.buy_gap)}")
    return lines


def _mass_listing(mass: MassFunction) -> _Listing:
    return _Listing(mass.space, mass.mask_array, mass.weight_array)


def _mass_output(args: argparse.Namespace, mass: MassFunction) -> Iterable[str]:
    """The ``transform --to mass`` listing of a mass function."""
    if args.format == "machine":
        return _machine({"space": list(mass.space.labels), "kind": "mass", "mass": _mass_listing(mass)})
    return _listing_text(_mass_listing(mass), "")


# -------------------------------------------------------------- commands


def _cmd_transform(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    doc = _read_document(args.input)[0]
    space = _space_from(doc)
    kind = doc.get("kind")
    if args.to == "belief":
        if kind not in ("mass", "choquet"):
            raise SchemaError(
                f"direction 'belief' needs a mass or choquet document, got kind {kind!r}"
            )
        mass = _mass_from(doc, space)
        values = _Listing(space, np.arange(space.size), mass_to_belief(mass).values)
        if args.format == "machine":
            return 0, _machine({"space": list(space.labels), "kind": "belief", "values": values})
        return 0, _listing_text(values, "")

    if kind == "belief":
        table = _set_function_from(doc, space)
    elif kind in _MODEL_KINDS:
        pm = _model_from(doc)
        own = _own_mass(pm)
        if own is not None:  # a Choquet or linear model lists its own mass
            return 0, _mass_output(args, own)
        table = induced_set_function(pm)
    else:
        raise SchemaError(
            f"direction 'mass' needs a belief table or model document, got kind {kind!r}"
        )
    reading = _MobiusReading(table, args.tol)
    result = reading.mass()
    if isinstance(result, MassFunction):
        return 0, _mass_output(args, result)
    visible = np.flatnonzero(np.abs(reading.mob) > EXACT_TOL)
    mobius = _Listing(space, visible, reading.mob[visible])
    if args.format == "machine":
        return 0, _machine({
            "space": list(space.labels),
            "kind": "negative_mass_report",
            "mobius": mobius,
            "negative": _Listing(space, result.masks, result.weights),
        })
    summary = f"{result.masks.size} subset(s) carry negative weight; not a belief function"
    # the visible weights below -tol are the report's
    return 0, itertools.chain(_listing_text(mobius, "", mobius.values < -args.tol), _human([summary]))


def _cmd_price(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    pm = _model_from(_read_document(args.model)[0])
    space, gambles = _gambles_from(_read_document(args.gambles)[0])
    if space != pm.space:
        raise SchemaError("model and gamble documents use different spaces")
    rows = [(name, buy(pm, g), sell(pm, g)) for name, g in gambles]
    if args.format == "machine":
        return 0, _machine({
            "space": list(space.labels),
            "prices": [{"name": n, "buy": b, "sell": s} for n, b, s in rows],
        })
    return 0, _human([f"{n}: buy={_fmt(b)} sell={_fmt(s)}" for n, b, s in rows])


def _probe_doc(report: AuditReport) -> dict:
    return {name: asdict(probe) for name, probe in report.coherence.probes.items()}


def _report_doc(args: argparse.Namespace, report: AuditReport, data: bytes) -> dict:
    """The machine report of an audit of ``data``, the bytes read from ``args.model``."""
    space = report.space
    doc: dict[str, Any] = {
        "tool": {"name": "beliefbet", "version": __version__},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "input": {"path": args.model, "sha256": hashlib.sha256(data).hexdigest()},
        "space": list(space.labels),
        "model_kind": report.model_kind,
        "plan": {
            "num_samples": report.plan.num_samples,
            "payoff_range": list(report.plan.payoff_range),
            "seed": report.plan.seed,
            "num_ledgers": report.plan.num_ledgers,
        },
        "tolerances": report.tolerances,
        "coherence_probes": _probe_doc(report),
        "sure_loss_worst": report.sure_loss_worst,
        "is_probability": report.is_probability,
        "probability_witness": (
            None
            if report.probability_witness is None
            else subset_keys(space.labels, report.probability_witness)
        ),
        "is_belief_consistent": report.is_belief_consistent,
    }
    if isinstance(report.induced_mass, MassFunction):
        doc["induced_mass"] = _mass_listing(report.induced_mass)
    else:
        doc["induced_mass"] = None
        negative = report.induced_mass
        doc["negative_mass"] = _Listing(space, negative.masks, negative.weights)
    doc["certificate"] = (
        None
        if report.certificate is None
        else _certificate_doc(space, report.certificate)
    )
    doc["certificate_verified"] = report.certificate_verified
    return doc


def _report_lines(report: AuditReport) -> list[str]:
    space = report.space
    lines = [
        f"model: {report.model_kind} on {{{','.join(space.labels)}}}",
        f"seed {report.plan.seed}, {report.plan.num_samples} samples, tol {_fmt(report.tolerances['tol'])}",
    ]
    for name, probe in report.coherence.probes.items():
        status = "ok" if probe.passed == probe.checked else "FAIL"
        lines.append(
            f"coherence {name}: worst slack {_fmt(probe.worst_slack)} "
            f"({probe.passed}/{probe.checked}) {status}"
        )
    lines.append(f"sure-loss worst exposure: {_fmt(report.sure_loss_worst)}")
    lines.append(f"prices additive (probability): {report.is_probability}")
    if report.probability_witness is not None:
        a, b = report.probability_witness
        union, a, b = subset_keys(space.labels, [a | b, a, b])
        lines.append(f"  {{{union}}} is priced more than tol from its outcome sum (split {{{a}}} + {{{b}}})")
    if report.is_belief_consistent:
        lines.append("VERDICT: belief-consistent")
        lines.append("recovered mass:")
    else:
        lines.append("VERDICT: NOT belief-consistent")
        lines.extend(_certificate_lines(space, report.certificate))
        lines.append(f"certificate verified: {report.certificate_verified}")
    return lines


def _cmd_audit(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    plan = SamplePlan(num_samples=args.samples, seed=args.seed)
    doc, data = _read_document(args.model)
    pm = _model_from(doc)
    report = belief_consistency_audit(pm, plan, tol=args.tol)
    code = 0 if report.is_belief_consistent else 1
    if args.format == "machine":
        return code, _machine(_report_doc(args, report, data))
    text = _human(_report_lines(report))
    if report.is_belief_consistent:
        return code, itertools.chain(text, _listing_text(_mass_listing(report.induced_mass), "  "))
    return code, text


def _cmd_dutchbook(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    pm = _model_from(_read_document(args.model)[0])
    space, ledger = _ledger_from(_read_document(args.ledger)[0])
    if space != pm.space:
        raise SchemaError("model and ledger documents use different spaces")
    profile = exposure_profile(ledger)
    exposure = float(profile.max())
    best = int(np.argmax(profile))
    dutch = exposure < -args.tol
    if args.format == "machine":
        return 0, _machine({
            "space": list(space.labels),
            "exposure": exposure,
            "best_outcome": space.labels[best],
            "profile": {space.labels[i]: float(profile[i]) for i in range(space.n)},
            "dutch_book": bool(dutch),
        })
    lines = [f"exposure: {_fmt(exposure)} (best outcome: {space.labels[best]})"]
    if dutch:
        lines.append("*** DUTCH BOOK: these prices lose at every outcome ***")
    return 0, _human(lines)


# ------------------------------------------------------------------ main


def _tolerance(text: str) -> float:
    """A finite, nonnegative ``--tol``; anything else is malformed input."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"need a finite number >= 0, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("human", "machine"), default="human")
    parser.add_argument("--out", default=None, help="write output to this file")
    parser.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)


@functools.cache  # built once per process; parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefbet",
        description="Price gambles against epistemic uncertainty models and audit their consistency.",
    )
    parser.add_argument("--version", action="version", version=f"beliefbet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="convert between mass and belief tables")
    p.add_argument("input", help="mass, belief table, or model document")
    p.add_argument("--to", choices=("belief", "mass"), required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("price", help="buy and sell prices of gambles under a model")
    p.add_argument("model")
    p.add_argument("gambles")
    _add_common(p)
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("audit", help="full consistency audit of a model")
    p.add_argument("model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=256)
    _add_common(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("dutchbook", help="net exposure of a ledger at quoted prices")
    p.add_argument("model")
    p.add_argument("ledger")
    _add_common(p)
    p.set_defaults(func=_cmd_dutchbook)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        code, pieces = args.func(args)
        _emit(pieces, args.out)
        return code
    except SchemaError as exc:
        print(f"beliefbet: schema error: {exc}", file=sys.stderr)
        return 2
    except EndpointViolationError as exc:
        print(f"beliefbet: endpoint axiom violation: {exc}", file=sys.stderr)
        return 3
    except BeliefBetError as exc:
        print(f"beliefbet: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
