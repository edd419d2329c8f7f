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


#: Entries per piece of a streamed subset listing.
_LISTING_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class _Listing:
    """A subset-keyed block of a machine document: ascending masks, one float each."""

    space: OutcomeSpace
    masks: np.ndarray
    values: np.ndarray


def _listing_text(listing: _Listing) -> Iterator[str]:
    """The block as json.dumps(indent=2) writes it one level down, in chunks
    of _LISTING_CHUNK entries. The byte tables are built once per listing,
    with the separator and opening quote before each key and the closing
    quote and colon after it. A chunk is one join of its entries' pieces:
    the key pieces gathered from those tables, then the value's
    float.__repr__, as json writes it, or JSON's spelling of a nonfinite
    value."""
    if not listing.masks.size:
        yield "{}"
        return
    # JSON escapes a string one character at a time, so a key built from the
    # escaped labels is the escaped key
    escaped = [encode_basestring_ascii(label)[1:-1] for label in listing.space.labels]
    tables = _key_tables(escaped, ',\n    "', '": ')
    width = len(tables) + 1
    for lo in range(0, listing.masks.size, _LISTING_CHUNK):
        values = listing.values[lo : lo + _LISTING_CHUNK]
        texts = list(map(float.__repr__, values.tolist()))
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            texts[i] = json.dumps(float(values[i]))  # NaN, Infinity, -Infinity
        pieces = [""] * (width * len(texts))
        for j, column in enumerate(_key_pieces(tables, listing.masks[lo : lo + _LISTING_CHUNK])):
            pieces[j::width] = column.tolist()
        pieces[width - 1 :: width] = texts
        if not lo:  # the first entry opens the block instead of following one
            pieces[0] = "{" + pieces[0][1:]
        yield "".join(pieces)
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


def _listing_lines(listing: _Listing) -> list[str]:
    keys = subset_keys(listing.space.labels, listing.masks)
    return [f"{{{k}}}: {_fmt(v)}" for k, v in zip(keys, listing.values.tolist())]


def _mass_output(args: argparse.Namespace, mass: MassFunction) -> Iterable[str]:
    """The ``transform --to mass`` listing of a mass function."""
    if args.format == "machine":
        return _machine({"space": list(mass.space.labels), "kind": "mass", "mass": _mass_listing(mass)})
    return _human(_listing_lines(_mass_listing(mass)))


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
        return 0, _human(_listing_lines(values))

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
    lines = _listing_lines(mobius)
    for i in np.flatnonzero(np.isin(visible, result.masks)).tolist():
        lines[i] += "  NEGATIVE"
    lines.append(f"{result.masks.size} subset(s) carry negative weight; not a belief function")
    return 0, _human(lines)


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
        lines.extend("  " + line for line in _listing_lines(_mass_listing(report.induced_mass)))
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
    return code, _human(_report_lines(report))


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
