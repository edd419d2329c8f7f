"""Compare the command line outputs of two checkouts of beliefbet byte for byte.

    python scripts/compare_outputs.py --base CHECKOUT [--docs N]

Writes N seeded documents on 2 to 12 outcomes, cycling through six kinds:
linear models, Choquet models with 1-40 focal sets, lower envelopes of 2-4
rows, near-copy two-row envelopes, belief tables carrying Moebius noise of
up to 1.6 tol, and belief tables of a signed mass. Every fifth document
labels its outcomes with text that JSON escapes or that is not ASCII (a
quote, a backslash, a tab, "é", "Ω"). Every 23rd document is wide: it has
13 to 16 outcomes, so the lattice butterfly runs its turned low-bit blocks
on it, and a wide Choquet model has 150-600 focal sets, so the Choquet
pricer crosses several blocks of focal sets; 23 is prime to 5 and 6, so the
wide documents take every kind, with and without escaped labels. These
choices follow the document index and change no draw of any other
document. Two documents past the count are run as well: below ``--docs 184``
document 183, a wide near-copy envelope, the first whose negative-mass
certificate takes a deletion family of more than two sets (1,024 gambles),
and below ``--docs 466`` document 465, a near-copy envelope on 10 outcomes
whose default audit reports a probability witness split away from its
union's lowest outcome: of the three splits of {o1,o3,o7} only the one at
o7 is priced more than tol from additive. Its certificate takes 16 gambles.
Five more documents are run at every count. Two are core-vertex
envelopes on 5 outcomes: the lower envelope of all 120 vertices of the core
of a belief function with positive mass on every nonempty subset, and the
same envelope with one vertex dropped, whose sampled default audit calls it
belief-consistent although the missing vertex prices a gamble above its
Choquet value. The third is a Choquet model on 8 outcomes with 0.9e-9 on
each of its 247 subsets of two or more outcomes: no weight exceeds tol, but
its prices are not additive within tol, so it is not a probability. The
last two, the high-byte documents, have subset keys that name outcomes 16
and up, the third byte of a mask, which no other document has: a Choquet
model on 18 escaped labels whose focal sets hold outcomes 16 and 17 (its
belief table lists all 2^18 keys) and a 4-row lower envelope on 17
outcomes whose negative-mass listing names outcome 16. Their listings are
long, so they are audited and transformed with the first flag set below
only.

Every model document is audited in human and machine format, with default
flags, with ``--seed 7 --samples 64 --tol 1e-7`` and with ``--tol 0``, and it
prices a seeded gamble document (``price``) and scores a seeded, nonempty
ledger document (``dutchbook``) in both formats; those two documents come
from a stream of their own, so they change no draw of the model documents.
Every document goes through ``transform --to mass`` in both formats at
``--tol`` 1e-9, 1e-12 and 0, and every Choquet document through ``transform
--to belief`` in both formats. So a Choquet document gives 18 runs, any
other model document 16 and a belief table 6, and the high-byte Choquet
model 10 and envelope 8: 5,298 at the default ``--docs 400`` (406
documents, with 465, the two core-vertex envelopes, the dense Choquet model
and the two high-byte documents) and 256 at ``--docs 12`` (19 documents,
with 183 and 465 as well).
The ``--seed 7`` audits and the ``--tol 1e-12`` transforms write through
``--out``, each runner to its own file; for them the file's text is the
output, and their stdout, which must stay empty, is compared as well.

The runs execute once against this checkout's ``src`` and once against the
base checkout's, each checkout in one subprocess. A run's exit code, its
output without the timestamp line, and its stderr must all match. The script
prints each differing run with the first line where the base and this
checkout part, then this checkout's exit codes per document kind, first of
the runs at the default tol (no ``--tol``, or ``--tol 1e-9``), then of the
``--tol 0`` runs, then how many outputs it compared and how many differ, and
exits 1 when any differ.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TOL = 1e-9
CORPUS_SEED = 2024
KINDS = ("linear", "choquet", "envelope", "near_copy", "noisy_belief", "signed_belief")
#: Label stems that JSON writes escaped or that are not ASCII.
ESCAPED_STEMS = ('a"b', "back\\slash", "tab\there", "é", "Ω", " lead")
ESCAPED_EVERY = 5
WIDE_EVERY = 23
#: Each is run below ``--docs`` one past it, so that small counts reach rare
#: audit paths too: 183 a large deletion family, 465 a probability witness
#: split away from its union's lowest outcome.
RARE_BRANCHES = (183, 465)
#: The kind of the core-vertex envelopes, and the row the second one drops.
VERTEX_KIND = "core_vertex"
VERTEX_DROPPED = 11
#: The kind of the dense Choquet model, its outcome count and the weight on
#: each of its subsets of two or more outcomes.
DENSE_KIND = "dense_choquet"
DENSE_N = 8
DENSE_WEIGHT = 0.9e-9
#: The kind of the documents whose subset keys name outcomes 16 and up, the
#: third byte of a mask; the focal sets of its Choquet model on
#: HIGH_CHOQUET_N outcomes and the outcome count of its envelope.
HIGH_KIND = "high_byte"
HIGH_CHOQUET_N = 18
HIGH_FOCAL = ((16,), (17,), (0, 16), (8, 17), (1, 9, 16, 17), tuple(range(HIGH_CHOQUET_N)))
HIGH_ENVELOPE_N = 17

#: Stands for the runner's own output file in a job's argument vector.
OUT = "<out>"
ZERO_TOL = ["--tol", "0"]
AUDIT_FLAGS = ([], ["--seed", "7", "--samples", "64", "--tol", "1e-7", "--out", OUT], ZERO_TOL)
TRANSFORM_FLAGS = (["--tol", "1e-9"], ["--tol", "1e-12", "--out", OUT], ZERO_TOL)
FORMATS = ("human", "machine")

# Runs a list of argument vectors through one checkout's cli.main in a single
# process and writes [exit code, output, stderr, stdout beside --out] per run,
# the texts as digests in "digest" mode and as they are in "text" mode. A
# job's OUT argument becomes the runner's own file, and the job's output is the
# text written there (None when no file was written); any other job's output
# is its stdout.
_RUNNER = r"""
import contextlib, hashlib, io, json, os, sys

src, jobs_path, out_path, mode, file_path, placeholder = sys.argv[1:7]
sys.path.insert(0, src)
import beliefbet.cli

if not os.path.abspath(beliefbet.cli.__file__).startswith(os.path.abspath(src) + os.sep):
    raise SystemExit(f"beliefbet was imported from {beliefbet.cli.__file__}, not {src}")


def kept(text):
    if text is None:
        return None
    body = "".join(line for line in text.splitlines(keepends=True)
                   if not line.lstrip().startswith('"timestamp":'))
    return body if mode == "text" else hashlib.sha256(body.encode()).hexdigest()


with open(jobs_path) as fh:
    jobs = json.load(fh)
results = []
for argv in jobs:
    to_file = placeholder in argv
    argv = [file_path if arg == placeholder else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = beliefbet.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    written = None
    if to_file and os.path.exists(file_path):
        with open(file_path, "rb") as fh:
            written = fh.read().decode("utf-8")
        os.remove(file_path)
    output, beside = (written, out.getvalue()) if to_file else (out.getvalue(), "")
    results.append([code, kept(output), kept(err.getvalue()), kept(beside)])
with open(out_path, "w") as fh:
    json.dump(results, fh)
"""


def _normalized(raw: np.ndarray) -> np.ndarray:
    return raw / math.fsum(raw.tolist())


def _key(labels: list[str], mask: int) -> str:
    return ",".join(lab for i, lab in enumerate(labels) if mask >> i & 1)


def _random_masks(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    count = min(count, (1 << n) - 1)
    return 1 + rng.choice((1 << n) - 1, size=count, replace=False)


def _belief_values(n: int, masks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Bel(A) = sum of the weights of the masks inside A."""
    subsets = np.arange(1 << n)
    inside = (masks[None, :] & ~subsets[:, None]) == 0
    return inside.astype(float) @ weights


def _belief_doc(labels: list[str], values: np.ndarray) -> dict:
    values[0] = 0.0
    return {
        "space": labels,
        "kind": "belief",
        "values": {_key(labels, m): float(v) for m, v in enumerate(values)},
    }


def make_document(seed: int, index: int) -> dict:
    """Seeded document number ``index``; its kind cycles through KINDS."""
    rng = np.random.default_rng([seed, index])
    kind = KINDS[index % len(KINDS)]
    wide = index % WIDE_EVERY == WIDE_EVERY - 1
    n = int(rng.integers(13, 17) if wide else rng.integers(2, 13))
    if index % ESCAPED_EVERY == ESCAPED_EVERY - 1:
        labels = [f"{ESCAPED_STEMS[i % len(ESCAPED_STEMS)]}{i}" for i in range(n)]
    else:
        labels = [f"o{i}" for i in range(n)]
    if kind == "linear":
        return {"space": labels, "kind": "linear",
                "prob": _normalized(rng.uniform(0.05, 1.0, n)).tolist()}
    if kind == "choquet":
        focal = rng.integers(150, 601) if wide else rng.integers(1, 41)
        masks = _random_masks(rng, n, int(focal))
        weights = _normalized(rng.uniform(0.05, 1.0, masks.size))
        return {"space": labels, "kind": "choquet",
                "mass": {_key(labels, int(m)): float(w) for m, w in zip(masks, weights)}}
    if kind == "envelope":
        rows = [_normalized(rng.uniform(0.05, 1.0, n)).tolist()
                for _ in range(int(rng.integers(2, 5)))]
        return {"space": labels, "kind": "lower_envelope", "rows": rows}
    if kind == "near_copy":
        p = _normalized(rng.uniform(0.05, 1.0, n))
        d = rng.normal(size=n)
        d -= d.mean()
        d *= 10.0 ** rng.uniform(-11, -8) / np.abs(d).max()
        return {"space": labels, "kind": "lower_envelope",
                "rows": [p.tolist(), _normalized(p + d).tolist()]}
    singletons = 1 << np.arange(n)
    if kind == "noisy_belief":
        # a probability or a Choquet mass, plus sub- and supra-tolerance noise
        if rng.random() < 0.5:
            masks, weights = singletons, _normalized(rng.uniform(0.05, 1.0, n))
        else:
            masks = _random_masks(rng, n, int(rng.integers(1, 41)))
            weights = _normalized(rng.uniform(0.05, 1.0, masks.size))
        noisy = _random_masks(rng, n, int(rng.integers(1, 9)))
        noise = rng.uniform(-1.6, 1.6, noisy.size) * DEFAULT_TOL
        masks = np.concatenate([masks, noisy, singletons[:1]])
        weights = np.concatenate([weights, noise, [-math.fsum(noise.tolist())]])
        return _belief_doc(labels, _belief_values(n, masks, weights))
    # signed mass: some weights clearly negative, all summing to one
    masks = _random_masks(rng, n, int(rng.integers(2, 21)))
    raw = rng.uniform(0.05, 1.0, masks.size)
    raw[rng.random(masks.size) < 0.3] *= -0.4
    return _belief_doc(labels, _belief_values(n, masks, raw / math.fsum(raw.tolist())))


def core_vertex_documents() -> tuple[dict, dict]:
    """The lower envelope of every vertex of core(Bel), for the Bel of weights
    drawn by ``default_rng(0)`` on all 31 nonempty subsets of 5 outcomes, and
    the same envelope without row ``VERTEX_DROPPED``. The vertex of an
    ordering s of the outcomes pays s_k the increment Bel({s_1..s_k}) -
    Bel({s_1..s_(k-1)}); the rows follow ``itertools.permutations`` order."""
    n = 5
    masks = np.arange(1, 1 << n)
    bel = _belief_values(n, masks, _normalized(np.random.default_rng(0).uniform(0.05, 1.0, masks.size)))
    rows = []
    for order in itertools.permutations(range(n)):
        row = np.zeros(n)
        row[list(order)] = np.diff(bel[np.cumsum(1 << np.array(order))], prepend=0.0)
        rows.append(row.tolist())
    labels = [f"o{i}" for i in range(n)]
    return ({"space": labels, "kind": "lower_envelope", "rows": rows},
            {"space": labels, "kind": "lower_envelope",
             "rows": rows[:VERTEX_DROPPED] + rows[VERTEX_DROPPED + 1:]})


def dense_choquet_document() -> dict:
    """A Choquet model on ``DENSE_N`` outcomes with ``DENSE_WEIGHT`` on each of
    its 247 subsets of two or more outcomes and the rest shared equally by
    the singletons: no weight exceeds tol, yet the full set is priced
    247 x 0.9e-9 = 2.2e-7 above the sum of its outcome prices."""
    labels = [f"o{i}" for i in range(DENSE_N)]
    masks = np.arange(1, 1 << DENSE_N)
    singles = np.bitwise_count(masks) == 1
    weights = np.where(singles, (1.0 - (~singles).sum() * DENSE_WEIGHT) / DENSE_N, DENSE_WEIGHT)
    return {"space": labels, "kind": "choquet",
            "mass": {_key(labels, int(m)): float(w) for m, w in zip(masks, weights)}}


def high_byte_documents() -> tuple[dict, dict]:
    """A Choquet model on ``HIGH_CHOQUET_N`` escaped labels with its focal sets
    in ``HIGH_FOCAL``, weights drawn by ``default_rng(HIGH_CHOQUET_N)``, and a
    4-row envelope on ``HIGH_ENVELOPE_N`` outcomes, rows drawn by
    ``default_rng(HIGH_ENVELOPE_N)``, whose negative-mass listing names
    outcome 16."""
    n = HIGH_CHOQUET_N
    labels = [f"{ESCAPED_STEMS[i % len(ESCAPED_STEMS)]}{i}" for i in range(n)]
    weights = _normalized(np.random.default_rng(n).uniform(0.05, 1.0, len(HIGH_FOCAL)))
    choquet = {"space": labels, "kind": "choquet",
               "mass": {",".join(labels[i] for i in focal): float(w)
                        for focal, w in zip(HIGH_FOCAL, weights)}}
    n = HIGH_ENVELOPE_N
    rows = [_normalized(row).tolist() for row in np.random.default_rng(n).uniform(0.05, 1.0, (4, n))]
    return choquet, {"space": [f"o{i}" for i in range(n)], "kind": "lower_envelope", "rows": rows}


def make_bets(seed: int, index: int, labels: list[str], stream: int = 1) -> tuple[dict, dict]:
    """Seeded gamble and ledger documents on the space of document ``index``,
    drawn from a stream of their own (stream 2, indices 0 to 4, for the
    core-vertex envelopes, the dense Choquet model and the high-byte
    documents).
    Every other gamble is left unnamed, and the ledger holds 1-3 buys and 0-3
    sells at prices drawn on [-1, 1]."""
    rng = np.random.default_rng([seed, index, stream])
    n = len(labels)
    gambles = [{"payoff": rng.uniform(-1.0, 1.0, n).tolist()}
               for _ in range(int(rng.integers(1, 6)))]
    for j in range(0, len(gambles), 2):
        gambles[j]["name"] = f"bet{j}"

    def side(count: int) -> list[dict]:
        return [{"payoff": rng.uniform(-1.0, 1.0, n).tolist(), "price": float(rng.uniform(-1.0, 1.0))}
                for _ in range(count)]

    ledger = {"space": labels, "buys": side(int(rng.integers(1, 4))),
              "sells": side(int(rng.integers(0, 4)))}
    return {"space": labels, "gambles": gambles}, ledger


def jobs_for(doc: dict, path: str, gambles: str, ledger: str, flag_sets: int = 3) -> list[list[str]]:
    """The runs of the document ``doc`` written at ``path``; ``gambles`` and
    ``ledger`` are the paths of its :func:`make_bets` documents, read when
    ``doc`` is a model. Audits and ``transform --to mass`` take the first
    ``flag_sets`` of their flag sets."""
    jobs = []
    if doc["kind"] != "belief":
        for flags in AUDIT_FLAGS[:flag_sets]:
            for fmt in FORMATS:
                jobs.append(["audit", path, "--format", fmt, *flags])
        for fmt in FORMATS:
            jobs.append(["price", path, gambles, "--format", fmt])
            jobs.append(["dutchbook", path, ledger, "--format", fmt])
    for flags in TRANSFORM_FLAGS[:flag_sets]:
        for fmt in FORMATS:
            jobs.append(["transform", path, "--to", "mass", "--format", fmt, *flags])
    if doc["kind"] == "choquet":
        for fmt in FORMATS:
            jobs.append(["transform", path, "--to", "belief", "--format", fmt])
    return jobs


def _run_both(
    work: Path, jobs: list[list[str]], base_src: Path, mode: str
) -> tuple[list, list] | None:
    """[exit code, stdout, stderr] per job from this checkout and from the base."""
    (work / "jobs.json").write_text(json.dumps(jobs))
    procs = {
        name: subprocess.Popen(
            [sys.executable, "-c", _RUNNER, str(src), str(work / "jobs.json"),
             str(work / f"{name}.json"), mode, str(work / f"{name}.out"), OUT],
            cwd=work,
        )
        for name, src in (("head", ROOT / "src"), ("base", base_src))
    }
    for name, proc in procs.items():
        if proc.wait() != 0:
            print(f"the {name} checkout's runner exited {proc.returncode}", file=sys.stderr)
            return None
    return (json.loads((work / "head.json").read_text()),
            json.loads((work / "base.json").read_text()))


def first_difference(base: str | None, head: str | None) -> tuple[str, str]:
    """The first line where two texts part, "<end>" standing for a missing line
    and "<no file>" for an --out file that was not written."""
    base_lines, head_lines = (["<no file>"] if t is None else t.splitlines() for t in (base, head))
    for b, h in itertools.zip_longest(base_lines, head_lines, fillvalue="<end>"):
        if b != h:
            return b, h
    return "<end>", "<end>"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="checkout to compare this one with")
    parser.add_argument("--docs", type=int, default=400, help="number of documents")
    args = parser.parse_args(argv)
    base_src = Path(args.base).resolve() / "src"
    if not (base_src / "beliefbet" / "cli.py").is_file():
        parser.error(f"{args.base} has no src/beliefbet/cli.py")

    corpus = []  # (file name stem, kind, document, its gamble and ledger documents)
    for index in list(range(args.docs)) + [i for i in RARE_BRANCHES if i >= args.docs]:
        doc = make_document(CORPUS_SEED, index)
        corpus.append((f"{index:04d}", KINDS[index % len(KINDS)], doc,
                       make_bets(CORPUS_SEED, index, doc["space"])))
    for k, (name, doc) in enumerate(zip(("-vertex-all", f"-vertex-drop{VERTEX_DROPPED}"),
                                        core_vertex_documents())):
        corpus.append((name, VERTEX_KIND, doc, make_bets(CORPUS_SEED, k, doc["space"], stream=2)))
    dense = dense_choquet_document()
    corpus.append(("-dense", DENSE_KIND, dense, make_bets(CORPUS_SEED, 2, dense["space"], stream=2)))
    for k, doc in enumerate(high_byte_documents(), start=3):
        corpus.append((f"-high-{doc['kind']}", HIGH_KIND, doc,
                       make_bets(CORPUS_SEED, k, doc["space"], stream=2)))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        jobs, kinds = [], []
        for name, kind, doc, bets in corpus:
            paths = [work / f"{stem}{name}.json" for stem in ("doc", "gambles", "ledger")]
            for path, written in zip(paths, (doc, *bets)):
                path.write_text(json.dumps(written))
            # the high-byte documents take only the default flags: their long
            # listings would make every other flag set cost seconds
            doc_jobs = jobs_for(doc, *map(str, paths), flag_sets=1 if kind == HIGH_KIND else 3)
            jobs.extend(doc_jobs)
            kinds.extend([kind] * len(doc_jobs))
        digests = _run_both(work, jobs, base_src, "digest")
        if digests is None:
            return 2
        differ = [argv for argv, h, b in zip(jobs, *digests) if h != b]
        texts = _run_both(work, differ, base_src, "text") if differ else ([], [])
        if texts is None:
            return 2

    fields = ("exit code", "output", "stderr", "stdout beside --out")
    for argv, h, b in zip(differ, *texts):
        which = [k for k, (x, y) in enumerate(zip(h, b)) if x != y]
        names = ", ".join(fields[k] for k in which)
        print(f"differs ({names}): beliefbet {' '.join(Path(a).name for a in argv)}")
        for k in which[:1]:
            base_line, head_line = (
                (f"exit {b[0]}", f"exit {h[0]}") if k == 0 else first_difference(b[k], h[k])
            )
            print(f"  base:   {base_line}\n  change: {head_line}")
    tallies = {tol: {kind: Counter() for kind in (*KINDS, VERTEX_KIND, DENSE_KIND, HIGH_KIND)}
               for tol in (DEFAULT_TOL, 0.0)}
    for argv, kind, (code, *_) in zip(jobs, kinds, digests[0]):
        tol = float(argv[argv.index("--tol") + 1]) if "--tol" in argv else DEFAULT_TOL
        if tol in tallies:
            tallies[tol][kind][code if isinstance(code, int) else "raised"] += 1
    for tol, tally in tallies.items():
        for kind, codes in tally.items():
            if codes:
                counts = ", ".join(f"{code} x{count}" for code, count in sorted(codes.items(), key=str))
                print(f"{'default tol' if tol else 'tol 0'}, {kind}: exit {counts}")
    print(f"compared {len(jobs)} outputs over {len(corpus)} documents: {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
