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
document. Every model document is
audited in human and machine format, with default flags and with
``--seed 7 --samples 64 --tol 1e-7``; every document goes through
``transform --to mass`` in both formats at ``--tol`` 1e-9 and 1e-12. The
``--seed 7`` audits and the ``--tol 1e-12`` transforms write through
``--out``, each runner to its own file; for them the file's text is the
output, and their stdout, which must stay empty, is compared as well.

The runs execute once against this checkout's ``src`` and once against the
base checkout's, each checkout in one subprocess. A run's exit code, its
output without the timestamp line, and its stderr must all match. The script
prints each differing run with the first line where the base and this
checkout part, then how many outputs it compared and how many differ, and
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

#: Stands for the runner's own output file in a job's argument vector.
OUT = "<out>"
AUDIT_FLAGS = ([], ["--seed", "7", "--samples", "64", "--tol", "1e-7", "--out", OUT])
TRANSFORM_FLAGS = (["--tol", "1e-9"], ["--tol", "1e-12", "--out", OUT])
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


def jobs_for(path: str, doc: dict) -> list[list[str]]:
    jobs = []
    if doc["kind"] != "belief":
        for flags in AUDIT_FLAGS:
            for fmt in FORMATS:
                jobs.append(["audit", path, "--format", fmt, *flags])
    for flags in TRANSFORM_FLAGS:
        for fmt in FORMATS:
            jobs.append(["transform", path, "--to", "mass", "--format", fmt, *flags])
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

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        jobs = []
        for index in range(args.docs):
            path = work / f"doc{index:04d}.json"
            doc = make_document(CORPUS_SEED, index)
            path.write_text(json.dumps(doc))
            jobs.extend(jobs_for(str(path), doc))
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
    print(f"compared {len(jobs)} outputs over {args.docs} documents: {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
