"""The benchmark's workloads: seeded inputs, the timed operation, its
output fingerprint and its output check.

One seed draws ``models`` inputs from one ``numpy.random.default_rng``
stream; a round runs the operation once on each, in order. Input 0 of
seed s is the model ``default_rng(s)`` draws first, so figures quoted for
"seed s" elsewhere describe it. Spreading a run over several inputs keeps
the per-run median from following one input's focal-set count.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Any

import numpy as np

import beliefbet
import beliefbet.audit
import beliefbet.cli

import checks

#: Focal sets per generated Choquet model.
FOCAL_SETS = 64
#: Rows per generated lower envelope.
ENVELOPE_ROWS = 4

_TIMESTAMP = re.compile(rb'\n  "timestamp": "[^"\n]*",')


def labels_of(n: int) -> list[str]:
    return [f"o{i}" for i in range(n)]


def subset_key(labels: list[str], mask: int) -> str:
    return ",".join(label for i, label in enumerate(labels) if mask >> i & 1)


def draw_mass(rng: np.random.Generator, n: int) -> dict[int, float]:
    """64 distinct focal sets uniform over the nonempty subsets, weights
    uniform on (0.05, 1) and normalised."""
    masks = rng.choice((1 << n) - 1, size=FOCAL_SETS, replace=False) + 1
    weights = rng.uniform(0.05, 1.0, size=FOCAL_SETS)
    weights = weights / weights.sum()
    return {int(m): float(w) for m, w in zip(masks, weights)}


def draw_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """Four probability rows, entries uniform on (0.05, 1) and normalised."""
    rows = rng.uniform(0.05, 1.0, size=(ENVELOPE_ROWS, n))
    return rows / rows.sum(axis=1, keepdims=True)


class Workload:
    """A closed loop over ``models`` seeded inputs, one operation at a time."""

    name: str
    n: int
    models: int
    #: Focal sets the generator puts into one input (0 if not a mass).
    focal_sets = 0

    def __init__(self, seed: int, workdir: str) -> None:
        self.labels = labels_of(self.n)
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.tol = beliefbet.DEFAULT_TOL
        self.exact_tol = beliefbet.EXACT_TOL

    def prepare(self) -> None:
        """Draw the inputs and write any documents the operation reads."""
        raise NotImplementedError

    def op(self, i: int) -> Any:
        """One user-level call on input ``i``; returns its raw result."""
        raise NotImplementedError

    def fingerprint(self, i: int, result: Any) -> bytes:
        """Digest of everything the call produced, minus the timestamp."""
        raise NotImplementedError

    def check(self, i: int, result: Any) -> None:
        """Recompute the expected output of input ``i`` and compare."""
        raise NotImplementedError

    def output_bytes(self, i: int, result: Any) -> int:
        """Bytes the call wrote, for the ``cli.output_mb`` counter."""
        return 0


class ChoquetAudit(Workload):
    """``belief_consistency_audit`` on a 64-focal Choquet model."""

    name = "audit-choquet-consistent"
    n = 14
    models = 16
    focal_sets = FOCAL_SETS

    def prepare(self) -> None:
        space = beliefbet.make_space(self.labels)
        self.masses = [draw_mass(self.rng, self.n) for _ in range(self.models)]
        self.inputs = [beliefbet.ChoquetModel(beliefbet.MassFunction(space, m))
                       for m in self.masses]

    def op(self, i: int) -> beliefbet.AuditReport:
        return beliefbet.audit.belief_consistency_audit(self.inputs[i], tol=self.tol)

    def fingerprint(self, i: int, report: beliefbet.AuditReport) -> bytes:
        mass = report.induced_mass
        doc = {
            "consistent": report.is_belief_consistent,
            "mass": [[m, w.hex()] for m, w in mass.weights.items()],
            "probes": {k: [p.worst_slack.hex(), p.checked, p.passed]
                       for k, p in report.coherence.probes.items()},
            "sure_loss": float(report.sure_loss_worst).hex(),
            "probability": [report.is_probability, report.probability_witness],
            "certificate": report.certificate is not None,
        }
        return hashlib.sha256(json.dumps(doc).encode()).digest()

    def check(self, i: int, report: beliefbet.AuditReport) -> None:
        checks.require(isinstance(report.induced_mass, beliefbet.MassFunction),
                       "the recovered mass has negative entries")
        probes = {k: (p.passed, p.checked) for k, p in report.coherence.probes.items()}
        checks.check_consistent_audit(
            report.is_belief_consistent, report.induced_mass.weights, probes,
            report.sure_loss_worst, self.masses[i], self.tol,
        )


class CliWorkload(Workload):
    """A ``cli.main`` call that reads document i and writes output i."""

    def paths(self, i: int) -> tuple[str, str]:
        return (os.path.join(self.workdir, f"input{i}.json"),
                os.path.join(self.workdir, f"output{i}.txt"))

    def write_documents(self, docs: list[dict]) -> None:
        for i, doc in enumerate(docs):
            with open(self.paths(i)[0], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

    def read_output(self, i: int) -> bytes:
        with open(self.paths(i)[1], "rb") as fh:
            return fh.read()

    def fingerprint(self, i: int, code: int) -> bytes:
        body = _TIMESTAMP.sub(b"", self.read_output(i), count=1)
        return hashlib.sha256(str(code).encode() + b"\0" + body).digest()

    def output_bytes(self, i: int, code: int) -> int:
        return os.path.getsize(self.paths(i)[1])


class EnvelopeCliAudit(CliWorkload):
    """``beliefbet audit --format machine`` on a 4-row lower envelope."""

    name = "cli-audit-envelope-machine"
    n = 16
    models = 8

    def prepare(self) -> None:
        self.rows = [draw_rows(self.rng, self.n) for _ in range(self.models)]
        self.write_documents([
            {"space": self.labels, "kind": "lower_envelope", "rows": r.tolist()}
            for r in self.rows
        ])

    def op(self, i: int) -> int:
        doc, out = self.paths(i)
        return beliefbet.cli.main(["audit", doc, "--format", "machine", "--out", out])

    def check(self, i: int, code: int) -> None:
        report = json.loads(self.read_output(i))
        checks.check_envelope_audit(code, report, self.rows[i], self.labels,
                                    self.tol, self.exact_tol)


class ChoquetCliTransform(CliWorkload):
    """``beliefbet transform --to mass`` on a wide 64-focal Choquet document."""

    name = "cli-transform-choquet-wide"
    n = 22
    models = 4

    def prepare(self) -> None:
        self.masses = [draw_mass(self.rng, self.n) for _ in range(self.models)]
        self.write_documents([
            {"space": self.labels, "kind": "choquet",
             "mass": {subset_key(self.labels, m): w for m, w in mass.items()}}
            for mass in self.masses
        ])

    def op(self, i: int) -> int:
        doc, out = self.paths(i)
        return beliefbet.cli.main(["transform", doc, "--to", "mass", "--out", out])

    def check(self, i: int, code: int) -> None:
        text = self.read_output(i).decode("utf-8")
        checks.check_transform(code, text, self.labels, self.masses[i], self.tol)


WORKLOADS = {w.name: w for w in (ChoquetAudit, EnvelopeCliAudit, ChoquetCliTransform)}
