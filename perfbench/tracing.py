"""Spans around the library's public functions, for the traced run.

The tracer replaces each traced function at every binding in the four
modules (``beliefbet.setfn.zeta_transform``, the same function bound as
``beliefbet.previsions.zeta_transform``, ``beliefbet.cli.belief_consistency_audit``
and so on), so calls between modules are recorded as well as calls from
the benchmark. Each call becomes a span (name, start, end, parent, op);
spans stay in memory and are written out when the run ends. A span's self
time is its duration minus the durations of its child spans, which run
one after another inside it.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from typing import Any, Callable

import beliefbet
import beliefbet.audit
import beliefbet.cli
import beliefbet.previsions
import beliefbet.setfn

MODULES = (beliefbet.setfn, beliefbet.previsions, beliefbet.audit, beliefbet.cli)

#: Functions that get a span, by defining module.
TRACED = {
    beliefbet.setfn: ("zeta_transform", "mobius_transform", "belief_to_mass"),
    beliefbet.previsions: ("induced_set_function", "buy_batch", "buy"),
    beliefbet.audit: (
        "coherence_probe",
        "belief_consistency_audit",
        "certificate_from_negative_mass",
        "certificate_from_choquet_gap",
        "verify_certificate",
    ),
    beliefbet.cli: ("main",),
}

#: Spans whose self times add up to ``audit.certificate.self_s``.
CERTIFICATE_SPANS = ("audit.certificate_from_negative_mass", "audit.certificate_from_choquet_gap")

_MB = 1e6


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def _wrap(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            sid = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.op))
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function with its wrapper."""
        for home, names in TRACED.items():
            layer = home.__name__.rsplit(".", 1)[-1]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, self._after(fname))
                for module in MODULES:
                    if getattr(module, fname, None) is original:
                        self._restore.append((module, fname, original))
                        setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._restore):
            setattr(module, fname, original)
        self._restore.clear()

    def _after(self, fname: str) -> Callable | None:
        if fname in ("zeta_transform", "mobius_transform"):
            return lambda args, out: self.count("setfn.kernel_bytes", out.nbytes)
        if fname == "buy_batch":
            return lambda args, out: self.count("previsions.buy_batch.rows", out.shape[0])
        if fname == "belief_consistency_audit":
            return lambda args, report: self._audit_counts(report)
        return None

    def _audit_counts(self, report: beliefbet.AuditReport) -> None:
        if isinstance(report.induced_mass, beliefbet.MassFunction):
            self.count("audit.recovered_focal_sets", len(report.induced_mass.weights))
        else:
            self.count("audit.negative_entries", len(report.induced_mass.entries))
        if report.certificate is not None:
            cert = report.certificate
            self.count("audit.certificate_gambles", len(cert.xs) + len(cert.ys))

    def self_times(self, ops: int) -> dict[str, list[float]]:
        """Self time of each span name, summed per op: name -> [op0, op1, ...]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_op: dict[str, list[float]] = defaultdict(lambda: [0.0] * ops)
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            per_op[name][op] += end - start - child[sid]
        return per_op

    def layer_metrics(self, ops: int, generator_focal_sets: int) -> dict[str, float]:
        """Per-op figures: counts are means over whole rounds, times medians.

        Counters are integers until this division, so a count repeats
        exactly however many rounds a run makes.
        """
        selfs = self.self_times(ops)
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        metrics: dict[str, float] = {}
        for home, names in TRACED.items():
            layer = home.__name__.rsplit(".", 1)[-1]
            for fname in names:
                name = f"{layer}.{fname}"
                metrics[f"{name}.calls"] = calls[name] / ops
                metrics[f"{name}.self_s"] = statistics.median(selfs[name])
        cert = [sum(v) for v in zip(*(selfs[n] for n in CERTIFICATE_SPANS))]
        metrics["audit.certificate.self_s"] = statistics.median(cert)
        for name in ("previsions.buy_batch.rows", "audit.recovered_focal_sets",
                     "audit.negative_entries", "audit.certificate_gambles"):
            metrics[name] = self.counts[name] / ops
        metrics["setfn.kernel_mb_computed"] = self.counts["setfn.kernel_bytes"] / ops / _MB
        metrics["cli.output_mb"] = self.counts["cli.output_bytes"] / ops / _MB
        recovered = self.counts["audit.recovered_focal_sets"]
        metrics["audit.focal_yield"] = generator_focal_sets * ops / recovered if recovered else 0.0
        return metrics

    def dump(self, path: str) -> None:
        """Write the spans as JSON: one [name, start, end, parent, op] per call."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
