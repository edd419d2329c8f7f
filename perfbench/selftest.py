"""Each output check accepts the real output and rejects a wrong one.

    python3 -m pytest -q perfbench/selftest.py

The workloads run here at small n so the whole file takes a few seconds;
each test takes a correct output, breaks it in one way and expects the
check to fail.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402


class SmallEnvelope(workloads.EnvelopeCliAudit):
    n = 8
    models = 2


class SmallChoquet(workloads.ChoquetAudit):
    n = 9
    models = 2


class SmallTransform(workloads.ChoquetCliTransform):
    n = 9
    models = 2


def ran(cls, tmp_path):
    wl = cls(0, str(tmp_path))
    wl.prepare()
    return wl, [wl.op(i) for i in range(wl.models)]


def rewrite(wl, i, edit):
    path = wl.paths(i)[1]
    report = json.loads(Path(path).read_text())
    edit(report)
    Path(path).write_text(json.dumps(report))


@pytest.fixture
def envelope(tmp_path):
    return ran(SmallEnvelope, tmp_path)


def test_envelope_output_passes(envelope):
    wl, codes = envelope
    for i, code in enumerate(codes):
        wl.check(i, code)


def test_envelope_flipped_exit_code_fails(envelope):
    wl, codes = envelope
    with pytest.raises(checks.CheckFailed, match="exit code"):
        wl.check(0, 0)


def test_envelope_swapped_certificate_fails(envelope):
    wl, codes = envelope

    def swap(report):
        cert = report["certificate"]
        cert["xs"], cert["ys"] = cert["ys"], cert["xs"]

    rewrite(wl, 0, swap)
    with pytest.raises(checks.CheckFailed, match="out-earn"):
        wl.check(0, codes[0])


def test_envelope_perturbed_certificate_gamble_fails(envelope):
    wl, codes = envelope

    def lift(report):
        payoff = report["certificate"]["xs"][0]["payoff"]
        payoff[:] = [v + 0.5 for v in payoff]

    rewrite(wl, 0, lift)
    with pytest.raises(checks.CheckFailed, match="out-earn"):
        wl.check(0, codes[0])


def test_envelope_perturbed_buy_gap_fails(envelope):
    wl, codes = envelope
    rewrite(wl, 0, lambda r: r["certificate"].update(buy_gap=r["certificate"]["buy_gap"] + 1e-6))
    with pytest.raises(checks.CheckFailed, match="buy gap"):
        wl.check(0, codes[0])


def test_envelope_wrong_witness_weight_fails(envelope):
    wl, codes = envelope
    rewrite(wl, 0, lambda r: r["certificate"].update(mass=r["certificate"]["mass"] - 1e-6))
    with pytest.raises(checks.CheckFailed, match="witness weight"):
        wl.check(0, codes[0])


def test_envelope_shifted_negative_entry_fails(envelope):
    wl, codes = envelope

    def shift(report):
        first = next(iter(report["negative_mass"]))
        report["negative_mass"][first] -= 1e-6

    rewrite(wl, 0, shift)
    with pytest.raises(checks.CheckFailed, match="listed"):
        wl.check(0, codes[0])


@pytest.fixture
def choquet(tmp_path):
    wl, reports = ran(SmallChoquet, tmp_path)
    report = reports[0]
    args = dict(
        verdict=report.is_belief_consistent,
        recovered=dict(report.induced_mass.weights),
        probes={k: (p.passed, p.checked) for k, p in report.coherence.probes.items()},
        sure_loss_worst=report.sure_loss_worst,
        generator=wl.masses[0],
        tol=wl.tol,
    )
    return wl, reports, args


def test_choquet_output_passes(choquet):
    wl, reports, args = choquet
    for i, report in enumerate(reports):
        wl.check(i, report)
    checks.check_consistent_audit(**args)


def test_choquet_shifted_recovered_weight_fails(choquet):
    wl, reports, args = choquet
    mask = next(iter(args["generator"]))
    args["recovered"][mask] += 1e-6
    with pytest.raises(checks.CheckFailed, match="weight"):
        checks.check_consistent_audit(**args)


def test_choquet_spurious_focal_set_fails(choquet):
    wl, reports, args = choquet
    extra = next(m for m in range(1, 1 << wl.n) if m not in args["generator"])
    args["recovered"][extra] = 1e-6
    with pytest.raises(checks.CheckFailed, match="not focal"):
        checks.check_consistent_audit(**args)


def test_choquet_flipped_verdict_fails(choquet):
    wl, reports, args = choquet
    args["verdict"] = False
    with pytest.raises(checks.CheckFailed, match="not belief-consistent"):
        checks.check_consistent_audit(**args)


def test_choquet_failed_probe_fails(choquet):
    wl, reports, args = choquet
    name, (passed, checked) = next(iter(args["probes"].items()))
    args["probes"][name] = (passed - 1, checked)
    with pytest.raises(checks.CheckFailed, match="coherence probe"):
        checks.check_consistent_audit(**args)


def test_choquet_sure_loss_fails(choquet):
    wl, reports, args = choquet
    args["sure_loss_worst"] = -1e-3
    with pytest.raises(checks.CheckFailed, match="sure-loss"):
        checks.check_consistent_audit(**args)


@pytest.fixture
def transform(tmp_path):
    return ran(SmallTransform, tmp_path)


def test_transform_output_passes(transform):
    wl, codes = transform
    for i, code in enumerate(codes):
        wl.check(i, code)


def test_transform_flipped_exit_code_fails(transform):
    wl, codes = transform
    with pytest.raises(checks.CheckFailed, match="exit code"):
        wl.check(0, 1)


def heaviest_line(path: Path) -> tuple[list[str], int]:
    lines = path.read_text().splitlines()
    return lines, max(range(len(lines)), key=lambda k: float(lines[k].split(": ")[1]))


def test_transform_shifted_weight_fails(transform):
    wl, codes = transform
    path = Path(wl.paths(0)[1])
    lines, k = heaviest_line(path)
    key, value = lines[k].split(": ")
    lines[k] = f"{key}: {float(value) + 1e-6!r}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="weight"):
        wl.check(0, codes[0])


def test_transform_missing_focal_set_fails(transform):
    wl, codes = transform
    path = Path(wl.paths(0)[1])
    lines, k = heaviest_line(path)
    path.write_text("\n".join(lines[:k] + lines[k + 1:]) + "\n")
    with pytest.raises(checks.CheckFailed, match="not recovered"):
        wl.check(0, codes[0])
