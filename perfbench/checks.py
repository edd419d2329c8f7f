"""Output checks that recompute each answer without the library.

Every check here derives the expected result from the generated inputs
(focal weights, envelope rows) with plain numpy and ``math.fsum``; none
of them calls into ``beliefbet`` or compares against a stored output. A
check raises :class:`CheckFailed` with a reason, or returns None.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

#: Number of listed negative-mass entries recomputed per envelope report.
SPOT_CHECKS = 16


class CheckFailed(Exception):
    """An output that the benchmark's own recomputation contradicts."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def mask_of(key: str, index: Mapping[str, int]) -> int:
    """Mask of a comma-joined subset key such as ``"o1,o4"``."""
    mask = 0
    for label in key.split(",") if key else ():
        require(label in index, f"unknown label {label!r} in subset key {key!r}")
        mask |= 1 << index[label]
    return mask


def check_mass_recovery(
    generator: Mapping[int, float], recovered: Mapping[int, float], tol: float
) -> None:
    """The recovered mass carries the generator's focal weights.

    Every generator focal set is recovered within ``tol``, every other
    recovered weight stays below ``tol``, and the weights sum to 1.
    """
    for mask, weight in generator.items():
        require(mask in recovered, f"focal set {mask} was not recovered")
        got = recovered[mask]
        require(abs(got - weight) <= tol, f"focal set {mask}: weight {got!r}, expected {weight!r}")
    for mask, weight in recovered.items():
        if mask not in generator:
            require(abs(weight) < tol, f"set {mask} is not focal but carries {weight!r}")
    total = math.fsum(recovered.values())
    require(abs(total - 1.0) <= tol, f"recovered weights sum to {total!r}")


def check_consistent_audit(
    verdict: bool,
    recovered: Mapping[int, float],
    probes: Mapping[str, tuple[int, int]],
    sure_loss_worst: float | None,
    generator: Mapping[int, float],
    tol: float,
) -> None:
    """A belief-consistent audit of a Choquet model built from ``generator``.

    ``probes`` maps each coherence probe to its (passed, checked) pair.
    """
    require(verdict, "a Choquet model was found not belief-consistent")
    check_mass_recovery(generator, recovered, tol)
    for name, (passed, checked) in probes.items():
        require(passed == checked, f"coherence probe {name} passed {passed} of {checked}")
    require(sure_loss_worst is not None and sure_loss_worst >= -tol,
            f"sure-loss worst exposure {sure_loss_worst!r} below {-tol}")


def all_cores(n: int) -> np.ndarray:
    """(2^n - 1, n) membership matrix of every nonempty subset."""
    masks = np.arange(1, 1 << n)[:, None]
    return ((masks >> np.arange(n)) & 1).astype(bool)


def worst_case_revenue(payoffs: np.ndarray, cores: np.ndarray) -> np.ndarray:
    """Summed minimum payoff of the gambles on each core, by brute force."""
    total = np.zeros(cores.shape[0])
    for payoff in payoffs:
        total += np.where(cores, payoff, np.inf).min(axis=1)
    return total


def envelope_price(rows: np.ndarray, payoff: Sequence[float]) -> float:
    """Buy price under a lower envelope: min over rows of row . payoff."""
    return min(math.fsum(r * x for r, x in zip(row, payoff)) for row in rows.tolist())


def envelope_mobius(rows: np.ndarray, subset: int) -> float:
    """Moebius weight at ``subset`` of the envelope's indicator prices, as
    a direct alternating sum over the subsets of ``subset``."""
    members = [i for i in range(rows.shape[1]) if subset >> i & 1]
    k = len(members)
    picks = np.arange(1 << k)[:, None]
    chosen = ((picks >> np.arange(k)) & 1).astype(float)
    values = (chosen @ rows[:, members].T).min(axis=1)
    signs = np.where((k - chosen.sum(axis=1)) % 2 == 0, 1.0, -1.0)
    return math.fsum((signs * values).tolist())


def check_envelope_audit(
    exit_code: int,
    report: Mapping,
    rows: np.ndarray,
    labels: Sequence[str],
    tol: float,
    exact_tol: float,
) -> None:
    """A machine audit report that refutes a lower envelope by negative mass.

    Rechecks the certificate's domination over every nonempty core and its
    buy gap from the rows, the witness weight by direct alternating sum,
    and a fixed spread of the listed negative-mass entries the same way.
    """
    require(exit_code == 1, f"exit code {exit_code}, expected 1")
    require(report["is_belief_consistent"] is False, "the envelope was found belief-consistent")
    require(report["certificate_verified"] is True, "the certificate is not marked verified")
    cert = report["certificate"]
    require(cert["kind"] == "negative_mass", f"certificate kind {cert['kind']!r}")
    n = len(labels)
    xs = np.array([g["payoff"] for g in cert["xs"]], dtype=float).reshape(-1, n)
    ys = np.array([g["payoff"] for g in cert["ys"]], dtype=float).reshape(-1, n)
    cores = all_cores(n)
    excess = worst_case_revenue(xs, cores) - worst_case_revenue(ys, cores)
    require(bool(np.all(excess <= exact_tol)),
            f"xs out-earn ys on some core by {float(excess.max())!r}")
    gap = (math.fsum(envelope_price(rows, g) for g in xs.tolist())
           - math.fsum(envelope_price(rows, g) for g in ys.tolist()))
    require(gap > tol, f"xs are priced only {gap!r} above ys")
    require(abs(gap - cert["buy_gap"]) <= tol,
            f"reported buy gap {cert['buy_gap']!r}, recomputed {gap!r}")

    index = {label: i for i, label in enumerate(labels)}
    witness = mask_of(cert["subset"], index)
    weight = envelope_mobius(rows, witness)
    require(weight < 0.0, f"witness {cert['subset']!r} has weight {weight!r}")
    require(abs(weight - cert["mass"]) <= tol,
            f"witness weight listed {cert['mass']!r}, recomputed {weight!r}")

    negative = report["negative_mass"]
    require(cert["subset"] in negative, "the witness is not a listed negative entry")
    keys = list(negative)
    step = max(1, len(keys) // SPOT_CHECKS)
    for key in keys[::step][:SPOT_CHECKS]:
        weight = envelope_mobius(rows, mask_of(key, index))
        require(weight < 0.0, f"listed negative entry {key!r} has weight {weight!r}")
        require(abs(weight - negative[key]) <= tol,
                f"entry {key!r} listed {negative[key]!r}, recomputed {weight!r}")


def parse_human_mass(text: str, labels: Sequence[str]) -> dict[int, float]:
    """Read ``{a,b}: weight`` lines of a human-format mass listing."""
    index = {label: i for i, label in enumerate(labels)}
    mass: dict[int, float] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        require(sep == ": " and key.startswith("{") and key.endswith("}"),
                f"not a mass line: {line!r}")
        mask = mask_of(key[1:-1], index)
        require(mask not in mass, f"subset {key} listed twice")
        mass[mask] = float(value)
    return mass


def check_transform(
    exit_code: int, text: str, labels: Sequence[str], generator: Mapping[int, float], tol: float
) -> None:
    """A ``transform --to mass`` listing of a Choquet document."""
    require(exit_code == 0, f"exit code {exit_code}, expected 0")
    check_mass_recovery(generator, parse_human_mass(text, labels), tol)
