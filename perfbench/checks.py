"""Properties every workload output must have.  Each check raises CheckError."""

from __future__ import annotations

import math

import numpy as np

# Float noise allowed where two evaluations of the same rate must agree.
RATE_TOL = 1e-9
POWER_TOL = 1e-8
# Agreement with the reference estimator: max(MIN_AGREEMENT, 3 combined stderr).
MIN_AGREEMENT = 0.03


class CheckError(Exception):
    """A workload output lacks a property the method must have."""


def design(points, labels, what: str) -> None:
    """Unit average power within POWER_TOL, labels a permutation of 0..M-1."""
    points = np.asarray(points)
    labels = np.asarray(labels)
    power = float(np.mean(points.real**2 + points.imag**2))
    if abs(power - 1.0) > POWER_TOL:
        raise CheckError(f"{what}: average power {power!r}, not 1")
    if not np.array_equal(np.sort(labels), np.arange(points.size)):
        raise CheckError(f"{what}: labels {labels.tolist()} are not a permutation")


def rate_bounds(ami: float, pami: float, m: int, snr_db: float, what: str) -> None:
    """0 <= PAMI <= AMI <= min(m, log2(1 + SNR))."""
    cap = min(m, math.log2(1.0 + 10.0 ** (snr_db / 10.0)))
    if not (-RATE_TOL <= pami <= ami + RATE_TOL and ami <= cap + RATE_TOL):
        raise CheckError(f"{what}: need 0 <= PAMI {pami!r} <= AMI {ami!r} <= {cap!r}")


def same_rate(value: float, expected: float, what: str) -> None:
    if abs(value - expected) > RATE_TOL:
        raise CheckError(f"{what}: {value!r} differs from {expected!r}")


def beats(rate: float, baseline: float, what: str) -> None:
    if not rate > baseline:
        raise CheckError(f"{what}: {rate!r} does not beat {baseline!r}")


def agrees(value: float, stderr: float, ref, what: str) -> float:
    """|value - reference| within max(0.03, 3 combined stderr); returns the deviation."""
    deviation = abs(value - ref.bits)
    cap = max(MIN_AGREEMENT, 3.0 * math.hypot(stderr, ref.stderr))
    if not deviation <= cap:
        raise CheckError(
            f"{what}: {value!r} vs reference {ref.bits!r} +- {ref.stderr!r}, "
            f"deviation {deviation!r} > {cap!r}"
        )
    return deviation


def monotone(values, increasing: bool, what: str) -> None:
    steps = np.diff(np.asarray(values, dtype=np.float64))
    if not increasing:
        steps = -steps
    if np.any(steps < -RATE_TOL):
        raise CheckError(f"{what}: {list(values)} is not monotone")
