"""Reference AMI/PAMI estimator that shares no code with phasecon.

It samples the channel y = x·e^{jφ} + n itself (numpy's von Mises sampler
for φ, complex Gaussian n) and scores every hypothesis u with the
closed-form exact likelihood.  The phase integral has the closed form
∫ exp(Re(w·e^{jφ})) dφ = 2π·I₀(|w|) (Abramowitz & Stegun 9.6.16), so

    log p(y | u) = |w| + log i0e(|w|) − k_n·|u|²/2 + (terms shared by all u),
    w = k_φ + k_n·conj(y)·u.

Without jitter (k_φ = ∞) it reduces to k_n·Re(conj(y)·u) − k_n·|u|²/2.
Concentrations follow the usual convention: k_n = 2·10^(SNR/10) is the
inverse per-dimension noise variance for unit-power input, and
k_φ = 1/σ_φ² with σ_φ in radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import i0e

_LN2 = math.log(2.0)
_CHUNK = 8192


@dataclass(frozen=True)
class Estimate:
    """Sample mean of the per-sample information and its standard error."""

    bits: float
    stderr: float


def concentrations(snr_db: float, pnsd_deg: float) -> tuple[float, float]:
    """(k_n, k_φ) of a channel given in dB and degrees."""
    k_n = 2.0 * 10.0 ** (snr_db / 10.0)
    k_phi = math.inf if pnsd_deg == 0 else 1.0 / math.radians(pnsd_deg) ** 2
    return k_n, k_phi


def log_likelihoods(y: np.ndarray, points: np.ndarray, k_n: float, k_phi: float) -> np.ndarray:
    """(len(y), M) exact log-likelihoods up to a per-sample constant."""
    corr = np.conj(y)[:, None] * points[None, :]
    energy = 0.5 * k_n * (points.real**2 + points.imag**2)
    if math.isinf(k_phi):
        return k_n * corr.real - energy
    a = np.abs(k_phi + k_n * corr)
    return a + np.log(i0e(a)) - energy


def _lse(values: np.ndarray) -> np.ndarray:
    peak = values.max(axis=1)
    return peak + np.log(np.exp(values - peak[:, None]).sum(axis=1))


def sample_information(
    points: np.ndarray, labels: np.ndarray, snr_db: float, pnsd_deg: float,
    n_samples: int, seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample symbol-wise and bitwise information, both in bits."""
    points = np.asarray(points, dtype=np.complex128)
    labels = np.asarray(labels, dtype=np.int64)
    size = points.size
    m = size.bit_length() - 1
    k_n, k_phi = concentrations(snr_db, pnsd_deg)
    rng = np.random.default_rng(seed)
    sent = rng.integers(0, size, n_samples)
    phase = np.zeros(n_samples) if math.isinf(k_phi) else rng.vonmises(0.0, k_phi, n_samples)
    noise = rng.standard_normal((n_samples, 2)) / math.sqrt(k_n)
    y = points[sent] * np.exp(1j * phase) + (noise[:, 0] + 1j * noise[:, 1])
    bits = (labels[:, None] >> np.arange(m)[None, :]) & 1  # (M, m)

    ami = np.empty(n_samples)
    pami = np.empty(n_samples)
    for lo in range(0, n_samples, _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, n_samples))
        s = sent[sl]
        ll = log_likelihoods(y[sl], points, k_n, k_phi)
        diff = ll - ll[np.arange(s.size), s][:, None]
        total = _lse(diff)
        ami[sl] = m - total / _LN2
        loss = np.zeros(s.size)
        for i in range(m):
            matched = bits[None, :, i] == bits[s, i][:, None]
            loss += total - _lse(np.where(matched, diff, -np.inf))
        pami[sl] = m - loss / _LN2
    return ami, pami


def estimate(
    points, labels, snr_db: float, pnsd_deg: float, n_samples: int, seed: int
) -> tuple[Estimate, Estimate]:
    """(AMI, PAMI) estimates from one shared set of channel samples."""
    ami, pami = sample_information(points, labels, snr_db, pnsd_deg, n_samples, seed)
    root_n = math.sqrt(n_samples)
    return (
        Estimate(float(ami.mean()), float(ami.std(ddof=1) / root_n)),
        Estimate(float(pami.mean()), float(pami.std(ddof=1) / root_n)),
    )
