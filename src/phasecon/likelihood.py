"""Exact per-symbol likelihood of the AWGN channel with phase jitter.

The received sample is y = x e^{j phi} + n, with n complex Gaussian of
per-dimension variance 1/k_n and phi von Mises (Tikhonov) distributed with
concentration k_phi.  The marginal likelihood p(y | u) integrates phi out.
With w = k_phi + k_n conj(y) u the phase integral has the closed form

    int_{-pi}^{pi} exp(Re(w e^{j phi})) dphi = 2 pi I_0(|w|)

(Abramowitz & Stegun 9.6.16), so log p(y | u) is log I_0(|w|) - (k_n/2)|u|^2
plus terms that do not depend on u.  The quadrature route of
:mod:`phasecon.capacity` replaces log I_0(|w|) by its leading term |w|; the
Monte Carlo route scores with the exact term from
:func:`hypothesis_log_terms`.

This module owns the package's one use of scipy, ``scipy.special.i0e``.
It is imported on the first call that needs it, so importing phasecon and
the quadrature route never load scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ChannelParams

_TWO_PI = 2.0 * math.pi


def _i0e(x):
    """scipy.special.i0e, imported on the first call: only the Monte Carlo
    route needs it, and loading scipy.special costs more than numpy."""
    from scipy.special import i0e

    return i0e(x)


def log_bessel_i0(x):
    """log I_0(x) for x >= 0, stable for arguments far beyond overflow."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("log_bessel_i0 requires x >= 0")
    out = x + np.log(_i0e(x))
    return float(out) if out.ndim == 0 else out


def hypothesis_log_terms(y, u, params: ChannelParams):
    """log p(y | u) up to terms shared by every hypothesis u.

    That is log I_0(|k_phi + k_n conj(y) u|) - (k_n/2)|u|^2 with phase
    jitter, and k_n Re(conj(y) u) - (k_n/2)|u|^2 without.  Broadcasts over
    `y` and `u`.
    """
    z = np.conj(np.asarray(y, dtype=np.complex128)) * np.asarray(u, dtype=np.complex128)
    half_u2 = 0.5 * params.k_n * np.abs(u) ** 2
    if params.has_phase_noise:
        return log_bessel_i0(np.abs(params.k_phi + params.k_n * z)) - half_u2
    return params.k_n * z.real - half_u2


def exact_log_likelihood(y, u, params: ChannelParams):
    """True log p(y | u), constants included; broadcasts over `y` and `u`.

    Requires finite k_phi.  On a channel that counts as jitter-free it is
    the Gaussian density, which the von Mises one tends to.
    """
    if math.isinf(params.k_phi):
        raise ValueError("exact_log_likelihood requires finite k_phi")
    k_n = params.k_n
    # The 2 pi of the closed form cancels the von Mises normaliser's.
    prior = log_bessel_i0(params.k_phi) if params.has_phase_noise else 0.0
    out = (
        hypothesis_log_terms(y, u, params)
        + math.log(k_n / _TWO_PI)
        - prior
        - 0.5 * k_n * np.abs(y) ** 2
    )
    return float(out) if np.ndim(out) == 0 else out
