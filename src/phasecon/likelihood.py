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

log I_0 is computed here in numpy (:func:`log_i0`), so the package needs
no scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ChannelParams

_TWO_PI = 2.0 * math.pi
_LOG_TWO_PI = math.log(_TWO_PI)


# log I_0(x) is taken from its power series below _LOG_I0_SPLIT and from
# its large-argument form above it.  The series I_0(x) = sum_k q^k / (k!)^2,
# q = x^2/4, has positive terms, so log1p of its tail in Horner form loses
# nothing; 25 terms leave a remainder below 1e-17 of I_0 up to x = 12.
# Above, sqrt(2 pi x) e^-x I_0(x) = 1 + t R(t) with t = _LOG_I0_SPLIT / x in
# (0, 1], and R is its degree-13 interpolant at the Chebyshev points of
# [0, 1], found with 60-digit mpmath Bessel values: it misses log(1 + t R)
# by at most 2.7e-16 (absolute) from x = 12 to 1e8, and its first two
# coefficients give the asymptotic series' 1/(8 x) and 9/(128 x^2).  Either
# branch is within one rounding of log I_0 (60-digit reference).  A mixed
# array costs a gather and a scatter per branch.  On a 2-core machine,
# Monte Carlo |w| of 8-PSK took 16.0, 14.2 and 10.7 ns an entry at 12 dB,
# 20 deg (0.2% of |w| below 12), 0 dB, 30 deg (all below) and 6 dB, 10 deg
# (none); with a split at 8 (21 terms, degree 18) 19.7, 16.1 and 12.9, at
# 10 (23 terms, degree 14) 16.8, 18.2 and 12.1.  x + log(scipy.special.i0e(x))
# took 43-46 ns.
_LOG_I0_SPLIT = 12.0
_LOG_I0_SERIES = tuple(1.0 / math.factorial(k) ** 2 for k in range(25, 0, -1))
_LOG_I0_LARGE = (
    -7.072761603630728e-08,
    4.152386079490515e-07,
    -1.0603544462805983e-06,
    1.5684304844728402e-06,
    -1.487412431509734e-06,
    9.57691196084065e-07,
    -4.0393278552746635e-07,
    1.7359911276638459e-07,
    1.6656271284633353e-07,
    9.159337200477304e-07,
    5.408322250518316e-06,
    4.238553496623591e-05,
    0.0004882812498482573,
    0.010416666666667055,
)


def _log1p_horner(t: np.ndarray, coefs: tuple) -> np.ndarray:
    """log(1 + t * P(t)), P's coefficients highest first, in a new array."""
    acc = np.full_like(t, coefs[0])
    for c in coefs[1:]:
        acc *= t
        acc += c
    acc *= t
    return np.log1p(acc, out=acc)


def _log_i0_small(x: np.ndarray) -> np.ndarray:
    q = np.multiply(x, x)
    q *= 0.25
    return _log1p_horner(q, _LOG_I0_SERIES)


def _log_i0_large(x: np.ndarray) -> np.ndarray:
    out = _log1p_horner(np.divide(_LOG_I0_SPLIT, x), _LOG_I0_LARGE)
    out += x
    # log(2 pi x) as log(x) + log(2 pi): 2 pi x overflows above 2.8e307.
    half_log = np.log(x)
    half_log += _LOG_TWO_PI
    half_log *= 0.5
    out -= half_log
    return out


def log_i0(x: np.ndarray) -> np.ndarray:
    """log I_0 of a float64 array of arguments >= 0, as a new array, to
    about 5e-16 relative error; finite up to float64's largest value.
    Unchecked: the kernel behind :func:`log_bessel_i0`."""
    small = x < _LOG_I0_SPLIT
    if small.all():
        return _log_i0_small(x)
    if not small.any():
        return _log_i0_large(x)
    out = np.empty_like(x)
    out[small] = _log_i0_small(x[small])
    large = ~small
    out[large] = _log_i0_large(x[large])
    return out


def log_bessel_i0(x):
    """log I_0(x) for x >= 0, stable for arguments far beyond overflow."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("log_bessel_i0 requires x >= 0")
    out = log_i0(x)
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
        return log_i0(np.abs(params.k_phi + params.k_n * z)) - half_u2
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
