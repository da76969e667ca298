"""Scalar reference forms of the fast decision metric and the channel densities.

The quadrature kernel in `phasecon.capacity` evaluates the fast metric as
|k_phi + k_n conj(y) u| - (k_n/2)|u|^2 on whole arrays.  The functions here
compute the same metric one pair at a time through the maximising phase
estimate, as the log-integrand's peak, and serve as the reference that
kernel is checked against; the von Mises and Gaussian densities are kept
for the likelihood tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from phasecon import ChannelParams, log_bessel_i0

_TWO_PI = 2.0 * math.pi


def tikhonov_log_pdf(phi, k_phi: float):
    """Log density of the von Mises phase prior at angle `phi` (radians).

    k_phi = 0 degenerates to the uniform density on (-pi, pi].
    """
    if not math.isfinite(k_phi) or k_phi < 0:
        raise ValueError(f"k_phi must be finite and >= 0, got {k_phi}")
    out = k_phi * np.cos(phi) - (math.log(_TWO_PI) + log_bessel_i0(k_phi))
    return float(out) if np.ndim(out) == 0 else out


def phase_estimate(z: complex, a_ratio: float) -> float:
    """Maximizer of k_phi cos(p) + k_n Re(z e^{jp}) over p in (-pi, pi].

    Args:
        z: correlator output conj(y) * u.
        a_ratio: k_n / k_phi (0 recovers the prior peak at 0).

    The stationary condition gives p = -atan2(a Im z, 1 + a Re z); the
    two-argument arctangent lands on the maximizing branch, which a
    curvature check confirms (falling back to comparing the two
    stationary points directly if it ever does not).
    """
    if a_ratio < 0 or not math.isfinite(a_ratio):
        raise ValueError(f"a_ratio must be finite and >= 0, got {a_ratio}")
    if a_ratio == 0.0:
        return 0.0
    num = -a_ratio * z.imag
    den = 1.0 + a_ratio * z.real
    phi = math.atan2(num, den)
    # Objective divided by k_phi: cos(p) + a Re(z e^{jp}).
    def objective(p: float) -> float:
        return math.cos(p) + a_ratio * (z.real * math.cos(p) - z.imag * math.sin(p))

    curvature = -objective(phi)
    if curvature > 0.0:
        alt = phi + math.pi if phi <= 0.0 else phi - math.pi
        if objective(alt) > objective(phi):
            phi = alt
    if phi <= -math.pi:
        phi += _TWO_PI
    return phi


@dataclass(frozen=True, eq=False)
class MetricContext:
    """Channel parameters plus per-hypothesis constants for metric evaluation.

    ``hypothesis_terms[i]`` caches -(k_n/2)|u_i|^2 for hypothesis point i.
    """

    params: ChannelParams
    hypotheses: np.ndarray
    hypothesis_terms: np.ndarray

    @classmethod
    def for_points(cls, points, params: ChannelParams) -> "MetricContext":
        pts = np.asarray(points, dtype=np.complex128)
        terms = -0.5 * params.k_n * np.abs(pts) ** 2
        pts.setflags(write=False)
        terms.setflags(write=False)
        return cls(params=params, hypotheses=pts, hypothesis_terms=terms)


def decision_metric(y: complex, u: complex, ctx: MetricContext) -> float:
    """Fast log-likelihood surrogate for hypothesis u, up to a constant in u.

    Requires finite k_phi; use :func:`awgn_metric` for the jitter-free case.
    Only metric differences across hypotheses are meaningful.
    """
    params = ctx.params
    if not params.has_phase_noise:
        raise ValueError("decision_metric requires finite k_phi; use awgn_metric")
    z = y.conjugate() * u
    phi = phase_estimate(z, params.a_ratio)
    matched = z.real * math.cos(phi) - z.imag * math.sin(phi)
    return (
        -0.5 * params.k_n * abs(u) ** 2
        + params.k_phi * math.cos(phi)
        + params.k_n * matched
    )


def awgn_metric(y: complex, u: complex, ctx: MetricContext) -> float:
    """Jitter-free counterpart of :func:`decision_metric`."""
    k_n = ctx.params.k_n
    return k_n * (y.conjugate() * u).real - 0.5 * k_n * abs(u) ** 2


def log_ratio(y: complex, u: complex, x: complex, ctx: MetricContext) -> float:
    """Approximate log p(y|u) - log p(y|x) under the fast metric.

    Evaluates the grouped form in which the prior terms at the two phase
    estimates appear explicitly; it agrees with the difference of
    :func:`decision_metric` values to rounding.
    """
    params = ctx.params
    if not params.has_phase_noise:
        m_u = awgn_metric(y, u, ctx)
        m_x = awgn_metric(y, x, ctx)
        return m_u - m_x
    z_u = y.conjugate() * u
    z_x = y.conjugate() * x
    phi_u = phase_estimate(z_u, params.a_ratio)
    phi_x = phase_estimate(z_x, params.a_ratio)
    matched_u = z_u.real * math.cos(phi_u) - z_u.imag * math.sin(phi_u)
    matched_x = z_x.real * math.cos(phi_x) - z_x.imag * math.sin(phi_x)
    prior_gap = params.k_phi * math.cos(phi_u) - params.k_phi * math.cos(phi_x)
    return prior_gap + 0.5 * params.k_n * (
        2.0 * matched_u - 2.0 * matched_x - abs(u) ** 2 + abs(x) ** 2
    )


def awgn_log_likelihood(y, u, params: ChannelParams):
    """Gaussian log density of y for hypothesis u when the phase is fixed at 0."""
    resid = np.abs(np.asarray(y) - np.asarray(u)) ** 2
    out = math.log(params.k_n / _TWO_PI) - 0.5 * params.k_n * resid
    return float(out) if np.ndim(out) == 0 else out
