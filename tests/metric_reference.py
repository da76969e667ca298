"""Scalar reference forms of the fast decision metric and the channel densities.

The quadrature kernel in `phasecon.capacity` evaluates the fast metric as
|k_phi + k_n conj(y) u| - (k_n/2)|u|^2 on whole arrays.  The functions here
compute the same metric one pair at a time through the maximising phase
estimate, as the log-integrand's peak, and serve as the reference that
kernel is checked against; the von Mises and Gaussian densities are kept
for the likelihood tests.  `log_phase_integral` is the one numerical phase
integral of the tests, by the periodic trapezoid rule: the reference for
the closed-form log I_0 of the exact likelihood.  `masked_scores` is the
former Monte Carlo scoring: one masked log-sum-exp per label bit, each
with its own peak.

`clamped_table_pass` and `subset_product_pami_bits` are the former forms of
the quadrature table pass and its PAMI reduction: the pass with both of its
clamps always on, and PAMI from all 2m bit-subset sums of one indicator
product, of which the sent label's bits pick m.  The kernel skips a clamp
only where it changes no entry and sums only the m matched subsets, so it
must equal these bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from phasecon import ChannelParams, log_bessel_i0
from phasecon.capacity import _EXP_FLOOR

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
    phi = phase_estimate(z, params.k_n / params.k_phi)
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
    a_ratio = params.k_n / params.k_phi
    phi_u = phase_estimate(z_u, a_ratio)
    phi_x = phase_estimate(z_x, a_ratio)
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


def log_phase_integral(w):
    """log of the integral of exp(Re(w e^{j phi})) over one period of phi,
    2 pi I_0(|w|), for each entry of the complex array `w`, by the periodic
    trapezoid rule on one grid for the whole array.

    exp(Re(w e^{j phi}) - |w|) is periodic and its Fourier tail I_n(|w|) is
    negligible once n exceeds ~1.2 |w|, so the grid holds a power of two
    above 1.3 max|w| + 64, and 512 nodes at least.
    """
    w = np.asarray(w, dtype=np.complex128)
    size = np.abs(w)
    n = 1 << max(9, math.ceil(math.log2(1.3 * float(size.max()) + 64.0)))
    step = _TWO_PI / n
    phi = step * np.arange(n) - math.pi
    expo = w.real[..., None] * np.cos(phi) - w.imag[..., None] * np.sin(phi) - size[..., None]
    return size + np.log(np.exp(expo, out=expo).sum(axis=-1) * step)


def _row_log_sum_exp(v):
    """log sum exp of each row, each term shifted by the row peak and
    floored at _EXP_FLOOR; a -inf term becomes exp(_EXP_FLOOR), which
    vanishes against the peak's 1."""
    peak = v.max(axis=1)
    return peak + np.log(np.exp(np.maximum(v - peak[:, None], _EXP_FLOOR)).sum(axis=1))


def masked_scores(vals, sent, m: int, labels=None):
    """Per-sample information in bits from per-hypothesis log-likelihood
    values `vals` (one row per sample), for AMI, or for PAMI of `labels`.

    Values are taken relative to the sent hypothesis' own.  PAMI sums, per
    label bit, the log-sum-exp of all values minus that of the values whose
    bit matches the sent label's, the others masked to -inf; each masked
    log-sum-exp is shifted by its own peak.
    """
    n = vals.shape[0]
    diff = vals - vals[np.arange(n), sent][:, None]
    lse_all = _row_log_sum_exp(diff)
    if labels is None:
        return m - lse_all / math.log(2.0)
    bits = (labels[:, None] >> np.arange(m)[None, :]) & 1
    total = np.zeros(n)
    for i in range(m):
        row_mask = bits[:, i][None, :] == bits[sent, i][:, None]
        total += lse_all - _row_log_sum_exp(np.where(row_mask, diff, -np.inf))
    return m - total / math.log(2.0)


def clamped_table_pass(ev, points, rows, table, log_sum):
    """`QuadEvaluator._table_pass` with both clamps always on: the expanded
    |w|^2 floored at 0 before its sqrt, and metric - peak floored at
    _EXP_FLOOR before its exp.  `points` is a (J, M) stack of one-channel
    sets bound by `ev._bind`, whose hypothesis matrices and half-energy grids
    it reads; like the kernel, it writes the exp table of `rows` to `table`
    and its log-sum to `log_sum`, one (M, G) slab and one (G,) row each per
    set and sent row, and returns (log_sum, peak, sent)."""
    sets = points.shape[0]
    x = points[:, rows, None]
    shape = (sets, x.shape[1], ev._hyp.shape[-1], ev.noise.size)
    nodes = np.ones(shape)
    if ev.rotation is not None:
        y = x * ev.rotation
        y += ev.noise
        nodes[:, :, 2] = np.add(y.real * y.real, y.imag * y.imag)
    else:
        y = x + ev.noise
    nodes[:, :, 0], nodes[:, :, 1] = y.real, y.imag
    metric = np.matmul(ev._hyp[:sets], nodes, out=table)
    if ev.rotation is not None:
        np.maximum(metric, 0.0, out=metric)
        np.sqrt(metric, out=metric)
        metric -= ev._half_u2[:sets]
    index = np.arange(points.shape[1])[rows]
    sent = metric[:, np.arange(index.size), index].copy()
    peak = np.maximum.reduce(metric, axis=2)
    metric -= peak[:, :, None]
    np.maximum(metric, _EXP_FLOOR, out=metric)
    np.exp(metric, out=metric)
    out = np.add.reduce(metric, axis=2, out=log_sum)
    return np.log(out, out=out), peak, sent


def subset_product_pami_bits(ev, points, labels):
    """PAMI of `points` and `labels` on the one-channel evaluator's channel
    and grid from the clamp-always table and all 2m bit-subset sums of one
    (2m x M) indicator product.  Returns the rate and the (M, m, G) per-bit
    losses, log_sum - log(matched subset sum), of each sent row and node."""
    points = ev._bind(points[None])[0]
    n, size = points.size, ev.noise.shape[-1]
    table, log_sum = np.empty((1, n, n, size)), np.empty((1, n, size))
    clamped_table_pass(ev, points[None], slice(None), table, log_sum)
    table, log_sum = table[0], log_sum[0]
    m = n.bit_length() - 1
    bits = (labels[:, None] >> np.arange(m)) & 1 == 1
    indicator = np.concatenate([~bits.T, bits.T]) * 1.0
    sums = np.matmul(indicator, table)
    matched = sums[np.arange(n)[:, None], m * bits + np.arange(m)]
    np.log(matched, out=matched)
    np.subtract(log_sum[:, None, :], matched, out=matched)
    rows = np.add.reduce(matched, axis=1)
    mean = math.fsum(map(np.ndarray.dot, rows, itertools.repeat(ev._weights[0, 0]))) / n
    return m - mean / math.log(2.0), matched
