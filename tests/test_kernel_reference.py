"""The rate kernels against the forms they replaced.

`reference_ami_bits` and `reference_pami_bits` are the former row functions
of `QuadEvaluator`, kept here verbatim as the reference: a metric table of
shape (sent, node, hypothesis) reduced over its trailing hypothesis axis, and
one masked pass per label bit for PAMI.  The hypothesis-major kernel sums in
another order, so the two agree to rounding, not bit for bit; 1e-12 bits is
the stated tolerance.

`reference_mc_sample_bits` is the former Monte Carlo scoring, which took the
exact likelihood's phase integral by the periodic trapezoid rule on a grid
sized to the largest |w|.  The kernel now uses the closed form log I_0(|w|).
Both round each per-hypothesis value, of size up to S, to about eps*S, and a
sample's bits pass those values through 1 + m log-sum-exps of in-row
differences.  So per-sample bits agree within 1e-12 or 4(1 + m) eps S / ln 2,
whichever is larger; the second term matters at high SNR, where S reaches
a few thousand.

The fast metric the quadrature kernel evaluates in bulk is checked against
the scalar phase-estimate form in `metric_reference`.
"""

import math
import warnings

import numpy as np
import pytest

from phasecon import AMI, PAMI, make_constellation, reference_constellation
from phasecon.analysis import SNR_BRACKET_DB
from phasecon.capacity import (
    QuadEvaluator,
    QuadratureGrid,
    _bit_match_masks,
    _canonical_points,
    _draw_channel_samples,
    _mc_sample_bits,
    _scores_from_values,
)
from conftest import channel
from metric_reference import MetricContext, awgn_metric, decision_metric

TOL_BITS = 1e-12
GRID7 = QuadratureGrid.of_degree(7)
SIZES = (2, 4, 8, 16, 64)
SPREADS_DEG = (0.0, 5.0, 20.0, 45.0)
SNRS_DB = (SNR_BRACKET_DB[0], 12.0, SNR_BRACKET_DB[1])


def _metric_rows(ev, points, rows):
    params = ev.params
    sent = points[rows][:, None]
    if ev.rotation is not None:
        y = sent * ev.rotation[None, :] + ev.noise[None, :]
    else:
        y = sent + ev.noise[None, :]
    z = np.conj(y)[:, :, None] * points[None, None, :]
    if params.has_phase_noise:
        w_re = params.k_phi + params.k_n * z.real
        w_im = params.k_n * z.imag
        metric = np.sqrt(w_re * w_re + w_im * w_im)
    else:
        metric = params.k_n * z.real
    metric -= 0.5 * params.k_n * (np.abs(points) ** 2)[None, None, :]
    return metric


def _ami_row_means(ev, points, rows):
    metric = _metric_rows(ev, points, rows)
    peak = metric.max(axis=-1)
    exp_shift = np.exp(metric - peak[:, :, None])
    lse = peak + np.log(exp_shift.sum(axis=-1))
    sent = metric[np.arange(rows.size), :, rows]
    integrand = lse - sent
    return [float(np.dot(integrand[r], ev.norm_weights)) for r in range(rows.size)]


def _pami_row_means(ev, points, labels, rows):
    m = points.size.bit_length() - 1
    bits = (labels[:, None] >> np.arange(m)[None, :]) & 1
    masks = bits.T[:, :, None] == bits.T[:, None, :]
    metric = _metric_rows(ev, points, rows)
    peak = metric.max(axis=-1)
    lse = peak + np.log(np.exp(metric - peak[:, :, None]).sum(axis=-1))
    total = np.zeros_like(lse)
    for i in range(m):
        row_mask = masks[i][rows][:, None, :]
        sub = np.where(row_mask, metric, -np.inf)
        sub_peak = sub.max(axis=-1)
        sub_sum = np.exp(sub - sub_peak[:, :, None]).sum(axis=-1)
        total += lse - (sub_peak + np.log(sub_sum))
    return [float(np.dot(total[r], ev.norm_weights)) for r in range(rows.size)]


def _bits(points, partials):
    m = points.size.bit_length() - 1
    return m - math.fsum(partials) / points.size / math.log(2)


def reference_ami_bits(ev, points):
    points = _canonical_points(points)
    return _bits(points, _ami_row_means(ev, points, np.arange(points.size)))


def reference_pami_bits(ev, points, labels):
    points = _canonical_points(points)
    return _bits(points, _pami_row_means(ev, points, labels, np.arange(points.size)))


def signal_sets(size):
    """PSK, QAM and a seeded random set of `size` points."""
    rng = np.random.default_rng(size)
    pts = rng.normal(size=size) + 1j * rng.normal(size=size)
    pts /= np.sqrt(np.mean(np.abs(pts) ** 2))
    return {
        "psk": reference_constellation("psk", size),
        "qam": reference_constellation("qam", size),
        "random": make_constellation(pts, rng.permutation(size)),
    }


@pytest.mark.parametrize("pnsd", SPREADS_DEG)
@pytest.mark.parametrize("size", SIZES)
def test_kernel_matches_reference(size, pnsd):
    worst = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 45 deg is past the wide-spread warning
        for name, c in signal_sets(size).items():
            for snr in SNRS_DB:
                ev = QuadEvaluator(channel(snr, pnsd), GRID7)
                ami, pami = ev.ami_bits(c.points), ev.pami_bits(c.points, c.labels)
                assert math.isfinite(ami) and math.isfinite(pami), (name, snr)
                ref_ami = reference_ami_bits(ev, c.points)
                ref_pami = reference_pami_bits(ev, c.points, c.labels)
                worst.append((abs(ami - ref_ami), abs(pami - ref_pami), name, snr))
    worst = max(worst, key=lambda w: max(w[:2]))
    assert max(worst[:2]) <= TOL_BITS, worst


def test_swap_path_reuses_the_table_and_equals_a_fresh_evaluation(monkeypatch):
    c = reference_constellation("qam", 16)
    params = channel(12.0, 20.0)
    other = np.roll(c.labels, 3)
    ev = QuadEvaluator(params, GRID7)
    passes = []
    original = QuadEvaluator._table_pass
    monkeypatch.setattr(
        QuadEvaluator, "_table_pass", lambda *a, **k: passes.append(1) or original(*a, **k)
    )
    ev.pami_bits(c.points, c.labels)
    ev.held_table = ev.last_table
    ev.pami_bits(c.points * 0.5 + 0.5, c.labels)  # some other point set
    assert len(passes) == 2
    swapped = ev.pami_bits(c.points.copy(), other)  # same points: the held table
    assert len(passes) == 2
    assert swapped == QuadEvaluator(params, GRID7).pami_bits(c.points, other)
    assert len(passes) == 3


# --- Monte Carlo scoring ---------------------------------------------------


def _suggest_phase_grid_mc(peak_max):
    target = max(512.0, 1.3 * peak_max + 64.0)
    return 1 << max(9, math.ceil(math.log2(target)))


def reference_mc_sample_bits(c, params, n_samples, seed, chunk):
    """Per-sample AMI and PAMI bits of the former trapezoid scoring, and the
    largest magnitude of each sample's per-hypothesis values."""
    pts = _canonical_points(c.points)
    idx, y = _draw_channel_samples(pts, params, n_samples, seed)
    m = c.m
    k_n = params.k_n
    half_u2 = 0.5 * k_n * np.abs(pts) ** 2
    masks = _bit_match_masks(c.labels, m)
    out = {AMI: np.empty(n_samples), PAMI: np.empty(n_samples), "scale": np.empty(n_samples)}

    if params.has_phase_noise:
        w = params.k_phi + k_n * (np.conj(y)[:, None] * pts[None, :])
        peak = np.abs(w)
        n_grid = _suggest_phase_grid_mc(float(peak.max()))
        step = 2.0 * math.pi / n_grid
        grid = -math.pi + step * np.arange(n_grid)
        cos_g, sin_g = np.cos(grid), np.sin(grid)

        def values(sl):
            expo = (
                w.real[sl, :, None] * cos_g
                - w.imag[sl, :, None] * sin_g
                - peak[sl, :, None]
            )
            np.exp(expo, out=expo)
            return peak[sl] + np.log(expo.sum(axis=-1) * step) - half_u2[None, :]

    else:

        def values(sl):
            return k_n * (np.conj(y[sl])[:, None] * pts[None, :]).real - half_u2[None, :]

    for start in range(0, n_samples, chunk):
        sl = slice(start, min(start + chunk, n_samples))
        vals = values(sl)
        out["scale"][sl] = np.abs(vals).max(axis=1)
        out[AMI][sl] = _scores_from_values(vals, idx[sl], m, None)
        out[PAMI][sl] = _scores_from_values(vals, idx[sl], m, masks)
    return out


MC_SETS = {2: ("psk", 2), 8: ("psk", 8), 16: ("qam", 16), 64: ("qam", 64)}
MC_SNRS_DB = (SNR_BRACKET_DB[0], 12.0, 30.0)
MC_SAMPLES = 300
MC_CHUNK = 16  # keeps the reference's (chunk, M, grid) temporaries small


@pytest.mark.parametrize("pnsd", SPREADS_DEG)
@pytest.mark.parametrize("size", sorted(MC_SETS))
def test_mc_scoring_matches_trapezoid_reference(size, pnsd):
    c = reference_constellation(*MC_SETS[size])
    worst = []
    for snr in MC_SNRS_DB:
        params = channel(snr, pnsd)
        ref = reference_mc_sample_bits(c, params, MC_SAMPLES, 5, MC_CHUNK)
        eps = np.finfo(np.float64).eps
        tol = np.maximum(TOL_BITS, 4 * (1 + c.m) * eps * ref["scale"] / math.log(2))
        for objective in (AMI, PAMI):
            got = _mc_sample_bits(c, params, MC_SAMPLES, 5, objective, MC_CHUNK, 1)
            assert np.all(np.isfinite(got)), (objective, snr)
            excess = np.abs(got - ref[objective]) / tol
            worst.append((float(excess.max()), objective, snr))
    worst = max(worst)
    assert worst[0] <= 1.0, worst


# --- fast metric -----------------------------------------------------------


@pytest.mark.parametrize("pnsd", (0.0, 20.0))
@pytest.mark.parametrize("kind, size", [("psk", 8), ("qam", 16)])
def test_table_pass_sent_metric_is_the_scalar_decision_metric(kind, size, pnsd):
    c = reference_constellation(kind, size)
    params = channel(12.0, pnsd)
    ev = QuadEvaluator(params, GRID7)
    points = _canonical_points(c.points)
    sent = ev._table_pass(points, slice(None))[2]
    ctx = MetricContext.for_points(points, params)
    scalar = decision_metric if params.has_phase_noise else awgn_metric
    rotation = ev.rotation if ev.rotation is not None else np.ones(ev.noise.size)
    want = np.array([
        [scalar(complex(x * r + n), complex(x), ctx) for r, n in zip(rotation, ev.noise)]
        for x in points
    ])
    np.testing.assert_allclose(sent, want, rtol=1e-9, atol=0.0)
