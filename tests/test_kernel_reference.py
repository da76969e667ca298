"""The quadrature kernel against the symbol-major kernel it replaced.

`reference_ami_bits` and `reference_pami_bits` are the former row functions
of `QuadEvaluator`, kept here verbatim as the reference: a metric table of
shape (sent, node, hypothesis) reduced over its trailing hypothesis axis, and
one masked pass per label bit for PAMI.  The hypothesis-major kernel sums in
another order, so the two agree to rounding, not bit for bit; 1e-12 bits is
the stated tolerance.
"""

import math
import warnings

import numpy as np
import pytest

from phasecon import make_constellation, reference_constellation
from phasecon.analysis import SNR_BRACKET_DB
from phasecon.capacity import QuadEvaluator, QuadratureGrid, _canonical_points
from conftest import channel

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
