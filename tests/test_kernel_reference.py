"""The rate kernels against the forms they replaced.

`reference_ami_bits` and `reference_pami_bits` are the former row functions
of `QuadEvaluator`, kept here verbatim as the reference: a metric table of
shape (sent, node, hypothesis) reduced over its trailing hypothesis axis, and
one masked pass per label bit for PAMI.  The kernel builds |w|^2 in expanded
(bilinear) form and sums in another order, so the two agree to rounding, not
bit for bit; 1e-12 bits is the stated tolerance.

`reference_mc_sample_bits` is the former Monte Carlo scoring, which took the
exact likelihood's phase integral by the periodic trapezoid rule on a grid
sized to the largest |w| (`metric_reference.log_phase_integral`, here one
grid per chunk), and scored PAMI by `metric_reference.masked_scores`.
The kernel now uses the closed form log I_0(|w|) and scores both objectives
from one exp table.  Both round each per-hypothesis value, of size up to S,
to about eps*S, and a sample's bits pass those values through 1 + m
log-sum-exps of in-row differences.  So per-sample bits agree within 1e-12
or 4(1 + m) eps S / ln 2, whichever is larger; the second term matters at
high SNR, where S reaches a few thousand.

The fast metric the quadrature kernel evaluates in bulk is checked against
the scalar phase-estimate form in `metric_reference`, and the table pass and
its PAMI reduction against their clamp-always and 2m-product forms there,
bit for bit.
"""

import functools
import math
import warnings

import numpy as np
import pytest

from phasecon import AMI, PAMI, capacity, make_constellation, reference_constellation
from phasecon.analysis import SNR_BRACKET_DB
from phasecon.capacity import (
    QuadEvaluator,
    QuadratureGrid,
    _EXP_FLOOR,
    _canonical_points,
    _draw_channel_samples,
    _information,
    _label_bits,
    _mc_sample_bits,
)
from phasecon.likelihood import hypothesis_log_terms
from conftest import channel, set_threads, spy_bit_losses
from metric_reference import (
    MetricContext,
    awgn_metric,
    clamped_table_pass,
    decision_metric,
    log_phase_integral,
    masked_scores,
    subset_product_pami_bits,
)

TOL_BITS = 1e-12
GRID7 = QuadratureGrid.of_degree(7)
SIZES = (2, 4, 8, 16, 64)
SPREADS_DEG = (0.0, 5.0, 20.0, 45.0)
SNRS_DB = (SNR_BRACKET_DB[0], 12.0, SNR_BRACKET_DB[1])


def _metric_rows(ev, params, points, rows):
    sent = points[rows][:, None]
    if ev.rotation is not None:
        y = sent * ev.rotation[0] + ev.noise[0]
    else:
        y = sent + ev.noise[0]
    z = np.conj(y)[:, :, None] * points[None, None, :]
    if params.has_phase_noise:
        w_re = params.k_phi + params.k_n * z.real
        w_im = params.k_n * z.imag
        metric = np.sqrt(w_re * w_re + w_im * w_im)
    else:
        metric = params.k_n * z.real
    metric -= 0.5 * params.k_n * (np.abs(points) ** 2)[None, None, :]
    return metric


def _ami_row_means(ev, params, points, rows):
    metric = _metric_rows(ev, params, points, rows)
    peak = metric.max(axis=-1)
    exp_shift = np.exp(metric - peak[:, :, None])
    lse = peak + np.log(exp_shift.sum(axis=-1))
    sent = metric[np.arange(rows.size), :, rows]
    integrand = lse - sent
    return [float(np.dot(integrand[r], ev._weights[0, 0])) for r in range(rows.size)]


def _pami_row_means(ev, params, points, labels, rows):
    m = points.size.bit_length() - 1
    bits = (labels[:, None] >> np.arange(m)[None, :]) & 1
    masks = bits.T[:, :, None] == bits.T[:, None, :]
    metric = _metric_rows(ev, params, points, rows)
    peak = metric.max(axis=-1)
    lse = peak + np.log(np.exp(metric - peak[:, :, None]).sum(axis=-1))
    total = np.zeros_like(lse)
    for i in range(m):
        row_mask = masks[i][rows][:, None, :]
        sub = np.where(row_mask, metric, -np.inf)
        sub_peak = sub.max(axis=-1)
        sub_sum = np.exp(sub - sub_peak[:, :, None]).sum(axis=-1)
        total += lse - (sub_peak + np.log(sub_sum))
    return [float(np.dot(total[r], ev._weights[0, 0])) for r in range(rows.size)]


def _bits(points, partials):
    m = points.size.bit_length() - 1
    return m - math.fsum(partials) / points.size / math.log(2)


def reference_ami_bits(ev, params, points):
    points = _canonical_points(points)
    return _bits(points, _ami_row_means(ev, params, points, np.arange(points.size)))


def reference_pami_bits(ev, params, points, labels):
    points = _canonical_points(points)
    return _bits(points, _pami_row_means(ev, params, points, labels, np.arange(points.size)))


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
                params = channel(snr, pnsd)
                ev = QuadEvaluator((params,), GRID7, size)
                points, labels = c.points[None], c.labels[None]
                [ami], [pami] = ev.ami_bits(points), ev.pami_bits(points, labels)
                assert math.isfinite(ami) and math.isfinite(pami), (name, snr)
                ref_ami = reference_ami_bits(ev, params, c.points)
                ref_pami = reference_pami_bits(ev, params, c.points, c.labels)
                worst.append((abs(ami - ref_ami), abs(pami - ref_pami), name, snr))
    worst = max(worst, key=lambda w: max(w[:2]))
    assert max(worst[:2]) <= TOL_BITS, worst


def test_swap_path_reuses_the_table_and_equals_a_fresh_evaluation(monkeypatch):
    """As in the annealer: `held` scores the current state and a swap of its
    labels, `spare` another point set in between."""
    c = reference_constellation("qam", 16)
    params = channel(12.0, 20.0)
    points, labels, other = c.points[None], c.labels[None], np.roll(c.labels, 3)[None]
    held, spare = QuadEvaluator((params,), GRID7, 16), QuadEvaluator((params,), GRID7, 16)
    passes = []
    original = QuadEvaluator._table_pass
    monkeypatch.setattr(
        QuadEvaluator, "_table_pass", lambda *a, **k: passes.append(1) or original(*a, **k)
    )
    held.pami_bits(points, labels)
    spare.pami_bits(points * 0.5 + 0.5, labels)  # some other point set
    assert len(passes) == 2
    swapped = held.pami_bits(points.copy(), other)  # same points: held's table
    assert len(passes) == 2
    assert swapped == QuadEvaluator((params,), GRID7, 16).pami_bits(points, other)
    assert len(passes) == 3


# --- Monte Carlo scoring ---------------------------------------------------


def reference_mc_sample_bits(c, params, n_samples, seed, chunk):
    """Per-sample AMI and PAMI bits of the former trapezoid scoring, and the
    largest magnitude of each sample's per-hypothesis values."""
    pts = _canonical_points(c.points)
    idx, y = _draw_channel_samples(pts, params, n_samples, seed)
    m = c.m
    k_n = params.k_n
    half_u2 = 0.5 * k_n * np.abs(pts) ** 2
    out = {AMI: np.empty(n_samples), PAMI: np.empty(n_samples), "scale": np.empty(n_samples)}

    if params.has_phase_noise:
        w = params.k_phi + k_n * (np.conj(y)[:, None] * pts[None, :])

        def values(sl):
            return log_phase_integral(w[sl]) - half_u2[None, :]

    else:

        def values(sl):
            return k_n * (np.conj(y[sl])[:, None] * pts[None, :]).real - half_u2[None, :]

    for start in range(0, n_samples, chunk):
        sl = slice(start, min(start + chunk, n_samples))
        vals = values(sl)
        out["scale"][sl] = np.abs(vals).max(axis=1)
        out[AMI][sl] = masked_scores(vals, idx[sl], m)
        out[PAMI][sl] = masked_scores(vals, idx[sl], m, c.labels)
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
            got = _mc_sample_bits(c, params, MC_SAMPLES, 5, objective, MC_CHUNK)
            assert np.all(np.isfinite(got)), (objective, snr)
            excess = np.abs(got - ref[objective]) / tol
            worst.append((float(excess.max()), objective, snr))
    worst = max(worst)
    assert worst[0] <= 1.0, worst


@pytest.mark.parametrize("pnsd", (0.0, 20.0))
@pytest.mark.parametrize("kind, size", [("psk", 8), ("qam", 64)])
def test_mc_ami_bits_equal_the_masked_reference_on_the_package_values(kind, size, pnsd):
    """Fed the package's own hypothesis values, the masked reference gives
    the very AMI bits of `_mc_sample_bits`: the shared exp table keeps the
    former AMI arithmetic."""
    c = reference_constellation(kind, size)
    params = channel(12.0, pnsd)
    n_samples, chunk = 1500, 256
    pts = _canonical_points(c.points)
    idx, y = _draw_channel_samples(pts, params, n_samples, 5)
    want = np.concatenate([
        masked_scores(hypothesis_log_terms(y[s:s + chunk, None], pts, params), idx[s:s + chunk], c.m)
        for s in range(0, n_samples, chunk)
    ])
    got = _mc_sample_bits(c, params, n_samples, 5, AMI, chunk)
    assert np.array_equal(got, want)


def test_information_matches_the_masked_reference_on_hand_built_columns():
    """Columns of per-hypothesis values scored by the shared reduction and
    by the masked reference.  In the second, the sent point lies 650 nats
    under the peak, and the points that share its bit 0 lie below the exp
    floor, so that bit's matched sum is the sent entry itself."""
    labels = np.array([0, 1, 3, 2, 6, 7, 5, 4])
    m = 3
    vals = np.array([
        [0.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0],
        [-650.0, 0.0, -1.0, -800.0, -900.0, -3.0, -4.0, -1e4],
        [3.0, 2.5, -900.0, 1.0, -1e4, 0.5, 2.9, -0.5],
        [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0],
        [-5.0, 40.0, 39.5, -720.0, 12.0, -701.0, 0.0, 1.0],
    ])
    sent = np.array([0, 0, 7, 3, 1])
    diff = vals - vals[np.arange(sent.size), sent, None]
    peak = diff.max(axis=1)
    table = np.exp(np.maximum(diff - peak[:, None], _EXP_FLOOR))
    log_sum = np.log(table.sum(axis=1))
    ami = _information(table.T, log_sum, peak, sent, None)
    pami = _information(table.T, log_sum, peak, sent, _label_bits(labels))
    ln2 = math.log(2.0)
    np.testing.assert_array_equal(m - ami / ln2, masked_scores(vals, sent, m))
    ref = masked_scores(vals, sent, m, labels)
    eps = np.finfo(np.float64).eps
    tol = np.maximum(TOL_BITS, 4 * (1 + m) * eps * np.abs(diff).max(axis=1) / ln2)
    assert np.all(np.abs(m - pami / ln2 - ref) <= tol), (m - pami / ln2, ref)
    assert ref[1] < m - 649.0 / ln2  # the deep column loses its 650 nats


# --- fast metric -----------------------------------------------------------


def _block(ev, rows):
    """Work arrays for a table pass of `ev` over one set and up to `rows`
    sent rows."""
    return capacity._Block(slice(0, rows), rows, ev._hyp.shape[-1], ev.noise.size, 1)


@pytest.mark.parametrize("pnsd", (0.0, 20.0))
@pytest.mark.parametrize("kind, size", [("psk", 8), ("qam", 16)])
def test_table_pass_sent_metric_is_the_scalar_decision_metric(kind, size, pnsd):
    c = reference_constellation(kind, size)
    params = channel(12.0, pnsd)
    ev = QuadEvaluator((params,), GRID7, size)
    points = ev._bind(c.points[None])
    table, log_sum = np.empty((1, size, size, ev.noise.size)), np.empty((1, size, ev.noise.size))
    sent = ev._table_pass(points, slice(None), table, log_sum, _block(ev, size))[2][0]
    ctx = MetricContext.for_points(points[0], params)
    scalar = decision_metric if params.has_phase_noise else awgn_metric
    rotation = ev.rotation[0, 0] if ev.rotation is not None else np.ones(ev.noise.size)
    want = np.array([
        [scalar(complex(x * r + n), complex(x), ctx) for r, n in zip(rotation, ev.noise[0, 0])]
        for x in points[0]
    ])
    np.testing.assert_allclose(sent, want, rtol=1e-9, atol=0.0)


def test_table_pass_is_finite_where_w_vanishes():
    """The expanded |w|^2 can round below 0 where k_phi + k_n*conj(y)*u = 0;
    the pass must clip it rather than take the sqrt of a negative number."""
    params = channel(6.0, 5.0)
    ev = QuadEvaluator((params,), QuadratureGrid.of_degree(1), 8)
    points = ev._bind(reference_constellation("psk", 8).points[None])
    # One node where every sent row receives y = -(k_phi/k_n) / conj(u_0).
    ev.rotation = np.zeros(1, dtype=complex)
    ev.noise = np.array([-(params.k_phi / params.k_n) * points[0, 0] / abs(points[0, 0]) ** 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_sum, peak, sent = ev._table_pass(
            points, slice(None), np.empty((1, 8, 8, 1)), np.empty((1, 8, 1)), _block(ev, 8)
        )
    assert np.all(np.isfinite(log_sum)) and np.all(np.isfinite(peak))
    assert np.all(np.isfinite(sent))
    # |w| is 0 up to the rounding of the expanded sum, of size eps*k_phi^2.
    assert abs(sent[0, 0, 0] + 0.5 * params.k_n * abs(points[0, 0]) ** 2) < 1e-4


def test_pami_table_holds_no_subnormals_at_high_snr():
    """exp(metric - peak) is clamped at exp(_EXP_FLOOR), above the subnormal
    range where exp and the subset sums run many times slower."""
    c = reference_constellation("qam", 64)
    ev = QuadEvaluator((channel(40.0, 10.0),), GRID7, 64)
    # The table spans several tiles: the evaluator keeps all of it from its
    # second call on.
    for _ in range(2):
        ev.pami_bits(c.points[None], c.labels[None])
    exp_table = ev._full[0]
    assert exp_table.min() >= np.finfo(float).tiny
    # The clamp is reached, so the bound above is not met by chance.
    assert math.isclose(exp_table.min(), math.exp(_EXP_FLOOR), rel_tol=1e-12)


def _plant_vanishing_w(ev, params, points, node):
    """Make grid node `node` receive y = -(k_phi/k_n) / conj(u_0) for every
    sent row, where w = k_phi + k_n*conj(y)*u_0 is 0."""
    ev.rotation, ev.noise = ev.rotation.copy(), ev.noise.copy()
    ev.rotation[..., node] = 0.0
    ev.noise[..., node] = -(params.k_phi / params.k_n) * points[0, 0] / abs(points[0, 0]) ** 2


def _pass_pair(ev, points, rows=slice(None)):
    """(exp table, log-sum, peak, sent metric) of `rows` from the kernel's
    pass and from the clamp-always reference, each on its own buffers."""
    n, size = points.shape[1], ev.noise.size
    kernel = functools.partial(ev._table_pass, work=_block(ev, n))
    out = []
    for table_pass in (kernel, functools.partial(clamped_table_pass, ev)):
        table = np.empty((1, n, n, size))[:, rows]
        out.append((table, *table_pass(points, rows, table, np.empty((1, n, size))[:, rows])))
    return out


def test_table_pass_nan_fallback_equals_the_clamped_pass():
    """Where the expanded |w|^2 rounds below 0 the sqrt gives a NaN; the
    pass sets those entries to what the clamped sqrt gives, and only those."""
    params = channel(6.0, 5.0)
    ev = QuadEvaluator((params,), GRID7, 8)
    points = ev._bind(reference_constellation("psk", 8).points[None])
    _plant_vanishing_w(ev, params, points, node=100)
    y = points[0, :, None] * ev.rotation[0, 0] + ev.noise[0, 0]
    columns = np.stack([y.real, y.imag, np.abs(y) ** 2, np.ones_like(y.real)], axis=1)
    squared = ev._hyp[0, 0] @ columns
    # The fallback is reached: hypothesis 0 rounds below 0 on the planted node.
    assert squared[:, 0, 100].min() < 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in (slice(None), slice(2, 6)):
            got, want = _pass_pair(ev, points, rows)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            assert np.all(np.isfinite(got[0]))


class _FloorSpy:
    """Stands in for numpy in `capacity`, counting the np.maximum calls
    that clamp at _EXP_FLOOR."""

    def __init__(self):
        self.clamps = 0
        spy = self

        class Maximum:
            def __call__(self, a, b, *args, **kwargs):
                spy.clamps += isinstance(b, float) and b == _EXP_FLOOR
                return np.maximum(a, b, *args, **kwargs)

            def __getattr__(self, name):
                return getattr(np.maximum, name)

        self.maximum = Maximum()

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize(
    "kind, size, snr, pnsd, clamps",
    [
        ("psk", 8, 12.0, 20.0, False),
        ("qam", 64, 12.0, 20.0, False),
        ("psk", 8, 24.0, 10.0, False),
        ("qam", 64, 24.0, 10.0, True),
        ("psk", 8, 40.0, 20.0, True),
        ("qam", 64, 40.0, 20.0, True),
        ("qam", 64, 40.0, 0.0, True),
    ],
)
def test_floor_clamp_runs_only_where_it_can_act(kind, size, snr, pnsd, clamps, monkeypatch):
    """The clamp is skipped when the largest peak plus the largest
    k_n|u|^2/2 is within -_EXP_FLOOR, and the exp table equals the
    clamp-always one either way.  Without jitter it always runs."""
    spy = _FloorSpy()
    monkeypatch.setattr(capacity, "np", spy)
    ev = QuadEvaluator((channel(snr, pnsd),), GRID7, size)
    points = ev._bind(reference_constellation(kind, size).points[None])
    got, want = _pass_pair(ev, points)
    assert spy.clamps == int(clamps)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    if snr == 40.0 and size == 64:
        assert got[0].min() == math.exp(_EXP_FLOOR)  # the clamp acted


@pytest.mark.parametrize("pnsd", [0.0, 20.0])
@pytest.mark.parametrize("size", [2, 4, 8, 16, 32, 64])
def test_matched_subset_pami_equals_the_subset_product(size, pnsd, monkeypatch):
    """PAMI from the m matched subset sums per sent row equals the former
    2m-product-and-gather, entry for entry, on any split into row blocks."""
    monkeypatch.setattr(capacity, "_MIN_BLOCK_ENTRIES", 1)
    bit_losses = spy_bit_losses(monkeypatch)
    rng = np.random.default_rng(size)
    c = reference_constellation("psk" if size <= 8 else "qam", size)
    params = channel(12.0, pnsd)
    for _ in range(2):
        labels = rng.permutation(size)
        want, losses = subset_product_pami_bits(
            QuadEvaluator((params,), GRID7, size), c.points, labels
        )
        for threads in (1, 4):
            set_threads(monkeypatch, threads)
            ev = QuadEvaluator((params,), GRID7, size)
            assert ev.pami_bits(c.points[None], labels[None]) == [want]
            assert np.array_equal(bit_losses(), losses), threads
