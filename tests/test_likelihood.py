"""Likelihood kernels: density, phase estimate, fast metric, exact likelihood.

The phase estimate, the scalar fast metric and the densities live in the
test-side `metric_reference` module; the exact likelihood is the package's.
"""

import math

import numpy as np
import pytest
from scipy.special import i0e

from phasecon import ChannelParams, exact_log_likelihood, log_bessel_i0, reference_constellation
from phasecon.likelihood import _LOG_I0_SPLIT
from metric_reference import (
    MetricContext,
    awgn_log_likelihood,
    awgn_metric,
    decision_metric,
    log_phase_integral,
    log_ratio,
    phase_estimate,
    tikhonov_log_pdf,
)


def bessel_i0_series(x, terms=80):
    """Power-series evaluation, independent of the scipy route."""
    total, term = 1.0, 1.0
    for k in range(1, terms):
        term *= (x / (2 * k)) ** 2
        total += term
    return total


# --- Bessel and density ----------------------------------------------------


def test_log_bessel_matches_power_series():
    for x in (0.0, 0.5, 2.0, 10.0):
        assert log_bessel_i0(x) == pytest.approx(math.log(bessel_i0_series(x)), abs=1e-12)


def test_log_bessel_finite_at_huge_argument():
    val = log_bessel_i0(1e6)
    assert math.isfinite(val)
    # dominated by the linear term
    assert val == pytest.approx(1e6, rel=1e-4)


def scipy_log_bessel_i0(x):
    """log I_0 by scipy, the reference for the package's numpy route."""
    x = np.asarray(x, dtype=np.float64)
    return x + np.log(i0e(x))


def assert_log_bessel_close(x):
    want = scipy_log_bessel_i0(x)
    got = log_bessel_i0(x)
    np.testing.assert_array_less(np.abs(got - want), 1e-12 * np.maximum(1.0, want))


def test_log_bessel_matches_scipy_from_1e_minus_300_to_1e300():
    assert_log_bessel_close(np.logspace(-300, 300, 60001))


def test_log_bessel_matches_scipy_at_zero_and_across_its_branch_join():
    join = _LOG_I0_SPLIT
    below, above = np.nextafter(join, 0.0), np.nextafter(join, np.inf)
    x = np.array([0.0, 5e-324, 1e-8, 0.5, join - 1e-6, below, join, above, join + 1e-6, 50.0])
    assert_log_bessel_close(x)
    assert log_bessel_i0(0.0) == 0.0
    # The two branches meet without a step.
    assert abs(log_bessel_i0(above) - log_bessel_i0(below)) < 1e-14


def test_log_bessel_returns_float_for_scalar_and_array_for_array():
    assert type(log_bessel_i0(3.0)) is float
    assert type(log_bessel_i0(np.float64(40.0))) is float
    out = log_bessel_i0(np.array([[1.0, 20.0], [3.0, 0.0]]))
    assert isinstance(out, np.ndarray) and out.shape == (2, 2)
    np.testing.assert_array_equal(out[0], log_bessel_i0([1.0, 20.0]))


def test_log_bessel_rejects_negative_arguments():
    with pytest.raises(ValueError):
        log_bessel_i0(-1e-300)
    with pytest.raises(ValueError):
        log_bessel_i0(np.array([1.0, -2.0, 30.0]))


def test_tikhonov_uniform_limit():
    assert tikhonov_log_pdf(0.7, 0.0) == pytest.approx(math.log(1 / (2 * math.pi)))
    assert tikhonov_log_pdf(-2.0, 0.0) == tikhonov_log_pdf(3.0, 0.0)


def test_tikhonov_peak_value_against_series():
    expected = 10.0 - math.log(2 * math.pi * bessel_i0_series(10.0))
    assert tikhonov_log_pdf(0.0, 10.0) == pytest.approx(expected, abs=1e-12)


def test_tikhonov_normalizes_over_one_period():
    for k_phi in (0.0, 0.5, 10.0, 200.0):
        phi = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
        dens = np.exp([tikhonov_log_pdf(p, k_phi) for p in phi])
        integral = dens.sum() * (2 * math.pi / 4096)
        assert integral == pytest.approx(1.0, abs=1e-8)


def test_tikhonov_rejects_negative_or_infinite_concentration():
    with pytest.raises(ValueError):
        tikhonov_log_pdf(0.0, -1.0)
    with pytest.raises(ValueError):
        tikhonov_log_pdf(0.0, math.inf)


# --- phase estimate --------------------------------------------------------


def test_phase_estimate_real_axis_and_zero_ratio():
    assert phase_estimate(1.0 + 0.0j, 0.5) == 0.0
    assert phase_estimate(0.3 - 0.8j, 0.0) == 0.0


def test_phase_estimate_quarter_turn_case():
    assert phase_estimate(1j, 1.0) == pytest.approx(-math.pi / 4)


def test_phase_estimate_conjugate_antisymmetry(rng):
    for _ in range(100):
        z = complex(rng.normal(), rng.normal())
        a = rng.uniform(0.0, 5.0)
        assert phase_estimate(np.conj(z), a) == pytest.approx(-phase_estimate(z, a), abs=1e-14)


def test_phase_estimate_is_stationary_point(rng):
    for _ in range(200):
        z = complex(rng.normal(), rng.normal()) * rng.uniform(0.2, 3.0)
        k_phi = rng.uniform(0.5, 40.0)
        k_n = rng.uniform(0.5, 40.0)
        est = phase_estimate(z, k_n / k_phi)
        deriv = -k_phi * math.sin(est) - k_n * abs(z) * math.sin(np.angle(z) + est)
        assert abs(deriv) < 1e-9 * max(1.0, k_n * abs(z))


def test_phase_estimate_maximizes_on_fine_grid(rng):
    grid = np.linspace(-math.pi, math.pi, 720, endpoint=False)
    for _ in range(200):
        z = complex(rng.normal(), rng.normal()) * rng.uniform(0.1, 3.0)
        k_phi = rng.uniform(0.3, 30.0)
        k_n = rng.uniform(0.3, 30.0)
        est = phase_estimate(z, k_n / k_phi)
        assert -math.pi < est <= math.pi
        f_grid = k_phi * np.cos(grid) + k_n * np.real(z * np.exp(1j * grid))
        f_est = k_phi * math.cos(est) + k_n * (z * np.exp(1j * est)).real
        assert f_est >= f_grid.max() - 1e-9


def test_phase_estimate_handles_reversed_branch():
    # 1 + A Re(z) < 0 flips the naive single-argument arctangent onto the
    # minimum; the estimate must still land on the maximum.
    z = -2.0 + 0.3j
    a = 4.0
    est = phase_estimate(z, a)
    grid = np.linspace(-math.pi, math.pi, 1440, endpoint=False)
    f = np.cos(grid) / a + np.real(z * np.exp(1j * grid))
    f_est = math.cos(est) / a + (z * np.exp(1j * est)).real
    assert f_est >= f.max() - 1e-9


# --- fast metric -----------------------------------------------------------


def make_ctx(snr_db=9.0, pnsd_deg=15.0, points=None):
    params = ChannelParams.from_snr_pnsd(snr_db, pnsd_deg)
    if points is None:
        points = reference_constellation("psk", 8).points
    return MetricContext.for_points(points, params)


def test_metric_context_precomputed_terms():
    ctx = make_ctx()
    direct = -0.5 * ctx.params.k_n * np.abs(ctx.hypotheses) ** 2
    np.testing.assert_allclose(ctx.hypothesis_terms, direct, rtol=0, atol=1e-14)


def test_decision_metric_rotation_covariance(rng):
    ctx = make_ctx()
    for _ in range(50):
        y = complex(rng.normal(), rng.normal())
        u = complex(*rng.normal(size=2))
        theta = rng.uniform(0, 2 * math.pi)
        rotated = decision_metric(y * np.exp(1j * theta), u * np.exp(1j * theta), ctx_for_pair(ctx, u, theta))
        assert rotated == pytest.approx(decision_metric(y, u, ctx_for_pair(ctx, u, 0.0)), abs=1e-9)


def ctx_for_pair(ctx, u, theta):
    pts = np.array([u * np.exp(1j * theta)])
    return MetricContext.for_points(pts, ctx.params)


def test_decision_metric_requires_finite_phase_concentration():
    params = ChannelParams.from_snr_pnsd(10.0, 0.0)
    ctx = MetricContext.for_points(np.array([1.0 + 0j]), params)
    with pytest.raises(ValueError):
        decision_metric(0.5 + 0.5j, 1.0 + 0j, ctx)
    assert math.isfinite(awgn_metric(0.5 + 0.5j, 1.0 + 0j, ctx))


def test_decision_metric_near_awgn_matches_gaussian_ratio(rng):
    k_n = 2.0 * 10 ** 0.9
    params = ChannelParams(k_n=k_n, k_phi=1e8)
    for _ in range(100):
        y = complex(rng.normal(), rng.normal())
        u = complex(*rng.normal(size=2))
        x = complex(*rng.normal(size=2))
        ctx = MetricContext.for_points(np.array([u, x]), params)
        fast = decision_metric(y, u, ctx) - decision_metric(y, x, ctx)
        awgn = -0.5 * k_n * (abs(u) ** 2 - abs(x) ** 2) + k_n * (np.conj(y) * (u - x)).real
        assert fast == pytest.approx(awgn, abs=1e-4)


def test_decision_metric_picks_sent_symbol_when_clean():
    params = ChannelParams(k_n=500.0, k_phi=30.0)
    pts = reference_constellation("psk", 8).points
    ctx = MetricContext.for_points(pts, params)
    for sent in pts:
        scores = [decision_metric(complex(sent), complex(u), ctx) for u in pts]
        assert np.argmax(scores) == np.argmin(np.abs(pts - sent))


def test_log_ratio_zero_for_identical_and_antisymmetric(rng):
    ctx = make_ctx()
    pts = ctx.hypotheses
    for _ in range(50):
        y = complex(rng.normal(), rng.normal())
        u, x = rng.choice(pts, 2, replace=False)
        assert log_ratio(y, complex(u), complex(u), ctx) == 0.0
        assert log_ratio(y, complex(u), complex(x), ctx) == pytest.approx(
            -log_ratio(y, complex(x), complex(u), ctx), abs=1e-12
        )


def test_log_ratio_equals_metric_difference(rng):
    ctx = make_ctx()
    pts = ctx.hypotheses
    for _ in range(1000):
        y = complex(rng.normal(), rng.normal()) * rng.uniform(0.2, 2.0)
        u, x = rng.choice(pts, 2, replace=False)
        diff = decision_metric(y, complex(u), ctx) - decision_metric(y, complex(x), ctx)
        assert log_ratio(y, complex(u), complex(x), ctx) == pytest.approx(diff, abs=1e-12)


# --- exact likelihood oracle -----------------------------------------------


def trapezoid_log_likelihood(y, u, params):
    """log p(y | u) with both phase integrals taken by the periodic trapezoid
    rule: the joint density's, folded into exp(Re(w e^{j phi})) with
    w = k_phi + k_n conj(y) u, and the von Mises normaliser's."""
    k_n, k_phi = params.k_n, params.k_phi
    return float(
        math.log(k_n / (2 * math.pi))
        - 0.5 * k_n * (abs(y) ** 2 + abs(u) ** 2)
        + log_phase_integral(k_phi + k_n * np.conj(y) * u)
        - log_phase_integral(k_phi)
    )


def test_exact_likelihood_matches_bessel_closed_form(rng):
    # exact_log_likelihood is the closed form
    # log(k_n / 2 pi) - (k_n/2)(|y|^2 + |u|^2) - log I0(k_phi) + log I0(|k_phi + k_n y* u|);
    # a numerical phase integral is an independent check on it, also where
    # |w| reaches ~1e5 and I0 overflows.
    params = ChannelParams.from_snr_pnsd(9.0, 15.0)
    pairs = [(params, complex(rng.normal(), rng.normal()), complex(*rng.normal(size=2)))
             for _ in range(40)]
    # Received samples near their symbol at 44 dB and 2.9 deg: |w| ~ 1e5.
    sharp = ChannelParams(k_n=5e4, k_phi=400.0)
    for _ in range(12):
        u = rng.uniform(0.7, 1.4) * np.exp(2j * math.pi * rng.random())
        noise = complex(*rng.normal(size=2)) / math.sqrt(sharp.k_n)
        y = u * np.exp(1j * rng.normal(0.0, 0.05)) + noise
        pairs.append((sharp, y, u))
    largest = 0.0
    for params, y, u in pairs:
        largest = max(largest, abs(params.k_phi + params.k_n * np.conj(y) * u))
        assert exact_log_likelihood(y, u, params) == pytest.approx(
            trapezoid_log_likelihood(y, u, params), abs=1e-10
        )
    assert largest > 5e4


def test_exact_likelihood_pinned_phase_is_gaussian():
    awgn = ChannelParams(k_n=4.0, k_phi=math.inf)
    # k_phi = 1e12 is past the jitter-free ratio: the Gaussian density itself.
    for k_phi, tol in ((1e6, 1e-4), (1e12, 1e-12)):
        params = ChannelParams(k_n=4.0, k_phi=k_phi)
        for y, u in ((0.9 + 0.4j, 1.0 + 0j), (-0.2 + 1.1j, 0.3 - 0.9j)):
            assert exact_log_likelihood(y, u, params) == pytest.approx(
                awgn_log_likelihood(y, u, awgn), abs=tol
            )


def test_exact_likelihood_rejects_awgn_params():
    params = ChannelParams.from_snr_pnsd(9.0, 0.0)
    with pytest.raises(ValueError):
        exact_log_likelihood(1.0, 1.0, params)


def test_exact_likelihood_normalizes_over_output_plane():
    params = ChannelParams.from_snr_pnsd(6.0, 15.0)
    u = np.array([math.sqrt(2) * np.exp(0.4j)])
    half = 4.6
    n = 231
    axis = np.linspace(-half, half, n)
    step = axis[1] - axis[0]
    yy = (axis[:, None] + 1j * axis[None, :]).ravel()
    logs = exact_log_likelihood(yy[:, None], u, params)[:, 0]
    integral = np.exp(logs).sum() * step * step
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_batch_exact_likelihood_matches_scalar(rng):
    params = ChannelParams.from_snr_pnsd(9.0, 20.0)
    pts = reference_constellation("psk", 8).points
    ys = (rng.normal(size=12) + 1j * rng.normal(size=12)) * 1.2
    table = exact_log_likelihood(ys[:, None], pts, params)
    for i in range(ys.size):
        for j in range(pts.size):
            scalar = exact_log_likelihood(complex(ys[i]), complex(pts[j]), params)
            assert table[i, j] == pytest.approx(scalar, abs=1e-10)


def test_awgn_log_likelihood_is_gaussian_density():
    params = ChannelParams(k_n=4.0, k_phi=math.inf)
    y, u = 1.1 - 0.3j, 0.6 + 0.2j
    sigma2 = 1.0 / params.k_n
    expected = math.log(
        1.0 / (2 * math.pi * sigma2) * math.exp(-abs(y - u) ** 2 / (2 * sigma2))
    )
    assert awgn_log_likelihood(y, u, params) == pytest.approx(expected, abs=1e-12)


def test_fast_metric_error_is_the_dropped_curvature_term(rng):
    # Replacing the phase integral's log-sum by its peak drops exactly the
    # term 0.5*ln(|w_u| / |w_x|) (+O(1/|w|)) from each log ratio, where
    # w = k_phi + k_n * conj(y) * u.  Per-pair deviations therefore reach
    # ~0.4 at low SNR (measured: max 0.42 at 6 dB / 10 deg, 0.40 at
    # 12 dB / 20 deg, 0.034 at 18 dB / 30 deg) while staying fully
    # accounted for by that term; rate estimates are insensitive to it
    # because near-maximal hypotheses share |w|.
    pts = reference_constellation("psk", 8).points
    for snr_db, pnsd_deg, worst_bound in (
        (6.0, 10.0, 0.6),
        (12.0, 20.0, 0.6),
        (18.0, 30.0, 0.05),
    ):
        params = ChannelParams.from_snr_pnsd(snr_db, pnsd_deg)
        ctx = MetricContext.for_points(pts, params)
        sigma = 1.0 / math.sqrt(params.k_n)
        worst = 0.0
        for _ in range(150):
            sent = complex(rng.choice(pts))
            phase = rng.normal(0.0, params.pnsd_rad)
            y = sent * np.exp(1j * phase) + sigma * complex(*rng.normal(size=2))
            u, x = rng.choice(pts, 2, replace=False)
            fast = log_ratio(y, complex(u), complex(x), ctx)
            exact = exact_log_likelihood(y, complex(u), params) - exact_log_likelihood(
                y, complex(x), params
            )
            err = abs(fast - exact)
            w_u = abs(params.k_phi + params.k_n * np.conj(y) * u)
            w_x = abs(params.k_phi + params.k_n * np.conj(y) * x)
            assert err <= 0.5 * abs(math.log(w_u / w_x)) + 0.01
            worst = max(worst, err)
        assert worst < worst_bound
