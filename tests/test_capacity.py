"""Tests for the rate evaluators: quadrature rules, AMI/PAMI, sampling."""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import i0e, i1e

from phasecon import (
    MIN_MC_SAMPLES,
    CapacityResult,
    ChannelParams,
    Constellation,
    ConstellationError,
    QuadratureGrid,
    ami_monte_carlo,
    ami_quadrature,
    gauss_hermite_nodes,
    make_constellation,
    pami_monte_carlo,
    pami_quadrature,
    reference_constellation,
    sample_tikhonov,
)
from conftest import channel, random_unit_power_constellation


# --- Gauss-Hermite rule ----------------------------------------------------


def test_gauss_hermite_moments_match_gamma_function():
    """Sum w t^p must equal the exact integral of t^p exp(-t^2).

    The exact value is Gamma((p+1)/2) for even p and 0 for odd p, and a
    degree-k rule is exact for all polynomials up to degree 2k-1.
    """
    for degree in (1, 2, 3, 7, 12, 30):
        pairs = gauss_hermite_nodes(degree)
        t = np.array([p[0] for p in pairs])
        w = np.array([p[1] for p in pairs])
        for p in range(2 * degree):
            got = float(np.dot(w, t**p))
            want = math.gamma((p + 1) / 2) if p % 2 == 0 else 0.0
            # Odd moments cancel exactly; measure the residue against the
            # magnitude of the terms being cancelled.
            scale = float(np.dot(w, np.abs(t) ** p))
            assert abs(got - want) <= 1e-14 * max(scale, 1.0) + 1e-12


def test_gauss_hermite_weights_sum_to_sqrt_pi():
    for degree in (1, 5, 15, 30):
        total = math.fsum(w for _, w in gauss_hermite_nodes(degree))
        assert total == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gauss_hermite_nodes_are_sorted_and_symmetric():
    for degree in (4, 7, 15):
        t = np.array([p[0] for p in gauss_hermite_nodes(degree)])
        assert np.all(np.diff(t) > 0)
        np.testing.assert_allclose(t, -t[::-1], atol=1e-12)


def test_gauss_hermite_rejects_bad_degrees():
    for degree in (0, -1, 31, 100):
        with pytest.raises(ValueError):
            gauss_hermite_nodes(degree)
    with pytest.raises(ValueError):
        gauss_hermite_nodes(2.5)
    with pytest.raises(ValueError):
        gauss_hermite_nodes(True)


def test_quadrature_grid_product_shapes_and_sums(grid7):
    assert grid7.degree == 7
    assert grid7.nodes.size == 7
    a, b, c, w3 = grid7.product3()
    assert a.size == b.size == c.size == w3.size == 7**3
    assert math.fsum(w3) == pytest.approx(math.pi**1.5, rel=1e-12)
    x, y, w2 = grid7.product2()
    assert x.size == y.size == w2.size == 7**2
    assert math.fsum(w2) == pytest.approx(math.pi, rel=1e-12)


def test_quadrature_grid_arrays_are_read_only(grid7):
    with pytest.raises(ValueError):
        grid7.nodes[0] = 0.0
    with pytest.raises(ValueError):
        grid7.product3()[3][0] = 0.0


# --- AMI via quadrature ----------------------------------------------------


def test_ami_saturates_at_high_snr(psk8, grid7):
    r = ami_quadrature(psk8, channel(40.0, 0.0), grid7)
    assert isinstance(r, CapacityResult)
    assert r.bits == pytest.approx(3.0, abs=1e-3)
    assert r.method == "quadrature"
    assert r.stderr == 0.0
    assert r.objective == "AMI"
    assert r.fingerprint == psk8.fingerprint()


def test_ami_vanishes_at_low_snr(psk8, grid7):
    r = ami_quadrature(psk8, channel(-40.0, 0.0), grid7)
    assert 0.0 <= r.bits <= 0.01


def test_ami_increases_with_snr(psk8, grid7):
    bits = [ami_quadrature(psk8, channel(s, 10.0), grid7).bits for s in (0, 6, 12, 18, 24)]
    assert all(b2 > b1 for b1, b2 in zip(bits, bits[1:]))


def test_phase_noise_degrades_ami(psk8, grid7):
    bits = [ami_quadrature(psk8, channel(12.0, p), grid7).bits for p in (0.0, 10.0, 25.0)]
    assert bits[0] > bits[1] > bits[2]


def test_ami_is_rotation_invariant(psk8, grid7, rng):
    base = ami_quadrature(psk8, channel(12.0, 15.0), grid7).bits
    for _ in range(5):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rotated = make_constellation(psk8.points * np.exp(1j * theta), psk8.labels)
        got = ami_quadrature(rotated, channel(12.0, 15.0), grid7).bits
        assert abs(got - base) <= 1e-6


def test_ami_ignores_the_labeling(psk8, grid7):
    relabeled = make_constellation(psk8.points, [(l + 3) % 8 for l in psk8.labels])
    p = channel(9.0, 10.0)
    assert ami_quadrature(psk8, p, grid7).bits == ami_quadrature(relabeled, p, grid7).bits


def test_ami_stable_under_point_reordering(psk8, grid7, rng):
    p = channel(9.0, 10.0)
    base = ami_quadrature(psk8, p, grid7).bits
    perm = rng.permutation(8)
    shuffled = make_constellation(psk8.points[perm], np.asarray(psk8.labels)[perm])
    assert abs(ami_quadrature(shuffled, p, grid7).bits - base) <= 1e-9


def test_unnormalized_input_is_rejected(psk8, grid7):
    big = make_constellation(psk8.points * 1.5, psk8.labels)
    with pytest.raises(ConstellationError):
        ami_quadrature(big, channel(10.0, 5.0), grid7)
    with pytest.raises(ConstellationError):
        pami_quadrature(big, channel(10.0, 5.0), grid7)


def test_awgn_path_matches_tiny_phase_noise(psk8, grid7):
    awgn = ami_quadrature(psk8, ChannelParams.from_concentrations(31.7, math.inf), grid7).bits
    near = ami_quadrature(psk8, ChannelParams.from_concentrations(31.7, 1e8), grid7).bits
    assert abs(awgn - near) <= 0.005


def test_wide_phase_spread_warns(psk8, grid7):
    with pytest.warns(UserWarning):
        ami_quadrature(psk8, channel(10.0, 35.0), grid7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ami_quadrature(psk8, channel(10.0, 25.0), grid7)


# --- PAMI ------------------------------------------------------------------


def test_pami_never_exceeds_ami(grid7, rng):
    for _ in range(25):
        c = random_unit_power_constellation(rng)
        snr = rng.uniform(-5.0, 25.0)
        pnsd = rng.uniform(0.0, 28.0)
        p = channel(snr, pnsd)
        ami = ami_quadrature(c, p, grid7).bits
        pami = pami_quadrature(c, p, grid7).bits
        assert pami <= ami + 1e-6
        assert 0.0 <= pami and ami <= 3.0


def test_gray_labels_beat_natural_labels(grid7):
    gray = reference_constellation("psk", 8)
    natural = make_constellation(gray.points, list(range(8)))
    p = channel(12.0, 0.0)
    assert pami_quadrature(gray, p, grid7).bits > pami_quadrature(natural, p, grid7).bits + 0.05


def test_pami_invariant_under_global_label_xor(psk8, grid7):
    """XOR-ing every label with a constant preserves all per-bit subsets."""
    flipped = make_constellation(psk8.points, [l ^ 0b101 for l in psk8.labels])
    p = channel(10.0, 12.0)
    assert pami_quadrature(psk8, p, grid7).bits == pami_quadrature(flipped, p, grid7).bits


def test_result_objective_tags(psk8, grid7):
    p = channel(10.0, 10.0)
    assert pami_quadrature(psk8, p, grid7).objective == "PAMI"
    assert pami_monte_carlo(psk8, p, 2000, seed=3).objective == "PAMI"


# --- binary antipodal oracle ----------------------------------------------


def _bpsk_awgn_mi(snr_db: float) -> float:
    # Independent oracle: for antipodal unit signals only the in-phase
    # noise matters,
    # so the rate is a one-dimensional Gaussian integral evaluated here with
    # a high-order Hermite rule none of the production code uses.
    k_n = 2.0 * 10.0 ** (snr_db / 10.0)
    t, w = np.polynomial.hermite.hermgauss(120)
    r = 1.0 + t * math.sqrt(2.0 / k_n)
    integrand = np.log1p(np.exp(-2.0 * k_n * r)) / math.log(2.0)
    return 1.0 - float(np.dot(w, integrand)) / math.sqrt(math.pi)


def test_bpsk_matches_scalar_integral_oracle(grid15):
    psk2 = reference_constellation("psk", 2)
    for snr_db in (-3.0, 2.0, 7.0):
        want = _bpsk_awgn_mi(snr_db)
        got = ami_quadrature(psk2, channel(snr_db, 0.0), grid15).bits
        assert got == pytest.approx(want, abs=2e-3)
        mc = ami_monte_carlo(psk2, channel(snr_db, 0.0), 40000, seed=11)
        assert abs(mc.bits - want) <= 3.0 * mc.stderr + 0.01


# --- Monte Carlo -----------------------------------------------------------


def test_monte_carlo_is_reproducible(psk8):
    p = channel(9.0, 12.0)
    a = ami_monte_carlo(psk8, p, 5000, seed=42)
    b = ami_monte_carlo(psk8, p, 5000, seed=42)
    assert a.bits == b.bits and a.stderr == b.stderr
    c = ami_monte_carlo(psk8, p, 5000, seed=43)
    assert c.bits != a.bits


def test_monte_carlo_reports_method_and_stderr(psk8):
    r = ami_monte_carlo(psk8, channel(9.0, 12.0), 5000, seed=1)
    assert r.method == "monte_carlo"
    assert r.stderr > 0.0


def test_monte_carlo_stderr_follows_sample_count(psk8):
    p = channel(6.0, 15.0)
    small = ami_monte_carlo(psk8, p, 8000, seed=5).stderr
    large = ami_monte_carlo(psk8, p, 32000, seed=5).stderr
    assert small / large == pytest.approx(2.0, rel=0.2)


def test_monte_carlo_agrees_with_quadrature(psk8, grid7):
    p = channel(9.0, 5.0)
    quad = ami_quadrature(psk8, p, grid7).bits
    mc = ami_monte_carlo(psk8, p, 100000, seed=7)
    assert abs(quad - mc.bits) <= max(0.03, 3.0 * mc.stderr)


def test_monte_carlo_pami_below_ami(psk8):
    p = channel(9.0, 12.0)
    a = ami_monte_carlo(psk8, p, 20000, seed=2)
    b = pami_monte_carlo(psk8, p, 20000, seed=2)
    assert b.bits <= a.bits + 3.0 * (a.stderr + b.stderr)


def test_monte_carlo_is_rotation_invariant(psk8):
    p = channel(9.0, 12.0)
    base = ami_monte_carlo(psk8, p, 5000, seed=9).bits
    rotated = make_constellation(psk8.points * np.exp(0.7j), psk8.labels)
    got = ami_monte_carlo(rotated, p, 5000, seed=9).bits
    assert abs(got - base) <= 1e-9


def test_monte_carlo_rejects_tiny_sample_counts(psk8):
    with pytest.raises(ValueError):
        ami_monte_carlo(psk8, channel(10.0, 5.0), MIN_MC_SAMPLES - 1, seed=0)


def test_monte_carlo_memory_does_not_grow_with_snr(psk8):
    # Scoring works on (chunk, M) arrays whatever |k_phi + k_n conj(y) u|
    # reaches; a phase grid sized to that peak once took hundreds of MB here.
    tracemalloc.start()
    try:
        ami_monte_carlo(psk8, channel(30.0, 5.0), 1000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6, peak


def test_monte_carlo_bits_stay_in_range(psk8):
    r = ami_monte_carlo(psk8, channel(-30.0, 5.0), 2000, seed=0)
    assert 0.0 <= r.bits <= 3.0
    assert isinstance(r.clamped, bool)


# --- phase sampling --------------------------------------------------------


def test_tikhonov_sampler_hits_bessel_moment():
    """E[cos phi] must equal I1(K)/I0(K); checks both proposal branches."""
    rng = np.random.default_rng(99)
    n = 400000
    for k in (0.5, 5.0, 80.0, 400.0):
        draws = sample_tikhonov(k, n, rng)
        want = i1e(k) / i0e(k)
        got = np.mean(np.cos(draws))
        spread = np.std(np.cos(draws)) / math.sqrt(n)
        assert abs(got - want) <= 5.0 * spread + 1e-4


def test_tikhonov_sampler_edge_concentrations():
    rng = np.random.default_rng(7)
    flat = sample_tikhonov(0.0, 100000, rng)
    assert abs(np.mean(np.exp(1j * flat))) <= 0.02
    assert np.all(flat > -math.pi) and np.all(flat <= math.pi)
    pinned = sample_tikhonov(math.inf, 1000, rng)
    assert np.all(pinned == 0.0)


def test_tikhonov_sampler_is_reproducible():
    a = sample_tikhonov(12.0, 1000, np.random.default_rng(5))
    b = sample_tikhonov(12.0, 1000, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    assert np.all(np.abs(a) <= math.pi)


def test_tikhonov_sampler_rejects_bad_concentration():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_tikhonov(-1.0, 10, rng)
    with pytest.raises(ValueError):
        sample_tikhonov(math.nan, 10, rng)


# --- threading -------------------------------------------------------------


def test_parallel_evaluation_matches_serial(psk8, grid7):
    p = channel(9.0, 12.0)
    serial = ami_quadrature(psk8, p, grid7, threads=1).bits
    parallel = ami_quadrature(psk8, p, grid7, threads=4).bits
    assert abs(serial - parallel) < 1e-10
    mc_serial = ami_monte_carlo(psk8, p, 20000, seed=3, threads=1).bits
    mc_parallel = ami_monte_carlo(psk8, p, 20000, seed=3, threads=4).bits
    assert abs(mc_serial - mc_parallel) < 1e-10


@pytest.mark.parametrize("pnsd", [0.0, 20.0])
@pytest.mark.parametrize("kind, size", [("psk", 8), ("qam", 64)])
def test_quadrature_is_bit_identical_for_any_thread_count(kind, size, pnsd, grid7):
    c = reference_constellation(kind, size)
    p = channel(12.0, pnsd)
    # Blocks write disjoint slices of one PAMI table; a short switch
    # interval makes a lost or misplaced write more likely to show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rate in (ami_quadrature, pami_quadrature):
            bits = [rate(c, p, grid7, threads=t).bits for t in (1, 2, 3)]
            assert bits[1] == bits[0] and bits[2] == bits[0], (rate.__name__, bits)
        # Monte Carlo chunks go to the same pools and write disjoint slices.
        for rate in (ami_monte_carlo, pami_monte_carlo):
            runs = [rate(c, p, 2000, 4, chunk=128, threads=t) for t in (1, 2, 3)]
            bits = [(r.bits, r.stderr) for r in runs]
            assert bits[1] == bits[0] and bits[2] == bits[0], (rate.__name__, bits)
    finally:
        sys.setswitchinterval(interval)


def test_one_node_grid_is_bit_identical_for_any_thread_count():
    c = reference_constellation("qam", 16)
    p = channel(12.0, 0.0)
    grid = QuadratureGrid.of_degree(1)
    bits = {pami_quadrature(c, p, grid, threads=t).bits for t in range(1, 17)}
    assert len(bits) == 1, bits


def test_thread_count_env_override(psk8, grid7, monkeypatch):
    p = channel(9.0, 12.0)
    base = ami_quadrature(psk8, p, grid7).bits
    monkeypatch.setenv("PHASECON_THREADS", "3")
    assert ami_quadrature(psk8, p, grid7).bits == pytest.approx(base, abs=1e-10)
    monkeypatch.setenv("PHASECON_THREADS", "soup")
    with pytest.raises(ValueError):
        ami_quadrature(psk8, p, grid7)
