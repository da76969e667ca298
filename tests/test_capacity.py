"""Tests for the rate evaluators: quadrature rules, AMI/PAMI, sampling."""

import cmath
import itertools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import i0e, i1e, ive

from phasecon import (
    MIN_MC_SAMPLES,
    CapacityResult,
    ChannelParams,
    Constellation,
    ConstellationError,
    QuadratureGrid,
    ami_monte_carlo,
    ami_quadrature,
    capacity,
    make_constellation,
    pami_monte_carlo,
    pami_quadrature,
    reference_constellation,
)
from phasecon.capacity import AMI, PAMI, _draw_channel_samples
from conftest import (
    channel,
    count_builds,
    random_unit_power_constellation,
    set_threads,
    spy_bit_losses,
    spy_pools,
    spy_table_rows,
)


# --- Gauss-Hermite rule ----------------------------------------------------


def test_gauss_hermite_moments_match_gamma_function():
    """Sum w t^p must equal the exact integral of t^p exp(-t^2).

    The exact value is Gamma((p+1)/2) for even p and 0 for odd p, and a
    degree-k rule is exact for all polynomials up to degree 2k-1.
    """
    for degree in (1, 2, 3, 7, 12, 30):
        grid = QuadratureGrid.of_degree(degree)
        t, w = grid.nodes, grid.weights
        for p in range(2 * degree):
            got = float(np.dot(w, t**p))
            want = math.gamma((p + 1) / 2) if p % 2 == 0 else 0.0
            # Odd moments cancel exactly; measure the residue against the
            # magnitude of the terms being cancelled.
            scale = float(np.dot(w, np.abs(t) ** p))
            assert abs(got - want) <= 1e-14 * max(scale, 1.0) + 1e-12


def test_gauss_hermite_weights_sum_to_sqrt_pi():
    for degree in (1, 5, 15, 30):
        total = math.fsum(QuadratureGrid.of_degree(degree).weights)
        assert total == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gauss_hermite_nodes_are_sorted_and_symmetric():
    for degree in (4, 7, 15):
        t = QuadratureGrid.of_degree(degree).nodes
        assert np.all(np.diff(t) > 0)
        np.testing.assert_allclose(t, -t[::-1], atol=1e-12)


def test_gauss_hermite_rejects_bad_degrees():
    for degree in (0, -1, 31, 100, 2.5, True):
        with pytest.raises(ValueError):
            QuadratureGrid.of_degree(degree)


def test_quadrature_grid_product_shapes_and_sums():
    """On the d nodes t of the 1-D rule, an evaluator binds a channel's G
    nodes as the d x d product without jitter and the d x d x d product with
    it, the phase last: node (i1, i2, i3) sits at offset
    sqrt(2) sigma (t[i1] + j t[i2]) with rotation exp(j sqrt(2) sigma_phi
    t[i3]), and the weights of each slot sum to 1.  d is the rule's node
    count, whatever the degree field of a grid built directly."""
    grids = [QuadratureGrid.of_degree(d) for d in (1, 2, 7)]
    grids.append(QuadratureGrid(0, *np.polynomial.hermite.hermgauss(3)))
    classes = [(channel(12.0, 20.0), channel(3.0, 5.0), channel(20.0, 35.0)),
               (channel(12.0, 0.0), channel(-5.0, 0.0))]
    for grid, channels in itertools.product(grids, classes):
        t, d = grid.nodes, grid.nodes.size
        jitter = channels[0].has_phase_noise
        ev = capacity.QuadEvaluator(channels, grid, 8)
        assert ev.noise.shape == ev._weights.shape == (len(channels), 1, d**3 if jitter else d**2)
        indices = list(itertools.product(range(d), repeat=3 if jitter else 2))
        for slot, p in enumerate(channels):
            sigma = math.sqrt(2.0 / p.k_n)
            offsets = [sigma * complex(t[i[0]], t[i[1]]) for i in indices]
            np.testing.assert_allclose(ev.noise[slot, 0], offsets, rtol=1e-15, atol=0.0)
            assert math.fsum(ev._weights[slot, 0]) == pytest.approx(1.0, rel=1e-12)
            if jitter:
                turns = [cmath.exp(1j * math.sqrt(2.0) * p.pnsd_rad * t[i[2]]) for i in indices]
                np.testing.assert_allclose(ev.rotation[slot, 0], turns, rtol=1e-15, atol=0.0)
            else:
                assert ev.rotation is None


def test_quadrature_grid_arrays_are_read_only(grid7):
    """One grid object serves every caller of its degree, so none may
    write to it."""
    assert QuadratureGrid.of_degree(np.int64(7)) is grid7
    arrays = [value for value in vars(grid7).values() if isinstance(value, np.ndarray)]
    assert len(arrays) >= 2
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0.0


@pytest.mark.parametrize("degree", [1, 2, 7, 30])
@pytest.mark.parametrize(
    "before, after",
    [([(12.0, 20.0)], [(14.0, 10.0)]), ([(12.0, 0.0)], [(16.0, 0.0)]),
     ([(0.0, 10.0), (12.0, 20.0), (40.0, 45.0)], [(6.0, 1.0), (9.0, 30.0), (-10.0, 44.0)]),
     ([(-10.0, 0.0), (12.0, 0.0), (40.0, 0.0)], [(6.0, 0.0), (20.0, 0.0), (-5.0, 0.0)])],
    ids=["one-slot-20deg", "one-slot-0deg", "three-slots-jitter", "three-slots-0deg"],
)
def test_a_rebind_equals_a_fresh_build(before, after, degree):
    """An evaluator bound to other channels of its class and rebound holds
    the node offsets, rotations, weights, factors and hypothesis rows of one
    built on the new channels, byte for byte."""
    grid = QuadratureGrid.of_degree(degree)
    old, new = ([channel(*c) for c in cells] for cells in (before, after))
    points = np.repeat(reference_constellation("qam", 8).points[None], len(new), 0)
    rebound, fresh = capacity.QuadEvaluator(old, grid, 8), capacity.QuadEvaluator(new, grid, 8)
    rebound._bind_channels(new)
    for ev in (rebound, fresh):
        ev._bind(points)
    for name in ("noise", "rotation", "_weights", "_factors", "_hyp"):
        a, b = getattr(rebound, name), getattr(fresh, name)
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), name


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
    awgn = ami_quadrature(psk8, ChannelParams(k_n=31.7, k_phi=math.inf), grid7).bits
    near = ami_quadrature(psk8, ChannelParams(k_n=31.7, k_phi=1e8), grid7).bits
    assert abs(awgn - near) <= 0.005
    # Below about 1e-3 deg at 12 dB the k_phi terms would swamp the k_n
    # terms in rounding, so the channel counts as jitter-free there; on
    # both sides of that line both routes stay at the jitter-free rate.
    for c, snr_db in ((psk8, 12.0), (reference_constellation("qam", 64), 20.0)):
        ami0 = ami_quadrature(c, channel(snr_db, 0.0), grid7).bits
        pami0 = pami_quadrature(c, channel(snr_db, 0.0), grid7).bits
        for pnsd in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
            p = channel(snr_db, pnsd)
            assert abs(ami_quadrature(c, p, grid7).bits - ami0) <= 1e-4, pnsd
            assert abs(pami_quadrature(c, p, grid7).bits - pami0) <= 1e-4, pnsd
            if c is psk8:
                for mc_fn, want in ((ami_monte_carlo, ami0), (pami_monte_carlo, pami0)):
                    mc = mc_fn(c, p, 20000, seed=3)
                    assert abs(mc.bits - want) <= 3.0 * mc.stderr, (pnsd, mc_fn)


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


@pytest.mark.parametrize("chunk", (-5, 0, 2.5))
def test_monte_carlo_refuses_a_chunk_that_is_not_a_positive_integer(psk8, chunk):
    for rate in (ami_monte_carlo, pami_monte_carlo):
        with pytest.raises(ValueError, match="chunk"):
            rate(psk8, channel(12.0, 20.0), 2000, 0, chunk=chunk)


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


def test_quadrature_refuses_jitter_channels_whose_phase_it_cannot_resolve(psk8, grid7):
    # 8-PSK at 20 deg: 125 dB is below the k_n / k_phi cut of 1e12 (7.7e11)
    # and still scores the high-SNR plateau; a channel at 130 dB (2.4e12)
    # cannot be built, so no rate is ever computed for it.
    plateau = channel(80.0, 20.0)
    for rate in (ami_quadrature, pami_quadrature):
        bits = rate(psk8, channel(125.0, 20.0), grid7).bits
        assert abs(bits - rate(psk8, plateau, grid7).bits) < 1e-3, rate.__name__
    with pytest.raises(ValueError, match="too high"):
        channel(130.0, 20.0)
    # The jitter-free channel has no phase to resolve.
    assert ami_quadrature(psk8, channel(2000.0, 0.0), grid7).bits == 3.0


def test_monte_carlo_refuses_the_channels_the_quadrature_refuses(psk8):
    # 8-PSK at 5 deg: k_phi = 131, so the k_n / k_phi cut of 1e12 falls at
    # 138.2 dB.  At 170 dB Monte Carlo once scored 0.0 bits; that channel
    # cannot be built, so neither route can score it.
    inside = channel(138.0, 5.0)
    for rate in (ami_monte_carlo, pami_monte_carlo):
        assert rate(psk8, inside, MIN_MC_SAMPLES, seed=0).bits > 2.99
    for snr_db in (170.0, 2000.0):
        with pytest.raises(ValueError, match="too high"):
            channel(snr_db, 5.0)


def test_monte_carlo_bits_stay_in_range(psk8):
    r = ami_monte_carlo(psk8, channel(-30.0, 5.0), 2000, seed=0)
    assert 0.0 <= r.bits <= 3.0
    assert isinstance(r.clamped, bool)


# --- phase sampling --------------------------------------------------------


def drawn_phases(k_phi, n, seed):
    """The phases `_draw_channel_samples` draws at concentration k_phi,
    recovered as angle(y / x) on 8-PSK at k_n = 1e12 k_phi, the edge of the
    channel domain, where the noise moves an angle by k_n^-1/2 <= 2 urad."""
    pts = reference_constellation("psk", 8).points
    idx, y = _draw_channel_samples(pts, ChannelParams(k_n=1e12 * k_phi, k_phi=k_phi), n, seed)
    return np.angle(y / pts[idx])


def test_tikhonov_sampler_hits_bessel_moment():
    """E[cos phi] must equal I1(K)/I0(K) from weak to strong concentration."""
    n = 400000
    for seed, k in enumerate((0.5, 5.0, 80.0, 400.0)):
        draws = drawn_phases(k, n, 99 + seed)
        want = i1e(k) / i0e(k)
        got = np.mean(np.cos(draws))
        spread = np.std(np.cos(draws)) / math.sqrt(n)
        assert abs(got - want) <= 5.0 * spread + 1e-4


@pytest.mark.parametrize("k_phi", (
    0.25,
    1.0,
    np.nextafter(1.0, np.inf),
    8.2,  # 20 deg
    32.8,  # 10 deg
))
def test_tikhonov_sampler_hits_both_bessel_moments(k_phi):
    """E[cos phi] = I1/I0 and E[cos 2 phi] = I2/I0 from wide spreads (57 deg
    and more at k_phi <= 1) to the 10 and 20 deg of the benchmark: a sampler
    whose shape is off skews both."""
    n = 400000
    draws = drawn_phases(k_phi, n, 41)
    for order in (1, 2):
        harmonic = np.cos(order * draws)
        want = ive(order, k_phi) / i0e(k_phi)
        spread = np.std(harmonic) / math.sqrt(n)
        assert abs(np.mean(harmonic) - want) <= 5.0 * spread + 1e-4, order


def test_tikhonov_sampler_edge_concentrations():
    """The draw replayed by hand on the same generator: a jitter-free
    channel (k_phi = inf) draws no phase, so the Gaussian draws follow the
    indices; a finite k_phi past the jitter-free cut (1e9 k_n) still draws
    its phases, between the indices and the noise."""
    pts = reference_constellation("psk", 8).points
    for params in (ChannelParams(k_n=10.0, k_phi=math.inf), ChannelParams(k_n=10.0, k_phi=1e11)):
        rng = np.random.Generator(np.random.PCG64(17))
        idx = rng.integers(0, pts.size, 500)
        x = pts[idx]
        if math.isfinite(params.k_phi):
            assert not params.has_phase_noise
            x = x * np.exp(1j * rng.vonmises(0.0, params.k_phi, 500))
        gauss = rng.standard_normal((500, 2))
        want = x + (1.0 / math.sqrt(params.k_n)) * (gauss[:, 0] + 1j * gauss[:, 1])
        got_idx, got = _draw_channel_samples(pts, params, 500, 17)
        np.testing.assert_array_equal(got_idx, idx)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("k_phi", (1e6, np.nextafter(1e6, np.inf), 1e14, 1e16, 1e20))
def test_tikhonov_sampler_keeps_its_spread_at_huge_concentrations(k_phi):
    # The spread must stay 1/sqrt(k_phi) on both sides of 1e6, where numpy
    # switches to a wrapped normal, and far above it, where cos p rounds to 1.
    draws = drawn_phases(k_phi, 20000, 3)
    assert abs(np.std(draws) * math.sqrt(k_phi) - 1.0) <= 0.03


def test_tikhonov_sampler_is_reproducible():
    pts = reference_constellation("psk", 8).points
    params = ChannelParams(k_n=1e13, k_phi=12.0)
    a, b = (_draw_channel_samples(pts, params, 1000, 5) for _ in range(2))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert np.all(np.abs(drawn_phases(12.0, 1000, 5)) <= math.pi)


# --- threading -------------------------------------------------------------


def test_parallel_evaluation_matches_serial(psk8, grid7, monkeypatch):
    p = channel(9.0, 12.0)
    # Blocks of any size, so the row blocks of one evaluation really share
    # the evaluator's work arrays.
    monkeypatch.setattr(capacity, "_MIN_BLOCK_ENTRIES", 1)
    for threads in (2, 4):
        for rate in (ami_quadrature, pami_quadrature):
            set_threads(monkeypatch, 1)
            serial = rate(psk8, p, grid7).bits
            set_threads(monkeypatch, threads)
            assert rate(psk8, p, grid7).bits == serial, (rate.__name__, threads)
        for rate in (ami_monte_carlo, pami_monte_carlo):
            set_threads(monkeypatch, 1)
            mc_serial = rate(psk8, p, 20000, seed=3).bits
            set_threads(monkeypatch, threads)
            mc_parallel = rate(psk8, p, 20000, seed=3).bits
            assert abs(mc_serial - mc_parallel) < 1e-10, (rate.__name__, threads)
    # Evaluators scoring many sets on a pool, as the annealer would; the
    # thread count is read when each evaluator is built.
    evaluators = []
    for threads in (4, 2, 1):
        set_threads(monkeypatch, threads)
        evaluators.append(capacity.QuadEvaluator((p,), grid7, 8))
    *pooled, serial = evaluators
    rng = np.random.default_rng(4)
    for _ in range(20):
        c = random_unit_power_constellation(rng)
        points, labels = c.points[None], c.labels[None]
        want = serial.ami_bits(points), serial.pami_bits(points, labels)
        for ev in pooled:
            assert (ev.ami_bits(points), ev.pami_bits(points, labels)) == want


@pytest.mark.parametrize(
    "pnsd, snr",
    [(0.0, 12.0), (20.0, 12.0), (0.0, 40.0), (20.0, 40.0)],
    ids=["0.0", "20.0", "0.0-40dB", "20.0-40dB"],
)
@pytest.mark.parametrize("kind, size", [("psk", 8), ("qam", 64)])
def test_quadrature_is_bit_identical_for_any_thread_count(
    kind, size, pnsd, snr, grid7, monkeypatch
):
    c = reference_constellation(kind, size)
    p = channel(snr, pnsd)
    # Blocks write disjoint slices of one PAMI table; a short switch
    # interval makes a lost or misplaced write more likely to show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rate in (ami_quadrature, pami_quadrature):
            bits = []
            for t in (1, 2, 3):
                set_threads(monkeypatch, t)
                bits.append(rate(c, p, grid7).bits)
            assert bits[1] == bits[0] and bits[2] == bits[0], (rate.__name__, bits)
        # Monte Carlo chunks go to the same pools and write disjoint slices.
        for rate in (ami_monte_carlo, pami_monte_carlo):
            bits = []
            for t in (1, 2, 3):
                set_threads(monkeypatch, t)
                r = rate(c, p, 2000, 4, chunk=128)
                bits.append((r.bits, r.stderr))
            assert bits[1] == bits[0] and bits[2] == bits[0], (rate.__name__, bits)
    finally:
        sys.setswitchinterval(interval)


def test_default_mc_chunk_doubles_on_more_than_one_thread(monkeypatch):
    """A default Monte Carlo chunk holds 2^14 table entries on one thread
    and 2^15 on two or more; the bits are the same."""
    chunks, real = [], capacity._map_blocks
    monkeypatch.setattr(
        capacity,
        "_map_blocks",
        lambda fn, blocks, k: chunks.append(blocks[0].stop) or real(fn, blocks, k),
    )
    p = channel(16.0, 10.0)
    for kind, size in (("psk", 8), ("qam", 64)):
        c = reference_constellation(kind, size)
        bits = []
        for t in (1, 2, 3):
            set_threads(monkeypatch, t)
            bits.append(ami_monte_carlo(c, p, 5000, 3).bits)
        assert chunks[-3:] == [2**14 // size, 2**15 // size, 2**15 // size], size
        assert bits[1] == bits[0] and bits[2] == bits[0], size


def test_one_node_grid_is_bit_identical_for_any_thread_count(monkeypatch):
    # The 16 x 16 x 1 table is far below the pool's threshold; lowered, it
    # splits for every thread count above 1, into at most n // 2 = 8 blocks:
    # numpy would sum a lone row on one node pairwise, so blocks keep two.
    monkeypatch.setattr(capacity, "_MIN_BLOCK_ENTRIES", 1)
    pools = spy_pools(monkeypatch)
    c = reference_constellation("qam", 16)
    p = channel(12.0, 0.0)
    grid = QuadratureGrid.of_degree(1)
    bits = set()
    for t in range(1, 17):
        set_threads(monkeypatch, t)
        bits.add(pami_quadrature(c, p, grid).bits)
    assert len(bits) == 1, bits
    assert pools == [min(t, 8) for t in range(2, 17)]


def test_small_tables_stay_off_the_pool(grid7, monkeypatch):
    pools = spy_pools(monkeypatch)
    p = channel(12.0, 20.0)
    set_threads(monkeypatch, 2)
    for rate in (ami_quadrature, pami_quadrature):
        # 8 x 8 x 343 and 16 x 16 x 343 entries: one block each.
        for size in (8, 16):
            rate(reference_constellation("qam", size), p, grid7)
        assert pools == []
        # 64 x 64 x 343 entries: two blocks.
        rate(reference_constellation("qam", 64), p, grid7)
        assert pools == [2]
        pools.clear()


def test_thread_count_env_override(psk8, grid7, monkeypatch):
    p = channel(9.0, 12.0)
    base = ami_quadrature(psk8, p, grid7).bits
    monkeypatch.setenv("PHASECON_THREADS", "3")
    assert ami_quadrature(psk8, p, grid7).bits == pytest.approx(base, abs=1e-10)
    monkeypatch.setenv("PHASECON_THREADS", "soup")
    for route in (
        lambda: ami_quadrature(psk8, p, grid7),
        lambda: capacity.QuadEvaluator((p,), grid7, 8),
        lambda: pami_monte_carlo(psk8, p, 2000, seed=0),
    ):
        with pytest.raises(ValueError, match="PHASECON_THREADS must be an integer, got 'soup'"):
            route()


# --- row tiles -------------------------------------------------------------


@pytest.mark.parametrize("pnsd", [0.0, 20.0])
@pytest.mark.parametrize("degree", [1, 7])
def test_tiled_pass_is_bit_identical_for_any_tile_size(degree, pnsd, monkeypatch):
    """Tiles of two rows give the default tiles' rates and per-bit losses,
    entry for entry, on one thread and on four blocks of any size."""
    bit_losses = spy_bit_losses(monkeypatch)
    monkeypatch.setattr(capacity, "_MIN_BLOCK_ENTRIES", 1)
    grid, p = QuadratureGrid.of_degree(degree), channel(12.0, pnsd)
    default = capacity._TILE_ENTRIES
    rng = np.random.default_rng(degree)
    for size in (2, 4, 8, 16, 32, 64):
        c = reference_constellation("psk" if size <= 8 else "qam", size)
        labels = rng.permutation(size)
        for threads in (1, 4):
            set_threads(monkeypatch, threads)
            runs = []
            for tile_entries in (default, 1):
                monkeypatch.setattr(capacity, "_TILE_ENTRIES", tile_entries)
                ev = capacity.QuadEvaluator((p,), grid, size)
                ami = ev.ami_bits(c.points[None])
                pami = ev.pami_bits(c.points[None], labels[None])
                runs.append((ami, pami, bit_losses()))
            tiles = [t.stop - t.start for b in ev._blocks for t in b.tiles]
            # The split is real: two rows a tile, never a lone last row.
            assert tiles == [2] * (size // 2), (size, threads)
            (ami, pami, losses), (ami2, pami2, losses2) = runs
            assert (ami2, pami2) == (ami, pami), (size, threads)
            assert np.array_equal(losses2, losses), (size, threads)


def test_ami_allocates_tiles_not_the_table(grid7, monkeypatch):
    """One 64-QAM AMI evaluation, 64 x 64 x 343 entries (11.2 MB), holds
    less than two tiles' worth at its peak."""
    set_threads(monkeypatch, 1)
    c, p = reference_constellation("qam", 64), channel(12.0, 20.0)
    tracemalloc.start()
    try:
        ami_quadrature(c, p, grid7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * capacity._TILE_ENTRIES, peak


def test_pami_allocates_tiles_not_the_table(grid7, monkeypatch):
    """A 64-QAM PAMI evaluation streams its 64 x 64 x 343 table (11.2 MB)
    through the row tiles and keeps none: two calls in turn hold less than
    two tiles and their m-deep matched subset sums at their peak.  The
    64-point evaluator spans several tiles, so no evaluator is kept for a
    second call, which would allocate the full table."""
    set_threads(monkeypatch, 1)
    c, p = reference_constellation("qam", 64), channel(12.0, 20.0)
    tracemalloc.start()
    try:
        for _ in range(2):
            pami_quadrature(c, p, grid7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tile = 8 * capacity._TILE_ENTRIES
    assert peak < 2 * tile + tile * c.m // c.size, peak


# --- kept evaluators -------------------------------------------------------


def fresh_rates(c, p, grid):
    """AMI and PAMI of `c` on `p`, each on an evaluator of its own."""
    points, labels = c.points[None], c.labels[None]
    return (capacity.QuadEvaluator((p,), grid, c.size).ami_bits(points)[0],
            capacity.QuadEvaluator((p,), grid, c.size).pami_bits(points, labels)[0])


@pytest.mark.parametrize("pnsds", [(20.0, 10.0), (0.0, 0.0)], ids=["20-10deg", "0deg"])
def test_one_shot_calls_rebind_one_kept_evaluator(pnsds, psk8, grid7, monkeypatch):
    """One-shot PAMI of the same points on channel A, then B, then A, and
    PAMI twice on one channel, score on one kept evaluator, rebound at each
    change of channel, and give fresh evaluators' rates to the bit: a
    rebinding drops the table PAMI kept for those points."""
    builds = count_builds(monkeypatch)
    a, b = channel(12.0, pnsds[0]), channel(14.0, pnsds[1])
    want = {p: fresh_rates(psk8, p, grid7)[1] for p in (a, b)}
    builds.clear()
    for p in (a, b, a, a, b):
        assert pami_quadrature(psk8, p, grid7).bits == want[p], p
    assert builds == [(1, 8)]


def test_a_refused_channel_leaves_the_kept_evaluator_bound(psk8, monkeypatch):
    """On the degree-2 rule every phase node lies outside one period at
    200 deg, so that channel is refused; the kept evaluator is left bound
    to the channel before it, whose next call neither rebuilds nor rebinds
    it and gives a fresh evaluator's rates."""
    grid, p = QuadratureGrid.of_degree(2), channel(12.0, 10.0)
    want = fresh_rates(psk8, p, grid)
    assert pami_quadrature(psk8, p, grid).bits == want[1]
    builds, binds, real = count_builds(monkeypatch), [], capacity.QuadEvaluator._bind_channels
    monkeypatch.setattr(capacity.QuadEvaluator, "_bind_channels",
                        lambda ev, channels: binds.append(channels) or real(ev, channels))
    with pytest.warns(UserWarning, match="exceeds"), pytest.raises(ValueError, match="too wide"):
        ami_quadrature(psk8, channel(12.0, 200.0), grid)
    assert (ami_quadrature(psk8, p, grid).bits, pami_quadrature(psk8, p, grid).bits) == want
    assert builds == [] and len(binds) == 1


def test_threads_keep_evaluators_of_their_own(grid7, monkeypatch):
    """Two threads score AMI and PAMI of 8-point sets on channels of one
    jitter class at the same time, each on the evaluator its thread keeps,
    and get fresh evaluators' rates: an evaluator kept for the whole
    process would be rebound, and its work arrays overwritten, under the
    other thread's calls."""
    import threading

    rng = np.random.default_rng(24)
    jobs = [(random_unit_power_constellation(rng), channel(snr, 20.0)) for snr in (8.0, 16.0)]
    want = [fresh_rates(c, p, grid7) for c, p in jobs]
    start, got = threading.Barrier(len(jobs)), [[] for _ in jobs]

    def score(k):
        c, p = jobs[k]
        start.wait()
        for _ in range(40):
            got[k].append((ami_quadrature(c, p, grid7).bits, pami_quadrature(c, p, grid7).bits))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=score, args=(k,)) for k in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    for k, rates in enumerate(got):
        assert rates == [want[k]] * 40, k


def test_a_new_layout_builds_a_new_evaluator(grid7, monkeypatch):
    """A change of PHASECON_THREADS, _TILE_ENTRIES or _MIN_BLOCK_ENTRIES
    between one-shot calls scores on an evaluator with the new block
    layout, as a fresh one has it, to the same bits; a multi-tile layout is
    not kept, so its next call builds again.  AMI scores other points than
    PAMI, so every call runs its passes on the layout in force."""
    c, p = reference_constellation("qam", 16), channel(12.0, 20.0)
    turned = make_constellation(c.points * 1j, c.labels)
    want = (fresh_rates(turned, p, grid7)[0], fresh_rates(c, p, grid7)[1])
    rows, builds = spy_table_rows(monkeypatch), count_builds(monkeypatch)
    default_tile, default_block = capacity._TILE_ENTRIES, capacity._MIN_BLOCK_ENTRIES
    # threads, tile entries, block entries, rows per tile, evaluators built
    steps = [
        (1, default_tile, default_block, [16], 1),
        (1, default_tile, default_block, [16], 0),
        (2, default_tile, default_block, [16], 1),  # 16 x 16 x 343: one block
        (2, default_tile, 1, [8, 8], 1),
        (2, default_tile, 1, [8, 8], 0),
        (2, 1, 1, [2] * 8, 2),  # two-row tiles: not kept
        (2, 1, 1, [2] * 8, 2),
        (2, default_tile, 1, [8, 8], 1),
        (1, default_tile, 1, [16], 1),
    ]
    for threads, tile, block, tiles, built in steps:
        set_threads(monkeypatch, threads)
        monkeypatch.setattr(capacity, "_TILE_ENTRIES", tile)
        monkeypatch.setattr(capacity, "_MIN_BLOCK_ENTRIES", block)
        rows.clear(), builds.clear()
        got = (ami_quadrature(turned, p, grid7).bits, pami_quadrature(c, p, grid7).bits)
        assert got == want, (threads, tile, block)
        assert rows == tiles * 2 and len(builds) == built, (threads, tile, block)


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("size, tile_entries", [(32, None), (64, 1)], ids=["32", "64-two-rows"])
def test_multi_tile_pami_streams_then_keeps_the_table(size, tile_entries, threads, grid7, monkeypatch):
    """A multi-tile evaluator streams its first PAMI call through the tiles
    and keeps nothing; its second call fills a full table, which a label
    swap reuses.  The streamed call, the kept-table call and the swap give
    the rates of fresh evaluators to the bit.  On four threads the 32-point
    table is one tile per block, which the tiles keep from the first call."""
    set_threads(monkeypatch, threads)
    if tile_entries is not None:
        monkeypatch.setattr(capacity, "_TILE_ENTRIES", tile_entries)
    p, c = channel(12.0, 20.0), reference_constellation("qam", size)
    points, labels = c.points[None], c.labels[None]
    swapped = labels.copy()
    swapped[0, [0, 5]] = swapped[0, [5, 0]]
    fresh = {
        "labels": capacity.QuadEvaluator((p,), grid7, size).pami_bits(points, labels),
        "swapped": capacity.QuadEvaluator((p,), grid7, size).pami_bits(points, swapped),
    }
    rows = spy_table_rows(monkeypatch)
    ev = capacity.QuadEvaluator((p,), grid7, size)
    one_tile = ev._one_tile
    assert one_tile == (size == 32 and threads == 4) and len(ev._blocks) == threads
    calls = [  # labels, table rows passed, full table held after the call
        ("labels", size, False),  # streamed
        ("labels", 0 if one_tile else size, not one_tile),  # kept
        ("swapped", 0, not one_tile),  # reused
        ("labels", 0, not one_tile),
    ]
    for which, passed, held in calls:
        rows.clear()
        labels_now = labels if which == "labels" else swapped
        assert ev.pami_bits(points.copy(), labels_now) == fresh[which], which
        assert sum(rows) == passed and (ev._full is not None) == held, which


@pytest.mark.parametrize("threads", [1, 2])
def test_ami_between_pami_calls_leaves_no_stale_table(grid7, threads, monkeypatch):
    """An 8-point evaluator's one tile holds PAMI's table, and an AMI
    evaluation overwrites it: PAMI afterwards, on the points whose table
    was kept or on the ones AMI scored, gives a fresh evaluator's rate."""
    set_threads(monkeypatch, threads)
    monkeypatch.setattr(capacity, "_MIN_BLOCK_ENTRIES", 1)
    p, rng = channel(12.0, 20.0), np.random.default_rng(22)
    kept, other = (random_unit_power_constellation(rng) for _ in range(2))

    def fresh(c):
        return capacity.QuadEvaluator((p,), grid7, 8).pami_bits(c.points[None], c.labels[None])

    ev = capacity.QuadEvaluator((p,), grid7, 8)
    assert ev._one_tile and len(ev._blocks) == threads
    for c in (kept, other):
        ev.pami_bits(kept.points[None], kept.labels[None])
        ev.ami_bits(other.points[None])
        assert ev.pami_bits(c.points[None], c.labels[None]) == fresh(c)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_ami_reads_the_table_pami_keeps(grid7, threads, monkeypatch):
    """On a kept 8-point evaluator, one block a thread and each block one
    tile, AMI of the points whose table PAMI keeps reads its rate from that
    table, and PAMI, at any labels, reuses the table AMI read: after the
    first AMI and PAMI no call runs a pass, and every rate is a fresh
    evaluator's to the bit."""
    set_threads(monkeypatch, threads)
    monkeypatch.setattr(capacity, "_MIN_BLOCK_ENTRIES", 1)
    p, rng = channel(12.0, 20.0), np.random.default_rng(26)
    c = random_unit_power_constellation(rng)
    relabeled = make_constellation(c.points, rng.permutation(8))
    want = {AMI: fresh_rates(c, p, grid7)[0], PAMI: fresh_rates(c, p, grid7)[1],
            "relabeled": fresh_rates(relabeled, p, grid7)[1]}
    rows, builds = spy_table_rows(monkeypatch), count_builds(monkeypatch)
    calls = [  # evaluation, expected rate, table rows passed
        (ami_quadrature, c, AMI, 8),
        (pami_quadrature, c, PAMI, 8),
        (ami_quadrature, c, AMI, 0),
        (pami_quadrature, c, PAMI, 0),
        (pami_quadrature, relabeled, "relabeled", 0),
        (ami_quadrature, relabeled, AMI, 0),
    ]
    for k, (evaluate, design, which, passed) in enumerate(calls):
        rows.clear()
        assert evaluate(design, p, grid7).bits == want[which], k
        assert sum(rows) == passed, k
    ev = capacity._KEPT.evaluators[8, True]
    assert len(builds) == 1 and ev._one_tile and len(ev._blocks) == threads


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("size, tile_entries", [(32, None), (64, 1)], ids=["32", "64-two-rows"])
def test_ami_never_reads_a_multi_tile_table(size, tile_entries, threads, grid7, monkeypatch):
    """A multi-tile evaluator keeps PAMI's table in `_full` from its second
    call on, but its blocks hold only their last tile's peaks: AMI of the
    kept points runs its passes, and PAMI after it runs them again, each to
    a fresh evaluator's rate."""
    set_threads(monkeypatch, threads)
    if tile_entries is not None:
        monkeypatch.setattr(capacity, "_TILE_ENTRIES", tile_entries)
    p, c = channel(12.0, 20.0), reference_constellation("qam", size)
    points, labels = c.points[None], c.labels[None]
    want = fresh_rates(c, p, grid7)
    ev = capacity.QuadEvaluator((p,), grid7, size)
    ev.pami_bits(points, labels)
    ev.pami_bits(points, labels)
    assert not ev._one_tile and ev._full is not None and ev._kept is not None
    rows = spy_table_rows(monkeypatch)
    assert ev.ami_bits(points)[0] == want[0] and sum(rows) == size
    assert ev.pami_bits(points, labels)[0] == want[1] and sum(rows) == 2 * size


@pytest.mark.parametrize("pnsd", [20.0, 0.0], ids=["20deg", "0deg"])
def test_a_rebind_or_other_points_make_both_objectives_pass(pnsd, psk8, grid7, monkeypatch):
    """PAMI's kept table serves AMI of its points on its channel only: a
    rebind to another channel, or AMI of other points, which overwrites the
    tile, makes the next AMI and PAMI run a pass, to fresh rates."""
    a, b = channel(12.0, pnsd), channel(14.0, pnsd)
    other = random_unit_power_constellation(np.random.default_rng(7))
    want = {(c.fingerprint(), q): fresh_rates(c, q, grid7) for c in (psk8, other) for q in (a, b)}
    rows = spy_table_rows(monkeypatch)
    calls = [  # objective, set, channel, table rows passed
        (PAMI, psk8, a, 8),
        (AMI, psk8, b, 8),  # rebind
        (PAMI, psk8, b, 8),  # AMI's pass kept no table
        (AMI, psk8, b, 0),
        (PAMI, psk8, a, 8),  # rebind
        (AMI, other, a, 8),  # other points
        (PAMI, psk8, a, 8),  # AMI of other points dropped the table
        (AMI, psk8, a, 0),
        (AMI, other, a, 8),
        (AMI, psk8, a, 8),
    ]
    for k, (objective, c, q, passed) in enumerate(calls):
        rows.clear()
        got = capacity._quadrature(c, q, grid7, objective).bits
        assert got == want[c.fingerprint(), q][objective == PAMI], k
        assert sum(rows) == passed, k


def test_reused_evaluator_allocates_no_work_arrays(psk8, grid7, monkeypatch):
    """An 8 x 8 x 343 table is one tile: a reused evaluator runs it on the
    arrays it already holds, AMI and PAMI alike, and allocates no table."""
    set_threads(monkeypatch, 1)
    ev = capacity.QuadEvaluator((channel(12.0, 20.0),), grid7, 8)

    def work_arrays():
        blocks = [a for b in ev._blocks for a in (b.y, b.nodes, b.peak, b.log_sum, b.loss,
                                                  *b._buffers)]
        return [ev._hyp, ev._half_u2, *blocks]

    # PAMI alternating between two point sets and AMI scoring a third, every
    # call runs the table pass.
    points, labels = psk8.points[None], psk8.labels[None]
    sets = (points, points * 1j)
    passes = []
    original = capacity.QuadEvaluator._table_pass
    monkeypatch.setattr(
        capacity.QuadEvaluator, "_table_pass", lambda *a: passes.append(1) or original(*a)
    )
    other = -points
    ev.ami_bits(other)
    ev.pami_bits(sets[1], labels)
    arrays = work_arrays()
    table_bytes = 8 * 8 * grid7.degree**3 * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for k in range(100):
            ev.ami_bits(other)
            ev.pami_bits(sets[k % 2], labels)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    now = work_arrays()
    assert len(passes) == 2 + 200
    assert len(now) == len(arrays) and all(a is b for a, b in zip(now, arrays))
    assert peak - start < table_bytes, (peak - start) / table_bytes
    assert end - start < table_bytes / 10, (end - start) / table_bytes


def test_pami_table_is_reused_for_equal_points_only(grid7, monkeypatch):
    """An evaluator keeps the PAMI table of the last points it scored: a
    fresh evaluator runs a table pass, equal points reuse the table at any
    labels, and other points, an AMI evaluation or a failed pass rebuild
    it.  A set of another size is refused and leaves the table."""
    set_threads(monkeypatch, 1)
    p = channel(12.0, 20.0)
    qam16, psk8 = reference_constellation("qam", 16), reference_constellation("psk", 8)
    turned, labels = qam16.points[None] * 1j, qam16.labels[None]
    calls = [  # points, labels, table passes expected
        (qam16.points[None], labels, 1),  # fresh
        (qam16.points[None].copy(), np.roll(labels, 3), 0),  # equal points
        (turned, labels, 1),  # other points
        (turned.copy(), labels, 0),
        (qam16.points[None], labels, 1),  # and back
        (turned, labels, 1),
    ]
    fresh = [capacity.QuadEvaluator((p,), grid7, 16).pami_bits(x, y) for x, y, _ in calls]
    passes = []
    original = capacity.QuadEvaluator._table_pass
    monkeypatch.setattr(
        capacity.QuadEvaluator, "_table_pass", lambda *a: passes.append(1) or original(*a)
    )
    ev = capacity.QuadEvaluator((p,), grid7, 16)
    for (x, y, expected), want in zip(calls, fresh):
        passes.clear()
        assert ev.pami_bits(x, y) == want
        assert len(passes) == expected
    # Another size is refused before the table is touched.
    passes.clear()
    for x, y in ((psk8.points[None], psk8.labels[None]), (turned[0], labels[0])):
        with pytest.raises(ValueError, match="expected \\(1, 16\\)"):
            ev.pami_bits(x, y)
    assert ev.pami_bits(turned, labels) == fresh[-1]
    assert passes == []
    # An AMI evaluation overwrites the tiles that hold the table, and leaves
    # none to reuse.
    ev.ami_bits(qam16.points[None])
    passes.clear()
    assert ev.pami_bits(turned, labels) == fresh[-1]
    assert passes == [1]
    # A call whose pass fails after filling the table leaves none to reuse.
    def failing_pass(*a):
        original(*a)
        raise RuntimeError("interrupted")

    counted = capacity.QuadEvaluator._table_pass
    monkeypatch.setattr(capacity.QuadEvaluator, "_table_pass", failing_pass)
    with pytest.raises(RuntimeError):
        ev.pami_bits(qam16.points[None], labels)
    monkeypatch.setattr(capacity.QuadEvaluator, "_table_pass", counted)
    passes.clear()
    assert ev.pami_bits(turned, labels) == fresh[-1]
    assert passes == [1]


def test_evaluator_scores_stacks_of_its_own_shape_only(psk8, grid7):
    """An evaluator built for S channels and sets of `size` points scores
    (S, size) stacks and refuses any other shape, a lone 1-D set included,
    without touching its state; PAMI scores one set on one channel."""
    p, q = channel(12.0, 20.0), channel(6.0, 10.0)
    ev = capacity.QuadEvaluator((p, q), grid7, 8)
    stack = np.stack([psk8.points, psk8.points * 1j])
    want = [ami_quadrature(psk8, p, grid7).bits, ami_quadrature(psk8, q, grid7).bits]
    assert ev.ami_bits(stack) == want
    for bad in (stack[:1], np.concatenate([stack, stack]), stack[:, :4], psk8.points, stack[None]):
        with pytest.raises(ValueError, match=r"expected \(2, 8\)"):
            ev.ami_bits(bad)
    with pytest.raises(ValueError, match="PAMI scores one set"):
        ev.pami_bits(stack[:1], psk8.labels[None])
    assert ev.ami_bits(stack) == want
    one = capacity.QuadEvaluator((p,), grid7, 8)
    points, labels = psk8.points[None], psk8.labels[None]
    for bad in ((points, psk8.labels), (points[:, :4], labels[:, :4]), (stack, labels)):
        with pytest.raises(ValueError, match=r"expected \(1, 8\)"):
            one.pami_bits(*bad)
    assert one.pami_bits(points, labels) == [pami_quadrature(psk8, p, grid7).bits]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("pnsd", [0.0, 20.0])
def test_stacked_ami_equals_each_set_scored_alone(pnsd, threads, grid7, monkeypatch):
    """A stacked `ami_bits` gives each set, to the bit, the rate a one-slot
    evaluator gives it alone, on blocks of any size.  The random sets' first
    points are ones whose rotation np.abs would round otherwise than the
    scalar abs, whose bits np.hypot gives; a stack that holds a set whose
    first point is 0, which turns on its first nonzero point, is scored
    too."""
    set_threads(monkeypatch, threads)
    monkeypatch.setattr(capacity, "_MIN_BLOCK_ENTRIES", 1)
    rng = np.random.default_rng(21)
    drawn = [random_unit_power_constellation(rng).points for _ in range(16)]

    def abs_agree(points):
        anchor = points[0].conjugate()
        return anchor / np.abs(points[:1])[0] == anchor / abs(points[0])

    # Sets whose first point np.abs and abs turn apart come first.
    sets = sorted(drawn, key=abs_agree)[:4]
    zero_first = np.concatenate([[0.0], sets[0][1:]])
    zero_first /= np.sqrt(np.mean(np.abs(zero_first) ** 2))
    for stack in (np.stack(sets), np.stack([*sets, zero_first])):
        channels = [channel(snr, pnsd) for snr in np.linspace(4.0, 16.0, len(stack))]
        want = [
            capacity.QuadEvaluator((p,), grid7, 8).ami_bits(points[None])[0]
            for p, points in zip(channels, stack)
        ]
        assert capacity.QuadEvaluator(channels, grid7, 8).ami_bits(stack) == want
