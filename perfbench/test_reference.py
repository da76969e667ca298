"""Tests of the reference estimator: run with `python3 -m pytest perfbench`."""

import math

import numpy as np
import pytest
from scipy import integrate

import reference


def bpsk_awgn_bits(snr_db: float) -> float:
    """Mutual information of ±1 on the complex AWGN channel, by quadrature.

    Only the real part of y carries information: with noise variance 1/k_n
    per dimension the LLR of y_r = 1 + n is 2·k_n·y_r.
    """
    k_n, _ = reference.concentrations(snr_db, 0.0)
    sigma = 1.0 / math.sqrt(k_n)

    def integrand(n):
        density = math.exp(-0.5 * (n / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        return density * np.logaddexp(0.0, -2.0 * k_n * (1.0 + n)) / math.log(2.0)

    loss, _ = integrate.quad(integrand, -12.0 * sigma, 12.0 * sigma, limit=200)
    return 1.0 - loss


@pytest.mark.parametrize("snr_db", [-3.0, 0.0, 3.0, 6.0])
def test_bpsk_on_awgn_matches_numerical_integral(snr_db):
    ami, pami = reference.estimate([1.0, -1.0], [0, 1], snr_db, 0.0, 40000, seed=5)
    exact = bpsk_awgn_bits(snr_db)
    assert abs(ami.bits - exact) <= 4.0 * ami.stderr
    # One bit per symbol: the bitwise rate is the symbol-wise rate.
    assert pami.bits == ami.bits


@pytest.mark.parametrize("kind,size,pnsd_deg", [
    ("psk", 8, 0.0), ("psk", 8, 2.0), ("qam", 16, 0.0), ("qam", 16, 2.0),
])
def test_high_snr_reaches_m_bits(kind, size, pnsd_deg):
    if kind == "psk":
        points = np.exp(2j * np.pi * np.arange(size) / size)
    else:
        axis = np.array([-3.0, -1.0, 1.0, 3.0])
        points = (axis[:, None] + 1j * axis[None, :]).ravel() / math.sqrt(10.0)
    m = size.bit_length() - 1
    ami, pami = reference.estimate(points, np.arange(size), 40.0, pnsd_deg, 20000, seed=1)
    assert m - 1e-3 <= pami.bits <= ami.bits <= m


def test_closed_form_matches_phase_integral():
    """log I0(|w|) equals the phase integral it replaces, up to a shared constant."""
    rng = np.random.default_rng(3)
    points = np.exp(2j * np.pi * np.arange(8) / 8)
    y = points[rng.integers(0, 8, 20)] + 0.3 * (rng.standard_normal(20) + 1j * rng.standard_normal(20))
    k_n, k_phi = reference.concentrations(12.0, 20.0)
    phi = np.linspace(-math.pi, math.pi, 4097)
    energy = 0.5 * k_n * np.abs(points) ** 2
    w = k_phi + k_n * np.conj(y)[:, None] * points[None, :]
    integrand = np.exp((w[:, :, None] * np.exp(1j * phi)).real)
    numeric = np.log(integrate.trapezoid(integrand, phi, axis=-1) / (2.0 * math.pi)) - energy
    closed = reference.log_likelihoods(y, points, k_n, k_phi)
    np.testing.assert_allclose(closed, numeric, rtol=0, atol=1e-9)
