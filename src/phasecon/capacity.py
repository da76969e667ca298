"""Mutual-information evaluators for constellations under phase jitter.

Two independent routes are provided.  The quadrature route expands the two
Gaussian noise dimensions and the phase dimension on a Gauss-Hermite product
grid (phase nodes are placed like a Gaussian of matching spread, then
reweighted by the von Mises / Gaussian density ratio so the circular prior
carries no surrogate bias) and scores hypotheses with the fast
phase-matched metric.  The Monte Carlo route samples the channel exactly,
including the von Mises phase, and scores hypotheses with the closed-form
exact likelihood of :mod:`phasecon.likelihood`; it is the reference the
quadrature route is validated against.

AMI is the symbol-wise achievable rate; PAMI is the bitwise (pragmatic)
rate of a given labeling, never above AMI.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import i0e

from .likelihood import hypothesis_log_terms
from .model import ChannelParams, Constellation, ConstellationError

AMI = "AMI"
PAMI = "PAMI"
OBJECTIVES = (AMI, PAMI)

_LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)

# Above this phase-noise standard deviation the Gaussian node placement
# covers the circular prior poorly; evaluators warn but proceed.
PNSD_WARN_DEG = 30.0

MIN_MC_SAMPLES = 1000


def gauss_hermite_nodes(degree: int) -> list[tuple[float, float]]:
    """Nodes and weights for integrals of exp(-t^2) f(t), degrees 1..30."""
    if not isinstance(degree, (int, np.integer)) or isinstance(degree, bool):
        raise ValueError(f"degree must be an integer, got {degree!r}")
    if not 1 <= degree <= 30:
        raise ValueError(f"degree must be in 1..30, got {degree}")
    nodes, weights = np.polynomial.hermite.hermgauss(int(degree))
    return [(float(t), float(w)) for t, w in zip(nodes, weights)]


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Gauss-Hermite rule of a given degree with cached product grids.

    The 3-D product covers (noise real, noise imag, phase); the 2-D product
    drops the phase dimension for the jitter-free channel.  Offsets are in
    normalized units: evaluators scale Gaussian dimensions by sigma*sqrt(2)
    and the phase dimension by sigma_phi*sqrt(2).
    """

    degree: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=np.float64)
        weights = np.array(self.weights, dtype=np.float64)
        k = np.arange(nodes.size)
        i1, i2, i3 = (i.ravel() for i in np.meshgrid(k, k, k, indexing="ij"))
        prod3 = (nodes[i1], nodes[i2], nodes[i3], weights[i1] * weights[i2] * weights[i3])
        j1, j2 = (j.ravel() for j in np.meshgrid(k, k, indexing="ij"))
        prod2 = (nodes[j1], nodes[j2], weights[j1] * weights[j2])
        for arr in (nodes, weights, *prod3, *prod2):
            arr.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_prod3", prod3)
        object.__setattr__(self, "_prod2", prod2)

    @classmethod
    def of_degree(cls, degree: int) -> "QuadratureGrid":
        pairs = gauss_hermite_nodes(degree)
        nodes = np.array([t for t, _ in pairs])
        weights = np.array([w for _, w in pairs])
        return cls(degree=int(degree), nodes=nodes, weights=weights)

    def product3(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self._prod3

    def product2(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._prod2


@dataclass(frozen=True)
class CapacityResult:
    """One evaluated rate: bits per channel use plus provenance."""

    bits: float
    method: str
    stderr: float
    params: ChannelParams
    objective: str
    fingerprint: str
    clamped: bool = False


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        raw = os.environ.get("PHASECON_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError as exc:
            raise ValueError(f"PHASECON_THREADS must be an integer, got {raw!r}") from exc
    return max(1, int(threads))


def _require_normalized(c: Constellation) -> None:
    power = c.average_power()
    if abs(power - 1.0) > 1e-8:
        raise ConstellationError(
            f"constellation average power is {power:.6g}, not 1; "
            "normalize before evaluating"
        )


def _warn_wide_phase(params: ChannelParams) -> None:
    if params.has_phase_noise and params.pnsd_deg > PNSD_WARN_DEG:
        warnings.warn(
            f"phase-noise spread {params.pnsd_deg:.1f} deg exceeds "
            f"{PNSD_WARN_DEG:.0f} deg; the Gaussian placement of the phase "
            "quadrature nodes loses accuracy there",
            stacklevel=3,
        )


# One pool per thread count, reused by every evaluation.
_pool = functools.cache(ThreadPoolExecutor)


def _bit_match_masks(labels: np.ndarray, m: int) -> np.ndarray:
    """masks[i, j, k]: points j, k agree in bit i of their labels."""
    bits = (labels[:, None] >> np.arange(m)[None, :]) & 1
    return bits.T[:, :, None] == bits.T[:, None, :]


def _canonical_points(points: np.ndarray) -> np.ndarray:
    """Rotate a signal set so its first nonzero point is real positive.

    Rates do not depend on global orientation, but the square quadrature
    grid is not perfectly isotropic; evaluating every set in a canonical
    orientation makes rotated copies score identically.
    """
    nonzero = np.flatnonzero(np.abs(points) > 0.0)
    if nonzero.size == 0:
        raise ValueError("all-zero signal set")
    anchor = points[nonzero[0]]
    return points * (anchor.conjugate() / abs(anchor))


def _log_prior_ratio(phases: np.ndarray, k_phi: float) -> np.ndarray:
    """Log of the von Mises / Gaussian density ratio, up to a constant.

    Both densities share the spread 1/sqrt(k_phi), so the ratio reduces to
    k_phi * (cos(phi) - 1 + phi^2 / 2), which is >= 0 and vanishes at 0.
    Outside one period the von Mises density is zero, hence -inf.
    """
    core = k_phi * (np.cos(phases) - 1.0 + 0.5 * phases * phases)
    return np.where(np.abs(phases) <= math.pi, core, -np.inf)


class QuadEvaluator:
    """Reusable quadrature machinery bound to one (params, grid) pair.

    The per-candidate entry points take raw point/label arrays so an
    optimizer can call them in a hot loop without rebuilding anything.
    """

    def __init__(self, params: ChannelParams, grid: QuadratureGrid):
        self.params = params
        self.grid = grid
        sigma = 1.0 / math.sqrt(params.k_n)
        if params.has_phase_noise:
            t1, t2, t3, w = grid.product3()
            self.noise = _SQRT2 * sigma * (t1 + 1j * t2)
            phases = _SQRT2 * params.pnsd_rad * t3
            self.rotation = np.exp(1j * phases)
            # The phase nodes are placed like a Gaussian of matching spread,
            # but each node is reweighted by the von Mises / Gaussian density
            # ratio (normalized over the one-dimensional phase rule), so the
            # circular prior is integrated without a surrogate bias.  Nodes
            # landing outside one period get zero weight.
            scale = _SQRT2 * params.pnsd_rad * grid.nodes
            log_1d = _log_prior_ratio(scale, params.k_phi)
            shift = float(log_1d.max())
            total = float(np.dot(grid.weights, np.exp(log_1d - shift)))
            if total <= 0.0:
                raise ValueError(
                    "phase spread too wide for the quadrature rule: every "
                    "node falls outside one period"
                )
            ratio = np.exp(_log_prior_ratio(phases, params.k_phi) - shift)
            self.norm_weights = w * ratio / (math.pi * total)
        else:
            t1, t2, w = grid.product2()
            self.noise = _SQRT2 * sigma * (t1 + 1j * t2)
            self.rotation = None
            self.norm_weights = w / math.pi
        # PAMI tables (points, exp(metric - peak), log of its sum over h): the
        # last one scored, and one a caller holds for label swaps to reuse.
        self.last_table = self.held_table = None

    def _table_pass(self, points: np.ndarray, rows: slice, out=None):
        """Metric table (hypothesis h, sent point rows[r], grid node g), made
        exp(metric - peak) in place, in `out` if given.  Returns the log of
        its sum over h, the peak and the sent point's own metric."""
        params = self.params
        x = points[rows, None]
        y = x * self.rotation + self.noise if self.rotation is not None else x + self.noise
        z = np.conj(y)[None] * points[:, None, None]
        if params.has_phase_noise:
            # |w|^2 on a real view of z, re and im interleaved: complex
            # `np.abs` would go through hypot, several times slower.
            w = z.view(np.float64).reshape(*z.shape, 2)
            w *= params.k_n
            w[..., 0] += params.k_phi
            w *= w
            metric = np.add(w[..., 0], w[..., 1], out=out)
            np.sqrt(metric, out=metric)
        else:
            metric = np.multiply(z.real, params.k_n, out=out)
        metric -= 0.5 * params.k_n * (np.abs(points) ** 2)[:, None, None]
        sent = metric[np.arange(points.size)[rows], np.arange(metric.shape[1])]
        peak = np.maximum.reduce(metric, axis=0)
        metric -= peak
        np.exp(metric, out=metric)
        return np.log(np.add.reduce(metric, axis=0)), peak, sent

    def _mean_over_blocks(self, n: int, integrand_fn, threads: int) -> float:
        """Weighted mean over nodes and sent rows of `integrand_fn(rows)`,
        called on up to `threads` contiguous blocks of rows on a reused
        pool.  Each row is computed alike whatever the split: blocks keep
        two rows or more, as numpy would sum a lone row on a one-node grid
        pairwise rather than in hypothesis order."""
        k = max(1, min(threads, n // 2))
        blocks = [slice(n * b // k, n * (b + 1) // k) for b in range(k)]
        parts = map(integrand_fn, blocks) if k == 1 else _pool(k).map(integrand_fn, blocks)
        return math.fsum(np.dot(row, self.norm_weights) for part in parts for row in part) / n

    def ami_bits(self, points: np.ndarray, threads: int = 1) -> float:
        points = _canonical_points(points)
        n = points.size

        def integrand(rows: slice) -> np.ndarray:
            log_sum, peak, sent = self._table_pass(points, rows)
            return peak + log_sum - sent

        return (n.bit_length() - 1) - self._mean_over_blocks(n, integrand, threads) / _LN2

    def pami_bits(self, points: np.ndarray, labels: np.ndarray, threads: int = 1) -> float:
        """Bitwise rate.  The table does not depend on the labels: it is
        reused when `points` equal those of `held_table` or `last_table`,
        and otherwise built and kept as `last_table`."""
        n, size = points.size, self.norm_weights.size
        m = n.bit_length() - 1
        kept = [t for t in (self.held_table, self.last_table) if t and np.array_equal(t[0], points)]
        table = kept[0] if kept else (points.copy(), np.empty((n, n, size)), np.empty((n, size)))
        _, exp_table, log_sum = table
        bits = (labels[:, None] >> np.arange(m)) & 1
        # Row 2i + b of the indicator marks the hypotheses whose bit i is b.
        indicator = (bits.T[:, None, :] == np.arange(2)[:, None]).reshape(2 * m, n) * 1.0

        def integrand(rows: slice) -> np.ndarray:
            if not kept:
                canonical = _canonical_points(points)
                log_sum[rows] = self._table_pass(canonical, rows, exp_table[:, rows])[0]
            # All 2m subset sums by one (2m x M) @ (M x G) product per sent
            # row, whatever block the row is in.
            sums = np.matmul(indicator, exp_table[:, rows].transpose(1, 0, 2))
            matched = sums[np.arange(sums.shape[0])[:, None], 2 * np.arange(m) + bits[rows]]
            return np.add.reduce(log_sum[rows, None] - np.log(matched), axis=1)

        mean = self._mean_over_blocks(n, integrand, threads)
        self.last_table = table
        return m - mean / _LN2


def _wrap_result(
    bits: float,
    method: str,
    stderr: float,
    params: ChannelParams,
    c: Constellation,
    objective: str,
) -> CapacityResult:
    clipped = min(max(bits, 0.0), float(c.m))
    return CapacityResult(
        bits=clipped,
        method=method,
        stderr=stderr,
        params=params,
        objective=objective,
        fingerprint=c.fingerprint(),
        clamped=(clipped != bits),
    )


def ami_quadrature(
    c: Constellation,
    params: ChannelParams,
    grid: QuadratureGrid,
    *,
    threads: int | None = None,
) -> CapacityResult:
    """Symbol-wise achievable rate by Gauss-Hermite quadrature.

    Requires a unit-average-power constellation (rejected otherwise, never
    silently rescaled).
    """
    _require_normalized(c)
    _warn_wide_phase(params)
    ev = QuadEvaluator(params, grid)
    bits = ev.ami_bits(c.points, threads=_resolve_threads(threads))
    return _wrap_result(bits, "quadrature", 0.0, params, c, AMI)


def pami_quadrature(
    c: Constellation,
    params: ChannelParams,
    grid: QuadratureGrid,
    *,
    threads: int | None = None,
) -> CapacityResult:
    """Bitwise (pragmatic) rate of the constellation's labeling."""
    _require_normalized(c)
    _warn_wide_phase(params)
    ev = QuadEvaluator(params, grid)
    bits = ev.pami_bits(c.points, c.labels, threads=_resolve_threads(threads))
    return _wrap_result(bits, "quadrature", 0.0, params, c, PAMI)


# --- sampling --------------------------------------------------------------


def sample_tikhonov(k_phi: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `size` von Mises phase angles in (-pi, pi) by rejection.

    Moderate concentrations use a uniform proposal with envelope
    exp(k_phi); large ones a centered Gaussian proposal whose variance
    pi^2/(4 k_phi) makes exp(k_phi (cos p - 1)) <= exp(-p^2/(2 var)) hold
    on the whole interval, keeping the acceptance rate near 2/pi.
    k_phi = inf returns zeros, k_phi = 0 the uniform distribution.
    """
    if math.isnan(k_phi) or k_phi < 0:
        raise ValueError(f"k_phi must be >= 0, got {k_phi}")
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if not math.isfinite(k_phi):
        return np.zeros(size)
    if k_phi == 0.0:
        return rng.uniform(-math.pi, math.pi, size)
    out = np.empty(size)
    have = 0
    if k_phi <= 50.0:
        rate = float(i0e(k_phi))  # acceptance probability of the uniform proposal
        while have < size:
            batch = max(4096, int(1.2 * (size - have) / rate))
            cand = rng.uniform(-math.pi, math.pi, batch)
            keep = rng.random(batch) < np.exp(k_phi * (np.cos(cand) - 1.0))
            got = cand[keep]
            take = min(size - have, got.size)
            out[have : have + take] = got[:take]
            have += take
    else:
        sigma = math.pi / (2.0 * math.sqrt(k_phi))
        while have < size:
            batch = max(4096, int(2.0 * (size - have)))
            cand = rng.standard_normal(batch) * sigma
            accept_log = k_phi * (np.cos(cand) - 1.0) + cand * cand / (2.0 * sigma * sigma)
            keep = (np.abs(cand) < math.pi) & (np.log(rng.random(batch)) < accept_log)
            got = cand[keep]
            take = min(size - have, got.size)
            out[have : have + take] = got[:take]
            have += take
    return out


# --- Monte Carlo -----------------------------------------------------------


def _draw_channel_samples(
    points: np.ndarray, params: ChannelParams, n_samples: int, seed: int
):
    """Transmitted indices and received samples, in a fixed draw order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.integers(0, points.size, n_samples)
    phases = sample_tikhonov(params.k_phi, n_samples, rng)
    gauss = rng.standard_normal((n_samples, 2))
    sigma = 1.0 / math.sqrt(params.k_n)
    y = points[idx] * np.exp(1j * phases) + sigma * (gauss[:, 0] + 1j * gauss[:, 1])
    return idx, y


def _mc_sample_bits(
    c: Constellation,
    params: ChannelParams,
    n_samples: int,
    seed: int,
    objective: str,
    chunk: int,
    threads: int,
) -> np.ndarray:
    """Per-sample information in bits under the exact likelihood."""
    pts = _canonical_points(c.points)
    idx, y = _draw_channel_samples(pts, params, n_samples, seed)
    masks = _bit_match_masks(c.labels, c.m) if objective == PAMI else None
    out = np.empty(n_samples)

    def fill(sl: slice) -> None:
        vals = hypothesis_log_terms(y[sl, None], pts, params)
        out[sl] = _scores_from_values(vals, idx[sl], c.m, masks)

    slices = [slice(s, min(s + chunk, n_samples)) for s in range(0, n_samples, chunk)]
    if threads <= 1:
        for sl in slices:
            fill(sl)
    else:
        list(_pool(threads).map(fill, slices))
    return out


def _scores_from_values(
    vals: np.ndarray, sent: np.ndarray, m: int, masks: np.ndarray | None
) -> np.ndarray:
    """Per-sample information from per-hypothesis log-likelihood values.

    `vals` has one row per sample; constants common to all hypotheses may
    be omitted since only in-row differences enter.
    """
    n = vals.shape[0]
    ref = vals[np.arange(n), sent]
    diff = vals - ref[:, None]
    peak = diff.max(axis=1)
    lse_all = peak + np.log(np.exp(diff - peak[:, None]).sum(axis=1))
    if masks is None:
        return m - lse_all / _LN2
    total = np.zeros(n)
    for i in range(masks.shape[0]):
        row_mask = masks[i][sent]
        sub = np.where(row_mask, diff, -np.inf)
        sub_peak = sub.max(axis=1)
        lse_sub = sub_peak + np.log(np.exp(sub - sub_peak[:, None]).sum(axis=1))
        total += lse_all - lse_sub
    return m - total / _LN2


def _monte_carlo(
    c: Constellation,
    params: ChannelParams,
    n_samples: int,
    seed: int,
    objective: str,
    chunk: int,
    threads: int | None,
) -> CapacityResult:
    _require_normalized(c)
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_MC_SAMPLES}, got {n_samples}")
    bits = _mc_sample_bits(c, params, n_samples, seed, objective, chunk, _resolve_threads(threads))
    mean = float(np.mean(bits))
    stderr = float(np.std(bits, ddof=1) / math.sqrt(n_samples))
    return _wrap_result(mean, "monte_carlo", stderr, params, c, objective)


def ami_monte_carlo(
    c: Constellation,
    params: ChannelParams,
    n_samples: int,
    seed: int,
    *,
    chunk: int = 2048,
    threads: int | None = None,
) -> CapacityResult:
    """Symbol-wise rate estimated by sampling the exact channel.

    Reproducible for a fixed seed; `stderr` is the standard error of the
    per-sample mean.  Samples are scored `chunk` at a time, which bounds the
    (chunk, M) temporaries; `threads` scores chunks in parallel.
    """
    return _monte_carlo(c, params, n_samples, seed, AMI, chunk, threads)


def pami_monte_carlo(
    c: Constellation,
    params: ChannelParams,
    n_samples: int,
    seed: int,
    *,
    chunk: int = 2048,
    threads: int | None = None,
) -> CapacityResult:
    """Bitwise rate estimated by sampling the exact channel."""
    return _monte_carlo(c, params, n_samples, seed, PAMI, chunk, threads)
