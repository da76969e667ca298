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
rate of a given labeling, never above AMI.  Both routes score them from
a table of exp(value - column peak) over the hypotheses, whose columns are
(sent point, node) pairs in the quadrature and samples in Monte Carlo: AMI
from its log-sum, PAMI from the sums over the hypotheses whose bit matches
the sent label's, one per label bit.  The quadrature, whose rows share a
sent point, sums only those m matched subsets per row, through a
matched-bit indicator built for each row tile (`QuadEvaluator.pami_bits`);
Monte Carlo,
whose columns each have their own sent point, forms all 2m bit-subset sums
with one (2m x M) indicator product and keeps m of them (`_information`).
The table does not depend on the objective, so on one set and channel one
quadrature pass serves both: AMI reads its rate from the peaks, sent
metrics and log-sums of the table PAMI keeps (`QuadEvaluator.ami_bits`).
"""

from __future__ import annotations

import functools
import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .likelihood import hypothesis_log_terms
from .model import ChannelParams, Constellation, ConstellationError

AMI = "AMI"
PAMI = "PAMI"
OBJECTIVES = (AMI, PAMI)

_LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)

# Above this phase-noise standard deviation the Gaussian node placement
# covers the circular prior poorly; quadrature evaluations and anneals warn
# but proceed.
PNSD_WARN_DEG = 30.0

MIN_MC_SAMPLES = 1000

# Floor of every peak-shifted log term before its exp: exp(-700) ~ 1e-304
# stays clear of float64's subnormal range (below 2.2e-308), where exp and
# the sums over its results run many times slower; -708 is too close.  A
# clamped entry is summed with its column peak's exp(0) = 1, or, in a PAMI
# bit subset, with the sent point's own entry.  For Monte Carlo that entry
# is far above the floor: under the exact likelihood each ratio
# p(y|u)/p(y|x) has mean 1, so P(peak - sent > T) <= (M-1) e^-T.  A subset
# sum's relative error stays below (M-1) e^-50 unless the sample lies more
# than 650 nats deep, which happens with probability about 1e-281.
_EXP_FLOOR = -700.0

# Fewest table entries (rows x M x G) worth a block of their own on the
# pool.  On a 2-core machine two threads tie with one at 1.3e5 entries
# (32-QAM with 125 nodes, two blocks of 6.4e4), lose below (16-QAM with 343
# nodes: 8.8e4, 12% slower) and win above (64-QAM with 49 nodes: 2.0e5, 3-7%
# faster; 32-QAM with 343 nodes: 3.5e5, 30% faster).
_MIN_BLOCK_ENTRIES = 1 << 16

# Most table entries (rows x M x G) in one tile of a table pass: a block runs
# the whole pass on one tile of its sent rows while the tile is in cache, then
# moves to the next.  2^17 float64 entries are 1 MB, half a 2 MB L2.  On a
# 2-core machine, AMI and PAMI of 64-QAM at 8-24 dB, 10 deg on 343 nodes,
# one fresh evaluator each, ran at 215, 213, 221, 209 and 190 evaluations/s
# with tiles of 2^15 to 2^19 entries, 195 untiled and 180 before tiling.
_TILE_ENTRIES = 1 << 17

# Table entries (samples x M) of a default Monte Carlo chunk on one thread:
# 2048 samples at M = 8, 256 at M = 64.  On one thread of a 2-core machine,
# 2e4 samples at 16 dB, 10 deg took AMI 9.7, 16.0 and 28.1 ms at M = 16, 32
# and 64, against 11.5, 23.2 and 44.3 ms in 2048-sample chunks.  On more
# threads, which share the interpreter lock each chunk's Python steps hold,
# a chunk holds twice as many: on two, 5e4 samples took AMI 11.5, 17.5 and
# 47.5 ms at M = 8, 16 and 64, against 13.1, 20.9 and 59.9 in one-thread
# chunks.  Larger factors are unmeasured; k threads hold k chunks at once.
_MC_CHUNK_ENTRIES = 1 << 14

# Widest Monte Carlo table whose per-sample peak is taken over a transposed
# copy: numpy's max along rows this short is slow.  On a 2-core machine a
# (2048, M) chunk took 155 against 16 us at M = 8, 182 against 95 at 32, but
# 201 against 234 at 64; default chunks of 2^14 entries split alike (19
# against 28 us at M = 32, 19 against 16 at 64).  A max is exact, so either
# way gives the same bits.
_MC_PEAK_BY_COPY = 32


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Gauss-Hermite rule of a given degree, with the products a channel's
    nodes are built from.

    A channel's G nodes are the product of the d-node 1-D rule with itself:
    d x d (noise real, noise imag) without jitter, d x d x d with the phase
    last with it (`_node_shape`).  Offsets are in normalized units: evaluators
    scale the Gaussian dimensions by sigma*sqrt(2) and the phase dimension
    by sigma_phi*sqrt(2).  Beside the 1-D nodes and weights the grid keeps
    the d x d unit complex noise offsets t1 + j t2 and the d x d and
    d x d x d weight products, all read-only, from which `_channel_nodes`
    gives a channel's nodes in that layout.
    """

    degree: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=np.float64)
        weights = np.array(self.weights, dtype=np.float64)
        plane_weights = weights[:, None] * weights
        kept = {
            "nodes": nodes,
            "weights": weights,
            "_plane": nodes[:, None] + 1j * nodes,
            "_plane_weights": plane_weights,
            "_cube_weights": plane_weights[:, :, None] * weights,
        }
        for name, arr in kept.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def of_degree(cls, degree: int) -> "QuadratureGrid":
        """The rule for integrals of exp(-t^2) f(t), degrees 1..30: one
        object per degree, so every caller of a degree, such as each command
        of one process, shares the evaluators `_quadrature` keeps for it."""
        if not isinstance(degree, (int, np.integer)) or isinstance(degree, bool):
            raise ValueError(f"degree must be an integer, got {degree!r}")
        if not 1 <= degree <= 30:
            raise ValueError(f"degree must be in 1..30, got {degree}")
        return cls._built(int(degree))

    @classmethod
    @functools.cache
    def _built(cls, degree: int) -> "QuadratureGrid":
        nodes, weights = np.polynomial.hermite.hermgauss(degree)
        return cls(degree=degree, nodes=nodes, weights=weights)

    def _channel_nodes(self, params: ChannelParams):
        """One channel's received-sample offsets at the product nodes, the
        phase rotation at each node (None without jitter), the normalized
        node weights, and the factors `QuadEvaluator._bind` scales a set's
        hypothesis columns by, and its half-energies.  Each array broadcasts
        to the class's `_node_shape`: the offsets span the noise dimensions,
        the rotations the phase dimension, the weights all of them."""
        sigma = 1.0 / math.sqrt(params.k_n)
        if not params.has_phase_noise:
            factors = (params.k_n, params.k_n, -0.5 * params.k_n, 0.0, 0.0)
            return _SQRT2 * sigma * self._plane, None, self._plane_weights / math.pi, factors
        # The phase nodes are placed like a Gaussian of matching spread, but
        # each node is reweighted by the von Mises / Gaussian density ratio
        # (normalized over the one-dimensional phase rule), so the circular
        # prior is integrated without a surrogate bias.  Nodes landing outside
        # one period get zero weight.  Both factors are computed on the 1-D
        # rule and broadcast along the phase dimension.
        phases = _SQRT2 * params.pnsd_rad * self.nodes
        log_1d = _log_prior_ratio(phases, params.k_phi)
        top = float(log_1d.max())
        if top == -math.inf:
            raise ValueError(
                "phase spread too wide for the quadrature rule: every "
                "node falls outside one period"
            )
        ratio = np.exp(log_1d - top)
        total = float(np.dot(self.weights, ratio))
        weights = self._cube_weights * ratio / (math.pi * total)
        cross = 2.0 * params.k_phi * params.k_n
        factors = (cross, cross, params.k_n**2, params.k_phi**2, 0.5 * params.k_n)
        return (_SQRT2 * sigma * self._plane)[:, :, None], np.exp(1j * phases), weights, factors


def _node_shape(grid: QuadratureGrid, jitter: bool) -> tuple[int, ...]:
    """The layout of the G product nodes of a jitter class on `grid`: d x d
    without jitter, d x d x d with it, d the node count of the 1-D rule (not
    its `degree`: a grid can be built directly)."""
    return grid.nodes.shape * (3 if jitter else 2)


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


def _resolve_threads() -> int:
    """The thread count PHASECON_THREADS sets (default 1, at least 1): the
    one place it is read: once per evaluator build, quadrature call and
    Monte Carlo call."""
    raw = os.environ.get("PHASECON_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError as exc:
        raise ValueError(f"PHASECON_THREADS must be an integer, got {raw!r}") from exc


def _require_normalized(c: Constellation) -> None:
    power = c.average_power()
    if abs(power - 1.0) > 1e-8:
        raise ConstellationError(
            f"constellation average power is {power:.6g}, not 1; "
            "normalize before evaluating"
        )


def _warn_wide_phase(params: ChannelParams, stacklevel: int) -> None:
    """Warn above PNSD_WARN_DEG; `stacklevel` counts as in warnings.warn,
    from this function."""
    if params.has_phase_noise and params.pnsd_deg > PNSD_WARN_DEG:
        warnings.warn(
            f"phase-noise spread {params.pnsd_deg:.1f} deg exceeds "
            f"{PNSD_WARN_DEG:.0f} deg; the Gaussian placement of the phase "
            "quadrature nodes loses accuracy there",
            stacklevel=stacklevel,
        )


@functools.cache
def _pool(k: int):
    """One pool per thread count k, reused by every evaluation; the import
    waits for the first evaluation that runs on more than one thread."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(k)


def _map_blocks(fn, blocks: list, k: int) -> list:
    """`fn` of each block, in order: in turn on the calling thread when k is
    1, else on the reused pool of k threads."""
    return list(map(fn, blocks) if k == 1 else _pool(k).map(fn, blocks))


def _label_bits(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """bits[j, i]: bit i of the label of point j is set; and the (2m x M)
    indicator whose row b*m + i marks the points with b as bit i."""
    bits = (labels[:, None] >> np.arange(labels.size.bit_length() - 1)) & 1 == 1
    return bits, np.concatenate([~bits.T, bits.T]) * 1.0


def _information(exp_table, log_sum, gap, sent, label_bits):
    """Per-column information lost, in nats, by the symbol-wise (AMI)
    decision when `label_bits` is None, else by the bitwise (PAMI) one.

    `exp_table` holds exp(value - column peak), clamped at exp(_EXP_FLOOR),
    one row per hypothesis and one column per sample; `log_sum` is the log
    of its sum over hypotheses, `gap` the column peak minus the sent value and
    `sent` the sent hypothesis of each column.  AMI loses gap + log_sum.
    PAMI loses, per label bit, log_sum minus the log of the table summed
    over the hypotheses whose bit matches the sent label's: one indicator
    product gives all 2m such sums, and the sent label's bits pick m of
    them.
    """
    if label_bits is None:
        return gap + log_sum
    bits, indicator = label_bits
    m = bits.shape[1]
    sums = np.matmul(indicator, exp_table)
    matched = np.where(np.take(bits, sent, axis=0).T, sums[m:], sums[:m])
    np.log(matched, out=matched)
    np.subtract(log_sum, matched, out=matched)
    return np.add.reduce(matched, axis=0)


def _canonical_points(stack: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rotate each set of an (S, n) stack so its first nonzero point is real
    positive, into `out` where given.

    Rates do not depend on global orientation, but the square quadrature
    grid is not perfectly isotropic; evaluating every set in a canonical
    orientation makes rotated copies score identically.  Each set turns
    alike alone or in any stack.  Its anchor's modulus is np.hypot's, which
    the golden runs' bits rest on; np.abs rounds some moduli otherwise.
    """
    anchors = stack[:, 0]
    scale = np.hypot(anchors.real, anchors.imag)
    if np.count_nonzero(scale) != scale.size:
        # Some set starts at 0: every set anchors on its first nonzero point.
        anchors = stack[np.arange(len(stack)), np.argmax(stack != 0, axis=1)]
        scale = np.hypot(anchors.real, anchors.imag)
        if np.count_nonzero(scale) != scale.size:
            raise ValueError("all-zero signal set")
    return np.multiply(stack, (anchors.conj() / scale)[:, None], out=out)


def _log_prior_ratio(phases: np.ndarray, k_phi: float) -> np.ndarray:
    """Log of the von Mises / Gaussian density ratio, up to a constant.

    Both densities share the spread 1/sqrt(k_phi), so the ratio reduces to
    k_phi * (cos(phi) - 1 + phi^2 / 2), which is >= 0 and vanishes at 0.
    Outside one period the von Mises density is zero, hence -inf.
    """
    core = k_phi * (np.cos(phases) - 1.0 + 0.5 * phases * phases)
    return np.where(np.abs(phases) <= math.pi, core, -np.inf)


def _split(start: int, stop: int, parts: int) -> list[slice]:
    """Rows start..stop cut into `parts` contiguous slices of near-equal size."""
    n = stop - start
    return [slice(start + n * b // parts, start + n * (b + 1) // parts) for b in range(parts)]


def _sets_per_tile(size: int, params: ChannelParams, grid: QuadratureGrid) -> int:
    """How many sets of `size` points, on channels of the jitter class of
    `params`, one stack holds while its whole table, sets x size^2 x G
    entries on that class's G grid nodes, fits in one tile; at least one."""
    nodes = math.prod(_node_shape(grid, params.has_phase_noise))
    return max(1, _TILE_ENTRIES // (size * size * nodes))


class _Block:
    """One thread block of a table pass: its sent rows cut into tiles, and
    the work arrays each tile in turn reuses, sized for the longest tile of
    a stack of `sets` sets, among them the three buffers that hold the
    table tile and PAMI's matched subset sums (`table_of`) and its
    matched-bit indicator (`indicator_of`).  Where the block is one tile,
    the table buffer, `peak`, `sent` and `log_sum` are the block's share of
    the table PAMI keeps, from which AMI of the same points reads its rate;
    both objectives write their per-row losses to `loss`, which leaves
    that share as it is.

    A tile holds at most `tile_rows` rows, but two rows or more where the
    block has two: numpy would sum a lone row on a one-node grid pairwise
    rather than in hypothesis order.
    """

    def __init__(self, rows: slice, tile_rows: int, width: int, size: int, sets: int):
        count = rows.stop - rows.start
        parts = max(1, min(count // 2, -(-count // tile_rows)))
        self.tiles, longest = _split(rows.start, rows.stop, parts), -(-count // parts)
        self.y = np.empty((sets, longest, size), dtype=np.complex128)
        self.nodes = np.empty((sets, longest, width, size))
        self.nodes[:, :, -1] = 1.0
        self.peak, self.sent, self.log_sum, self.loss = np.empty((4, sets, longest, size))
        self._buffers = [np.empty(0), np.empty(0), np.empty(0)]

    def views(self, count: int) -> tuple:
        """y, nodes, peak, sent, log_sum and loss for `count` rows: the
        arrays themselves where they have that many."""
        arrays = (self.y, self.nodes, self.peak, self.sent, self.log_sum, self.loss)
        if count == self.y.shape[1]:
            return arrays
        return tuple(a[:, :count] for a in arrays)

    def table_of(self, rows: slice, depth: int, sums: bool = False) -> np.ndarray:
        """A (sets, rows, depth, G) view of one of the block's two buffers:
        the table tile, M deep, that AMI's and PAMI's table passes write, or
        with `sums` PAMI's matched subset sums, m deep.  Each is allocated
        at the first use that needs it deeper.  Where the block's rows are
        one tile, the table buffer, `peak`, `sent` and `log_sum` hold the
        table of all its rows after a pass, which PAMI keeps and AMI reads
        (`QuadEvaluator.pami_bits`, `QuadEvaluator.ami_bits`).
        On a fresh evaluator the tile buffer is its only M-deep array: an
        M-deep tile allocated beside a kept 16-QAM table made glibc trim and
        re-fault the heap on every fresh evaluator, and PAMI at 14 dB, 10 deg
        took 0.70 against 0.40 ms on a 2-core machine.  Only a multi-tile
        evaluator scoring PAMI again holds a full table beside its tiles."""
        sets, longest, size = self.y.shape
        if self._buffers[sums].size < sets * longest * depth * size:
            self._buffers[sums] = np.empty(sets * longest * depth * size)
        count = rows.stop - rows.start
        return self._buffers[sums][: sets * count * depth * size].reshape(sets, count, depth, size)

    def indicator_of(self, rows: slice, n: int, m: int) -> np.ndarray:
        """A (rows, m, n) view, for PAMI's matched-bit indicator of a stack
        of `n`-point sets with m-bit labels, of the block's third buffer,
        laid out (rows, n, m), allocated at the first use that needs it
        larger (`QuadEvaluator._bit_losses`)."""
        longest, count = self.y.shape[1], rows.stop - rows.start
        if self._buffers[2].size < longest * n * m:
            self._buffers[2] = np.empty(longest * n * m)
        return self._buffers[2][: count * n * m].reshape(count, n, m).transpose(0, 2, 1)


class QuadEvaluator:
    """Reusable quadrature machinery for sets of `size` points on a sequence
    of channels, one slot each, all with jitter or all without, so that
    they share the grid's G nodes.

    `noise`, `rotation` (None without jitter) and the node weights hold a
    (1, G) row per slot, shaped to broadcast over a stack's sent rows;
    `_bind_channels` refills them in place for other channels of the same
    count and jitter class, so one evaluator can score a sequence of
    channels in turn (`_quadrature` keeps one per thread, set size and
    jitter class).  `ami_bits` scores an (S, size) stack, set j on slot j,
    and returns S rates: one call turns the whole stack to its canonical
    orientation, one table pass per tile scores it, and one np.vecdot per
    tile takes the weighted sums of its rows.  Every rotation, entry,
    hypothesis-ordered sum and per-row weighted sum of a set is computed as
    when it is scored alone, so each set's rate is the same to the bit.
    `pami_bits` scores a (1, size) stack on a one-slot evaluator and
    returns one rate in a list.  A stack of any other shape raises
    ValueError.

    The entry points take raw point/label arrays so an optimizer can call
    them in a hot loop.  The evaluator allocates its work arrays when it is
    built and every call reuses them, so one evaluator must not score two
    stacks at once.  Per set: the hypothesis matrix and the (size, G)
    half-energy grid.  Per thread block, at most one per thread, each of
    _MIN_BLOCK_ENTRIES table entries or more and two sent rows or more, and
    each sized for one tile of at most _TILE_ENTRIES table entries over the
    whole stack (`_Block`): the node columns, received samples, peaks, sent
    metrics, log-sums, and three buffers, each allocated at its first use,
    that hold the table tile, PAMI's matched subset sums and its matched-bit
    indicator.  So a one-shot AMI or PAMI evaluation holds its tiles, never
    the M x M x G table.  PAMI keeps the table of its last set for a label
    swap to reuse (`pami_bits`): in the tile buffers where every block is
    one tile, else in one full table allocated at its second call; binding
    other channels drops it.  Where it lives in the tiles, AMI of the same
    points reads its rate from it with no pass (`ami_bits`); an AMI call
    that runs its passes drops it.  The thread count is read from
    PHASECON_THREADS once, when the evaluator is built.
    """

    def __init__(self, channels, grid: QuadratureGrid, size: int):
        threads = _resolve_threads()
        jitter = {params.has_phase_noise for params in channels}
        if len(jitter) > 1:
            raise ValueError("an evaluator's channels must all have jitter or none")
        sets, n, jitter = len(channels), size, jitter.pop()
        shape = _node_shape(grid, jitter)
        nodes = math.prod(shape)
        self._grid, self._slots, self._size = grid, sets, n
        # What a kept evaluator must match to serve a call (`_evaluator`).
        self._layout = (grid, threads, _TILE_ENTRIES, _MIN_BLOCK_ENTRIES)
        # Per slot, a (1, G) row of the node offsets, rotations and weights,
        # and the factors, shaped to scale a set's (n, 2) points and (n,)
        # energies, of the hypothesis columns Re u and Im u, of |u|^2, the
        # fourth column k_phi^2, and of the half-energies, the last two with
        # jitter only (`_bind`); `_bind_channels` fills them, the rows through
        # views laid out as the grid's product nodes.
        self.noise = np.empty((sets, 1, nodes), dtype=np.complex128)
        self.rotation = np.empty_like(self.noise) if jitter else None
        self._weights, self._factors = np.empty((sets, 1, nodes)), np.empty((sets, 1, 5))
        self._node_views = [a if a is None else a.reshape(sets, *shape)
                            for a in (self.noise, self.rotation, self._weights)]
        self._re_im_factor, self._u2_factor = self._factors[..., :1], self._factors[..., 2]
        self._half_factor = self._factors[..., 4]
        # The hypothesis matrices and half-energy grids carry a unit axis for
        # the sent rows, which the table pass broadcasts them over; `_bind`
        # fills them through the views kept here.
        width = 4 if jitter else 3
        self._canonical, self._u2 = np.empty((sets, n), dtype=np.complex128), np.empty((sets, n))
        self._re_im = self._canonical.view(np.float64).reshape(sets, n, 2)
        self._hyp = np.empty((sets, 1, n, width))
        self._hyp_re_im, self._hyp_u2 = self._hyp[:, 0, :, :2], self._hyp[:, 0, :, 2]
        if jitter:
            self._half_u2, self._half = np.empty((sets, 1, n, nodes)), np.empty((sets, n))
        k = max(1, min(threads, n // 2, sets * n * n * nodes // _MIN_BLOCK_ENTRIES))
        tile_rows = max(2, _TILE_ENTRIES // (sets * n * nodes))
        self._blocks = [_Block(b, tile_rows, width, nodes, sets) for b in _split(0, n, k)]
        self._one_tile = all(len(block.tiles) == 1 for block in self._blocks)
        # PAMI's state: the full table of a multi-tile evaluator, the labels,
        # whose bits are kept with them (`pami_bits`, `_bit_losses`), and the
        # points whose table is kept, which `_bind_channels` clears.
        self._full = self._labels = None
        self._bind_channels(channels)

    def _bind_channels(self, channels) -> None:
        """Score on `channels`, one per slot, all of the evaluator's jitter
        class: refill the node offsets, rotations, weights and factors in
        place, and drop PAMI's kept table.  Every channel is resolved before
        the first array is written, so a refused one leaves the evaluator
        as it was."""
        channels = tuple(channels)
        resolved = [self._grid._channel_nodes(p) for p in channels]
        noise_view, rotation_view, weights_view = self._node_views
        for j, (noise, rotation, weights, factors) in enumerate(resolved):
            noise_view[j], weights_view[j], self._factors[j, 0] = noise, weights, factors
            if rotation is not None:
                rotation_view[j] = rotation
        if self.rotation is not None:
            self._hyp[:, 0, :, 3] = self._factors[..., 3]
        self._channels, self._kept = channels, None

    def _check(self, *stacks: np.ndarray) -> None:
        """Refuse stacks that are not (S, size), one set per channel slot."""
        shape = (self._slots, self._size)
        if any(stack.shape != shape for stack in stacks):
            raise ValueError(f"stacks of shape {[s.shape for s in stacks]}, expected {shape}")

    def _bind(self, points: np.ndarray) -> np.ndarray:
        """The canonical copies of the (S, size) stack `points`, with the
        hypothesis matrices and half-energy grids filled, set j for slot j's
        channel."""
        canonical, u2 = _canonical_points(points, self._canonical), self._u2
        np.square(np.abs(canonical, out=u2), out=u2)
        # Columns Re u and Im u at once, from the (S, size, 2) float view of u.
        np.multiply(self._re_im, self._re_im_factor, out=self._hyp_re_im)
        np.multiply(u2, self._u2_factor, out=self._hyp_u2)
        if self.rotation is not None:
            half = np.multiply(u2, self._half_factor, out=self._half)
            np.copyto(self._half_u2[:, 0], half[:, :, None])
            self._half_u2_max = float(np.maximum.reduce(half, axis=None))
        return canonical

    def _table_pass(
        self,
        points: np.ndarray,
        rows: slice,
        table: np.ndarray,
        log_sum: np.ndarray,
        work: _Block,
    ):
        """Metric table (set j, sent point rows[r], hypothesis h, grid node g)
        of the (S, M) stack `points` bound by `_bind`, made exp(metric -
        peak) in place in `table`, one (M, G) slab per set and sent row of
        `rows`; the log of its sum over h goes to `log_sum`, one (G,) row per
        set and sent row.  Returns that log-sum, the peak and the sent point's
        own metric, in the arrays of `work`, a `_Block` of
        `rows.stop - rows.start` rows or more.

        With jitter the metric is |w| - k_n|u|^2/2, w = k_phi + k_n*conj(y)*u,
        and |w|^2 = k_phi^2 + 2 k_phi k_n Re(conj(y) u) + k_n^2 |y|^2 |u|^2 is
        bilinear: per set and sent row, one (M x 4) @ (4 x G) product of the
        hypothesis rows [2 k_phi k_n Re u, 2 k_phi k_n Im u, k_n^2 |u|^2,
        k_phi^2] with the node columns [Re y, Im y, |y|^2, 1].  Without
        jitter the metric k_n Re(conj(y) u) - k_n|u|^2/2 is itself one
        (M x 3) product, of [k_n Re u, k_n Im u, -k_n|u|^2/2] with
        [Re y, Im y, 1].  metric - peak is clamped at _EXP_FLOOR before the
        exp wherever that can change an entry.  The half-energy k_n|u_h|^2/2
        is subtracted from an (M, G) grid per set that `_bind` fills, so each
        sent row's slab and the grid run as one contiguous loop, not as
        G-long loops that broadcast one value each.

        A pass covers one tile, which its caller keeps in cache.  With jitter
        it goes over the tile seven times where the floor bound below holds
        (product, sqrt, - half-energy, peak, - peak, exp, sum) and eight
        where it fails and the clamp runs.  Where k_phi + k_n*conj(y)*u
        nearly vanishes, the expanded |w|^2 can round below 0: its sqrt is a
        NaN, which the tile's largest peak carries, and only then are the NaN
        entries set to 0 - k_n|u|^2/2, the value sqrt(max(|w|^2, 0)) gives,
        and the peaks taken again (three passes more).  Since |w| >= 0 and
        rounding is monotone, every metric is at least -max_h k_n|u_h|^2/2,
        so when the largest peak plus that half-energy, both over the whole
        stack, is at most -_EXP_FLOOR no metric - peak falls below the floor
        and the clamp is skipped; a clamp that runs where a set alone would
        skip it changes no entry.  At 5-20 deg on the degree-7 rule that
        holds below 22 dB for 16- and 64-QAM and below 24-26 dB for 8-PSK.
        Without jitter the clamp always runs: six passes.  Every entry is
        computed alike whatever the tile or the stack, so the bits depend on
        neither."""
        start, stop, _ = rows.indices(self._size)
        size = self.noise.shape[-1]
        x = points[:, start:stop, None]
        y, nodes, peak, sent, _, _ = work.views(stop - start)
        if self.rotation is not None:
            np.multiply(x, self.rotation, out=y)
            y += self.noise
            # |y|^2, with the peaks as scratch.
            squared = nodes[:, :, 2]
            np.multiply(y.real, y.real, out=squared)
            np.add(squared, np.multiply(y.imag, y.imag, out=peak), out=squared)
        else:
            np.add(x, self.noise, out=y)
        nodes[:, :, 0], nodes[:, :, 1] = y.real, y.imag
        metric = np.matmul(self._hyp, nodes, out=table)
        if self.rotation is None:
            np.maximum.reduce(metric, axis=2, out=peak)
            clamp = True
        else:
            half_u2 = self._half_u2
            with np.errstate(invalid="ignore"):
                np.sqrt(metric, out=metric)
            metric -= half_u2
            np.maximum.reduce(metric, axis=2, out=peak)
            top = np.maximum.reduce(peak, axis=None)
            if math.isnan(top):
                np.copyto(metric, np.subtract(0.0, half_u2), where=np.isnan(metric))
                np.maximum.reduce(metric, axis=2, out=peak)
                top = np.maximum.reduce(peak, axis=None)
            clamp = top + self._half_u2_max > -_EXP_FLOOR
        # Entry (r, start + r) of each set: every (M + 1)-th row of its
        # (r*M, G) view.
        np.copyto(sent, metric.reshape(self._slots, -1, size)[:, start :: self._size + 1])
        metric -= peak[:, :, None]
        if clamp:
            np.maximum(metric, _EXP_FLOOR, out=metric)
        np.exp(metric, out=metric)
        np.add.reduce(metric, axis=2, out=log_sum)
        return np.log(log_sum, out=log_sum), peak, sent

    def _rates(self, tile_losses) -> list[float]:
        """Per slot, m bits less the weighted mean, in bits, over nodes and
        sent rows of the per-row losses in nats `tile_losses(rows, block)`
        returns for each tile, one (rows, G) slab per set: each thread block
        runs its tiles in turn on its own work arrays, and the weighted sums
        of a tile's rows over their channels' nodes are taken in one
        np.vecdot, which calls per row the dot product `ndarray.dot` does,
        before the next tile overwrites them."""

        def run(block: _Block) -> list:
            return [np.vecdot(tile_losses(rows, block), self._weights) for rows in block.tiles]

        # Per slot, its row sums from every block: math.fsum is exact, so
        # the order in which they come does not matter.
        n, blocks = self._size, _map_blocks(run, self._blocks, len(self._blocks))
        sums = np.concatenate([s for tiles in blocks for s in tiles], axis=1).tolist()
        return [(n.bit_length() - 1) - math.fsum(slot) / n / _LN2 for slot in sums]

    def ami_bits(self, points: np.ndarray) -> list[float]:
        """Symbol-wise rate of each set of an (S, size) stack: per sent row
        and node, the peak plus the log-sum less the sent point's metric.

        Where PAMI keeps the table of these very points in the tiles (one
        slot, every block one tile), the peaks, sent metrics and log-sums
        its last pass left in the blocks are those a pass would give, and
        the rate is read from them with no pass.  Else the passes run, and
        since they may overwrite the tiles that hold PAMI's table, no table
        is kept after them."""
        self._check(points)
        kept = self._kept
        reuse = kept is not None and self._one_tile and (kept == points[0]).all()
        if not reuse:
            self._kept = None
            canonical, n = self._bind(points), self._size

        def tile_losses(rows: slice, block: _Block) -> np.ndarray:
            _, _, peak, sent, log_sum, loss = block.views(rows.stop - rows.start)
            if not reuse:
                table = block.table_of(rows, n)
                self._table_pass(canonical, rows, table, log_sum, block)
            np.add(peak, log_sum, out=loss)
            return np.subtract(loss, sent, out=loss)

        return self._rates(tile_losses)

    def _bit_losses(self, rows: slice, exp_table, log_sum, sums, indicator) -> np.ndarray:
        """Per sent row of `rows` and label bit, the information PAMI loses:
        the tile's `log_sum` minus the log of its `exp_table` summed over
        the hypotheses whose bit matches the sent label's, made in `sums`.

        The tile's (rows, m, M) `indicator`, whose entry [j, i, h] marks the
        hypotheses h whose bit i matches that of the label of sent point j,
        gives one (m x M) @ (M x G) product per sent row.  It is built per
        tile from the label bits, so no M x m x M array is held.  Each row
        of it is laid out column-major (`_Block.indicator_of`), and that
        layout sets the product's rounding: a row-major copy of the same
        values rounds some entries otherwise."""
        bits = self._bits
        np.matmul(np.equal(bits.T, bits[rows, :, None], out=indicator), exp_table, out=sums)
        np.log(sums, out=sums)
        return np.subtract(log_sum[:, :, None], sums, out=sums)

    def pami_bits(self, points: np.ndarray, labels: np.ndarray) -> list[float]:
        """Bitwise rate of a (1, size) stack of points with its (1, size)
        labels, on a one-slot evaluator, as a list of one.

        Each tile's table pass runs into the block's tile buffer, as in
        `ami_bits`, and its m matched subset sums per sent row are taken
        while it is in cache, into an m-deep buffer (`_bit_losses`).

        The table does not depend on the labels, and the evaluator keeps
        the table of the last set scored where that costs no second copy:
        where every block is one tile, its buffers hold their rows' table
        after the call.  A multi-tile evaluator streams its first call
        through the tiles and keeps nothing; from its second call on, one
        full table takes the passes, for callers that repeat, as the
        annealer does.  A call whose points equal the kept ones reuses the
        table; any other call refills it, one tile at a time.  AMI of the
        kept points reads its rate from a table kept in the tiles and
        leaves it for PAMI to reuse; an AMI call that runs its passes, which
        may overwrite the tiles, leaves no table to reuse.  Each row's loss
        goes to the block's `loss`, so the peaks AMI reads stay as the pass
        left them."""
        if self._slots != 1:
            raise ValueError(f"PAMI scores one set, not a stack on {self._slots} channel slots")
        self._check(points, labels)
        labels, n = labels[0], self._size
        fresh = self._kept is None or not (self._kept == points[0]).all()
        if fresh:
            self._kept = None  # matches no set until the passes below complete
            canonical = self._bind(points)
            # A call has come before where the labels are set.
            if not self._one_tile and self._full is None and self._labels is not None:
                size = self.noise.shape[-1]
                self._full = (np.empty((1, n, n, size)), np.empty((1, n, size)))
        if self._labels is None or not (self._labels == labels).all():
            self._labels, self._bits = labels.copy(), _label_bits(labels)[0]
        m, full = self._bits.shape[1], self._full

        def tile_losses(rows: slice, block: _Block) -> np.ndarray:
            *_, log_sum, loss = block.views(rows.stop - rows.start)
            if full is None:
                exp_table = block.table_of(rows, n)
            else:
                exp_table, log_sum = full[0][:, rows], full[1][:, rows]
            if fresh:
                self._table_pass(canonical, rows, exp_table, log_sum, block)
            sums, indicator = block.table_of(rows, m, True), block.indicator_of(rows, n, m)
            losses = self._bit_losses(rows, exp_table, log_sum, sums, indicator)
            return np.add.reduce(losses, axis=2, out=loss)

        bits = self._rates(tile_losses)
        if fresh and (self._one_tile or full is not None):
            self._kept = points[0].copy()
        return bits


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


class _Kept(threading.local):
    """The evaluators `_quadrature` keeps on one thread, by set size and
    jitter class: at most one each, and only one-tile ones."""

    def __init__(self):
        self.evaluators = {}


_KEPT = _Kept()


def _evaluator(params: ChannelParams, grid: QuadratureGrid, size: int) -> QuadEvaluator:
    """An evaluator for sets of `size` points on `params` and `grid`: the
    calling thread's kept one for that size and jitter class, bound to
    `params` if it is not already, where it was built on `grid` with the
    thread count and tile layout now in force; else a new one, which is
    kept in its place where every block is one tile.  A kept evaluator's
    PAMI table therefore lives in its tiles, and a one-shot call never
    allocates a full table."""
    key, kept = (size, params.has_phase_noise), _KEPT.evaluators
    ev = kept.get(key)
    if ev is None or ev._layout != (grid, _resolve_threads(), _TILE_ENTRIES, _MIN_BLOCK_ENTRIES):
        ev = QuadEvaluator((params,), grid, size)
        if ev._one_tile:
            kept[key] = ev
        else:
            kept.pop(key, None)
    elif ev._channels != (params,):
        ev._bind_channels((params,))
    return ev


def _quadrature(
    c: Constellation,
    params: ChannelParams,
    grid: QuadratureGrid,
    objective: str,
) -> CapacityResult:
    """The chosen objective by quadrature: the one place that dispatches
    it, and the one adapter from a Constellation to the evaluator's stacks.
    It scores on the calling thread's kept evaluator for the set's size
    and jitter class where there is one (`_evaluator`), so the sweeps,
    `snr_at_rate`, `mismatch_matrix` and repeated one-shot calls build
    their machinery once, and rebind it only when the channel changes.
    AMI of the set whose table a PAMI call on the same channel left in the
    evaluator's tiles runs no pass, nor does PAMI after it
    (`QuadEvaluator.ami_bits`)."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    _require_normalized(c)
    _warn_wide_phase(params, 4)
    ev = _evaluator(params, grid, c.size)
    if objective == AMI:
        bits = ev.ami_bits(c.points[None])
    else:
        bits = ev.pami_bits(c.points[None], c.labels[None])
    return _wrap_result(bits[0], "quadrature", 0.0, params, c, objective)


def ami_quadrature(
    c: Constellation, params: ChannelParams, grid: QuadratureGrid
) -> CapacityResult:
    """Symbol-wise achievable rate by Gauss-Hermite quadrature.

    Requires a unit-average-power constellation (rejected otherwise, never
    silently rescaled).
    """
    return _quadrature(c, params, grid, AMI)


def pami_quadrature(
    c: Constellation, params: ChannelParams, grid: QuadratureGrid
) -> CapacityResult:
    """Bitwise (pragmatic) rate of the constellation's labeling."""
    return _quadrature(c, params, grid, PAMI)


# --- Monte Carlo -----------------------------------------------------------


def _draw_channel_samples(
    points: np.ndarray, params: ChannelParams, n_samples: int, seed: int
):
    """Transmitted indices and received samples, in a fixed draw order:
    indices, then the von Mises phases wherever k_phi is finite (numpy's
    Best & Fisher method, a wrapped normal above k_phi = 1e6), also past the
    jitter-free cut, then the Gaussian noise."""
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.integers(0, points.size, n_samples)
    x = points[idx]
    if math.isfinite(params.k_phi):
        x = x * np.exp(1j * rng.vonmises(0.0, params.k_phi, n_samples))
    gauss = rng.standard_normal((n_samples, 2))
    sigma = 1.0 / math.sqrt(params.k_n)
    return idx, x + sigma * (gauss[:, 0] + 1j * gauss[:, 1])


def _mc_sample_bits(
    c: Constellation,
    params: ChannelParams,
    n_samples: int,
    seed: int,
    objective: str,
    chunk: int | None = None,
) -> np.ndarray:
    """Per-sample information in bits under the exact likelihood."""
    k = _resolve_threads()
    if chunk is None:
        chunk = max(1, _MC_CHUNK_ENTRIES * min(k, 2) // c.points.size)
    pts = _canonical_points(c.points[None])[0]
    idx, y = _draw_channel_samples(pts, params, n_samples, seed)
    label_bits = _label_bits(c.labels) if objective == PAMI else None
    out = np.empty(n_samples)

    def fill(sl: slice) -> None:
        sent = idx[sl]
        vals = hypothesis_log_terms(y[sl, None], pts, params)
        # Values relative to the sent hypothesis', made exp(value - peak).
        table = vals - vals[np.arange(sent.size), sent, None]
        if pts.size <= _MC_PEAK_BY_COPY:
            peak = np.maximum.reduce(table.T.copy(), axis=0)
        else:
            peak = np.maximum.reduce(table, axis=1)
        table -= peak[:, None]
        np.maximum(table, _EXP_FLOOR, out=table)
        np.exp(table, out=table)
        log_sum = np.log(np.add.reduce(table, axis=1))
        out[sl] = c.m - _information(table.T, log_sum, peak, sent, label_bits) / _LN2

    slices = [slice(s, min(s + chunk, n_samples)) for s in range(0, n_samples, chunk)]
    _map_blocks(fill, slices, k)
    return out


def _monte_carlo(
    c: Constellation,
    params: ChannelParams,
    n_samples: int,
    seed: int,
    objective: str,
    chunk: int | None = None,
) -> CapacityResult:
    _require_normalized(c)
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_MC_SAMPLES}, got {n_samples}")
    if chunk is not None and not (isinstance(chunk, (int, np.integer)) and chunk >= 1):
        raise ValueError(f"chunk must be an integer >= 1, got {chunk!r}")
    bits = _mc_sample_bits(c, params, n_samples, seed, objective, chunk)
    mean = float(np.mean(bits))
    stderr = float(np.std(bits, ddof=1) / math.sqrt(n_samples))
    return _wrap_result(mean, "monte_carlo", stderr, params, c, objective)


def ami_monte_carlo(
    c: Constellation,
    params: ChannelParams,
    n_samples: int,
    seed: int,
    *,
    chunk: int | None = None,
) -> CapacityResult:
    """Symbol-wise rate estimated by sampling the exact channel.

    Reproducible for a fixed seed; `stderr` is the standard error of the
    per-sample mean.  Samples are scored `chunk` (an integer >= 1) at a
    time, which bounds the (chunk, M) temporaries; the default holds 2^14
    table entries on one thread, 2048 samples at M = 8 and 256 at M = 64,
    and twice that on more.  Each sample is scored alone, so the chunk
    does not change the bits.  PHASECON_THREADS, read once per call, sets
    how many chunks are scored at once.  Each chunk's exact-likelihood
    values become one table of exp(value - peak), which scores AMI here
    and PAMI in `pami_monte_carlo` the way the quadrature does, so PAMI
    costs little more than AMI.
    """
    return _monte_carlo(c, params, n_samples, seed, AMI, chunk)


def pami_monte_carlo(
    c: Constellation,
    params: ChannelParams,
    n_samples: int,
    seed: int,
    *,
    chunk: int | None = None,
) -> CapacityResult:
    """Bitwise rate estimated by sampling the exact channel, scored in
    chunks as in `ami_monte_carlo`."""
    return _monte_carlo(c, params, n_samples, seed, PAMI, chunk)
