"""Simulated annealing over signal positions and bit labelings.

Candidate moves displace one point (with a displacement budget that shrinks
geometrically over time) or, when optimizing the bitwise objective, swap
the labels of two points.  Every candidate is renormalized to unit average
power before scoring, so the power constraint holds along the whole
trajectory.  The best constellation ever visited is returned, and the
schedule can be restarted from it a configurable number of times.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .capacity import OBJECTIVES, PAMI, QuadEvaluator, QuadratureGrid, _warn_wide_phase
from .model import ChannelParams, Constellation

# Reject candidates that bring two points closer than this; such near
# coincidences carry no rate benefit and only stall the search.
COLLISION_MIN_DIST = 1e-9

MOVE_POINT = "point"
MOVE_SWAP = "swap"


@dataclass(frozen=True)
class SAConfig:
    """Annealing schedule; `iterations` is the total step budget, split
    evenly over `reanneal_count` + 1 annealing passes."""

    iterations: int = 40000
    t_initial: float = 0.05
    t_final: float = 1e-5
    d_initial: float = 0.5
    d_final: float = 0.005
    label_swap_prob: float = 0.1
    seed: int = 0
    reanneal_count: int = 2

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        # Equality is allowed so a frozen temperature turns the search
        # into a plain hill-climber.
        if not (math.inf > self.t_initial >= self.t_final > 0):
            raise ValueError(
                f"need finite t_initial >= t_final > 0, got {self.t_initial}, {self.t_final}"
            )
        if not (math.inf > self.d_initial >= self.d_final > 0):
            raise ValueError(
                f"need finite d_initial >= d_final > 0, got {self.d_initial}, {self.d_final}"
            )
        if not 0.0 <= self.label_swap_prob <= 1.0:
            raise ValueError(f"label_swap_prob must be in [0, 1], got {self.label_swap_prob}")
        if self.reanneal_count < 0:
            raise ValueError(f"reanneal_count must be >= 0, got {self.reanneal_count}")
        if self.iterations < self.reanneal_count + 1:
            raise ValueError("iterations must cover at least one step per pass")


@dataclass(frozen=True, eq=False)
class AnnealTrace:
    """Per-step log of one optimization run."""

    step: np.ndarray
    temperature: np.ndarray
    current_bits: np.ndarray
    best_bits: np.ndarray
    accepted: np.ndarray
    move_type: np.ndarray

    def to_csv(self) -> str:
        lines = ["step,temperature,current_bits,best_bits,accepted,move_type"]
        for k in range(self.step.size):
            lines.append(
                f"{int(self.step[k])},{float(self.temperature[k])!r},"
                f"{float(self.current_bits[k])!r},{float(self.best_bits[k])!r},"
                f"{int(self.accepted[k])},{self.move_type[k]}"
            )
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_csv())


def _geometric(step: int, length: int, start: float, end: float) -> float:
    if length <= 1:
        return start
    return start * (end / start) ** (step / (length - 1))


def _displacement(max_disp: float, draw_a: float, draw_b: float) -> complex:
    """Uniform draw from the closed disc of radius `max_disp`."""
    radius = max_disp * math.sqrt(draw_a)
    angle = 2.0 * math.pi * draw_b
    return complex(radius * math.cos(angle), radius * math.sin(angle))


def _renormalize(pts: np.ndarray) -> np.ndarray:
    power = float(np.add.reduce(pts.real**2 + pts.imag**2) / pts.size)
    if power <= 0.0:
        raise ValueError("degenerate all-zero candidate")
    return pts / math.sqrt(power)


def _min_pairwise(pts: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]) -> float:
    """Smallest distance over the index pairs (i < j) of np.triu_indices."""
    return float(np.minimum.reduce(np.abs(pts[pairs[0]] - pts[pairs[1]])))


def _random_disc_points(n: int, rng: np.random.Generator) -> np.ndarray:
    out = np.empty(n, dtype=np.complex128)
    have = 0
    while have < n:
        batch = max(8, 2 * (n - have))
        xy = rng.uniform(-1.0, 1.0, (batch, 2))
        keep = xy[:, 0] ** 2 + xy[:, 1] ** 2 <= 1.0
        got = xy[keep]
        take = min(n - have, got.shape[0])
        out[have : have + take] = got[:take, 0] + 1j * got[:take, 1]
        have += take
    return out


def _pass_lengths(total: int, passes: int) -> list[int]:
    base, extra = divmod(total, passes)
    return [base + (1 if p < extra else 0) for p in range(passes)]


def sa_optimize(
    size: int,
    params: ChannelParams,
    objective: str,
    grid: QuadratureGrid,
    config: SAConfig,
    initial: Constellation | None = None,
) -> tuple[Constellation, AnnealTrace]:
    """Jointly optimize point positions (and labels, for PAMI) for one channel.

    Args:
        size: number of points, a power of two >= 2.
        params: channel the design targets.
        objective: "AMI" (positions only) or "PAMI" (positions and labels).
        grid: quadrature rule used to score candidates.
        config: schedule; identical config implies an identical result.
        initial: optional warm start; defaults to points drawn uniformly in
            the unit disc (then normalized) with a random labeling.

    Returns:
        The best constellation visited and the per-step trace.
    """
    if size < 2 or size & (size - 1):
        raise ValueError(f"size must be 2^m with m >= 1, got {size}")
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if objective == PAMI and config.label_swap_prob == 0.0:
        warnings.warn("PAMI optimization with label_swap_prob=0 cannot move labels")
    _warn_wide_phase(params, 3)
    m = size.bit_length() - 1
    rng = np.random.Generator(np.random.PCG64(config.seed))
    pairs = np.triu_indices(size, 1)

    if initial is not None:
        if initial.size != size:
            raise ValueError(f"warm start has {initial.size} points, expected {size}")
        pts = _renormalize(initial.points.copy())
        labs = initial.labels.copy()
    else:
        pts = _renormalize(_random_disc_points(size, rng))
        labs = rng.permutation(size).astype(np.int64)

    # A label swap leaves the PAMI table unchanged, and an evaluator reuses
    # the table of the last points it scored.  So swaps score on `held`,
    # whose last points are the current state's, and point moves on
    # `spare`; the two trade places when a point move is accepted.
    held = QuadEvaluator(params, grid)
    if objective == PAMI:
        spare = QuadEvaluator(params, grid)
        score = lambda ev, p, l: ev.pami_bits(p, l)  # noqa: E731
        swap_prob = config.label_swap_prob
    else:
        spare = held
        score = lambda ev, p, l: ev.ami_bits(p)  # noqa: E731
        swap_prob = 0.0

    current = score(held, pts, labs)
    best = current
    best_pts, best_labs = pts.copy(), labs.copy()

    n_steps = config.iterations
    col_step = np.arange(n_steps, dtype=np.int64)
    col_temp = np.empty(n_steps)
    col_cur = np.empty(n_steps)
    col_best = np.empty(n_steps)
    col_acc = np.zeros(n_steps, dtype=bool)
    col_move = np.empty(n_steps, dtype="<U5")

    g = 0
    for p_i, p_len in enumerate(_pass_lengths(n_steps, config.reanneal_count + 1)):
        if p_i > 0:
            # Re-heat from the incumbent best.
            pts, labs = best_pts.copy(), best_labs.copy()
            current = best
        for local in range(p_len):
            temp = _geometric(local, p_len, config.t_initial, config.t_final)
            disp = _geometric(local, p_len, config.d_initial, config.d_final)
            if swap_prob > 0.0 and rng.random() < swap_prob:
                move = MOVE_SWAP
                i = int(rng.integers(size))
                j = int(rng.integers(size - 1))
                j += j >= i
                cand_pts = pts
                cand_labs = labs.copy()
                cand_labs[i], cand_labs[j] = cand_labs[j], cand_labs[i]
                collided = False
            else:
                move = MOVE_POINT
                i = int(rng.integers(size))
                u_a, u_b = rng.random(2)
                cand_pts = pts.copy()
                cand_pts[i] += _displacement(disp, u_a, u_b)
                cand_pts = _renormalize(cand_pts)
                cand_labs = labs
                collided = _min_pairwise(cand_pts, pairs) < COLLISION_MIN_DIST
            accepted = False
            if not collided:
                cand = score(held if move == MOVE_SWAP else spare, cand_pts, cand_labs)
                # Metropolis rule for a maximization: always uphill, downhill
                # with probability exp(delta / temp); a NaN delta draws nothing.
                delta = cand - current
                accepted = delta >= 0 or (delta < 0 and rng.random() < math.exp(delta / temp))
                if accepted:
                    pts, labs, current = cand_pts, cand_labs, cand
                    if move == MOVE_POINT:
                        held, spare = spare, held
                    if current > best:
                        best = current
                        best_pts, best_labs = pts.copy(), labs.copy()
            col_temp[g] = temp
            col_cur[g] = current
            col_best[g] = best
            col_acc[g] = accepted
            col_move[g] = move
            g += 1

    result = Constellation(points=best_pts, labels=best_labs, m=m)
    trace = AnnealTrace(
        step=col_step,
        temperature=col_temp,
        current_bits=col_cur,
        best_bits=col_best,
        accepted=col_acc,
        move_type=col_move,
    )
    return result, trace
