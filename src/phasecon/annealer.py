"""Simulated annealing over signal positions and bit labelings.

Candidate moves displace one point (with a displacement budget that shrinks
geometrically over time) or, when optimizing the bitwise objective, swap
the labels of two points.  Every candidate is renormalized to unit average
power before scoring, so the power constraint holds along the whole
trajectory.  The best constellation ever visited is returned, and the
schedule can be restarted from it a configurable number of times.

One loop anneals any number of AMI chains in lockstep, one per channel
(`_anneal_chains`).  It builds its quadrature evaluator (`QuadEvaluator`)
once, for the design size and the chains' channels, and the candidates
are (chains, size) stacks of its shape.  At each step every chain draws
its move from its own generator; the candidate stack is then rescaled and
checked for collisions in whole-stack calls, one stacked evaluation scores
all the chains' candidates, each on its own channel, and every chain
accepts or rejects its own.  A chain's draws and rates are those of a lone
run, so each chain ends bit for bit where `sa_optimize`, the case of one
chain, ends with its seed.  `analysis.campaign_cells` runs the AMI cells of
a campaign as such chains; PAMI anneals one chain at a time.
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


def _renormalize(stack: np.ndarray) -> None:
    """Scale each row of the (K, size) `stack`, in place, to unit average
    power.  The K row powers come out of one reduction and are rooted as
    Python floats, which costs less than more numpy calls."""
    powers = np.add.reduce(stack.real**2 + stack.imag**2, axis=1).tolist()
    if 0.0 in powers:
        raise ValueError("degenerate all-zero candidate")
    size = stack.shape[1]
    np.divide(stack, np.array([math.sqrt(p / size) for p in powers])[:, None], out=stack)


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
    return _anneal_chains(size, [params], objective, grid, config, [config.seed], initial)[0]


def _anneal_chains(size, channels, objective, grid, config, seeds, initial=None) -> list:
    """Anneal one chain per channel in lockstep: chain k runs `config` with
    seed `seeds[k]` on `channels[k]`.  A step draws each chain's move in
    turn, rescales the candidate stack to unit power per row and finds the
    rows with two points closer than COLLISION_MIN_DIST in whole-stack
    calls, and scores every chain's candidate in one stacked evaluation.
    Chain k draws its moves and its acceptances from its own generator,
    exactly as `sa_optimize` draws alone, and each candidate's scale,
    collision test and rate are the ones it gets alone, so chain k
    ends where `sa_optimize` with seed `seeds[k]` ends, bit for bit;
    `sa_optimize` is the case of one chain.  The channels must all have
    jitter or none (`QuadEvaluator`).  PAMI anneals one chain: its label
    swaps reuse the table an evaluator keeps for one set, and 8-point PAMI
    chains run in lockstep gained nothing at 20 deg.  Returns (best, trace)
    per chain."""
    if size < 2 or size & (size - 1):
        raise ValueError(f"size must be 2^m with m >= 1, got {size}")
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    chains = len(channels)
    if objective == PAMI and chains > 1:
        raise ValueError(f"PAMI anneals one chain, got {chains}")
    if objective == PAMI and config.label_swap_prob == 0.0:
        warnings.warn("PAMI optimization with label_swap_prob=0 cannot move labels")
    for params in channels:
        _warn_wide_phase(params, 4)
    m = size.bit_length() - 1
    rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    # Each chain's point pairs (i < j), as indices into the flat stack.
    offsets = np.arange(0, chains * size, size)[:, None]
    first, second = (offsets + i for i in np.triu_indices(size, 1))

    # Per chain, one row of each stack: its current points and labels, its
    # best ones, and its candidate points and labels, written in place.
    if initial is not None and initial.size != size:
        raise ValueError(f"warm start has {initial.size} points, expected {size}")
    pts = np.empty((chains, size), dtype=np.complex128)
    labs = np.empty((chains, size), dtype=np.int64)
    for k, rng in enumerate(rngs):
        if initial is not None:
            pts[k], labs[k] = initial.points, initial.labels
        else:
            pts[k] = _random_disc_points(size, rng)
            labs[k] = rng.permutation(size)
    _renormalize(pts)
    best_pts, best_labs, cand_pts, cand_labs = pts.copy(), labs.copy(), pts.copy(), labs.copy()
    cand_flat = cand_pts.reshape(-1)

    # A label swap leaves the PAMI table unchanged, and an evaluator reuses
    # the table of the last points it scored.  So swaps score on `held`,
    # whose last points are the current state's, and point moves on
    # `spare`; the two trade places when a point move is accepted.  AMI
    # makes no swaps, and one evaluator scores every chain's candidate.
    held = QuadEvaluator(channels, grid, size)
    if objective == PAMI:
        spare = QuadEvaluator(channels, grid, size)
        score = lambda ev, p, l: ev.pami_bits(p, l)  # noqa: E731
        swap_prob = config.label_swap_prob
    else:
        spare = held
        score = lambda ev, p, l: ev.ami_bits(p)  # noqa: E731
        swap_prob = 0.0
    current = score(held, pts, labs)
    best = list(current)

    n_steps = config.iterations
    # Per step, its temperature; per chain, its current and best rate,
    # acceptance and move.
    col_temp = []
    columns = [([], [], [], []) for _ in range(chains)]
    moves, no_collision = [MOVE_POINT] * chains, [False] * chains
    # Per chain, its generator, its rows of the stacks and its columns.
    rows = list(zip(rngs, pts, labs, cand_pts, cand_labs, best_pts, best_labs, columns))

    for p_i, p_len in enumerate(_pass_lengths(n_steps, config.reanneal_count + 1)):
        if p_i > 0:
            # Re-heat from the incumbent best.
            pts[:], labs[:] = best_pts, best_labs
            current = list(best)
        for local in range(p_len):
            temp = _geometric(local, p_len, config.t_initial, config.t_final)
            disp = _geometric(local, p_len, config.d_initial, config.d_final)
            swapped = False
            cand_pts[...] = pts
            for k, (rng, _, lab, cand, cand_lab, _, _, _) in enumerate(rows):
                if swap_prob > 0.0 and rng.random() < swap_prob:
                    i = int(rng.integers(size))
                    j = int(rng.integers(size - 1))
                    j += j >= i
                    cand_lab[...] = lab
                    cand_lab[i], cand_lab[j] = cand_lab[j], cand_lab[i]
                    moves[k], swapped = MOVE_SWAP, True
                else:
                    i = int(rng.integers(size))
                    u_a, u_b = rng.random(2)
                    cand[i] += _displacement(disp, u_a, u_b)
                    moves[k] = MOVE_POINT
            # Only PAMI, one chain, swaps: a step swaps labels or moves
            # points.  A collided candidate of a multi-chain step is scored
            # and ignored; a one-chain step that collides scores nothing.
            if swapped:
                collided = no_collision
                bits = score(held, pts, cand_labs)
            else:
                _renormalize(cand_pts)
                gaps = np.abs(cand_flat[first] - cand_flat[second])
                collided = (np.minimum.reduce(gaps, axis=1) < COLLISION_MIN_DIST).tolist()
                if not all(collided):
                    bits = score(spare, cand_pts, labs)
            col_temp.append(temp)
            for k, row in enumerate(rows):
                rng, state, lab, cand, cand_lab, best_state, best_lab, column = row
                accepted = False
                if not collided[k]:
                    # Metropolis rule for a maximization: always uphill,
                    # downhill with probability exp(delta / temp); a NaN
                    # delta draws nothing.
                    delta = bits[k] - current[k]
                    accepted = delta >= 0 or (delta < 0 and rng.random() < math.exp(delta / temp))
                    if accepted:
                        current[k] = bits[k]
                        if moves[k] == MOVE_SWAP:
                            lab[...] = cand_lab
                        else:
                            state[...] = cand
                            held, spare = spare, held
                        if current[k] > best[k]:
                            best[k] = current[k]
                            best_state[...], best_lab[...] = state, lab
                col_cur, col_best, col_acc, col_move = column
                col_cur.append(current[k])
                col_best.append(best[k])
                col_acc.append(accepted)
                col_move.append(moves[k])

    return [
        (
            Constellation(points=best_pts[k], labels=best_labs[k], m=m),
            AnnealTrace(
                step=np.arange(n_steps, dtype=np.int64),
                temperature=np.array(col_temp),
                current_bits=np.array(col_cur),
                best_bits=np.array(col_best),
                accepted=np.array(col_acc, dtype=bool),
                move_type=np.array(col_move, dtype="<U5"),
            ),
        )
        for k, (col_cur, col_best, col_acc, col_move) in enumerate(columns)
    ]
