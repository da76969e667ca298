"""Sweeps, design campaigns, mismatch studies, and the pragmatic SNR gap."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .annealer import SAConfig, _anneal_chains
from .capacity import AMI, PAMI, QuadratureGrid, _quadrature, _sets_per_tile
from .model import ChannelParams, Constellation

SNR_BRACKET_DB = (-10.0, 40.0)
SNR_BISECT_TOL_DB = 0.01
SNR_BISECT_MAX_ITER = 60
DEFAULT_TARGET_BITS = 2.5


@dataclass(frozen=True, eq=False)
class CapacityCurve:
    """Rate as a function of one swept channel parameter."""

    abscissa_kind: str  # "snr_db" or "pnsd_deg"
    xs: np.ndarray
    bits: np.ndarray
    stderr: np.ndarray
    objective: str
    fixed_name: str
    fixed_value: float
    fingerprint: str

    def to_csv(self) -> str:
        header = (
            f"# abscissa_kind={self.abscissa_kind},"
            f"fixed_param={self.fixed_name}:{self.fixed_value!r},"
            f"objective={self.objective},fingerprint={self.fingerprint}"
        )
        lines = [header, "x,bits,stderr"]
        for x, b, s in zip(self.xs, self.bits, self.stderr):
            lines.append(f"{float(x)!r},{float(b)!r},{float(s)!r}")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_csv())


def _check_axis(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    if arr.size > 1 and not np.all(np.diff(arr) > 0):
        raise ValueError(f"{name} must be strictly increasing")
    return arr


def _sweep(c, kind, values, fixed_name, fixed_value, objective, grid):
    """Rates along the axis `kind` ("snr_db" or "pnsd_deg") with the other
    channel parameter held at `fixed_value`.  Every channel is built before
    the first evaluation, so a bad value or an unresolvable jitter channel
    (`ChannelParams`) fails before any work."""
    xs = _check_axis(values, f"{kind}_list")
    channels = [ChannelParams.from_snr_pnsd(**{kind: x, fixed_name: fixed_value}) for x in xs]
    bits = [_quadrature(c, params, grid, objective).bits for params in channels]
    return CapacityCurve(
        abscissa_kind=kind,
        xs=xs,
        bits=np.array(bits),
        stderr=np.zeros(xs.size),
        objective=objective,
        fixed_name=fixed_name,
        fixed_value=float(fixed_value),
        fingerprint=c.fingerprint(),
    )


def snr_sweep(
    c: Constellation,
    pnsd_deg: float,
    snr_db_list,
    objective: str,
    grid: QuadratureGrid,
) -> CapacityCurve:
    """Evaluate the chosen objective across SNR at a fixed phase spread.

    Each point is the plain evaluator result; no rate is cached or
    interpolated between points.
    """
    return _sweep(c, "snr_db", snr_db_list, "pnsd_deg", pnsd_deg, objective, grid)


def pnsd_sweep(
    c: Constellation,
    snr_db: float,
    pnsd_deg_list,
    objective: str,
    grid: QuadratureGrid,
) -> CapacityCurve:
    """Evaluate the chosen objective across phase spread at a fixed SNR."""
    return _sweep(c, "pnsd_deg", pnsd_deg_list, "snr_db", snr_db, objective, grid)


def campaign_cell_seed(base_seed: int, snr_index: int, pnsd_index: int) -> int:
    """Deterministic per-cell seed: base XOR a stable hash of the indices."""
    digest = hashlib.blake2b(
        f"{snr_index},{pnsd_index}".encode("ascii"), digest_size=8
    ).digest()
    return (base_seed ^ int.from_bytes(digest, "big")) & (2**63 - 1)


def campaign_cells(
    size: int,
    snr_db_list,
    pnsd_deg_list,
    objective: str,
    grid: QuadratureGrid,
    config: SAConfig,
):
    """Check a campaign grid, then return an iterator that anneals its cells.

    Both axes must be non-empty and strictly increasing, and every cell's
    channel is built, which refuses a bad value or an unresolvable jitter
    channel (`ChannelParams`), before the first cell runs.  The iterator
    yields (snr_db, pnsd_deg, seed, best, trace) per cell, SNR-major, where
    ``seed`` is the cell's seed derived from ``config.seed`` and the cell
    indices, so a campaign is reproducible cell by cell.

    AMI cells are annealed group by group, as lockstep chains that share one
    stacked evaluation per step (`annealer._anneal_chains`): a group holds
    cells of one jitter class, in grid order, while its stacked table,
    K x size^2 x G entries, fits in one tile (`capacity._sets_per_tile`), so
    8-point cells batch and a 64-point cell runs alone.  PAMI cells run one
    at a time.  A group's cells finish together; each cell is yielded once
    it and every cell before it are done, in the same order as ever.  Each
    cell's design and trace are those of `sa_optimize` with the cell's
    seed, bit for bit.
    """
    snrs = _check_axis(snr_db_list, "snr_db_list")
    pnsds = _check_axis(pnsd_deg_list, "pnsd_deg_list")
    cells = [
        (float(snr), float(pnsd), campaign_cell_seed(config.seed, i, j))
        for i, snr in enumerate(snrs)
        for j, pnsd in enumerate(pnsds)
    ]
    params = [ChannelParams.from_snr_pnsd(snr, pnsd) for snr, pnsd, _ in cells]
    classes = {}
    for index, cell_params in enumerate(params):
        classes.setdefault(cell_params.has_phase_noise, []).append(index)
    group_of = {}
    for members in classes.values():
        height = _sets_per_tile(size, params[members[0]], grid) if objective == AMI else 1
        for start in range(0, len(members), height):
            group = members[start : start + height]
            group_of.update(dict.fromkeys(group, group))

    def run():
        done = {}
        for index, (snr, pnsd, seed) in enumerate(cells):
            if index not in done:
                group = group_of[index]
                runs = _anneal_chains(size, [params[g] for g in group], objective, grid,
                                      config, [cells[g][2] for g in group])
                done.update(zip(group, runs))
            best, trace = done.pop(index)
            yield snr, pnsd, seed, best, trace

    return run()


@dataclass(frozen=True, eq=False)
class MismatchReport:
    """Designs evaluated on channels they were not designed for.

    ``bits[d, e]`` is the AMI of design d on evaluation cell e; ``loss`` is
    the shortfall against the reference for that cell (the matched design
    when the cell is in the design grid, otherwise the best design there).
    """

    design_cells: list[tuple[float, float]]
    eval_cells: list[tuple[float, float]]
    bits: np.ndarray
    loss: np.ndarray

    @staticmethod
    def _cell_tag(cell: tuple[float, float]) -> str:
        return f"snr{cell[0]:g}dB/pnsd{cell[1]:g}deg"

    def to_csv(self) -> str:
        head = "design," + ",".join(self._cell_tag(e) for e in self.eval_cells)
        lines = ["# mismatch matrix: rows are designs, columns are evaluation cells"]
        for section, table in (("bits", self.bits), ("loss", self.loss)):
            lines.append(f"# section={section}")
            lines.append(head)
            for d, cell in enumerate(self.design_cells):
                row = ",".join(repr(float(v)) for v in table[d])
                lines.append(f"{self._cell_tag(cell)},{row}")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_csv())


def mismatch_matrix(
    designs: dict[tuple[float, float], Constellation],
    eval_snr_db_list,
    eval_pnsd_deg_list,
    grid: QuadratureGrid,
) -> MismatchReport:
    """Cross-evaluate every design on every (snr, pnsd) evaluation cell.

    Every cell's channel is built, and so checked, before the first
    evaluation.  The cells are scored channel by channel, every design in
    turn, on the evaluator `_quadrature` keeps per set size and jitter
    class, which is rebound once per channel and design size; a campaign's
    designs share one size."""
    if not designs:
        raise ValueError("designs must not be empty")
    snrs = np.asarray(eval_snr_db_list, dtype=np.float64)
    pnsds = np.asarray(eval_pnsd_deg_list, dtype=np.float64)
    if snrs.ndim != 1 or snrs.size == 0 or pnsds.ndim != 1 or pnsds.size == 0:
        raise ValueError("evaluation lists must be non-empty 1-D sequences")
    design_cells = sorted(designs)
    eval_cells = [(float(s), float(p)) for s in snrs for p in pnsds]
    channels = [ChannelParams.from_snr_pnsd(snr, pnsd) for snr, pnsd in eval_cells]
    bits = np.empty((len(design_cells), len(eval_cells)))
    for e, params in enumerate(channels):
        for d, cell in enumerate(design_cells):
            bits[d, e] = _quadrature(designs[cell], params, grid, AMI).bits
    loss = np.empty_like(bits)
    for e, cell in enumerate(eval_cells):
        if cell in designs:
            ref = bits[design_cells.index(cell), e]
        else:
            ref = bits[:, e].max()
        loss[:, e] = ref - bits[:, e]
    return MismatchReport(
        design_cells=design_cells, eval_cells=eval_cells, bits=bits, loss=loss
    )


def snr_at_rate(
    c: Constellation,
    pnsd_deg: float,
    objective: str,
    target_bits: float,
    grid: QuadratureGrid,
) -> float:
    """SNR (dB) at which the quadrature rate `objective` of `c` reaches
    `target_bits` at phase spread `pnsd_deg`.

    Bisects SNR_BRACKET_DB until the bracket is SNR_BISECT_TOL_DB wide,
    taking the rate to grow with the SNR, and returns the bracket's
    midpoint.  Raises ValueError when the target lies outside (0, m) or
    the rate at the bracket's ends does not straddle it.
    """
    if not 0 < target_bits < c.m:
        raise ValueError(f"target_bits must lie in (0, {c.m}), got {target_bits}")

    def rate(snr_db: float) -> float:
        params = ChannelParams.from_snr_pnsd(snr_db, pnsd_deg)
        return _quadrature(c, params, grid, objective).bits

    lo, hi = SNR_BRACKET_DB
    f_lo = rate(lo)
    f_hi = rate(hi)
    if f_lo >= target_bits:
        raise ValueError(
            f"target {target_bits} bits already reached at {lo} dB; bracket too high"
        )
    if f_hi < target_bits:
        raise ValueError(
            f"target {target_bits} bits unreachable by {hi} dB (got {f_hi:.4f})"
        )
    for _ in range(SNR_BISECT_MAX_ITER):
        if hi - lo <= SNR_BISECT_TOL_DB:
            break
        mid = 0.5 * (lo + hi)
        if rate(mid) >= target_bits:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def pragmatic_gap(
    c_ami: Constellation,
    c_pami: Constellation,
    pnsd_deg: float,
    grid: QuadratureGrid,
    target_bits: float = DEFAULT_TARGET_BITS,
) -> float:
    """SNR penalty (dB) of the bitwise design at a target rate and phase
    spread `pnsd_deg`: the SNR at which the PAMI of `c_pami` reaches
    `target_bits` less the one at which the AMI of `c_ami` does
    (`snr_at_rate`); positive means the bitwise route needs more SNR.
    """
    snr_ami = snr_at_rate(c_ami, pnsd_deg, AMI, target_bits, grid)
    return snr_at_rate(c_pami, pnsd_deg, PAMI, target_bits, grid) - snr_ami
