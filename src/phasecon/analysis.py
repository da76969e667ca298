"""Sweeps, design campaigns, mismatch studies, and the pragmatic SNR gap."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .annealer import SAConfig, sa_optimize, with_seed
from .capacity import (
    AMI,
    OBJECTIVES,
    PAMI,
    QuadratureGrid,
    ami_quadrature,
    pami_quadrature,
)
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


def _evaluate(c, params, objective, grid, threads):
    if objective == AMI:
        return ami_quadrature(c, params, grid, threads=threads)
    if objective == PAMI:
        return pami_quadrature(c, params, grid, threads=threads)
    raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")


def snr_sweep(
    c: Constellation,
    pnsd_deg: float,
    snr_db_list,
    objective: str,
    grid: QuadratureGrid,
    *,
    threads: int | None = None,
) -> CapacityCurve:
    """Evaluate the chosen objective across SNR at a fixed phase spread.

    Each point is the plain evaluator result; nothing is cached or
    interpolated between points.
    """
    xs = _check_axis(snr_db_list, "snr_db_list")
    bits = [
        _evaluate(c, ChannelParams.from_snr_pnsd(x, pnsd_deg), objective, grid, threads).bits
        for x in xs
    ]
    return CapacityCurve(
        abscissa_kind="snr_db",
        xs=xs,
        bits=np.array(bits),
        stderr=np.zeros(xs.size),
        objective=objective,
        fixed_name="pnsd_deg",
        fixed_value=float(pnsd_deg),
        fingerprint=c.fingerprint(),
    )


def pnsd_sweep(
    c: Constellation,
    snr_db: float,
    pnsd_deg_list,
    objective: str,
    grid: QuadratureGrid,
    *,
    threads: int | None = None,
) -> CapacityCurve:
    """Evaluate the chosen objective across phase spread at a fixed SNR."""
    xs = _check_axis(pnsd_deg_list, "pnsd_deg_list")
    bits = [
        _evaluate(c, ChannelParams.from_snr_pnsd(snr_db, x), objective, grid, threads).bits
        for x in xs
    ]
    return CapacityCurve(
        abscissa_kind="pnsd_deg",
        xs=xs,
        bits=np.array(bits),
        stderr=np.zeros(xs.size),
        objective=objective,
        fixed_name="snr_db",
        fixed_value=float(snr_db),
        fingerprint=c.fingerprint(),
    )


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

    Both axes must be non-empty and strictly increasing, and every cell a
    valid channel; all of this is checked before the first cell runs.  The
    iterator yields (snr_db, pnsd_deg, seed, best, trace) per cell, SNR-major,
    where ``seed`` is the cell's seed derived from ``config.seed``.
    """
    snrs = _check_axis(snr_db_list, "snr_db_list")
    pnsds = _check_axis(pnsd_deg_list, "pnsd_deg_list")
    cells = [
        (float(snr), float(pnsd), campaign_cell_seed(config.seed, i, j))
        for i, snr in enumerate(snrs)
        for j, pnsd in enumerate(pnsds)
    ]
    params = [ChannelParams.from_snr_pnsd(snr, pnsd) for snr, pnsd, _ in cells]

    def run():
        for (snr, pnsd, seed), cell_params in zip(cells, params):
            best, trace = sa_optimize(size, cell_params, objective, grid, with_seed(config, seed))
            yield snr, pnsd, seed, best, trace

    return run()


def design_campaign(
    size: int,
    snr_db_list,
    pnsd_deg_list,
    objective: str,
    grid: QuadratureGrid,
    config: SAConfig,
) -> dict[tuple[float, float], Constellation]:
    """Run one optimization per (snr_db, pnsd_deg) cell.

    Cell seeds are derived from ``config.seed`` and the cell indices, so a
    campaign is reproducible cell-by-cell and a 1x1 campaign equals a
    single direct optimization with the derived seed.
    """
    cells = campaign_cells(size, snr_db_list, pnsd_deg_list, objective, grid, config)
    return {(snr, pnsd): best for snr, pnsd, _, best, _ in cells}


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
    *,
    threads: int | None = None,
) -> MismatchReport:
    """Cross-evaluate every design on every (snr, pnsd) evaluation cell."""
    if not designs:
        raise ValueError("designs must not be empty")
    snrs = np.asarray(eval_snr_db_list, dtype=np.float64)
    pnsds = np.asarray(eval_pnsd_deg_list, dtype=np.float64)
    if snrs.ndim != 1 or snrs.size == 0 or pnsds.ndim != 1 or pnsds.size == 0:
        raise ValueError("evaluation lists must be non-empty 1-D sequences")
    design_cells = sorted(designs)
    eval_cells = [(float(s), float(p)) for s in snrs for p in pnsds]
    bits = np.empty((len(design_cells), len(eval_cells)))
    for e, (snr, pnsd) in enumerate(eval_cells):
        params = ChannelParams.from_snr_pnsd(snr, pnsd)
        for d, cell in enumerate(design_cells):
            bits[d, e] = ami_quadrature(designs[cell], params, grid, threads=threads).bits
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


def _snr_reaching_target(
    eval_bits,
    target_bits: float,
    *,
    lo: float = SNR_BRACKET_DB[0],
    hi: float = SNR_BRACKET_DB[1],
) -> float:
    """Bisect for the SNR at which a monotone rate curve crosses the target."""
    f_lo = eval_bits(lo)
    f_hi = eval_bits(hi)
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
        if eval_bits(mid) >= target_bits:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def pragmatic_gap(
    c_ami: Constellation,
    c_pami: Constellation,
    params: ChannelParams,
    grid: QuadratureGrid,
    target_bits: float = DEFAULT_TARGET_BITS,
    *,
    threads: int | None = None,
) -> float:
    """SNR penalty (dB) of the bitwise design at a target rate.

    Finds the SNR at which the AMI curve of `c_ami` and the PAMI curve of
    `c_pami` each reach `target_bits` (phase spread taken from `params`)
    and returns their difference; positive means the bitwise route needs
    more SNR.
    """
    m = min(c_ami.m, c_pami.m)
    if not 0 < target_bits < m:
        raise ValueError(f"target_bits must lie in (0, {m}), got {target_bits}")
    pnsd = params.pnsd_deg

    def ami_at(snr_db: float) -> float:
        p = ChannelParams.from_snr_pnsd(snr_db, pnsd)
        return ami_quadrature(c_ami, p, grid, threads=threads).bits

    def pami_at(snr_db: float) -> float:
        p = ChannelParams.from_snr_pnsd(snr_db, pnsd)
        return pami_quadrature(c_pami, p, grid, threads=threads).bits

    snr_ami = _snr_reaching_target(ami_at, target_bits)
    snr_pami = _snr_reaching_target(pami_at, target_bits)
    return snr_pami - snr_ami
