"""Command-line interface.

Angles are degrees and signal-to-noise ratios are dB at this boundary;
conversion to concentrations happens in one place.  Exit codes: 0 success,
1 validation failure, 2 unreadable or malformed file, 3 invalid parameters,
those the argument parser rejects included; each error prints one
`error:` line on stderr.
All randomness is seeded, so identical invocations write identical bytes.
The PHASECON_THREADS environment variable sets the thread count of every
evaluation, the annealing of `optimize` and `campaign` included (default
1); results do not depend on it, and a value that is not an integer exits 3.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

from .analysis import campaign_cells, mismatch_matrix, pnsd_sweep, snr_sweep
from .annealer import SAConfig, sa_optimize
from .capacity import AMI, OBJECTIVES, QuadratureGrid, _monte_carlo, _quadrature
from .model import (
    ChannelParams,
    ConstellationError,
    FormatError,
    _is_json_number,
    load_constellation,
    save_constellation,
)

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_BAD_FILE = 2
EXIT_BAD_PARAMS = 3

CAMPAIGN_MANIFEST = "manifest.json"
CAMPAIGN_SCHEMA = "phasecon-campaign-v1"

_SA_DEFAULTS = SAConfig()


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports an argument it rejects by raising
    ValueError, which `main` turns into one `error:` line and exit code 3,
    as it does every invalid parameter, instead of a usage dump and exit 2."""

    def error(self, message):
        raise ValueError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _add_channel_args(sub, *, required_snr: bool = True) -> None:
    sub.add_argument("--snr-db", type=float, required=required_snr, default=None,
                     help="signal-to-noise ratio in dB")
    sub.add_argument("--pnsd-deg", type=float, default=0.0,
                     help="phase-noise standard deviation in degrees (0 = no jitter)")


def _add_quad_arg(sub) -> None:
    sub.add_argument("--quad-degree", type=_positive_int, default=7,
                     help="Gauss-Hermite degree per dimension")


def _add_sa_args(sub) -> None:
    sub.add_argument("--iterations", type=_positive_int, default=_SA_DEFAULTS.iterations,
                     help="total annealing step budget")
    sub.add_argument("--t-initial", type=float, default=_SA_DEFAULTS.t_initial,
                     help="initial temperature in bits")
    sub.add_argument("--t-final", type=float, default=_SA_DEFAULTS.t_final,
                     help="final temperature in bits")
    sub.add_argument("--d-initial", type=float, default=_SA_DEFAULTS.d_initial,
                     help="initial maximum displacement")
    sub.add_argument("--d-final", type=float, default=_SA_DEFAULTS.d_final,
                     help="final maximum displacement")
    sub.add_argument("--label-swap-prob", type=float, default=_SA_DEFAULTS.label_swap_prob,
                     help="probability of a label swap move (PAMI objective)")
    sub.add_argument("--reanneal-count", type=int, default=_SA_DEFAULTS.reanneal_count,
                     help="number of re-heated restarts from the incumbent best")
    sub.add_argument("--seed", type=int, default=_SA_DEFAULTS.seed,
                     help="random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="phasecon",
        description="Design and evaluate constellations for AWGN channels with phase jitter.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = subs.add_parser("evaluate", formatter_class=fmt,
                        help="evaluate one constellation file at one channel point")
    p.add_argument("constellation", help="constellation JSON file")
    _add_channel_args(p)
    p.add_argument("--objective", choices=OBJECTIVES, default=AMI,
                   help="rate definition to evaluate")
    _add_quad_arg(p)
    p.add_argument("--output", default=None, help="also write the result JSON here")

    p = subs.add_parser("optimize", formatter_class=fmt,
                        help="anneal a constellation for one channel point")
    p.add_argument("--m-points", type=_positive_int, required=True,
                   help="constellation size (a power of two)")
    _add_channel_args(p)
    p.add_argument("--objective", choices=OBJECTIVES, default=AMI,
                   help="objective to maximize")
    _add_quad_arg(p)
    _add_sa_args(p)
    p.add_argument("--output", required=True, help="constellation JSON output path")
    p.add_argument("--trace", default=None, help="optional per-step trace CSV path")

    p = subs.add_parser("validate", formatter_class=fmt,
                        help="check the quadrature evaluation against Monte Carlo")
    p.add_argument("constellation", help="constellation JSON file")
    _add_channel_args(p)
    p.add_argument("--objective", choices=OBJECTIVES, default=AMI,
                   help="rate definition to compare")
    _add_quad_arg(p)
    p.add_argument("--samples", type=_positive_int, default=100000,
                   help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=0, help="random seed")

    p = subs.add_parser("sweep", formatter_class=fmt,
                        help="evaluate a constellation along an SNR or phase-spread axis")
    p.add_argument("constellation", help="constellation JSON file")
    p.add_argument("--axis", choices=("snr", "pnsd"), required=True,
                   help="which parameter to sweep")
    p.add_argument("--from", dest="start", type=float, required=True,
                   help="first axis value")
    p.add_argument("--to", dest="stop", type=float, required=True,
                   help="last axis value (inclusive)")
    p.add_argument("--step", type=float, required=True, help="axis increment")
    _add_channel_args(p, required_snr=False)
    p.add_argument("--objective", choices=OBJECTIVES, default=AMI,
                   help="rate definition to evaluate")
    _add_quad_arg(p)
    p.add_argument("--output", required=True, help="curve CSV output path")

    p = subs.add_parser("campaign", formatter_class=fmt,
                        help="optimize one design per (snr, pnsd) grid cell")
    p.add_argument("--m-points", type=_positive_int, required=True,
                   help="constellation size (a power of two)")
    p.add_argument("--snr-list", type=_float_list, required=True,
                   help="comma-separated SNR values in dB")
    p.add_argument("--pnsd-list", type=_float_list, required=True,
                   help="comma-separated phase spreads in degrees")
    p.add_argument("--objective", choices=OBJECTIVES, default=AMI,
                   help="objective to maximize")
    _add_quad_arg(p)
    _add_sa_args(p)
    p.add_argument("--out-dir", required=True, help="directory for designs and manifest")

    p = subs.add_parser("mismatch", formatter_class=fmt,
                        help="cross-evaluate campaign designs over an evaluation grid")
    p.add_argument("--designs-dir", required=True,
                   help="campaign output directory containing the manifest")
    p.add_argument("--eval-snr-list", type=_float_list, default=None,
                   help="evaluation SNRs in dB (default: the design grid)")
    p.add_argument("--eval-pnsd-list", type=_float_list, default=None,
                   help="evaluation phase spreads in degrees (default: the design grid)")
    _add_quad_arg(p)
    p.add_argument("--output", required=True, help="matrix CSV output path")

    return parser


def _sa_config(ns: argparse.Namespace) -> SAConfig:
    return SAConfig(**{f.name: getattr(ns, f.name) for f in fields(SAConfig)})


def _result_doc(result, quad_degree: int) -> str:
    doc = {
        "bits": result.bits,
        "stderr": result.stderr,
        "method": result.method,
        "objective": result.objective,
        "snr_db": result.params.snr_db,
        "pnsd_deg": result.params.pnsd_deg,
        "quad_degree": quad_degree,
        "fingerprint": result.fingerprint,
        "clamped": result.clamped,
    }
    return json.dumps(doc, sort_keys=True)


def cmd_evaluate(ns: argparse.Namespace) -> int:
    c, _ = load_constellation(ns.constellation)
    params = ChannelParams.from_snr_pnsd(ns.snr_db, ns.pnsd_deg)
    grid = QuadratureGrid.of_degree(ns.quad_degree)
    text = _result_doc(_quadrature(c, params, grid, ns.objective), ns.quad_degree)
    print(text)
    if ns.output:
        with open(ns.output, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def cmd_optimize(ns: argparse.Namespace) -> int:
    params = ChannelParams.from_snr_pnsd(ns.snr_db, ns.pnsd_deg)
    grid = QuadratureGrid.of_degree(ns.quad_degree)
    best, trace = sa_optimize(ns.m_points, params, ns.objective, grid, _sa_config(ns))
    meta = {
        "objective": ns.objective,
        "snr_db": ns.snr_db,
        "pnsd_deg": ns.pnsd_deg,
        "seed": ns.seed,
    }
    save_constellation(ns.output, best, meta)
    if ns.trace:
        trace.save(ns.trace)
    print(f"best_{ns.objective} {float(trace.best_bits[-1])!r} -> {ns.output}")
    return EXIT_OK


def cmd_validate(ns: argparse.Namespace) -> int:
    c, _ = load_constellation(ns.constellation)
    params = ChannelParams.from_snr_pnsd(ns.snr_db, ns.pnsd_deg)
    grid = QuadratureGrid.of_degree(ns.quad_degree)
    quad = _quadrature(c, params, grid, ns.objective)
    mc = _monte_carlo(c, params, ns.samples, ns.seed, ns.objective)
    deviation = abs(quad.bits - mc.bits)
    tolerance = max(0.03, 3.0 * mc.stderr)
    verdict = "PASS" if deviation <= tolerance else "FAIL"
    print(f"quadrature_bits {quad.bits!r}")
    print(f"monte_carlo_bits {mc.bits!r}")
    print(f"monte_carlo_stderr {mc.stderr!r}")
    print(f"abs_deviation {deviation!r}")
    print(f"tolerance {tolerance!r}")
    print(f"verdict {verdict}")
    return EXIT_OK if verdict == "PASS" else EXIT_VALIDATION_FAILED


def _sweep_values(start: float, stop: float, step: float) -> list[float]:
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    if stop < start:
        raise ValueError(f"sweep range is empty: from {start} to {stop}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + k * step for k in range(count)]


def cmd_sweep(ns: argparse.Namespace) -> int:
    c, _ = load_constellation(ns.constellation)
    grid = QuadratureGrid.of_degree(ns.quad_degree)
    values = _sweep_values(ns.start, ns.stop, ns.step)
    if ns.axis == "snr":
        curve = snr_sweep(c, ns.pnsd_deg, values, ns.objective, grid)
    else:
        if ns.snr_db is None:
            raise ValueError("--snr-db is required when sweeping pnsd")
        curve = pnsd_sweep(c, ns.snr_db, values, ns.objective, grid)
    curve.save(ns.output)
    print(f"wrote {len(values)} rows -> {ns.output}")
    return EXIT_OK


def _design_filename(snr_db: float, pnsd_deg: float) -> str:
    return f"design_snr{snr_db:g}_pnsd{pnsd_deg:g}.json"


def cmd_campaign(ns: argparse.Namespace) -> int:
    grid = QuadratureGrid.of_degree(ns.quad_degree)
    base = _sa_config(ns)
    runs = campaign_cells(ns.m_points, ns.snr_list, ns.pnsd_list, ns.objective, grid, base)
    cells = []
    for snr, pnsd, seed, best, trace in runs:
        os.makedirs(ns.out_dir, exist_ok=True)
        name = _design_filename(snr, pnsd)
        meta = {
            "objective": ns.objective,
            "snr_db": snr,
            "pnsd_deg": pnsd,
            "seed": seed,
        }
        save_constellation(os.path.join(ns.out_dir, name), best, meta)
        cells.append({
            "snr_db": snr, "pnsd_deg": pnsd, "seed": seed, "file": name,
            "best_bits": float(trace.best_bits[-1]),
        })
    manifest = {
        "version": CAMPAIGN_SCHEMA,
        "m_points": ns.m_points,
        "objective": ns.objective,
        "base_seed": base.seed,
        "quad_degree": ns.quad_degree,
        "cells": cells,
    }
    with open(os.path.join(ns.out_dir, CAMPAIGN_MANIFEST), "w", encoding="ascii") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} designs -> {ns.out_dir}")
    return EXIT_OK


def _load_campaign(designs_dir: str):
    path = os.path.join(designs_dir, CAMPAIGN_MANIFEST)
    try:
        with open(path, "r", encoding="ascii") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read campaign manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed campaign manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"campaign manifest {path} is not a JSON object")
    if manifest.get("version") != CAMPAIGN_SCHEMA:
        raise FormatError(f"unsupported campaign manifest version in {path}")
    cells = manifest.get("cells", [])
    if not isinstance(cells, list):
        raise FormatError(f"campaign manifest {path}: cells must be a list")
    designs = {}
    for cell in cells:
        if not (
            isinstance(cell, dict)
            and isinstance(cell.get("file"), str)
            # Finite floats and ints, no bools: abs() of NaN, of an infinity
            # or of an int too large for a float is not <= the largest float.
            and all(
                _is_json_number(cell.get(key)) and abs(cell[key]) <= sys.float_info.max
                for key in ("snr_db", "pnsd_deg")
            )
        ):
            raise FormatError(
                f"campaign manifest {path}: a cell needs a file name and finite numbers "
                f"snr_db and pnsd_deg, got {cell!r}"
            )
        key = (float(cell["snr_db"]), float(cell["pnsd_deg"]))
        try:
            ChannelParams.from_snr_pnsd(*key)
        except ValueError as exc:
            raise FormatError(f"campaign manifest {path}: cell {cell!r}: {exc}") from exc
        if key in designs:
            raise FormatError(f"campaign manifest {path} lists the cell {key} twice")
        designs[key], _ = load_constellation(os.path.join(designs_dir, cell["file"]))
    if not designs:
        raise FormatError(f"campaign manifest {path} lists no designs")
    return designs


def cmd_mismatch(ns: argparse.Namespace) -> int:
    designs = _load_campaign(ns.designs_dir)
    snrs = ns.eval_snr_list
    pnsds = ns.eval_pnsd_list
    if snrs is None:
        snrs = sorted({cell[0] for cell in designs})
    if pnsds is None:
        pnsds = sorted({cell[1] for cell in designs})
    grid = QuadratureGrid.of_degree(ns.quad_degree)
    report = mismatch_matrix(designs, snrs, pnsds, grid)
    report.save(ns.output)
    print(f"wrote {len(report.design_cells)}x{len(report.eval_cells)} matrix -> {ns.output}")
    return EXIT_OK


_DISPATCH = {
    "evaluate": cmd_evaluate,
    "optimize": cmd_optimize,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
    "campaign": cmd_campaign,
    "mismatch": cmd_mismatch,
}


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        return _DISPATCH[ns.command](ns)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except (ConstellationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE


if __name__ == "__main__":
    sys.exit(main())
