"""Bit-identity check of two phasecon source trees.

    python3 tools/bitid.py PARENT_SRC CHANGE_SRC [--out DIR] [--acceptance]

Runs the same jobs once on each `src` tree (each in fresh interpreters with
PYTHONPATH set to it) and compares every output file byte for byte with
`cmp`:

- a 14-command CLI script: `evaluate` (AMI and PAMI, 0 and 20 deg, 64-QAM
  PAMI at 40 dB and a refused 2000 dB channel), `optimize` with its trace,
  `validate`, both `sweep` axes, `campaign` and `mismatch`, and a `sweep`
  and a `mismatch` whose last channels cross the high-SNR cut at 5 deg;
  every stdout, stderr, exit code and written file is kept;
- two rate grids, each value printed with repr: quad_grid, quadrature AMI
  and PAMI of 8-PSK, 16-QAM and 64-QAM at -5, 12, 30 and 40 dB and 0, 5,
  20 and 45 deg, on 1, 2 and 4 threads with blocks of any size; and
  mc_grid, Monte Carlo AMI and PAMI of 8-PSK and 64-QAM at 0, 2, 5 and 20
  deg, and at 0 and 20 deg 2000 samples in chunks of 333, whose last chunk
  holds 2, so a change to the Monte Carlo stream alone leaves quad_grid
  equal;
- the golden anneals of tests/test_annealer.py, 32-point (400 steps) and
  64-point (20 steps) AMI and PAMI anneals at 14 dB, 10 deg on 1 and 2
  threads, whose tables span several tiles, and swap-heavy PAMI anneals
  of 8 points at 12 dB, 20 deg and 32 points at 14 dB, 10 deg
  (label_swap_prob 0.3; t_final 0.01, so the current state is seldom the
  best when a re-heat starts from the best): their label swaps reuse the
  current state's table, and a re-heat can leave none to reuse; design
  fingerprint, best rate and the sha256 of the trace CSV;
- library campaigns (`campaign_cells`) on 1 and 2 threads, each cell's
  design fingerprint, best rate and trace sha256: 8-point AMI and
  swap-heavy PAMI on 6, 9 and 12 dB x 0 and 20 deg, whose AMI cells anneal
  as lockstep groups of three, one per jitter class, and PAMI cells one at
  a time, and 32-point PAMI at 14 dB, 5 and 10 deg;
- lockstep AMI groups (`annealer._anneal_chains`) of three 8-point chains
  at 6, 9 and 12 dB, one group at 0 and one at 20 deg, on 1 and 2 threads
  with blocks of any size, warm-started from a set whose first point is 0
  (seven more on a ring of uneven radii), so their stacks hold sets that
  anchor their canonical rotation on a later point beside sets that do
  not: each chain's design fingerprint, best rate and trace sha256;
- streamed: one-shot quadrature AMI and PAMI of 128-QAM at 12 and 30 dB,
  0 and 10 deg, whose tables stream through many row tiles, and on one
  16-point evaluator, whose one tile holds PAMI's table, PAMI, AMI and
  PAMI again on two sets in turn, so AMI overwrites a kept table; on 1 and
  2 threads with blocks of any size, each rate printed with repr;
- store: one interpreter's sequence of one-shot `ami_quadrature` and
  `pami_quadrature` calls that takes the evaluators `_quadrature` keeps
  through every transition: 8-PSK and 16-QAM, AMI and PAMI, on a 0 deg and
  a 20 deg channel, the same points on a second channel of the class and
  back on the first, PAMI twice on one set, a 64-QAM call in between and a
  change of grid (degree 7 to 5 and back), on 1 and 2 threads with blocks
  of any size, each rate printed with repr;
- shared: one interpreter's interleaved one-shot AMI and PAMI calls on
  8-PSK and 16-QAM at 0 and 20 deg, where AMI may read the table PAMI
  keeps: the same set, then a label change; other points in between; a
  second channel of the class and back; and on one 32-point evaluator,
  whose table spans several tiles, PAMI twice, which fills its full table,
  then AMI, PAMI and AMI; on 1 and 2 threads with blocks of any size, each
  rate printed with repr;
- rules: one interpreter's one-shot quadrature AMI and PAMI of 8-PSK and
  16-QAM on the rules of degrees 1, 2, 3, 7, 15 and 30, at -10, 12 and
  40 dB and 0, 5, 20, 45, 90 and 200 deg, on 1 and 2 threads with blocks
  of any size, each rate printed with repr and each refusal as its error
  text (the degree-2 rule refuses 200 deg: every phase node falls outside
  one period);
- a library `mismatch_matrix` of a 4-point and an 8-point design on a 0 and
  a 20 deg channel, which scores each design size on one kept evaluator
  per jitter class, on 1 and 2 threads with blocks of any size: the repr
  of every entry of its bits and loss;
- with --acceptance, the verdict lines of the tests/test_acceptance.py
  beside each `src` tree, so each tree runs its own criteria against its
  own API (about two minutes a side).

Thread counts are set through PHASECON_THREADS, which every evaluation
reads; a tree whose annealer ignores it runs those anneals serially.

Exits 0 when every file is identical, 1 otherwise, listing each difference.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CLI_SCRIPT = [
    ("evaluate_ami_0", ["evaluate", "psk8.json", "--snr-db", "12", "--pnsd-deg", "0"]),
    ("evaluate_ami_20", ["evaluate", "psk8.json", "--snr-db", "12", "--pnsd-deg", "20"]),
    ("evaluate_pami_0", ["evaluate", "psk8.json", "--snr-db", "12", "--pnsd-deg", "0",
                         "--objective", "PAMI"]),
    ("evaluate_pami_20", ["evaluate", "psk8.json", "--snr-db", "12", "--pnsd-deg", "20",
                          "--objective", "PAMI", "--output", "eval.json"]),
    ("optimize", ["optimize", "--m-points", "8", "--snr-db", "12", "--pnsd-deg", "20",
                  "--objective", "PAMI", "--iterations", "500", "--seed", "4",
                  "--output", "opt.json", "--trace", "opt_trace.csv"]),
    ("validate", ["validate", "psk8.json", "--snr-db", "12", "--pnsd-deg", "20",
                  "--samples", "10000", "--seed", "2"]),
    ("sweep_snr", ["sweep", "psk8.json", "--axis", "snr", "--from", "0", "--to", "20",
                   "--step", "2.5", "--pnsd-deg", "10", "--output", "sw_snr.csv"]),
    ("sweep_pnsd", ["sweep", "psk8.json", "--axis", "pnsd", "--from", "0", "--to", "25",
                    "--step", "5", "--snr-db", "12", "--objective", "PAMI",
                    "--output", "sw_pnsd.csv"]),
    ("campaign", ["campaign", "--m-points", "4", "--snr-list", "6,12", "--pnsd-list", "10",
                  "--iterations", "300", "--seed", "5", "--out-dir", "camp"]),
    ("mismatch", ["mismatch", "--designs-dir", "camp", "--eval-pnsd-list", "0,10,20",
                  "--output", "mm.csv"]),
    ("evaluate_qam64_40db", ["evaluate", "qam64.json", "--snr-db", "40", "--pnsd-deg", "10",
                             "--objective", "PAMI"]),
    ("evaluate_refused", ["evaluate", "psk8.json", "--snr-db", "2000", "--pnsd-deg", "5"]),
    ("sweep_refused", ["sweep", "psk8.json", "--axis", "snr", "--from", "0", "--to", "200",
                       "--step", "50", "--pnsd-deg", "5", "--output", "sw_refused.csv"]),
    ("mismatch_refused", ["mismatch", "--designs-dir", "camp", "--eval-snr-list", "6,2000",
                          "--eval-pnsd-list", "5", "--output", "mm_refused.csv"]),
]

SETUP = """
import phasecon as pc
pc.save_constellation("psk8.json", pc.reference_constellation("psk", 8))
pc.save_constellation("qam64.json", pc.reference_constellation("qam", 64))
"""

QUAD_GRID = """
import os
import warnings
import phasecon as pc
from phasecon import capacity

warnings.simplefilter("ignore")
capacity._MIN_BLOCK_ENTRIES = 1
grid = pc.QuadratureGrid.of_degree(7)
for kind, size in (("psk", 8), ("qam", 16), ("qam", 64)):
    c = pc.reference_constellation(kind, size)
    for snr in (-5.0, 12.0, 30.0, 40.0):
        for pnsd in (0.0, 5.0, 20.0, 45.0):
            p = pc.ChannelParams.from_snr_pnsd(snr, pnsd)
            for rate in (pc.ami_quadrature, pc.pami_quadrature):
                bits = []
                for t in (1, 2, 4):
                    os.environ["PHASECON_THREADS"] = str(t)
                    bits.append(rate(c, p, grid).bits)
                print(kind, size, snr, pnsd, rate.__name__, *map(repr, bits))
"""

MC_GRID = """
import os
import phasecon as pc

os.environ["PHASECON_THREADS"] = "1"
for kind, size, samples in (("psk", 8, 20000), ("qam", 64, 4000)):
    c = pc.reference_constellation(kind, size)
    for pnsd in (0.0, 2.0, 5.0, 20.0):
        p = pc.ChannelParams.from_snr_pnsd(16.0, pnsd)
        for rate in (pc.ami_monte_carlo, pc.pami_monte_carlo):
            r = rate(c, p, samples, 7)
            print(kind, size, pnsd, rate.__name__, repr(r.bits), repr(r.stderr))
            if pnsd in (0.0, 20.0):
                r = rate(c, p, 2000, 7, chunk=333)
                print(kind, size, pnsd, rate.__name__, "chunk=333", repr(r.bits), repr(r.stderr))
"""

GOLDEN = """
import hashlib
import os
import phasecon as pc

grid = pc.QuadratureGrid.of_degree(7)
swap_heavy = {"label_swap_prob": 0.3, "t_final": 0.01}
runs = [(8, "PAMI", 12.0, 20.0, 11, 300, 1, {}), (8, "AMI", 9.0, 0.0, 12, 300, 1, {}),
        (8, "AMI", 9.0, 0.0, 3, 2000, 1, {}), (8, "PAMI", 12.0, 20.0, 7, 1000, 1, {})]
runs += [(size, objective, 14.0, 10.0, 5, iterations, threads, {})
         for size, iterations in ((32, 400), (64, 20))
         for objective in ("AMI", "PAMI") for threads in (1, 2)]
runs += [(8, "PAMI", 12.0, 20.0, seed, 400, 1, swap_heavy) for seed in range(4)]
runs += [(32, "PAMI", 14.0, 10.0, seed, 300, threads, swap_heavy)
         for seed in (0, 1) for threads in (1, 2)]
for size, objective, snr, pnsd, seed, iterations, threads, extra in runs:
    os.environ["PHASECON_THREADS"] = str(threads)
    cfg = pc.SAConfig(iterations=iterations, seed=seed, **extra)
    p = pc.ChannelParams.from_snr_pnsd(snr, pnsd)
    best, trace = pc.sa_optimize(size, p, objective, grid, cfg)
    digest = hashlib.sha256(trace.to_csv().encode("ascii")).hexdigest()
    print(size, objective, snr, pnsd, threads, cfg, best.fingerprint(),
          repr(float(trace.best_bits[-1])), digest)
"""

CAMPAIGNS = """
import hashlib
import os
import phasecon as pc

grid = pc.QuadratureGrid.of_degree(7)
swap_heavy = {"label_swap_prob": 0.3, "t_final": 0.01}
grids = [(8, "AMI", (6.0, 9.0, 12.0), (0.0, 20.0), 300, {}),
         (8, "PAMI", (6.0, 9.0, 12.0), (0.0, 20.0), 300, swap_heavy),
         (32, "PAMI", (14.0,), (5.0, 10.0), 40, {})]
for threads in (1, 2):
    os.environ["PHASECON_THREADS"] = str(threads)
    for size, objective, snrs, pnsds, iterations, extra in grids:
        cfg = pc.SAConfig(iterations=iterations, seed=4, **extra)
        for snr, pnsd, seed, best, trace in pc.campaign_cells(size, snrs, pnsds, objective,
                                                              grid, cfg):
            digest = hashlib.sha256(trace.to_csv().encode("ascii")).hexdigest()
            print(threads, size, objective, snr, pnsd, seed, best.fingerprint(),
                  repr(float(trace.best_bits[-1])), digest)
"""

LOCKSTEP = """
import hashlib
import os
import numpy as np
import phasecon as pc
from phasecon import annealer, capacity

capacity._MIN_BLOCK_ENTRIES = 1
grid = pc.QuadratureGrid.of_degree(7)
ring = np.exp(2j * np.pi * np.arange(7) / 7) * np.linspace(0.5, 1.5, 7)
warm = pc.normalize_average_power(pc.make_constellation(np.r_[0.0, ring], np.arange(8)))
cfg = pc.SAConfig(iterations=300, seed=0)
seeds = [3, 4, 5]
for threads in (1, 2):
    os.environ["PHASECON_THREADS"] = str(threads)
    for pnsd in (0.0, 20.0):
        channels = [pc.ChannelParams.from_snr_pnsd(snr, pnsd) for snr in (6.0, 9.0, 12.0)]
        runs = annealer._anneal_chains(8, channels, "AMI", grid, cfg, seeds, initial=warm)
        for seed, (best, trace) in zip(seeds, runs):
            digest = hashlib.sha256(trace.to_csv().encode("ascii")).hexdigest()
            print(threads, pnsd, seed, best.fingerprint(), repr(float(trace.best_bits[-1])),
                  digest)
"""

STREAMED = """
import os
import numpy as np
import phasecon as pc
from phasecon import capacity

capacity._MIN_BLOCK_ENTRIES = 1
grid = pc.QuadratureGrid.of_degree(7)
qam128, qam16 = pc.reference_constellation("qam", 128), pc.reference_constellation("qam", 16)
bent = pc.normalize_average_power(
    pc.make_constellation(qam16.points * np.exp(0.2j * qam16.points.real), qam16.labels))
for threads in (1, 2):
    os.environ["PHASECON_THREADS"] = str(threads)
    for snr in (12.0, 30.0):
        for pnsd in (0.0, 10.0):
            p = pc.ChannelParams.from_snr_pnsd(snr, pnsd)
            for rate in (pc.ami_quadrature, pc.pami_quadrature):
                print(threads, 128, snr, pnsd, rate.__name__, repr(rate(qam128, p, grid).bits))
            ev = capacity.QuadEvaluator((p,), grid, 16)
            for first, second in ((qam16, bent), (bent, qam16)):
                pami = ev.pami_bits(first.points[None], first.labels[None])
                ami = ev.ami_bits(second.points[None])
                again = [ev.pami_bits(c.points[None], c.labels[None]) for c in (second, first)]
                print(threads, 16, snr, pnsd, *map(repr, pami + ami + again[0] + again[1]))
"""

STORE = """
import os
import phasecon as pc
from phasecon import capacity

capacity._MIN_BLOCK_ENTRIES = 1
grids = {7: pc.QuadratureGrid.of_degree(7), 5: pc.QuadratureGrid.of_degree(5)}
sets = {"psk8": pc.reference_constellation("psk", 8), "qam16": pc.reference_constellation("qam", 16),
        "qam64": pc.reference_constellation("qam", 64)}
AMI, PAMI = pc.ami_quadrature, pc.pami_quadrature
for threads in (1, 2):
    os.environ["PHASECON_THREADS"] = str(threads)
    for first, second in (((12.0, 0.0), (16.0, 0.0)), ((12.0, 20.0), (14.0, 10.0))):
        for name in ("psk8", "qam16"):
            calls = [(name, first, 7, AMI), (name, first, 7, PAMI), (name, second, 7, PAMI),
                     (name, second, 7, AMI), (name, first, 7, PAMI), (name, first, 7, PAMI),
                     ("qam64", first, 7, PAMI), (name, first, 7, PAMI), (name, first, 5, PAMI),
                     (name, first, 5, AMI), (name, second, 5, PAMI), (name, first, 7, PAMI),
                     (name, second, 7, AMI), (name, second, 7, PAMI)]
            for set_name, (snr, pnsd), degree, rate in calls:
                p = pc.ChannelParams.from_snr_pnsd(snr, pnsd)
                bits = rate(sets[set_name], p, grids[degree]).bits
                print(threads, set_name, snr, pnsd, degree, rate.__name__, repr(bits))
"""

SHARED = """
import os
import numpy as np
import phasecon as pc
from phasecon import capacity

capacity._MIN_BLOCK_ENTRIES = 1
grid = pc.QuadratureGrid.of_degree(7)
AMI, PAMI = pc.ami_quadrature, pc.pami_quadrature


def variants(c):
    relabeled = pc.make_constellation(c.points, np.roll(c.labels, 3))
    bent = pc.normalize_average_power(
        pc.make_constellation(c.points * np.exp(0.2j * c.points.real), c.labels))
    return c, relabeled, bent


small = [pc.reference_constellation("psk", 8), pc.reference_constellation("qam", 16)]
qam32 = pc.reference_constellation("qam", 32)
for threads in (1, 2):
    os.environ["PHASECON_THREADS"] = str(threads)
    for first, second in (((12.0, 0.0), (16.0, 0.0)), ((12.0, 20.0), (14.0, 10.0))):
        for c, relabeled, bent in map(variants, small):
            calls = [(AMI, c, first), (PAMI, c, first), (AMI, c, first), (PAMI, relabeled, first),
                     (AMI, relabeled, first), (PAMI, c, first),  # a label change
                     (AMI, bent, first), (PAMI, c, first), (AMI, c, first), (PAMI, bent, first),
                     (AMI, c, first), (AMI, bent, first),  # other points
                     (AMI, c, second), (PAMI, c, second), (AMI, c, second), (PAMI, c, first),
                     (AMI, c, first), (AMI, c, second), (PAMI, c, second)]  # another channel
            for rate, design, (snr, pnsd) in calls:
                p = pc.ChannelParams.from_snr_pnsd(snr, pnsd)
                print(threads, design.size, design.fingerprint(), snr, pnsd, rate.__name__,
                      repr(rate(design, p, grid).bits))
        # A multi-tile evaluator: its second PAMI call fills the full table.
        p = pc.ChannelParams.from_snr_pnsd(*first)
        ev = capacity.QuadEvaluator((p,), grid, 32)
        points, labels = qam32.points[None], qam32.labels[None]
        rates = [ev.pami_bits(points, labels), ev.pami_bits(points, labels), ev.ami_bits(points),
                 ev.pami_bits(points, labels), ev.ami_bits(points)]
        print(threads, 32, *first, ev._full is not None, *(repr(r[0]) for r in rates))
"""

RULES = """
import os
import warnings
import phasecon as pc
from phasecon import capacity

warnings.simplefilter("ignore")
capacity._MIN_BLOCK_ENTRIES = 1
sets = {"psk8": pc.reference_constellation("psk", 8), "qam16": pc.reference_constellation("qam", 16)}
for threads in (1, 2):
    os.environ["PHASECON_THREADS"] = str(threads)
    for degree in (1, 2, 3, 7, 15, 30):
        grid = pc.QuadratureGrid.of_degree(degree)
        for name, c in sets.items():
            for snr in (-10.0, 12.0, 40.0):
                for pnsd in (0.0, 5.0, 20.0, 45.0, 90.0, 200.0):
                    for rate in (pc.ami_quadrature, pc.pami_quadrature):
                        try:
                            p = pc.ChannelParams.from_snr_pnsd(snr, pnsd)
                            bits = repr(rate(c, p, grid).bits)
                        except ValueError as exc:
                            bits = f"refused: {exc}"
                        print(threads, degree, name, snr, pnsd, rate.__name__, bits)
"""

MISMATCH = """
import os
import phasecon as pc
from phasecon import capacity

capacity._MIN_BLOCK_ENTRIES = 1
grid = pc.QuadratureGrid.of_degree(7)
designs = {(10.0, 0.0): pc.reference_constellation("qam", 4),
           (10.0, 20.0): pc.reference_constellation("psk", 8)}
for threads in (1, 2):
    os.environ["PHASECON_THREADS"] = str(threads)
    report = pc.mismatch_matrix(designs, [10.0], [0.0, 20.0], grid)
    for d, cell in enumerate(report.design_cells):
        print(threads, cell, *map(repr, report.bits[d].tolist()),
              *map(repr, report.loss[d].tolist()))
"""


def run(cmd, cwd: Path, src: Path, name: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    (cwd / f"{name}.out").write_text(done.stdout + f"exit {done.returncode}\n")
    (cwd / f"{name}.err").write_text(done.stderr)


def run_side(src: Path, out: Path, acceptance: bool) -> None:
    out.mkdir(parents=True)
    py = sys.executable
    run([py, "-c", SETUP], out, src, "setup")
    for name, args in CLI_SCRIPT:
        run([py, "-m", "phasecon.cli", *args], out, src, f"cli_{name}")
    run([py, "-c", QUAD_GRID], out, src, "quad_grid")
    run([py, "-c", MC_GRID], out, src, "mc_grid")
    run([py, "-c", GOLDEN], out, src, "golden")
    run([py, "-c", CAMPAIGNS], out, src, "campaigns")
    run([py, "-c", LOCKSTEP], out, src, "lockstep")
    run([py, "-c", STREAMED], out, src, "streamed")
    run([py, "-c", STORE], out, src, "store")
    run([py, "-c", SHARED], out, src, "shared")
    run([py, "-c", RULES], out, src, "rules")
    run([py, "-c", MISMATCH], out, src, "mismatch")
    if acceptance:
        run([py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             str(src.parent / "tests" / "test_acceptance.py")], out, src, "acceptance_log")
        log = (out / "acceptance_log.out").read_text().splitlines()
        lines = sorted({line for line in log if line.startswith("criterion ")})
        (out / "acceptance.txt").write_text("\n".join(lines) + "\n")
        for name in ("acceptance_log.out", "acceptance_log.err"):
            (out / name).rename(out / f"{name}.log")


def compare(a: Path, b: Path) -> list[str]:
    names = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    problems = []
    for name in sorted(names):
        if name.suffix == ".log":  # timings differ run to run
            continue
        if not (a / name).is_file() or not (b / name).is_file():
            problems.append(f"{name}: only on one side")
        elif subprocess.run(["cmp", "-s", a / name, b / name]).returncode != 0:
            problems.append(f"{name}: differs")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--out", type=Path, help="directory for both sides' outputs")
    parser.add_argument("--acceptance", action="store_true",
                        help="also compare the acceptance suite's verdict lines")
    args = parser.parse_args(argv)
    out = args.out or Path(tempfile.mkdtemp(prefix="bitid-"))
    sides = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    for side, src in sides.items():
        print(f"{side}: {src}", flush=True)
        run_side(src, out / side, args.acceptance)
    problems = compare(out / "parent", out / "change")
    files = sum(1 for p in (out / "parent").rglob("*") if p.is_file() and p.suffix != ".log")
    for line in problems:
        print(line)
    print(f"{files} files compared in {out}: "
          f"{'identical' if not problems else f'{len(problems)} differ'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
