"""The benchmark's workloads: four jobs users run with phasecon.

A workload makes its inputs from the seed, may prepare a design, then runs
whole rounds; every round repeats the same operations on the same inputs.
A round is the user job, timed for `job_s`, followed by side work that
times the kinds of call the job makes too few of or none of: every run
prints all seven end-to-end metrics, so each workload anneals, evaluates by
quadrature and runs the Monte Carlo route in every round.  Spreading that side work over
the rounds samples the machine over the whole run, like the job does.  The
`Tally` objects time exactly the calls each rate is taken over.

Every program operation of the preparation and the rounds goes through
`Workload.call`, which counts it in `attempted` and, if it raises, in
`failed`.

After the rounds a workload checks its outputs against the properties in
`checks` and against the independent `reference` estimator.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import phasecon as pc
from phasecon import cli

import checks
import reference

GRID = pc.QuadratureGrid.of_degree(7)
PSK8 = pc.reference_constellation("psk", 8)
QAM64 = pc.reference_constellation("qam", 64)
# Sample counts of the agreement checks.  They keep the combined stderr of a
# Monte Carlo result and the reference at or below about 0.006 bits, so the
# 0.03-bit floor of max(0.03, 3 stderr) is five of them and a correct program
# fails a check about once in 10^6.  A workload whose rates spread more per
# sample (PAMI of an AMI design at 6 dB: 0.0099 bits at these counts, a
# 3-sigma test) scales both counts up with `check_samples_scale`.
REFERENCE_SAMPLES = 100_000
CHECK_MC_SAMPLES = 50_000
# Seeds of the reference estimator are kept apart from the program's.
REFERENCE_SEED_OFFSET = 1_000_003
# The program MC holds float64 temporaries of chunk x M x (>= 512 phase
# nodes); side work uses small chunks so that it does not set the peak
# memory of a workload whose job makes no MC call.
SIDE_MC_CHUNK = 256


@dataclass
class Tally:
    """Work done by one kind of program call and the seconds it took."""

    count: int = 0
    seconds: float = 0.0

    def rate(self) -> float:
        return self.count / self.seconds


class Workload:
    name = ""
    # Statement run after `import phasecon as pc` by each set-up probe: the
    # workload's first evaluation.
    first_evaluation = ""
    check_samples_scale = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.anneal = Tally()
        self.quad = Tally()
        self.mc = Tally()
        self.design_bits = math.nan
        self.attempted = 0
        self.failed = 0
        self._first_digest = None
        self._digests_differ = False

    def call(self, fn, *args, **kwargs):
        """One program operation, counted in `attempted` and, if it raises,
        in `failed`."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise

    def timed(self, tally: Tally, count: int, fn, *args, **kwargs):
        start = time.perf_counter()
        result = self.call(fn, *args, **kwargs)
        tally.seconds += time.perf_counter() - start
        tally.count += count
        return result

    def quad_repeats(self, c, params, repeats: int):
        """Quadrature of AMI and PAMI, `repeats` times each, tallied."""
        return tuple(
            self.timed(self.quad, 1, fn, c, params, GRID).bits
            for _ in range(repeats)
            for fn in (pc.ami_quadrature, pc.pami_quadrature)
        )

    def mc_pair(self, c, params, samples: int, chunk: int = 2048):
        """Program MC of AMI and PAMI, tallied."""
        return tuple(
            self.timed(self.mc, samples, fn, c, params, samples, self.seed, chunk=chunk)
            for fn in (pc.ami_monte_carlo, pc.pami_monte_carlo)
        )

    def prepare(self) -> None:
        """Work done once before the rounds."""

    def job(self):
        """The user job; returns what the determinism check compares."""
        raise NotImplementedError

    def side_work(self):
        """Untimed for job_s; returns what the determinism check compares."""
        raise NotImplementedError

    def round(self) -> float:
        """Run one round; returns the wall time of its job."""
        start = time.perf_counter()
        digest = self.job()
        seconds = time.perf_counter() - start
        digest = (digest, self.side_work())
        if self._first_digest is None:
            self._first_digest = digest
        elif digest != self._first_digest:
            self._digests_differ = True
        return seconds

    def verify(self) -> None:
        """Check the outputs; raises checks.CheckError."""
        if self._digests_differ:
            raise checks.CheckError(f"{self.name}: rounds on the same inputs differ")
        self.check()

    def check(self) -> None:
        raise NotImplementedError

    # --- helpers shared by the checks -----------------------------------

    def check_design(self, c, trace_best: float, objective: str, params, what: str) -> float:
        """Valid design whose re-evaluated rate equals the trace's best and
        beats 8-PSK Gray on the same objective; returns that rate."""
        checks.design(c.points, c.labels, what)
        evaluate = pc.pami_quadrature if objective == pc.PAMI else pc.ami_quadrature
        bits = evaluate(c, params, GRID).bits
        checks.same_rate(bits, trace_best, f"{what}: {objective} re-evaluated vs trace best")
        checks.beats(bits, evaluate(PSK8, params, GRID).bits, f"{what}: {objective} vs 8-PSK Gray")
        return bits

    def program_mc(self, c, snr_db: float, pnsd_deg: float):
        """Program MC of AMI and PAMI for the agreement checks, untimed."""
        params = pc.ChannelParams.from_snr_pnsd(snr_db, pnsd_deg)
        samples = CHECK_MC_SAMPLES * self.check_samples_scale
        return tuple(fn(c, params, samples, self.seed)
                     for fn in (pc.ami_monte_carlo, pc.pami_monte_carlo))

    def cross_check(self, c, snr_db: float, pnsd_deg: float, quad, mc=()) -> None:
        """Quadrature rates `quad` and program MC results `mc`, each an
        (AMI, PAMI) pair, agree with the reference estimator."""
        what = f"{self.name} at {snr_db:g} dB, {pnsd_deg:g} deg"
        checks.rate_bounds(*quad, c.m, snr_db, f"{what}, quadrature")
        refs = reference.estimate(
            c.points, c.labels, snr_db, pnsd_deg, REFERENCE_SAMPLES * self.check_samples_scale,
            REFERENCE_SEED_OFFSET + self.seed,
        )
        for objective, bits, ref in zip((pc.AMI, pc.PAMI), quad, refs):
            checks.agrees(bits, 0.0, ref, f"{what}: quadrature {objective}")
        if mc:
            checks.rate_bounds(mc[0].bits, mc[1].bits, c.m, snr_db, f"{what}, Monte Carlo")
            for objective, result, ref in zip((pc.AMI, pc.PAMI), mc, refs):
                checks.agrees(result.bits, result.stderr, ref, f"{what}: Monte Carlo {objective}")


class AnnealPami(Workload):
    """The paper's headline job: anneal points and labels for PAMI.

    Side work: quadrature of the design, AMI and PAMI 50 times each, and
    program MC of the design, 2000 samples per objective.  The anneal's
    own evaluations are not counted for quad_evals_per_s: their time
    includes the annealer's loop.
    """

    name = "anneal-pami-m8-20deg"
    SNR_DB, PNSD_DEG, SIZE, ITERATIONS = 12.0, 20.0, 8, 1000
    MC_SAMPLES, MC_CHUNK, QUAD_REPEATS = 2000, SIDE_MC_CHUNK, 50
    first_evaluation = (
        "pc.pami_quadrature(pc.reference_constellation('psk', 8), "
        "pc.ChannelParams.from_snr_pnsd(12.0, 20.0), pc.QuadratureGrid.of_degree(7))"
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.params = pc.ChannelParams.from_snr_pnsd(self.SNR_DB, self.PNSD_DEG)
        self.config = pc.SAConfig(iterations=self.ITERATIONS, seed=seed)
        self.path = workdir / "design.json"

    def job(self):
        self.design, trace = self.timed(
            self.anneal, self.config.iterations, pc.sa_optimize,
            self.SIZE, self.params, pc.PAMI, GRID, self.config,
        )
        self.call(pc.save_constellation, self.path, self.design,
                  {"objective": pc.PAMI, "seed": self.seed})
        self.trace_best = self.design_bits = float(trace.best_bits[-1])
        return self.design.fingerprint(), self.trace_best

    def side_work(self):
        quad = self.quad_repeats(self.design, self.params, self.QUAD_REPEATS)
        mc = self.mc_pair(self.design, self.params, self.MC_SAMPLES, self.MC_CHUNK)
        return quad, tuple(r.bits for r in mc)

    def check(self):
        c, _ = pc.load_constellation(self.path)
        if c != self.design:
            raise checks.CheckError(f"{self.name}: design file differs from the design")
        pami = self.check_design(c, self.trace_best, pc.PAMI, self.params, self.name)
        ami = pc.ami_quadrature(c, self.params, GRID).bits
        self.cross_check(c, self.SNR_DB, self.PNSD_DEG, (ami, pami),
                         self.program_mc(c, self.SNR_DB, self.PNSD_DEG))


class CampaignAmi(Workload):
    """`phasecon campaign` on a 0-degree SNR list, then `phasecon mismatch`.

    Campaign SNRs stay at or below 12 dB, where the 8-point AMI designs
    beat 8-PSK by a clear margin.  Side work: read the designs back and
    run the program MC of each at its cell, 10 000 samples per objective.
    """

    name = "campaign-ami-awgn"
    SNRS = (6.0, 9.0, 12.0)
    EVAL_PNSDS = (0.0, 5.0, 10.0)
    SIZE, ITERATIONS, MC_SAMPLES = 8, 2000, 10000
    # Combined stderr of PAMI at 6 dB drops from 0.0099 to 0.005 bits.
    check_samples_scale = 4
    first_evaluation = (
        "pc.ami_quadrature(pc.reference_constellation('psk', 8), "
        "pc.ChannelParams.from_snr_pnsd(6.0, 0.0), pc.QuadratureGrid.of_degree(7))"
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.out_dir = workdir / "campaign"
        self.matrix = workdir / "mismatch.csv"
        snrs = ",".join(f"{s:g}" for s in self.SNRS)
        self.campaign_argv = [
            "campaign", "--m-points", str(self.SIZE), "--snr-list", snrs, "--pnsd-list", "0",
            "--objective", "AMI", "--iterations", str(self.ITERATIONS),
            "--seed", str(seed), "--out-dir", str(self.out_dir),
        ]
        self.mismatch_argv = [
            "mismatch", "--designs-dir", str(self.out_dir),
            "--eval-pnsd-list", ",".join(f"{p:g}" for p in self.EVAL_PNSDS),
            "--output", str(self.matrix),
        ]
        self.mismatch_evals = len(self.SNRS) ** 2 * len(self.EVAL_PNSDS)

    def _cli(self, tally, count, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            self.timed(tally, count, _run_cli, argv)

    def job(self):
        self._cli(self.anneal, len(self.SNRS) * self.ITERATIONS, self.campaign_argv)
        self._cli(self.quad, self.mismatch_evals, self.mismatch_argv)
        return self.matrix.read_bytes()

    def side_work(self):
        manifest = json.loads((self.out_dir / "manifest.json").read_text())
        self.cells, digest = [], []
        for cell in manifest["cells"]:
            snr = float(cell["snr_db"])
            c, _ = self.call(pc.load_constellation, self.out_dir / cell["file"])
            params = pc.ChannelParams.from_snr_pnsd(snr, 0.0)
            mc = self.mc_pair(c, params, self.MC_SAMPLES)
            self.cells.append((snr, int(cell["seed"]), c))
            digest.append((c.fingerprint(), mc[0].bits, mc[1].bits))
        return tuple(digest)

    def check(self):
        designs = {}
        self.design_bits = statistics.fmean(
            pc.ami_quadrature(c, pc.ChannelParams.from_snr_pnsd(snr, 0.0), GRID).bits
            for snr, _, c in self.cells
        )
        for snr, seed, c in self.cells:
            params = pc.ChannelParams.from_snr_pnsd(snr, 0.0)
            what = f"{self.name} design at {snr:g} dB"
            # The CLI drops the anneal's trace, so replay the cell's anneal.
            config = pc.SAConfig(iterations=self.ITERATIONS, seed=seed)
            replay, trace = pc.sa_optimize(self.SIZE, params, pc.AMI, GRID, config)
            if replay != c:
                raise checks.CheckError(f"{what}: file differs from the annealed design")
            ami = self.check_design(c, float(trace.best_bits[-1]), pc.AMI, params, what)
            pami = pc.pami_quadrature(c, params, GRID).bits
            self.cross_check(c, snr, 0.0, (ami, pami), self.program_mc(c, snr, 0.0))
            designs[(snr, 0.0)] = c
        self._check_matrix(designs)

    def _check_matrix(self, designs):
        lines = self.matrix.read_text().splitlines()
        start = lines.index("# section=bits") + 2
        cells = [(s, p) for s in self.SNRS for p in self.EVAL_PNSDS]
        for d, design_cell in enumerate(sorted(designs)):
            row = [float(v) for v in lines[start + d].split(",")[1:]]
            for (snr, pnsd), bits in zip(cells, row, strict=True):
                params = pc.ChannelParams.from_snr_pnsd(snr, pnsd)
                expected = pc.ami_quadrature(designs[design_cell], params, GRID).bits
                what = f"{self.name} mismatch {design_cell} at ({snr:g} dB, {pnsd:g} deg)"
                checks.same_rate(bits, expected, what)
                checks.rate_bounds(bits, 0.0, self.SIZE.bit_length() - 1, snr, what)


class ValidateM8(Workload):
    """`phasecon validate`'s job: quadrature next to Monte Carlo, AMI and PAMI.

    The design under test is annealed from the seed before the rounds, so
    the annealer is idle during the job.  Side work: a 50-step PAMI anneal
    on the same channel, and quadrature of the design, AMI and PAMI 100
    times each: the job's two evaluations, a few milliseconds a round, are
    too short a sample of the quadrature rate.
    """

    name = "validate-m8-20deg"
    SNR_DB, PNSD_DEG, SIZE = 12.0, 20.0, 8
    PREP_ITERATIONS, SIDE_ITERATIONS, SAMPLES = 1000, 50, CHECK_MC_SAMPLES
    QUAD_REPEATS = 100
    first_evaluation = AnnealPami.first_evaluation

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.params = pc.ChannelParams.from_snr_pnsd(self.SNR_DB, self.PNSD_DEG)
        self.path = workdir / "design.json"

    def _anneal(self, iterations):
        config = pc.SAConfig(iterations=iterations, seed=self.seed)
        return self.timed(self.anneal, iterations, pc.sa_optimize,
                          self.SIZE, self.params, pc.PAMI, GRID, config)

    def prepare(self):
        design, trace = self._anneal(self.PREP_ITERATIONS)
        self.trace_best = self.design_bits = float(trace.best_bits[-1])
        self.call(pc.save_constellation, self.path, design,
                  {"objective": pc.PAMI, "seed": self.seed})

    def job(self):
        c, _ = self.call(pc.load_constellation, self.path)
        n, params = self.SAMPLES, self.params
        quad_ami = self.timed(self.quad, 1, pc.ami_quadrature, c, params, GRID)
        mc_ami = self.timed(self.mc, n, pc.ami_monte_carlo, c, params, n, self.seed)
        quad_pami = self.timed(self.quad, 1, pc.pami_quadrature, c, params, GRID)
        mc_pami = self.timed(self.mc, n, pc.pami_monte_carlo, c, params, n, self.seed)
        self.results = (c, quad_ami, quad_pami, mc_ami, mc_pami)
        return tuple(r.bits for r in self.results[1:]) + (mc_ami.stderr, mc_pami.stderr)

    def side_work(self):
        quad = self.quad_repeats(self.results[0], self.params, self.QUAD_REPEATS)
        return self._anneal(self.SIDE_ITERATIONS)[0].fingerprint(), quad

    def check(self):
        c, quad_ami, quad_pami, mc_ami, mc_pami = self.results
        self.check_design(c, self.trace_best, pc.PAMI, self.params, self.name)
        checks.same_rate(quad_pami.bits, self.trace_best, f"{self.name}: job PAMI vs trace")
        # The verdict `phasecon validate` gives, for both objectives.
        for quad, mc in ((quad_ami, mc_ami), (quad_pami, mc_pami)):
            if abs(quad.bits - mc.bits) > max(checks.MIN_AGREEMENT, 3.0 * mc.stderr):
                raise checks.CheckError(f"{self.name}: {mc.objective} validate verdict FAIL")
        self.cross_check(c, self.SNR_DB, self.PNSD_DEG, (quad_ami.bits, quad_pami.bits),
                         (mc_ami, mc_pami))


class SweepM64(Workload):
    """`snr_sweep` and `pnsd_sweep` of a 64-point design, AMI and PAMI.

    Each evaluation builds 64 x 343 x 64 metric tables, far past the cache.
    The design is 64-QAM refined by a short seeded AMI anneal (small
    displacements, Gray labels kept) before the rounds.  Side work: an
    8-step AMI anneal from the design, and program MC of the design, 1000
    samples per objective.
    """

    name = "sweep-m64"
    DESIGN_SNR_DB, DESIGN_PNSD_DEG, SIZE = 16.0, 10.0, 64
    PREP_ITERATIONS, SIDE_ITERATIONS = 16, 8
    SNRS = (8.0, 12.0, 16.0, 20.0, 24.0)
    PNSDS = (4.0, 7.0, 10.0, 13.0, 16.0)
    MC_SAMPLES, MC_CHUNK = 1000, SIDE_MC_CHUNK // 4
    first_evaluation = (
        "pc.pami_quadrature(pc.reference_constellation('qam', 64), "
        "pc.ChannelParams.from_snr_pnsd(16.0, 10.0), pc.QuadratureGrid.of_degree(7))"
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.params = pc.ChannelParams.from_snr_pnsd(self.DESIGN_SNR_DB, self.DESIGN_PNSD_DEG)
        self.path = workdir / "design.json"

    def _anneal(self, iterations, initial):
        config = pc.SAConfig(iterations=iterations, d_initial=0.05, d_final=0.01,
                             reanneal_count=0, seed=self.seed)
        return self.timed(self.anneal, iterations, pc.sa_optimize,
                          self.SIZE, self.params, pc.AMI, GRID, config, initial)

    def prepare(self):
        design, trace = self._anneal(self.PREP_ITERATIONS, QAM64)
        self.trace_best = self.design_bits = float(trace.best_bits[-1])
        self.call(pc.save_constellation, self.path, design,
                  {"objective": pc.AMI, "seed": self.seed})

    def job(self):
        c, _ = self.call(pc.load_constellation, self.path)
        self.design = c
        n_snr, n_pnsd = len(self.SNRS), len(self.PNSDS)
        snr_args = (c, self.DESIGN_PNSD_DEG, self.SNRS)
        pnsd_args = (c, self.DESIGN_SNR_DB, self.PNSDS)
        self.curves = {
            ("snr", pc.AMI): self.timed(self.quad, n_snr, pc.snr_sweep, *snr_args, pc.AMI, GRID),
            ("snr", pc.PAMI): self.timed(self.quad, n_snr, pc.snr_sweep, *snr_args, pc.PAMI, GRID),
            ("pnsd", pc.AMI): self.timed(self.quad, n_pnsd, pc.pnsd_sweep, *pnsd_args, pc.AMI, GRID),
            ("pnsd", pc.PAMI): self.timed(self.quad, n_pnsd, pc.pnsd_sweep, *pnsd_args, pc.PAMI, GRID),
        }
        return tuple(curve.bits.tobytes() for curve in self.curves.values())

    def side_work(self):
        refined, _ = self._anneal(self.SIDE_ITERATIONS, self.design)
        mc = self.mc_pair(self.design, self.params, self.MC_SAMPLES, self.MC_CHUNK)
        return refined.fingerprint(), tuple(r.bits for r in mc)

    def check(self):
        c, m = self.design, self.SIZE.bit_length() - 1
        ami_snr = self.curves[("snr", pc.AMI)].bits
        pami_snr = self.curves[("snr", pc.PAMI)].bits
        ami_pnsd = self.curves[("pnsd", pc.AMI)].bits
        pami_pnsd = self.curves[("pnsd", pc.PAMI)].bits
        for snr, ami, pami in zip(self.SNRS, ami_snr, pami_snr):
            checks.rate_bounds(ami, pami, m, snr, f"{self.name} SNR curve at {snr:g} dB")
        for pnsd, ami, pami in zip(self.PNSDS, ami_pnsd, pami_pnsd):
            what = f"{self.name} spread curve at {pnsd:g} deg"
            checks.rate_bounds(ami, pami, m, self.DESIGN_SNR_DB, what)
        for curve, increasing in ((ami_snr, True), (pami_snr, True),
                                  (ami_pnsd, False), (pami_pnsd, False)):
            checks.monotone(curve, increasing, f"{self.name} curve")
        at_design = self.SNRS.index(self.DESIGN_SNR_DB)
        ami = self.check_design(c, self.trace_best, pc.AMI, self.params, self.name)
        checks.same_rate(ami_snr[at_design], ami, f"{self.name}: curve at the design channel")
        self.cross_check(c, self.DESIGN_SNR_DB, self.DESIGN_PNSD_DEG, (ami, pami_snr[at_design]))
        # The program MC of 64 points with jitter runs at ~2000 samples/s,
        # too slow for an agreement check; it is checked without jitter.
        awgn = pc.ChannelParams.from_snr_pnsd(self.DESIGN_SNR_DB, 0.0)
        quad = (pc.ami_quadrature(c, awgn, GRID).bits, pc.pami_quadrature(c, awgn, GRID).bits)
        self.cross_check(c, self.DESIGN_SNR_DB, 0.0, quad,
                         self.program_mc(c, self.DESIGN_SNR_DB, 0.0))


def _run_cli(argv) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"phasecon {argv[0]} exited with {code}")


WORKLOADS = {w.name: w for w in (AnnealPami, CampaignAmi, ValidateM8, SweepM64)}
