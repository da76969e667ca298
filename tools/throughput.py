"""Throughput figures quoted in the README's introduction.

    PYTHONPATH=src python3 tools/throughput.py

Prints the median of interleaved runs and, in brackets, their min-max range,
one thread (PHASECON_THREADS unset or 1): Monte Carlo samples/s of 8-PSK at
12 dB, 20 deg (5e4 samples) and 9 dB, 0 deg (1e4) and of 64-QAM at 16 dB,
10 deg (1e4), AMI and PAMI, over MC_RUNS; 8-point anneal steps/s
(ANNEAL_STEPS steps, seeds 0, 1, ...) for AMI at 9 dB, 0 deg and AMI and
PAMI at 12 dB, 20 deg, and the steps/s per chain of an 8-point AMI campaign
of three cells at 6, 9 and 12 dB, 0 deg (ANNEAL_STEPS steps per cell),
whose cells anneal as lockstep chains, over ANNEAL_RUNS; and the time of a
one-shot `ami_quadrature` and `pami_quadrature` of 16-, 64- and 128-QAM at
20 dB, 10 deg, over ONE_SHOT_RUNS, with the tracemalloc peak of one more
call, and the time of a one-shot AMI-then-PAMI pair of that 16-QAM set.
The 16-QAM calls score on the evaluator `_quadrature` keeps for 16-point
sets, built by the first of them, so their peak holds no work arrays, and
they repeat one set on one channel, so after the first PAMI call each AMI
and PAMI call reads the table that call keeps; the 64- and 128-QAM tables
span several row tiles, and each of their calls builds a fresh evaluator.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import phasecon as pc

MC_JOBS = [("psk", 8, 12.0, 20.0, 50000), ("psk", 8, 9.0, 0.0, 10000),
           ("qam", 64, 16.0, 10.0, 10000)]
ANNEAL_JOBS = [("AMI", 9.0, 0.0), ("AMI", 12.0, 20.0), ("PAMI", 12.0, 20.0)]
CAMPAIGN_SNRS = (6.0, 9.0, 12.0)
ONE_SHOT_SIZES = (16, 64, 128)
ONE_SHOT_CHANNEL = (20.0, 10.0)
MC_RUNS = 11
# One-chain anneals of one tree spread about +-10% over three runs.
ANNEAL_RUNS = 11
ANNEAL_STEPS = 4000
ONE_SHOT_RUNS = 11


def spread(values: list[float], fmt: str) -> str:
    """The median of `values` and, in brackets, their min-max range."""
    return (f"{statistics.median(values):{fmt}} "
            f"[{min(values):{fmt}}-{max(values):{fmt}}]")


def main() -> None:
    grid = pc.QuadratureGrid.of_degree(7)

    mc = {}
    for _ in range(MC_RUNS):
        for kind, size, snr, pnsd, samples in MC_JOBS:
            c = pc.reference_constellation(kind, size)
            p = pc.ChannelParams.from_snr_pnsd(snr, pnsd)
            for rate in (pc.ami_monte_carlo, pc.pami_monte_carlo):
                start = time.perf_counter()
                rate(c, p, samples, 0)
                key = (kind, size, snr, pnsd, samples, rate.__name__)
                mc.setdefault(key, []).append(samples / (time.perf_counter() - start))
    for key, rates in mc.items():
        print(*key, spread(rates, ",.0f"), "samples/s")

    anneal, campaign = {}, []
    for seed in range(ANNEAL_RUNS):
        for objective, snr, pnsd in ANNEAL_JOBS:
            p = pc.ChannelParams.from_snr_pnsd(snr, pnsd)
            cfg = pc.SAConfig(iterations=ANNEAL_STEPS, seed=seed)
            start = time.perf_counter()
            pc.sa_optimize(8, p, objective, grid, cfg)
            rate = ANNEAL_STEPS / (time.perf_counter() - start)
            anneal.setdefault((objective, snr, pnsd), []).append(rate)
        cfg = pc.SAConfig(iterations=ANNEAL_STEPS, seed=seed)
        start = time.perf_counter()
        list(pc.campaign_cells(8, CAMPAIGN_SNRS, [0.0], "AMI", grid, cfg))
        campaign.append(len(CAMPAIGN_SNRS) * ANNEAL_STEPS / (time.perf_counter() - start))
    for key, rates in anneal.items():
        print("anneal 8", *key, spread(rates, ",.0f"), "steps/s")
    print("campaign 8 AMI", *CAMPAIGN_SNRS, 0.0, spread(campaign, ",.0f"), "steps/s per chain")

    p = pc.ChannelParams.from_snr_pnsd(*ONE_SHOT_CHANNEL)
    rates = (pc.ami_quadrature, pc.pami_quadrature)
    one_shot, pair, qam16 = {}, [], pc.reference_constellation("qam", 16)
    for _ in range(ONE_SHOT_RUNS):
        for size in ONE_SHOT_SIZES:
            c = pc.reference_constellation("qam", size)
            for rate in rates:
                start = time.perf_counter()
                rate(c, p, grid)
                one_shot.setdefault((size, rate), []).append(1e3 * (time.perf_counter() - start))
        start = time.perf_counter()
        for rate in rates:
            rate(qam16, p, grid)
        pair.append(1e3 * (time.perf_counter() - start))
    for (size, rate), times in one_shot.items():
        tracemalloc.start()
        try:
            rate(pc.reference_constellation("qam", size), p, grid)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        print("one-shot", rate.__name__, "qam", size, *ONE_SHOT_CHANNEL,
              spread(times, ".2f"), f"ms/call, peak {peak:.1f} MB")
    print("one-shot ami_quadrature then pami_quadrature qam 16", *ONE_SHOT_CHANNEL,
          spread(pair, ".2f"), "ms/pair")


if __name__ == "__main__":
    main()
