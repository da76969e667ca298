"""Throughput figures quoted in the README's introduction.

    PYTHONPATH=src python3 tools/throughput.py

Prints the median rate of interleaved runs, one thread (PHASECON_THREADS
unset or 1): Monte Carlo samples/s of 8-PSK at 12 dB, 20 deg (5e4 samples)
and 9 dB, 0 deg (1e4) and of 64-QAM at 16 dB, 10 deg (1e4), AMI and PAMI,
medians of MC_RUNS; 8-point anneal steps/s (ANNEAL_STEPS steps, seeds
0, 1, ...) for AMI at 9 dB, 0 deg and AMI and PAMI at 12 dB, 20 deg; and
the steps/s per chain of an 8-point AMI campaign of three cells at 6, 9 and
12 dB, 0 deg (ANNEAL_STEPS steps per cell), whose cells anneal as lockstep
chains, medians of ANNEAL_RUNS.
"""

from __future__ import annotations

import statistics
import time

import phasecon as pc

MC_JOBS = [("psk", 8, 12.0, 20.0, 50000), ("psk", 8, 9.0, 0.0, 10000),
           ("qam", 64, 16.0, 10.0, 10000)]
ANNEAL_JOBS = [("AMI", 9.0, 0.0), ("AMI", 12.0, 20.0), ("PAMI", 12.0, 20.0)]
CAMPAIGN_SNRS = (6.0, 9.0, 12.0)
MC_RUNS = 11
ANNEAL_RUNS = 3
ANNEAL_STEPS = 4000


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
        print(*key, f"{statistics.median(rates):,.0f} samples/s")

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
        print("anneal 8", *key, f"{statistics.median(rates):,.0f} steps/s")
    print("campaign 8 AMI", *CAMPAIGN_SNRS, 0.0,
          f"{statistics.median(campaign):,.0f} steps/s per chain")


if __name__ == "__main__":
    main()
