"""Steadiness of the benchmark: run every workload several times and summarise.

    python3 perfbench/steady.py --first-seed 100 [--traced 1]

Runs `perfbench/run.py` on each workload of BENCHMARK.json RUNS times,
seed first-seed + r on repeat r, alternating the workload order between
repeats.  For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median and that
spread as a share of the metric's bound, and the share of failed
operations.  With --traced k it then makes k traced runs per workload and
prints each per-layer metric's median, plus the tracing overhead: the
median over seeds of each end-to-end metric of a traced run against the
untraced run of the same seed.  The summary is also written to
perfbench/out/steady-<first-seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
RUNS = 10


def run_once(spec, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (OUT_DIR / f"result-{workload}-s{seed}-t{trace}.json").read_text()
    )
    print(f"  {workload} seed {seed} trace {trace}: {wall:.1f} s wall, "
          f"{record['rounds']} rounds, correct {result['correct']}", flush=True)
    return dict(record, wall_s=wall)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {name: [] for name in names}
    for r in range(RUNS):
        order = names if r % 2 == 0 else names[::-1]
        for name in order:
            runs[name].append(run_once(spec, name, args.first_seed + r, seconds, 0))
    traced = {name: [run_once(spec, name, args.first_seed + k, seconds, 1)
                     for k in range(args.traced)] for name in names}

    summary = {"runs": RUNS, "first_seed": args.first_seed, "seconds": seconds,
               "workloads": {}}
    for name in names:
        records = runs[name]
        shares = {r["failed"] / r["attempted"] for r in records}
        entry = {
            "wall_s": quartiles([r["wall_s"] for r in records]),
            "failed_shares": sorted(shares),
            "all_correct": all(r["correct"] for r in records),
            "end_to_end": {},
        }
        print(f"\n{name}: {len(records)} runs, wall median {entry['wall_s']['median']:.1f} s, "
              f"failed shares {sorted(shares)}, all correct {entry['all_correct']}")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s} {'/bound':>7s}")
        for metric, bound in bounds.items():
            q = quartiles([r["end_to_end"][metric] for r in records])
            q["bound"] = bound
            entry["end_to_end"][metric] = q
            print(f"  {metric:22s} {q['median']:12.6g} {q['q1']:12.6g} {q['q3']:12.6g} "
                  f"{q['spread']:8.4f} {bound:6.2f} {q['spread'] / bound:7.3f}")
        if traced[name]:
            layer = {k: statistics.median(t["per_layer"][k] for t in traced[name])
                     for k in traced[name][0]["per_layer"]}
            # Traced run k against the untraced run of the same seed.
            overhead = {
                k: statistics.median(t["end_to_end"][k] / u["end_to_end"][k] - 1.0
                                     for t, u in zip(traced[name], records))
                for k in bounds
            }
            entry["per_layer"], entry["tracing_overhead"] = layer, overhead
            print(f"  traced ({len(traced[name])} runs), per-layer medians:")
            for k, v in layer.items():
                print(f"    {k:36s} {v:12.6g}")
            print("  tracing overhead, median of traced / untraced - 1 on the same seed:")
            for k, v in overhead.items():
                print(f"    {k:22s} {v:+.4f}")
        summary["workloads"][name] = entry

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"steady-{args.first_seed}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"\nwrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
