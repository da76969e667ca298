"""Run one phasecon benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The run

1. times the set-up (import phasecon, build the grid and evaluator, first
   evaluation) in SETUP_PROBES fresh interpreters and keeps the median;
2. makes the workload's inputs from the seed and prepares it;
3. runs whole rounds until S seconds have passed: the workload's job, timed
   for job_s, then side work that times the calls the job makes too few of;
4. reads the peak resident memory, then checks the outputs.

The quadrature and Monte Carlo routes run on PHASECON_THREADS threads; the
run sets it to THREADS, for itself and its set-up probes, and records it.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`, holding the end-to-end metrics with
`--trace 0` and the per-layer metrics with `--trace 1`.  A program
operation that raises is counted in `failed` and ends the run: it prints
the result with `correct` false and empty metrics, and exits 1.  A traced run wraps
phasecon's public entry points (see tracing.py) during steps 2 and 3.  The
full result, both metric sets where measured, goes to
perfbench/out/result-<workload>-s<seed>-t<trace>.json and a traced run's
spans to perfbench/out/spans-<workload>-s<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
THREADS = 1

# name, unit, better: the end-to-end metrics an untraced run prints.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("job_s", "s", "lower"),
    ("anneal_steps_per_s", "steps/s", "higher"),
    ("design_bits", "bits", "higher"),
    ("mc_samples_per_s", "samples/s", "higher"),
    ("quad_evals_per_s", "evals/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

_PROBE = """\
import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
import phasecon as pc
{first_evaluation}
print(repr(time.perf_counter() - start))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(first_evaluation: str) -> float:
    """Median set-up time over SETUP_PROBES fresh interpreters."""
    code = _PROBE.format(src=str(SRC), first_evaluation=first_evaluation)
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ["PHASECON_THREADS"] = str(THREADS)
    if not (SRC / "phasecon" / "__init__.py").is_file():
        print(f"error: no phasecon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import phasecon
    import workloads
    from checks import CheckError
    from tracing import PER_LAYER, Tracer

    if Path(phasecon.__file__).resolve().parent != SRC / "phasecon":
        print(f"error: phasecon imported from {phasecon.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    cls = workloads.WORKLOADS[args.workload]
    setup_s = setup_seconds(cls.first_evaluation)
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        workload = cls(args.seed, Path(workdir))
        if tracer:
            tracer.install(phasecon)
        job_times = []
        try:
            workload.prepare()
            start = time.perf_counter()
            while not job_times or time.perf_counter() - start < args.seconds:
                job_times.append(workload.round())
        except Exception:
            if not workload.failed:
                raise  # a fault of the benchmark, not of the program
            traceback.print_exc()
        finally:
            if tracer:
                tracer.uninstall()
        rss = peak_rss_mb()
        correct = workload.failed == 0
        if correct:
            try:
                workload.verify()
            except CheckError as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                correct = False

    result = {"correct": correct, "attempted": workload.attempted,
              "failed": workload.failed, "metrics": {}}
    if workload.failed:
        print(f"{args.workload} seed {args.seed}: {workload.failed} of "
              f"{workload.attempted} operations failed", file=sys.stderr)
        print(json.dumps(result))
        return 1

    end_to_end = {
        "setup_s": setup_s,
        "job_s": statistics.median(job_times),
        "anneal_steps_per_s": workload.anneal.rate(),
        "design_bits": workload.design_bits,
        "mc_samples_per_s": workload.mc.rate(),
        "quad_evals_per_s": workload.quad.rate(),
        "peak_rss_mb": rss,
    }
    per_layer = tracer.layer_metrics() if tracer else None
    shown = (PER_LAYER, per_layer) if tracer else (END_TO_END, end_to_end)
    result["metrics"] = {name: {"value": shown[1][name], "unit": unit}
                         for name, unit, _ in shown[0]}
    tag = f"{args.workload}-s{args.seed}"
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, threads=THREADS, rounds=len(job_times),
                  job_times=job_times, end_to_end=end_to_end, per_layer=per_layer)
    (OUT_DIR / f"result-{tag}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        (OUT_DIR / f"spans-{tag}.json").write_text(json.dumps(tracer.to_json()))
    summary = ", ".join(f"{k} {v:.6g}" for k, v in end_to_end.items())
    print(f"{args.workload} seed {args.seed}: {len(job_times)} rounds; {summary}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
