"""The output checks fail on wrong outputs: run with `python3 -m pytest perfbench`."""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import phasecon as pc  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PSK8 = pc.reference_constellation("psk", 8)


def test_design_check_rejects_wrong_labels_and_power():
    checks.design(PSK8.points, PSK8.labels, "8-PSK")
    with pytest.raises(checks.CheckError, match="permutation"):
        checks.design(PSK8.points, [0, 1, 2, 3, 4, 5, 6, 6], "repeated label")
    with pytest.raises(checks.CheckError, match="power"):
        checks.design(1.01 * PSK8.points, PSK8.labels, "scaled")


@pytest.mark.parametrize("ami,pami,snr_db", [
    (2.0, 2.1, 12.0),   # PAMI above AMI
    (2.0, -0.1, 12.0),  # negative PAMI
    (3.2, 3.0, 30.0),   # above m
    (1.1, 1.0, 0.0),    # above log2(1 + SNR) = 1
])
def test_rate_bounds_reject(ami, pami, snr_db):
    with pytest.raises(checks.CheckError):
        checks.rate_bounds(ami, pami, 3, snr_db, "bad")


def test_agreement_rejects_a_perturbed_rate():
    ref = reference.Estimate(bits=2.5, stderr=0.004)
    assert checks.agrees(2.52, 0.0, ref, "close") == pytest.approx(0.02)
    with pytest.raises(checks.CheckError):
        checks.agrees(2.54, 0.0, ref, "quadrature off by 0.04")
    # Two MC results use their combined stderr: 3 * hypot(0.012, 0.004) > 0.035.
    checks.agrees(2.535, 0.012, ref, "noisy MC")


def test_same_rate_and_monotone_reject():
    with pytest.raises(checks.CheckError):
        checks.same_rate(2.5 + 1e-6, 2.5, "perturbed")
    with pytest.raises(checks.CheckError):
        checks.monotone([1.0, 1.2, 1.1], True, "dip")


@pytest.fixture(scope="module")
def annealed(tmp_path_factory):
    """A short anneal-pami-m8-20deg round whose outputs pass every check."""
    workload = workloads.AnnealPami(seed=3, workdir=tmp_path_factory.mktemp("anneal"))
    workload.config = pc.SAConfig(iterations=300, seed=3)
    workload.round()
    workload.verify()
    return workload


def test_workload_check_rejects_perturbed_trace_rate(annealed):
    best = annealed.trace_best
    try:
        annealed.trace_best = best + 1e-4
        with pytest.raises(checks.CheckError, match="trace best"):
            annealed.verify()
    finally:
        annealed.trace_best = best


def test_workload_check_rejects_wrong_label_set(annealed):
    c, meta = pc.load_constellation(annealed.path)
    swapped = c.labels.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    try:
        pc.save_constellation(annealed.path, pc.make_constellation(c.points, swapped), meta)
        with pytest.raises(checks.CheckError):
            annealed.verify()
    finally:
        pc.save_constellation(annealed.path, c, meta)


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
