"""Acceptance suite: one test per release criterion, one verdict line each.

These run real annealing jobs and Monte Carlo batches; the whole module
takes several minutes. Shared designs are built once per session.
"""

import itertools
import json

import numpy as np
import pytest

from phasecon import (
    ChannelParams,
    QuadratureGrid,
    SAConfig,
    ami_monte_carlo,
    ami_quadrature,
    make_constellation,
    pami_monte_carlo,
    pami_quadrature,
    pragmatic_gap,
    reference_constellation,
    sa_optimize,
    snr_at_rate,
)
from phasecon.capacity import QuadEvaluator
from phasecon.cli import main
import conftest
from conftest import channel, random_unit_power_constellation, set_threads, spy_pools

GRID7 = QuadratureGrid.of_degree(7)
GRID15 = QuadratureGrid.of_degree(15)
PSK8 = reference_constellation("psk", 8)

# Criterion-1 evaluation grid: three SNRs crossed with three phase spreads.
C1_SNRS = (3.0, 9.0, 15.0)
C1_PNSDS = (0.0, 5.0, 20.0)

# Criterion-6 caps on the pragmatic SNR penalty (dB) at 2.5 bits, per phase
# spread.  The 25 deg cap is not from the paper: it rests on recorded
# evidence that no PAMI design found there comes within 0.3 dB (CHANGES.md).
C6_CAP_DB = {0.0: 0.3, 25.0: 0.5}
C6_TARGET_BITS = 2.5
C6_MC_SAMPLES = 100000


def report(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.CRITERION_LINES.append(line)


def mc_cap(mc) -> float:
    """Allowed |quadrature - Monte Carlo| deviation for one MC estimate."""
    return max(0.03, 3.0 * mc.stderr)


def labeling_classes(size: int) -> np.ndarray:
    """One labeling per class of `size` points, up to bit permutation and complement.

    PAMI depends on a labeling only through its class: permuting bit
    positions reorders the per-bit sum, and complementing a bit swaps its two
    subsets.  Row r is a labels array (point i gets label ``out[r, i]``); each
    class is represented by its lexicographically smallest member.  For 8
    points there are 8!/(3!*2^3) = 840 classes.
    """
    m = size.bit_length() - 1
    labels = np.arange(size)
    # The 2^m * m! label maps: bits permuted, then complemented by a mask.
    maps = []
    for order in itertools.permutations(range(m)):
        permuted = sum(((labels >> src) & 1) << dst for dst, src in enumerate(order))
        maps.extend(permuted ^ mask for mask in range(size))
    perms = np.array(list(itertools.permutations(range(size))))
    place = size ** np.arange(size - 1, -1, -1)
    codes = np.full(len(perms), np.iinfo(np.int64).max)
    for g in maps:
        codes = np.minimum(codes, g[perms] @ place)
    # permutations() runs in lexicographic order, so the first member of each
    # class is its smallest.
    _, first = np.unique(codes, return_index=True)
    return perms[first]


def anneal(size, snr_db, pnsd_deg, objective, seed, **over):
    cfg = SAConfig(**over, seed=seed)
    best, _ = sa_optimize(size, channel(snr_db, pnsd_deg), objective, GRID7, cfg)
    return best


@pytest.fixture(scope="module")
def gain_designs():
    """Six matched designs for the optimization-gain check."""
    return {
        (pnsd, seed): anneal(8, 12.0, pnsd, "AMI", seed)
        for pnsd in (10.0, 20.0)
        for seed in (0, 1, 2)
    }


@pytest.fixture(scope="module")
def robustness_designs():
    """A jitter-blind design and a jitter-aware design."""
    return {
        "blind": anneal(8, 12.0, 0.0, "AMI", 0),
        "aware": anneal(8, 30.0, 25.0, "AMI", 0),
    }


@pytest.fixture(scope="module")
def gap_designs():
    """AMI- and PAMI-optimized designs near the 2.5-bit crossing SNR."""
    out = {}
    for pnsd, design_snr in ((0.0, 9.0), (25.0, 12.0)):
        for objective in ("AMI", "PAMI"):
            out[(pnsd, objective)] = (design_snr, anneal(8, design_snr, pnsd, objective, 0))
    return out


def test_criterion_1_quadrature_matches_monte_carlo():
    worst = 0.0
    ok = True
    for k, (snr, pnsd) in enumerate(itertools.product(C1_SNRS, C1_PNSDS)):
        p = channel(snr, pnsd)
        quad = ami_quadrature(PSK8, p, GRID7).bits
        mc = ami_monte_carlo(PSK8, p, 100000, seed=k)
        dev = abs(quad - mc.bits)
        worst = max(worst, dev)
        if dev > mc_cap(mc):
            ok = False
    report(1, ok, f"worst |quad-MC| = {worst:.4f} bits over 9 cells, cap 0.03")
    assert ok


def test_criterion_2_pami_never_exceeds_ami():
    rng = np.random.default_rng(1)
    worst = -np.inf
    for _ in range(200):
        c = random_unit_power_constellation(rng)
        for _ in range(4):
            p = channel(rng.uniform(-5.0, 25.0), rng.uniform(0.0, 28.0))
            gap = pami_quadrature(c, p, GRID7).bits - ami_quadrature(c, p, GRID7).bits
            worst = max(worst, gap)
    ok = worst <= 1e-6
    report(2, ok, f"max(pami-ami) = {worst:.2e} over 800 draws, cap 1e-6")
    assert ok


def test_criterion_3_quadrature_degree_stability():
    worst = 0.0
    for snr, pnsd in itertools.product(C1_SNRS, C1_PNSDS):
        if pnsd > 25.0:
            continue
        p = channel(snr, pnsd)
        d = abs(ami_quadrature(PSK8, p, GRID7).bits - ami_quadrature(PSK8, p, GRID15).bits)
        worst = max(worst, d)
    ok = worst <= 0.01
    report(3, ok, f"worst |k7-k15| = {worst:.4f} bits, cap 0.01")
    assert ok


def test_criterion_4_optimized_designs_beat_psk_consistently(gain_designs):
    ok = True
    details = []
    for pnsd in (10.0, 20.0):
        p = channel(12.0, pnsd)
        baseline = ami_quadrature(PSK8, p, GRID7).bits
        bits = [
            ami_quadrature(gain_designs[(pnsd, seed)], p, GRID7).bits for seed in (0, 1, 2)
        ]
        gain = min(bits) - baseline
        spread = max(bits) - min(bits)
        details.append(f"{pnsd:g}deg: gain {gain:+.3f}, seed spread {spread:.4f}")
        if gain < 0.02 or spread > 0.02:
            ok = False
    report(4, ok, "; ".join(details) + "; need gain >= 0.02 and spread <= 0.02")
    assert ok


def test_criterion_5_jitter_blind_designs_collapse(robustness_designs):
    p = channel(30.0, 25.0)
    blind = ami_quadrature(robustness_designs["blind"], p, GRID7).bits
    aware = ami_quadrature(robustness_designs["aware"], p, GRID7).bits
    ok = blind < 2.95 and aware > blind
    report(5, ok, f"blind design {blind:.4f} bits (< 2.95), aware {aware:.4f} (> blind)")
    assert ok


def test_criterion_6_pragmatic_gap_at_target_rate(gap_designs):
    """The PAMI design loses little SNR against the AMI design at 2.5 bits.

    At each phase spread, with the AMI design c_ami and the PAMI design
    c_pami annealed at the design SNR:

    (a) the SNR at which PAMI(c_pami) reaches 2.5 bits exceeds the one at
        which AMI(c_ami) does by at most the cap: 0.3 dB at 0 deg, 0.5 dB at
        25 deg;
    (b) at the design SNR, PAMI(c_pami) is at least the best of the
        labeling classes of its own geometry, less 1e-9 bits: the annealer
        left no better labeling behind;
    (c) that gap is strictly smaller than the gap of the c_ami geometry
        under its best labeling class at the design SNR: annealing points
        and labels together beats relabelling the AMI design;
    (d) at the PAMI crossing SNR of c_pami, quadrature agrees with the
        exact-likelihood Monte Carlo for AMI(c_ami) and PAMI(c_pami) by
        criterion 1's rule, so the gap is not an artefact of the rule.

    The 25 deg cap rests on recorded evidence rather than on the paper:
    more seeds, warm starts, more label swaps and annealing PAMI directly at
    the capped SNR all stay above 0.3 dB there (CHANGES.md).
    """
    classes = labeling_classes(8)
    ok = True
    details = []
    for k, (pnsd, cap) in enumerate(C6_CAP_DB.items()):
        design_snr, c_ami = gap_designs[(pnsd, "AMI")]
        _, c_pami = gap_designs[(pnsd, "PAMI")]
        design = channel(design_snr, pnsd)

        snr_ami = snr_at_rate(c_ami, pnsd, "AMI", C6_TARGET_BITS, GRID7)
        snr_cross = snr_at_rate(c_pami, pnsd, "PAMI", C6_TARGET_BITS, GRID7)
        gap = snr_cross - snr_ami

        ev = QuadEvaluator((design,), GRID7, 8)
        [own_bits] = ev.pami_bits(c_pami.points[None], c_pami.labels[None])
        best_bits = max(ev.pami_bits(c_pami.points[None], labels[None])[0] for labels in classes)
        ami_geometry = [ev.pami_bits(c_ami.points[None], labels[None])[0] for labels in classes]
        relabelled = make_constellation(c_ami.points, classes[int(np.argmax(ami_geometry))])
        relabelled_gap = pragmatic_gap(c_ami, relabelled, pnsd, GRID7, C6_TARGET_BITS)

        cross = channel(snr_cross, pnsd)
        pairs = (
            (ami_quadrature(c_ami, cross, GRID7),
             ami_monte_carlo(c_ami, cross, C6_MC_SAMPLES, seed=2 * k)),
            (pami_quadrature(c_pami, cross, GRID7),
             pami_monte_carlo(c_pami, cross, C6_MC_SAMPLES, seed=2 * k + 1)),
        )
        devs = [abs(quad.bits - mc.bits) for quad, mc in pairs]
        caps = [mc_cap(mc) for _, mc in pairs]

        ok &= (
            gap <= cap
            and own_bits >= best_bits - 1e-9
            and gap < relabelled_gap
            and all(d <= c for d, c in zip(devs, caps))
        )
        details.append(
            f"{pnsd:g}deg: gap {gap:+.3f} dB (cap {cap}), relabelled AMI design "
            f"{relabelled_gap:+.3f} dB, PAMI {own_bits:.5f} vs best of {len(classes)} "
            f"label classes {best_bits:.5f}, at {snr_cross:.3f} dB |quad-MC| "
            f"AMI {devs[0]:.4f} (cap {caps[0]:.4f}) PAMI {devs[1]:.4f} (cap {caps[1]:.4f})"
        )
    report(6, ok, "; ".join(details))
    assert ok


def _two_point_oracle(params) -> float:
    """Exhaustive search over two-point unit-power geometries.

    Up to rotation and reflection every such geometry is [r0, r1 e^{j psi}]
    with r0 = sqrt(2 - r1^2) real and psi in [0, pi].
    """
    ev = QuadEvaluator((params,), GRID7, 2)
    best = -np.inf
    for r1 in np.linspace(0.05, 1.40, 80):
        r0 = np.sqrt(2.0 - r1 * r1)
        for psi in np.linspace(0.0, np.pi, 90):
            pts = np.array([r0, r1 * np.exp(1j * psi)], dtype=np.complex128)
            best = max(best, ev.ami_bits(pts[None])[0])
    return best


def test_criterion_7_two_point_designs_match_exhaustive_search():
    ok = True
    details = []
    for pnsd in (0.0, 20.0):
        p = channel(10.0, pnsd)
        oracle = _two_point_oracle(p)
        got = ami_quadrature(anneal(2, 10.0, pnsd, "AMI", 0), p, GRID7).bits
        details.append(f"{pnsd:g}deg: sa {got:.5f} vs oracle {oracle:.5f}")
        if abs(got - oracle) > 0.01:
            ok = False
    report(7, ok, "; ".join(details) + "; cap 0.01")
    assert ok


def test_criterion_8_determinism(tmp_path, capsys, monkeypatch):
    psk_file = tmp_path / "psk8.json"
    from phasecon import save_constellation

    save_constellation(psk_file, PSK8, {})
    eval_argv = ["evaluate", str(psk_file), "--snr-db", "9", "--pnsd-deg", "12"]
    assert main(list(eval_argv)) == 0
    first = capsys.readouterr().out
    assert main(list(eval_argv)) == 0
    second = capsys.readouterr().out

    opt = ["optimize", "--m-points", "4", "--snr-db", "10", "--pnsd-deg", "10",
           "--iterations", "500", "--seed", "4"]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(opt + ["--output", str(out_a)]) == 0
    assert main(opt + ["--output", str(out_b)]) == 0
    capsys.readouterr()
    files_equal = out_a.read_bytes() == out_b.read_bytes()

    # 64 x 64 x 343 table entries: four blocks on four threads, each above
    # the pool's threshold, so the parallel call really runs on the pool.
    p = channel(9.0, 12.0)
    qam64 = reference_constellation("qam", 64)
    pools = spy_pools(monkeypatch)
    set_threads(monkeypatch, 1)
    serial = ami_quadrature(qam64, p, GRID7).bits
    set_threads(monkeypatch, 4)
    thread_dev = abs(serial - ami_quadrature(qam64, p, GRID7).bits)
    ok = (first == second) and files_equal and thread_dev < 1e-10
    report(
        8,
        ok,
        f"evaluate bytes equal: {first == second}; optimize bytes equal: {files_equal}; "
        f"serial-parallel dev {thread_dev:.1e} < 1e-10",
    )
    assert ok
    assert pools == [4], pools
