"""Tests for sweeps, campaigns, mismatch tables, and the SNR gap."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from phasecon import (
    SAConfig,
    capacity,
    ami_quadrature,
    campaign_cell_seed,
    campaign_cells,
    make_constellation,
    mismatch_matrix,
    pami_quadrature,
    pnsd_sweep,
    pragmatic_gap,
    reference_constellation,
    sa_optimize,
    snr_sweep,
)
from phasecon.capacity import QuadEvaluator
from conftest import channel, count_builds, random_unit_power_constellation, set_threads


def tiny_config(**over):
    base = dict(iterations=60, t_initial=0.05, t_final=1e-4, seed=3, reanneal_count=0)
    base.update(over)
    return SAConfig(**base)


# --- sweeps ----------------------------------------------------------------


def test_snr_sweep_matches_direct_evaluations(psk8, grid7):
    xs = [0.0, 6.0, 12.0]
    curve = snr_sweep(psk8, 10.0, xs, "AMI", grid7)
    for x, got in zip(curve.xs, curve.bits):
        want = ami_quadrature(psk8, channel(float(x), 10.0), grid7).bits
        assert got == want
    assert curve.abscissa_kind == "snr_db"
    assert curve.fixed_name == "pnsd_deg"
    assert curve.fixed_value == 10.0
    assert curve.objective == "AMI"
    assert curve.fingerprint == psk8.fingerprint()
    assert np.all(curve.stderr == 0.0)
    assert np.all(np.diff(curve.bits) > 0.0)


def test_snr_sweep_pami_objective(psk8, grid7):
    curve = snr_sweep(psk8, 5.0, [4.0, 10.0], "PAMI", grid7)
    for x, got in zip(curve.xs, curve.bits):
        assert got == pami_quadrature(psk8, channel(float(x), 5.0), grid7).bits


def test_pnsd_sweep_matches_direct_evaluations(psk8, grid7):
    xs = [0.0, 10.0, 20.0, 28.0]
    curve = pnsd_sweep(psk8, 12.0, xs, "AMI", grid7)
    for x, got in zip(curve.xs, curve.bits):
        assert got == ami_quadrature(psk8, channel(12.0, float(x)), grid7).bits
    assert curve.abscissa_kind == "pnsd_deg"
    assert curve.fixed_name == "snr_db"
    assert np.all(np.diff(curve.bits) < 0.0)


def test_sweep_axis_validation(psk8, grid7):
    with pytest.raises(ValueError):
        snr_sweep(psk8, 10.0, [], "AMI", grid7)
    with pytest.raises(ValueError):
        snr_sweep(psk8, 10.0, [3.0, 2.0], "AMI", grid7)
    with pytest.raises(ValueError):
        snr_sweep(psk8, 10.0, [3.0, 3.0], "AMI", grid7)
    with pytest.raises(ValueError):
        snr_sweep(psk8, 10.0, [3.0], "ami", grid7)
    with pytest.raises(ValueError):
        pnsd_sweep(psk8, 10.0, [[0.0, 5.0]], "AMI", grid7)


def test_curve_csv_round_trips(psk8, grid7, tmp_path):
    curve = snr_sweep(psk8, 7.5, [2.0, 8.0], "AMI", grid7)
    text = curve.to_csv()
    lines = text.splitlines()
    assert lines[0].startswith("# abscissa_kind=snr_db,fixed_param=pnsd_deg:7.5,")
    assert "objective=AMI" in lines[0]
    assert curve.fingerprint in lines[0]
    assert lines[1] == "x,bits,stderr"
    assert len(lines) == 4
    x, b, s = (float(v) for v in lines[2].split(","))
    assert (x, b, s) == (2.0, curve.bits[0], 0.0)
    path = tmp_path / "curve.csv"
    curve.save(path)
    assert path.read_text(encoding="ascii") == text


# --- campaigns -------------------------------------------------------------


def test_cell_seed_is_deterministic_and_spread():
    a = campaign_cell_seed(7, 0, 0)
    assert a == campaign_cell_seed(7, 0, 0)
    others = {campaign_cell_seed(7, i, j) for i in range(3) for j in range(3)}
    assert len(others) == 9
    assert all(0 <= s < 2**63 for s in others)
    assert campaign_cell_seed(8, 0, 0) != a


def campaign_designs(*args):
    """The best design of each campaign cell, keyed by (snr_db, pnsd_deg)."""
    return {(snr, pnsd): best for snr, pnsd, _, best, _ in campaign_cells(*args)}


def test_single_cell_campaign_equals_direct_run(grid7):
    cfg = tiny_config()
    designs = campaign_designs(4, [10.0], [15.0], "AMI", grid7, cfg)
    assert list(designs) == [(10.0, 15.0)]
    direct_cfg = replace(cfg, seed=campaign_cell_seed(cfg.seed, 0, 0))
    direct, _ = sa_optimize(4, channel(10.0, 15.0), "AMI", grid7, direct_cfg)
    np.testing.assert_array_equal(designs[(10.0, 15.0)].points, direct.points)
    np.testing.assert_array_equal(designs[(10.0, 15.0)].labels, direct.labels)


def test_campaign_covers_the_grid(grid7):
    designs = campaign_designs(4, [6.0, 12.0], [0.0, 20.0], "AMI", grid7, tiny_config())
    assert set(designs) == {(6.0, 0.0), (6.0, 20.0), (12.0, 0.0), (12.0, 20.0)}
    for c in designs.values():
        assert c.size == 4
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)


def _evaluator_slots(monkeypatch):
    """The channel slot count of every evaluator built from now on."""
    slots, real = [], QuadEvaluator.__init__

    def spy(ev, channels, grid, size):
        slots.append(len(channels))
        real(ev, channels, grid, size)

    monkeypatch.setattr(QuadEvaluator, "__init__", spy)
    return slots


def assert_cells_equal_direct_runs(size, snrs, pnsds, objective, grid, cfg):
    """Every campaign cell, in grid order, equals `sa_optimize` with its
    seed: points, labels and every trace column."""
    cells = list(campaign_cells(size, snrs, pnsds, objective, grid, cfg))
    assert [(snr, pnsd) for snr, pnsd, *_ in cells] == [(s, p) for s in snrs for p in pnsds]
    columns = ("step", "temperature", "current_bits", "best_bits", "accepted", "move_type")
    for snr, pnsd, seed, best, trace in cells:
        cell_cfg = replace(cfg, seed=seed)
        direct, want = sa_optimize(size, channel(snr, pnsd), objective, grid, cell_cfg)
        assert np.array_equal(best.points, direct.points), (snr, pnsd)
        assert np.array_equal(best.labels, direct.labels), (snr, pnsd)
        for column in columns:
            assert np.array_equal(getattr(trace, column), getattr(want, column)), (snr, column)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "objective, extra, slots_built",
    [
        # Two 3-slot evaluators for the campaign, then one per direct run.
        ("AMI", {}, [3, 3] + [1] * 6),
        # Two one-slot evaluators (held and spare) per cell and direct run.
        ("PAMI", {"label_swap_prob": 0.3, "t_final": 0.01}, [1] * 24),
    ],
    ids=["AMI", "PAMI-swap-heavy"],
)
def test_lockstep_campaign_equals_direct_runs(
    objective, extra, slots_built, threads, grid7, monkeypatch
):
    """8-point AMI cells at 0 and 20 deg anneal as two groups of three
    lockstep chains, one per jitter class, and PAMI cells one at a time; each
    cell equals its direct run, also when the rows of each stacked table are
    split over two threads."""
    set_threads(monkeypatch, threads)
    monkeypatch.setattr(capacity, "_MIN_BLOCK_ENTRIES", 1)
    cfg = SAConfig(iterations=300, seed=4, reanneal_count=2, **extra)
    slots = _evaluator_slots(monkeypatch)
    assert_cells_equal_direct_runs(8, [6.0, 9.0, 12.0], [0.0, 20.0], objective, grid7, cfg)
    assert slots == slots_built


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("objective, per_run", [("AMI", 1), ("PAMI", 2)])
def test_large_sets_anneal_one_chain_per_group(objective, per_run, threads, grid7, monkeypatch):
    """32-point tables on 343 nodes exceed a tile, so each cell is a group of
    its own, with one-slot evaluators as a direct run builds; the cells
    still equal their direct runs."""
    set_threads(monkeypatch, threads)
    cfg = SAConfig(iterations=40, seed=2, reanneal_count=1)
    slots = _evaluator_slots(monkeypatch)
    assert_cells_equal_direct_runs(32, [14.0], [5.0, 10.0], objective, grid7, cfg)
    assert slots == [1] * 4 * per_run


def test_a_64_point_campaign_holds_one_chains_tables_at_a_time(grid7):
    """A PAMI chain keeps two full 64 x 64 x 343 tables (its current state's
    and its candidate's); a 2-cell campaign anneals its cells one after the
    other, so it never holds the two chains' four tables at once."""
    table_bytes = 64 * 64 * grid7.degree**3 * 8
    cfg = SAConfig(iterations=3, seed=1, reanneal_count=0)
    tracemalloc.start()
    try:
        for *_, best, _ in campaign_cells(64, [14.0], [5.0, 10.0], "PAMI", grid7, cfg):
            assert best.size == 64
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * table_bytes < peak < 3 * table_bytes, peak / table_bytes


def test_campaign_validates_axes(grid7):
    with pytest.raises(ValueError):
        campaign_designs(4, [], [0.0], "AMI", grid7, tiny_config())
    with pytest.raises(ValueError):
        campaign_designs(4, [3.0], [20.0, 10.0], "AMI", grid7, tiny_config())


# --- mismatch --------------------------------------------------------------


@pytest.fixture(scope="module")
def two_designs():
    psk = reference_constellation("psk", 8)
    qam = reference_constellation("qam", 8)
    return {(10.0, 0.0): psk, (10.0, 20.0): qam}


def test_mismatch_diagonal_loss_is_zero(two_designs, grid7):
    report = mismatch_matrix(two_designs, [10.0], [0.0, 20.0], grid7)
    assert report.design_cells == [(10.0, 0.0), (10.0, 20.0)]
    assert report.eval_cells == [(10.0, 0.0), (10.0, 20.0)]
    for d, cell in enumerate(report.design_cells):
        e = report.eval_cells.index(cell)
        assert report.loss[d, e] == 0.0


def test_mismatch_bits_match_direct_evaluation(two_designs, grid7, monkeypatch):
    # One evaluator per evaluation channel scores every design.
    slots = _evaluator_slots(monkeypatch)
    report = mismatch_matrix(two_designs, [10.0], [0.0, 20.0], grid7)
    assert slots == [1, 1]
    for d, dcell in enumerate(report.design_cells):
        for e, (snr, pnsd) in enumerate(report.eval_cells):
            want = ami_quadrature(two_designs[dcell], channel(snr, pnsd), grid7).bits
            assert report.bits[d, e] == want


def test_mixed_size_mismatch_builds_one_evaluator_per_channel_and_size(grid7, monkeypatch):
    """A 4-point and an 8-point design on a 0 and a 20 deg channel: each
    channel builds one one-slot evaluator per design size, and every cell
    equals a direct evaluation."""
    designs = {(10.0, 0.0): reference_constellation("qam", 4),
               (10.0, 20.0): reference_constellation("psk", 8)}
    builds = count_builds(monkeypatch)
    report = mismatch_matrix(designs, [10.0], [0.0, 20.0], grid7)
    assert builds == [(1, 4), (1, 8)] * 2
    for d, dcell in enumerate(report.design_cells):
        for e, (snr, pnsd) in enumerate(report.eval_cells):
            want = ami_quadrature(designs[dcell], channel(snr, pnsd), grid7).bits
            assert report.bits[d, e] == want


def test_mismatch_on_one_jitter_class_builds_one_evaluator_per_size(grid7, monkeypatch):
    """Three 20-deg-class evaluation channels and designs of 4 and 8 points:
    one evaluator per design size scores every cell, rebound once per
    channel, and every cell equals a fresh evaluator's rate."""
    designs = {(10.0, 5.0): reference_constellation("qam", 4),
               (10.0, 10.0): reference_constellation("psk", 8),
               (12.0, 20.0): random_unit_power_constellation(np.random.default_rng(3))}
    builds = count_builds(monkeypatch)
    report = mismatch_matrix(designs, [10.0], [5.0, 10.0, 20.0], grid7)
    assert builds == [(1, 4), (1, 8)]
    for d, dcell in enumerate(report.design_cells):
        c = designs[dcell]
        for e, (snr, pnsd) in enumerate(report.eval_cells):
            ev = QuadEvaluator((channel(snr, pnsd),), grid7, c.size)
            assert report.bits[d, e] == ev.ami_bits(c.points[None])[0], (dcell, e)


def test_mismatch_off_grid_reference_is_the_column_best(two_designs, grid7):
    report = mismatch_matrix(two_designs, [8.0], [10.0], grid7)
    assert report.eval_cells == [(8.0, 10.0)]
    col = report.loss[:, 0]
    assert np.all(col >= 0.0)
    assert col.min() == 0.0


def test_mismatch_csv_sections(two_designs, grid7, tmp_path):
    report = mismatch_matrix(two_designs, [10.0], [0.0, 20.0], grid7)
    text = report.to_csv()
    lines = text.splitlines()
    assert lines[1] == "# section=bits"
    assert "# section=loss" in lines
    assert lines[2] == "design,snr10dB/pnsd0deg,snr10dB/pnsd20deg"
    first = lines[3].split(",")
    assert first[0] == "snr10dB/pnsd0deg"
    assert float(first[1]) == report.bits[0, 0]
    path = tmp_path / "mismatch.csv"
    report.save(path)
    assert path.read_text(encoding="ascii") == text


def test_mismatch_validates_inputs(two_designs, grid7):
    with pytest.raises(ValueError):
        mismatch_matrix({}, [10.0], [0.0], grid7)
    with pytest.raises(ValueError):
        mismatch_matrix(two_designs, [], [0.0], grid7)
    with pytest.raises(ValueError):
        mismatch_matrix(two_designs, [10.0], [], grid7)


def test_an_unresolvable_channel_fails_before_any_evaluator_is_built(psk8, grid7, monkeypatch):
    # 8-PSK at 5 deg: the k_n / k_phi cut falls at 138.2 dB, so 150 dB is
    # refused; at 150 dB, 0 deg (jitter-free) and 1 deg (k_phi = 3283, above
    # k_n / 1e12 = 2000) are fine and 5 deg is refused.
    builds = []
    real = QuadEvaluator.__init__
    monkeypatch.setattr(
        QuadEvaluator, "__init__", lambda ev, *args: builds.append(args) or real(ev, *args)
    )
    jobs = {
        "snr_sweep": lambda: snr_sweep(psk8, 5.0, [0.0, 12.0, 150.0], "AMI", grid7),
        "pnsd_sweep": lambda: pnsd_sweep(psk8, 150.0, [0.0, 1.0, 5.0], "AMI", grid7),
        "mismatch_matrix": lambda: mismatch_matrix({(12.0, 5.0): psk8}, [12.0, 150.0], [5.0], grid7),
        "campaign_cells": lambda: campaign_cells(4, [6.0, 150.0], [5.0], "AMI", grid7, tiny_config()),
    }
    built = {}
    for name, job in jobs.items():
        with pytest.raises(ValueError, match="too high"):
            job()
        built[name], builds[:] = len(builds), []
    assert built == dict.fromkeys(jobs, 0)


# --- pragmatic gap ---------------------------------------------------------


def test_gap_of_a_gray_map_is_small_and_nonnegative(psk8, grid7):
    gap = pragmatic_gap(psk8, psk8, 0.0, grid7, 2.5)
    assert -0.011 <= gap <= 0.5


def test_gap_validates_target(psk8, grid7):
    for bad in (0.0, -1.0, 3.0, 3.5):
        with pytest.raises(ValueError):
            pragmatic_gap(psk8, psk8, 0.0, grid7, bad)


def test_gap_rejects_unreachable_targets(psk8, grid7):
    # Heavy phase jitter caps the rate of a pure-phase design well below
    # 2.9 bits at any SNR in the bisection bracket.
    with pytest.raises(ValueError):
        pragmatic_gap(psk8, psk8, 25.0, grid7, 2.9)


def test_gap_rejects_targets_below_the_bracket(psk8, grid7):
    with pytest.raises(ValueError):
        pragmatic_gap(psk8, psk8, 0.0, grid7, 0.01)
