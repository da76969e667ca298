"""Tests for the annealer: schedules, moves, acceptance, full runs."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from phasecon import (
    SAConfig,
    ami_quadrature,
    annealer,
    capacity,
    make_constellation,
    sa_optimize,
)
from phasecon.annealer import _pass_lengths
from phasecon.capacity import QuadEvaluator
from conftest import channel, is_gray, set_threads, spy_pools, spy_table_rows


def small_config(**over):
    """Short schedule so unit tests stay fast; defaults stay for acceptance."""
    base = dict(iterations=400, t_initial=0.05, t_final=1e-4, seed=5, reanneal_count=1)
    base.update(over)
    return SAConfig(**base)


# --- configuration ---------------------------------------------------------


def test_config_defaults_are_valid():
    cfg = SAConfig()
    assert cfg.iterations == 40000
    assert cfg.t_initial > cfg.t_final
    assert cfg.d_initial > cfg.d_final


def test_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        SAConfig(iterations=0)
    with pytest.raises(ValueError):
        SAConfig(t_initial=1e-5, t_final=0.05)
    with pytest.raises(ValueError):
        SAConfig(t_final=0.0)
    with pytest.raises(ValueError):
        SAConfig(d_initial=0.001, d_final=0.01)
    with pytest.raises(ValueError):
        SAConfig(d_final=0.0)
    with pytest.raises(ValueError):
        SAConfig(label_swap_prob=1.5)
    with pytest.raises(ValueError):
        SAConfig(label_swap_prob=-0.1)
    with pytest.raises(ValueError):
        SAConfig(reanneal_count=-1)
    with pytest.raises(ValueError):
        SAConfig(iterations=2, reanneal_count=2)
    for field in ("t_initial", "d_initial"):
        with pytest.raises(ValueError):
            SAConfig(**{field: math.inf})


def test_config_allows_frozen_temperature():
    cfg = SAConfig(t_initial=1e-12, t_final=1e-12)
    assert cfg.t_initial == cfg.t_final


def test_single_step_cooling_is_flat(grid7):
    cfg = SAConfig(iterations=1, reanneal_count=0)
    _, trace = sa_optimize(4, channel(10.0, 0.0), "AMI", grid7, cfg)
    assert trace.temperature.tolist() == [cfg.t_initial]


# --- moves -----------------------------------------------------------------


def _swapped(c, i, j):
    labels = c.labels.copy()
    labels[i], labels[j] = labels[j], labels[i]
    return make_constellation(c.points, labels)


def _point_moves(grid, monkeypatch):
    """Run a short AMI anneal and return its config, its trace, and each
    step's (state before the step, candidate scored at the step)."""
    scored = []
    original = QuadEvaluator.ami_bits
    # sa_optimize scores each candidate as a stack of one set.
    monkeypatch.setattr(
        QuadEvaluator, "ami_bits",
        lambda ev, pts: scored.append(pts[0].copy()) or original(ev, pts),
    )
    cfg = small_config(iterations=200, reanneal_count=0)
    _, trace = sa_optimize(8, channel(10.0, 10.0), "AMI", grid, cfg)
    assert len(scored) == cfg.iterations + 1  # no collisions in this run
    moves, current = [], scored[0]
    for k, cand in enumerate(scored[1:]):
        moves.append((current, cand))
        if trace.accepted[k]:
            current = cand
    return cfg, trace, moves


def _undo_rescale(current, cand):
    """Indices where `cand` differs from `current` once its common scale
    factor is divided out, and the candidate so unscaled."""
    ratio = cand / current
    common = np.median(ratio.real)
    moved = np.flatnonzero(np.abs(ratio - common) > 1e-9)
    return moved, cand / common


def test_perturb_moves_one_point_then_rescales(grid7, monkeypatch):
    _, _, moves = _point_moves(grid7, monkeypatch)
    for current, cand in moves:
        moved, unscaled = _undo_rescale(current, cand)
        assert moved.size == 1
        np.testing.assert_allclose(np.delete(unscaled, moved), np.delete(current, moved), rtol=1e-12)


def test_perturb_keeps_unit_power_over_random_moves(grid7, monkeypatch):
    _, _, moves = _point_moves(grid7, monkeypatch)
    for _, cand in moves:
        assert np.mean(np.abs(cand) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_displacement_schedule_endpoints_and_monotonicity(grid7, monkeypatch):
    cfg, _, moves = _point_moves(grid7, monkeypatch)
    n = cfg.iterations
    budget = cfg.d_initial * (cfg.d_final / cfg.d_initial) ** (np.arange(n) / (n - 1))
    steps = []
    for k, (current, cand) in enumerate(moves):
        moved, unscaled = _undo_rescale(current, cand)
        steps.append(abs(unscaled[moved[0]] - current[moved[0]]))
        assert steps[-1] <= budget[k] * (1.0 + 1e-9), (k, steps[-1], budget[k])
    # The budget shrinks from d_initial to d_final, and the moves with it.
    assert max(steps[:20]) > 10 * max(steps[-20:])


def test_swap_labels_leaves_ami_alone(psk8, grid7):
    p = channel(10.0, 10.0)
    swapped = _swapped(psk8, 0, 4)
    assert ami_quadrature(swapped, p, grid7).bits == ami_quadrature(psk8, p, grid7).bits


def test_swap_labels_can_break_a_gray_map(psk8):
    assert is_gray(psk8)
    assert not is_gray(_swapped(psk8, 0, 4))


def _spy_scored_stacks(monkeypatch, log):
    """From now on, append to `log` None for each schedule value and a copy
    of each stack `ami_bits` scores; a step starts with two schedule values,
    its temperature and its displacement budget."""
    geometric, ami_bits = annealer._geometric, QuadEvaluator.ami_bits
    monkeypatch.setattr(annealer, "_geometric", lambda *a: log.append(None) or geometric(*a))
    monkeypatch.setattr(
        QuadEvaluator, "ami_bits", lambda ev, pts: log.append(pts.copy()) or ami_bits(ev, pts)
    )


def _scored_steps(log):
    """(step, stack) of each stack in a `_spy_scored_stacks` log; the score
    of the start is at step -1."""
    scored, values = [], 0
    for entry in log:
        if entry is None:
            values += 1
        else:
            scored.append((values // 2 - 1, entry))
    return scored


def test_collided_candidates_are_never_accepted(grid7, monkeypatch):
    """With the collision distance raised to 0.3, collisions are frequent.
    A lockstep group of three chains scores its collided candidates with the
    others and ignores them; a lone run scores no collided candidate; either
    way a collided candidate is never accepted, and each chain of the group
    equals its lone run in points, labels and every trace column."""
    min_dist = 0.3
    monkeypatch.setattr(annealer, "COLLISION_MIN_DIST", min_dist)
    log = []
    _spy_scored_stacks(monkeypatch, log)
    cfg = small_config(iterations=300, reanneal_count=1)
    channels, seeds = [channel(snr, 0.0) for snr in (6.0, 9.0, 12.0)], [3, 4, 5]
    group = annealer._anneal_chains(8, channels, "AMI", grid7, cfg, seeds)
    # A step the group does not score is one where every chain collided.
    collided = np.ones((3, cfg.iterations), dtype=bool)
    first, second = np.triu_indices(8, 1)
    for step, stack in _scored_steps(log)[1:]:
        gaps = np.abs(stack[:, first] - stack[:, second])
        collided[:, step] = np.minimum.reduce(gaps, axis=1) < min_dist
    assert 0.1 < collided.mean() < 0.9, collided.mean()
    assert (collided.any(axis=0) & ~collided.all(axis=0)).sum() > 10
    columns = ("step", "temperature", "current_bits", "best_bits", "accepted", "move_type")
    for k, (params, seed) in enumerate(zip(channels, seeds)):
        best, trace = group[k]
        assert not trace.accepted[collided[k]].any(), seed
        log.clear()
        lone, want = sa_optimize(8, params, "AMI", grid7, replace(cfg, seed=seed))
        scored = [step for step, _ in _scored_steps(log)[1:]]
        assert scored == np.flatnonzero(~collided[k]).tolist(), seed
        assert np.array_equal(best.points, lone.points), seed
        assert np.array_equal(best.labels, lone.labels), seed
        for column in columns:
            assert np.array_equal(getattr(trace, column), getattr(want, column)), (seed, column)


# --- full runs -------------------------------------------------------------


def test_optimize_validates_arguments(psk8, grid7):
    p = channel(10.0, 10.0)
    for bad_size in (0, 1, 3, 6):
        with pytest.raises(ValueError):
            sa_optimize(bad_size, p, "AMI", grid7, small_config())
    with pytest.raises(ValueError):
        sa_optimize(8, p, "ami", grid7, small_config())
    with pytest.raises(ValueError):
        sa_optimize(4, p, "AMI", grid7, small_config(), initial=psk8)


def test_optimize_warns_when_labels_cannot_move(grid7):
    with pytest.warns(UserWarning):
        sa_optimize(4, channel(8.0, 0.0), "PAMI", grid7, small_config(iterations=8, label_swap_prob=0.0))


def test_optimize_warns_once_above_the_wide_phase_spread(grid7):
    cfg = small_config(iterations=10, reanneal_count=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sa_optimize(4, channel(10.0, 45.0), "AMI", grid7, cfg)
    assert [str(w.message)[:31] for w in caught] == ["phase-noise spread 45.0 deg exc"]
    assert caught[0].filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sa_optimize(4, channel(10.0, 20.0), "AMI", grid7, cfg)


def test_optimize_is_reproducible(grid7):
    p = channel(10.0, 10.0)
    a, ta = sa_optimize(4, p, "AMI", grid7, small_config())
    b, tb = sa_optimize(4, p, "AMI", grid7, small_config())
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(ta.current_bits, tb.current_bits)
    np.testing.assert_array_equal(ta.accepted, tb.accepted)
    c, _ = sa_optimize(4, p, "AMI", grid7, small_config(seed=6))
    assert not np.array_equal(a.points, c.points)


def test_trace_shape_and_best_monotonicity(grid7):
    cfg = small_config()
    best, trace = sa_optimize(4, channel(10.0, 10.0), "AMI", grid7, cfg)
    assert trace.step.size == cfg.iterations
    assert np.array_equal(trace.step, np.arange(cfg.iterations))
    assert np.all(np.diff(trace.best_bits) >= 0.0)
    assert np.all(trace.best_bits >= trace.current_bits - 1e-12)
    assert set(trace.move_type) == {"point"}
    assert trace.temperature[0] == pytest.approx(cfg.t_initial)


def test_returned_best_matches_trace_score(grid7):
    best, trace = sa_optimize(4, channel(10.0, 10.0), "AMI", grid7, small_config())
    rescored = ami_quadrature(best, channel(10.0, 10.0), grid7).bits
    assert rescored == pytest.approx(trace.best_bits[-1], abs=1e-12)
    assert np.mean(np.abs(best.points) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_pami_runs_use_both_move_types(grid7):
    cfg = small_config(label_swap_prob=0.5)
    _, trace = sa_optimize(4, channel(10.0, 10.0), "PAMI", grid7, cfg)
    assert set(trace.move_type) == {"point", "swap"}


def test_warm_start_never_ends_below_its_start(psk8, grid7):
    p = channel(12.0, 20.0)
    start_bits = ami_quadrature(psk8, p, grid7).bits
    best, _ = sa_optimize(8, p, "AMI", grid7, small_config(iterations=300, reanneal_count=0), initial=psk8)
    assert ami_quadrature(best, p, grid7).bits >= start_bits - 1e-12


def test_frozen_temperature_never_goes_downhill(grid7):
    cfg = small_config(t_initial=1e-12, t_final=1e-12)
    _, trace = sa_optimize(4, channel(10.0, 5.0), "AMI", grid7, cfg)
    assert np.all(np.diff(trace.current_bits) >= -1e-10)


def test_two_point_search_finds_a_good_pair(grid7):
    best, _ = sa_optimize(2, channel(10.0, 0.0), "AMI", grid7, small_config(iterations=600))
    assert ami_quadrature(best, channel(10.0, 0.0), grid7).bits >= 0.97


def test_trace_csv_round_trips(grid7, tmp_path):
    _, trace = sa_optimize(4, channel(10.0, 10.0), "AMI", grid7, small_config(iterations=20, reanneal_count=0))
    text = trace.to_csv()
    lines = text.splitlines()
    assert lines[0] == "step,temperature,current_bits,best_bits,accepted,move_type"
    assert len(lines) == 21
    row = lines[3].split(",")
    assert int(row[0]) == 2
    assert float(row[2]) == trace.current_bits[2]
    path = tmp_path / "trace.csv"
    trace.save(path)
    assert path.read_text(encoding="ascii") == text


# --- golden runs -------------------------------------------------------------

# Design fingerprint, final best rate, accepted-move count and step count.
# The two 300-step runs were recorded from the symbol-major quadrature
# kernel; the kernel sums in another order now, so rates may move by
# rounding (1e-12 bits at most), but every accept decision and hence the
# design must be the same.  The two longer runs were recorded before the
# evaluator reused its work arrays: the PAMI one re-heats twice and accepts
# 7 of its 101 label swaps.
GOLDEN_RUNS = [
    ("PAMI", 12.0, 20.0, 11, "4b2d4323785bc464", 2.505483222938205, 158, 300),
    ("AMI", 9.0, 0.0, 12, "b718d1e80b985175", 2.5333537771275947, 181, 300),
    ("AMI", 9.0, 0.0, 3, "a84f17762373047c", 2.6961792200008627, 1276, 2000),
    ("PAMI", 12.0, 20.0, 7, "84984d462484dc2c", 2.622109754114839, 509, 1000),
]


@pytest.mark.parametrize(
    "objective, snr, pnsd, seed, fingerprint, best_bits, accepted, iterations", GOLDEN_RUNS
)
def test_golden_runs_are_unchanged(
    objective, snr, pnsd, seed, fingerprint, best_bits, accepted, iterations, grid7
):
    cfg = SAConfig(iterations=iterations, seed=seed)
    best, trace = sa_optimize(8, channel(snr, pnsd), objective, grid7, cfg)
    assert best.fingerprint() == fingerprint
    assert abs(trace.best_bits[-1] - best_bits) <= 1e-12
    assert int(trace.accepted.sum()) == accepted


@pytest.mark.parametrize("objective", ["AMI", "PAMI"])
def test_annealing_honours_the_thread_setting(objective, grid7, monkeypatch):
    """sa_optimize scores its candidates on PHASECON_THREADS threads, read
    when its evaluator is built, and the design does not depend on it."""
    monkeypatch.setattr(capacity, "_MIN_BLOCK_ENTRIES", 1)
    pools = spy_pools(monkeypatch)
    cfg = SAConfig(iterations=40, seed=9)
    runs = []
    for threads in (1, 3):
        set_threads(monkeypatch, threads)
        best, trace = sa_optimize(32, channel(14.0, 10.0), objective, grid7, cfg)
        runs.append((best.fingerprint(), trace.to_csv()))
        # One call per scored candidate, every one split into three blocks.
        assert pools == ([] if threads == 1 else [3] * len(pools)), threads
    assert len(pools) > cfg.iterations // 2
    assert runs[1] == runs[0]


def test_table_passes_are_bounded_by_point_moves_and_reheats(grid7, monkeypatch):
    """Over swap-heavy 8-point PAMI anneals, the evaluations that run a table
    pass number the scored point moves plus the first evaluation, plus at
    most one per re-heat: label swaps reuse the current state's table, but
    a re-heat from a best state with other points leaves none to reuse."""
    passes, scored = [], []
    original_pass, original_pami = QuadEvaluator._table_pass, QuadEvaluator.pami_bits
    monkeypatch.setattr(
        QuadEvaluator, "_table_pass", lambda *a: passes.append(len(scored)) or original_pass(*a)
    )
    monkeypatch.setattr(
        QuadEvaluator, "pami_bits", lambda *a: scored.append(1) or original_pami(*a)
    )
    reheated_away = []
    for seed in range(4):
        passes.clear()
        scored.clear()
        cfg = SAConfig(iterations=400, seed=seed, label_swap_prob=0.3)
        _, trace = sa_optimize(8, channel(12.0, 20.0), "PAMI", grid7, cfg)
        point_moves = len(scored) - 1 - int((trace.move_type == "swap").sum())
        with_pass = len(set(passes))
        assert point_moves + 1 <= with_pass <= point_moves + 1 + cfg.reanneal_count, seed
        starts = np.cumsum(_pass_lengths(cfg.iterations, cfg.reanneal_count + 1))[:-1]
        reheated_away += [trace.current_bits[s - 1] != trace.best_bits[s - 1] for s in starts]
    # The runs cover a re-heat from a best state that was not the current one.
    assert any(reheated_away)


def test_pami_anneal_allocates_less_than_a_table_per_step(grid7, monkeypatch):
    """After warm-up, the memory each PAMI evaluation raises above its start
    sums to less than one M x M x G float64 table per step: the evaluator
    writes into its own work arrays instead of fresh tables."""
    params, steps = channel(12.0, 20.0), 200
    table_bytes = 8 * 8 * grid7.degree**3 * 8
    sa_optimize(8, params, "PAMI", grid7, SAConfig(iterations=20, seed=1))
    rises = []
    original = QuadEvaluator.pami_bits

    def traced(ev, *args, **kwargs):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = original(ev, *args, **kwargs)
        rises.append(tracemalloc.get_traced_memory()[1] - start)
        return result

    monkeypatch.setattr(QuadEvaluator, "pami_bits", traced)
    tracemalloc.start()
    try:
        sa_optimize(8, params, "PAMI", grid7, SAConfig(iterations=steps, seed=2))
    finally:
        tracemalloc.stop()
    assert len(rises) == steps + 1
    assert sum(rises) < steps * table_bytes, sum(rises) / table_bytes


def test_label_swaps_rebuild_the_table_only_after_a_reheat(grid7, monkeypatch):
    passes, scored = [], []
    original_pass, original_pami = QuadEvaluator._table_pass, QuadEvaluator.pami_bits

    def counted_pass(*args, **kwargs):
        passes.append(len(scored))
        return original_pass(*args, **kwargs)

    def counted_pami(*args, **kwargs):
        scored.append(1)
        return original_pami(*args, **kwargs)

    monkeypatch.setattr(QuadEvaluator, "_table_pass", counted_pass)
    monkeypatch.setattr(QuadEvaluator, "pami_bits", counted_pami)
    cfg = SAConfig(iterations=300, seed=42, label_swap_prob=0.3)
    _, trace = sa_optimize(8, channel(12.0, 20.0), "PAMI", grid7, cfg)
    swap = trace.move_type == "swap"
    # Call k + 1 scores step k (no collisions in this run); a table pass
    # during that call must be a point move's, but for the swap that opens
    # the third pass: that pass is re-heated from a best state that was not
    # the current one, so the swap's evaluator holds another state's table.
    assert len(scored) == trace.step.size + 1
    assert [k - 2 for k in passes if k > 1 and swap[k - 2]] == [200]
    assert len(passes) == 2 + int((~swap).sum())
    # The run covers a swap after a rejected point move.
    after_reject = swap[1:] & ~swap[:-1] & ~trace.accepted[:-1]
    assert after_reject.any()
    assert swap[200] and trace.current_bits[199] != trace.best_bits[199]


@pytest.mark.parametrize("size", [8, 32])
def test_swap_heavy_pami_anneal_passes_one_table_per_point_move(size, grid7, monkeypatch):
    """Without re-heats, the table passes of a swap-heavy PAMI anneal cover
    one table for the first evaluation and one per scored point move: label
    swaps reuse the table kept for the current state, in the tiles of an
    8-point evaluator.  A 32-point evaluator's table spans several tiles; it
    streams its first call and keeps nothing, so a swap that is its second
    call passes one table more."""
    rows, calls, original_pami = spy_table_rows(monkeypatch), [], QuadEvaluator.pami_bits

    def counted_pami(ev, *args):
        before = sum(rows)
        bits = original_pami(ev, *args)
        calls.append((ev, sum(rows) - before))
        return bits

    monkeypatch.setattr(QuadEvaluator, "pami_bits", counted_pami)
    cfg = SAConfig(iterations=150, seed=3, label_swap_prob=0.5, reanneal_count=0)
    _, trace = sa_optimize(size, channel(14.0, 20.0), "PAMI", grid7, cfg)
    # Call k + 1 scores step k: no step collides.
    assert len(calls) == trace.step.size + 1
    swap = np.concatenate([[False], trace.move_type == "swap"])
    nth, swaps_passed = {}, 0
    for k, (ev, passed) in enumerate(calls):
        nth[ev] = nth.get(ev, 0) + 1
        streamed_before = not ev._one_tile and nth[ev] == 2
        assert passed == (size if not swap[k] or streamed_before else 0), k
        swaps_passed += bool(swap[k] and passed)
    assert swaps_passed == (size == 32) and len(nth) == 2
    # The run covers swaps, and point moves accepted and rejected.
    moves = ~swap[1:]
    assert swap.any() and (moves & trace.accepted).any() and (moves & ~trace.accepted).any()
