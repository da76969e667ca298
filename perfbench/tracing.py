"""Spans around phasecon's public entry points, recorded from outside the program.

`Tracer.install` replaces each entry point, in every phasecon module that
binds it, with a wrapper that records a span: name, start, end, the span
open when it was called (its parent), and a few counts taken from its
arguments or result.  Spans stay in memory until the run ends.  A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

QUAD_CALLS = ("capacity.quad.ami_bits", "capacity.quad.pami_bits")
QUAD_BUILD = "capacity.quad.build"
MC_CALLS = ("capacity.mc.ami", "capacity.mc.pami")
ANNEAL = "annealer.sa_optimize"
ANALYSIS = ("analysis.snr_sweep", "analysis.pnsd_sweep", "analysis.mismatch_matrix")
CLI = "cli.main"
MODEL_IO = ("model.save_constellation", "model.load_constellation")
COMPLEX_BYTES = 16

# name, unit, better: the per-layer metrics a traced run prints.
PER_LAYER = (
    ("capacity.quad.calls", "count", "higher"),
    ("capacity.quad.busy_s", "s", "lower"),
    ("capacity.quad.us_per_call", "us", "lower"),
    ("capacity.quad.nodes", "count", "lower"),
    ("capacity.quad.table_entries_per_s", "1/s", "higher"),
    ("capacity.quad.table_mb_computed", "MB", "lower"),
    ("capacity.quad.evaluator_builds", "count", "lower"),
    ("capacity.quad.evaluator_build_s", "s", "lower"),
    ("capacity.mc.calls", "count", "higher"),
    ("capacity.mc.samples", "count", "higher"),
    ("capacity.mc.busy_s", "s", "lower"),
    ("capacity.mc.us_per_sample", "us", "lower"),
    ("annealer.steps", "count", "higher"),
    ("annealer.busy_s", "s", "lower"),
    ("annealer.self_s", "s", "lower"),
    ("annealer.evals_per_step", "ratio", "lower"),
    ("annealer.swap_share", "ratio", "lower"),
    ("annealer.accept_rate.point", "ratio", "higher"),
    ("annealer.accept_rate.swap", "ratio", "higher"),
    ("annealer.last_improvement_step", "step", "lower"),
    ("analysis.points", "count", "higher"),
    ("analysis.busy_s", "s", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("cli.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("model.io_calls", "count", "higher"),
    ("model.io_s", "s", "lower"),
)


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _quad_info(args, kwargs, result) -> dict:
    evaluator, points = args[0], args[1]
    return {"rows": int(points.size), "nodes": int(evaluator.noise.size)}


def _mc_info(args, kwargs, result) -> dict:
    return {"samples": int(args[2] if len(args) > 2 else kwargs["n_samples"])}


def _anneal_info(args, kwargs, result) -> dict:
    trace = result[1]
    swap = trace.move_type == "swap"
    accepted = trace.accepted
    improved = np.flatnonzero(np.diff(trace.best_bits) > 0)
    return {
        "steps": int(trace.step.size),
        "swaps": int(swap.sum()),
        "swaps_accepted": int(accepted[swap].sum()),
        "points_accepted": int(accepted[~swap].sum()),
        "last_improvement": int(improved[-1] + 1) if improved.size else 0,
    }


def _curve_info(args, kwargs, result) -> dict:
    return {"points": int(result.xs.size)}


def _matrix_info(args, kwargs, result) -> dict:
    return {"points": int(result.bits.size)}


class Tracer:
    """Records spans while installed; `uninstall` restores every entry point."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, describe=None):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if describe is not None:
                span.info = describe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch_function(self, modules, fn, name: str, describe=None) -> None:
        wrapper = self._wrap(name, fn, describe)
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is fn]:
                self._undo.append((module, attr, fn))
                setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr: str, name: str, describe=None) -> None:
        fn = cls.__dict__[attr]
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, self._wrap(name, fn, describe))

    def install(self, pc) -> None:
        """Wrap the public entry points of the package `pc` and its modules."""
        modules = (pc, pc.model, pc.capacity, pc.annealer, pc.analysis, pc.cli)
        evaluator = pc.capacity.QuadEvaluator
        self._patch_method(evaluator, "__init__", QUAD_BUILD)
        self._patch_method(evaluator, "ami_bits", QUAD_CALLS[0], _quad_info)
        self._patch_method(evaluator, "pami_bits", QUAD_CALLS[1], _quad_info)
        functions = (
            (pc.capacity.ami_monte_carlo, MC_CALLS[0], _mc_info),
            (pc.capacity.pami_monte_carlo, MC_CALLS[1], _mc_info),
            (pc.annealer.sa_optimize, ANNEAL, _anneal_info),
            (pc.analysis.snr_sweep, ANALYSIS[0], _curve_info),
            (pc.analysis.pnsd_sweep, ANALYSIS[1], _curve_info),
            (pc.analysis.mismatch_matrix, ANALYSIS[2], _matrix_info),
            (pc.cli.main, CLI, None),
            (pc.model.save_constellation, MODEL_IO[0], None),
            (pc.model.load_constellation, MODEL_IO[1], None),
        )
        for fn, name, describe in functions:
            self._patch_function(modules, fn, name, describe)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end, **s.info}
            for s in self.spans
        ]

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of PER_LAYER, computed from the recorded spans."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_s[s.parent] += s.seconds

        def pick(names):
            names = (names,) if isinstance(names, str) else names
            return [i for i, s in enumerate(spans) if s.name in names]

        def busy(idx):
            return sum(spans[i].seconds for i in idx)

        def self_s(idx):
            return busy(idx) - sum(child_s[i] for i in idx)

        def total(idx, key):
            return sum(spans[i].info[key] for i in idx)

        def ratio(a, b):
            return a / b if b else 0.0

        quad, builds, mc = pick(QUAD_CALLS), pick(QUAD_BUILD), pick(MC_CALLS)
        anneal, analysis, cli, io = pick(ANNEAL), pick(ANALYSIS), pick(CLI), pick(MODEL_IO)
        entries = [spans[i].info["rows"] ** 2 * spans[i].info["nodes"] for i in quad]
        steps = total(anneal, "steps")
        swaps = total(anneal, "swaps")
        anneal_set = set(anneal)
        evals_in_anneal = sum(1 for i in quad if spans[i].parent in anneal_set)
        values = {
            "capacity.quad.calls": len(quad),
            "capacity.quad.busy_s": busy(quad),
            "capacity.quad.us_per_call": 1e6 * ratio(busy(quad), len(quad)),
            "capacity.quad.nodes": ratio(total(quad, "nodes"), len(quad)),
            "capacity.quad.table_entries_per_s": ratio(sum(entries), busy(quad)),
            "capacity.quad.table_mb_computed": max(entries, default=0) * COMPLEX_BYTES / 1e6,
            "capacity.quad.evaluator_builds": len(builds),
            "capacity.quad.evaluator_build_s": busy(builds),
            "capacity.mc.calls": len(mc),
            "capacity.mc.samples": total(mc, "samples"),
            "capacity.mc.busy_s": busy(mc),
            "capacity.mc.us_per_sample": 1e6 * ratio(busy(mc), total(mc, "samples")),
            "annealer.steps": steps,
            "annealer.busy_s": busy(anneal),
            "annealer.self_s": self_s(anneal),
            "annealer.evals_per_step": ratio(evals_in_anneal, steps),
            "annealer.swap_share": ratio(swaps, steps),
            "annealer.accept_rate.point": ratio(total(anneal, "points_accepted"), steps - swaps),
            "annealer.accept_rate.swap": ratio(total(anneal, "swaps_accepted"), swaps),
            "annealer.last_improvement_step": max(
                (spans[i].info["last_improvement"] for i in anneal), default=0
            ),
            "analysis.points": total(analysis, "points"),
            "analysis.busy_s": busy(analysis),
            "analysis.self_s": self_s(analysis),
            "cli.busy_s": busy(cli),
            "cli.self_s": self_s(cli),
            "model.io_calls": len(io),
            "model.io_s": busy(io),
        }
        return {name: values[name] for name, _, _ in PER_LAYER}
