"""Workload `sweep_cells`: closed-loop episodes from the peak_sweep.cfg grid.

This is the paper's study (`magplan sweep`). The workload seed orders the
grid's seed columns; each column runs all five w_h values with the same
episode seed, as `simloop.sweep` pairs them. Every episode is stepped one
`EpisodeRunner.step` (plan, advance_truth, measure, assimilate) at a time,
then, as `magplan run` does, `compute_metrics`, `write_trace` and
`write_metrics` run on it. Every episode is checked against the reference
fingerprint in `fingerprint.json`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
from dataclasses import replace
from time import perf_counter

import magplan
from magplan import config, simloop
from magplan.planner import PlannerWeights

CONFIG = os.path.join("configs", "peak_sweep.cfg")
FINGERPRINT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fingerprint.json")
# The refactor rule of the ROADMAP: identical actions, and EER and entropy
# within this many bits when the order of float operations changes.
BITS_TOL = 1e-12
REFERENCE = "small"


class _TimedRunner(simloop.EpisodeRunner):
    """EpisodeRunner that records the wall time of each plan() call."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.plan_ms: list[float] = []

    def plan(self):
        t0 = perf_counter()
        selection = super().plan()
        self.plan_ms.append((perf_counter() - t0) * 1e3)
        return selection


def setup(ctx):
    path = os.path.join(ctx.root, CONFIG)
    cfg = config.load_config(path)
    base = config.build_episode_config(cfg, os.path.dirname(path))
    w_h_values, seeds = config.sweep_params(cfg)
    order = list(seeds)
    random.Random(ctx.seed).shuffle(order)
    cells = [(w_h, seed) for seed in order for w_h in w_h_values]
    first = _TimedRunner(_cell_config(base, *cells[0]))
    ctx.provenance["config_hash"] = {CONFIG: config.config_hash(cfg)}
    return {"cfg": cfg, "base": base, "cells": cells, "first": first,
            "column": len(w_h_values)}


def prepare(ctx) -> None:
    """Parse the reference before timing starts."""
    load_reference()


def _cell_config(base, w_h, seed):
    return replace(
        base,
        weights=PlannerWeights(w_h, base.weights.w_d, base.weights.alpha),
        seed=int(seed),
    )


def cell_key(w_h: float, seed: int) -> str:
    return f"w_h={w_h!r},seed={seed}"


def run_cell(state, ctx, w_h, seed, runner=None):
    """One episode plus its metrics and output files.

    Returns (record, step_ms, plan_ms, episode_s); record is None when a
    step raised.
    """
    t_episode = ctx.clock()
    if runner is None:
        runner = _TimedRunner(_cell_config(state["base"], w_h, seed))
    cfg = runner.cfg
    step_ms: list[float] = []
    try:
        while runner.step_index < cfg.step_budget and not runner.reached_goal:
            ctx.op()
            t0 = perf_counter()
            try:
                runner.step()
            finally:
                step_ms.append((perf_counter() - t0) * 1e3)
    except simloop.EpisodeError as exc:
        ctx.note(f"{cell_key(w_h, seed)} failed: {exc}")
        return None, step_ms, runner.plan_ms, ctx.clock() - t_episode
    trace = simloop.EpisodeTrace(tuple(runner.rows), runner.reached_goal, len(cfg.actions))
    metrics = simloop.compute_metrics(trace)
    prov = {
        "config_hash": config.config_hash(state["cfg"]),
        "seed": str(seed),
        "magplan_version": magplan.__version__,
        "w_h": repr(float(w_h)),
    }
    trace_path = os.path.join(ctx.out_dir, "trace.csv")
    simloop.write_trace(trace, trace_path, prov)
    simloop.write_metrics(metrics, os.path.join(ctx.out_dir, "metrics.csv"), prov)
    episode_s = ctx.clock() - t_episode
    with open(trace_path, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    record = {
        "actions": "".join(str(r.action_index) for r in trace.rows),
        "steps": len(trace),
        "reached_goal": trace.reached_goal,
        "trace_sha256": sha,
        "entropy_bits": [r.entropy_bits for r in trace.rows],
        "eer_bits": [list(r.eer_bits) for r in trace.rows],
    }
    return record, step_ms, runner.plan_ms, episode_s


@functools.cache
def load_reference():
    with open(FINGERPRINT, "r", encoding="ascii") as fh:
        return json.load(fh)["episodes"]


def _bits_apart(got: float, want: float) -> float:
    if got == want or (math.isnan(got) and math.isnan(want)):
        return 0.0
    d = abs(got - want)
    return math.inf if math.isnan(d) else d


def check(record, ref) -> tuple[list[str], bool]:
    """Mismatches against the reference episode, and trace byte-identity."""
    problems = []
    for key in ("actions", "steps", "reached_goal"):
        if record[key] != ref[key]:
            problems.append(f"{key} differ")
    if not problems:
        got = [record["entropy_bits"]] + [list(col) for col in zip(*record["eer_bits"])]
        want = [ref["entropy_bits"]] + [list(col) for col in zip(*ref["eer_bits"])]
        worst = max(
            _bits_apart(g, w) for gs, ws in zip(got, want) for g, w in zip(gs, ws)
        )
        if worst > BITS_TOL:
            problems.append(f"entropy/EER differ by {worst:.3g} bits")
    return problems, record["trace_sha256"] == ref["trace_sha256"]


def _episodes(state, ctx, cells, deadline=None):
    """Run cells in order (cycling) until the list or the deadline ends."""
    out = {"attempted": 0, "failed": 0, "step_ms": [], "plan_ms": [],
           "episode_s": [], "episode_refs": 0.0, "identical": 0, "episodes": 0}
    runner = state.pop("first", None)
    i = 0
    while True:
        if deadline is None and i == len(cells):
            break
        if deadline is not None and i > 0 and perf_counter() >= deadline:
            break
        w_h, seed = cells[i % len(cells)]
        i += 1
        record, step_ms, plan_ms, episode_s = run_cell(state, ctx, w_h, seed, runner)
        runner = None
        out["step_ms"] += step_ms
        out["plan_ms"] += plan_ms
        out["attempted"] += len(step_ms) + 1
        if record is None:
            out["failed"] += 2  # the step that raised, and the episode's check
            continue
        out["episodes"] += 1
        out["episode_s"].append(episode_s)
        out["episode_refs"] += ctx.ref_units(episode_s)
        problems, identical = check(record, load_reference()[cell_key(w_h, seed)])
        out["identical"] += identical
        if problems:
            out["failed"] += 1
            ctx.note(f"{cell_key(w_h, seed)} fingerprint mismatch: {'; '.join(problems)}")
    return out


def measure(state, ctx, deadline):
    out = _episodes(state, ctx, state["cells"], deadline)
    items_s = sum(out["episode_s"])
    return {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "op_ms": out["step_ms"],
        "items": out["episodes"],
        "items_refs": out["episode_refs"],
        "report": {
            "step_ms_p50": (ctx.pct(out["step_ms"], 50), "ms"),
            "step_ms_p90": (ctx.pct(out["step_ms"], 90), "ms"),
            "plan_ms_p50": (ctx.pct(out["plan_ms"], 50), "ms"),
            "plan_ms_p90": (ctx.pct(out["plan_ms"], 90), "ms"),
            "episodes_per_s": (out["episodes"] / items_s if items_s else 0.0, "1/s"),
            "episodes": (out["episodes"], "count"),
            "steps": (len(out["step_ms"]), "count"),
            "trace_identical": (out["identical"], "count"),
        },
    }


def fixed_pass(ctx):
    """The first seed column of this workload seed: all five w_h values."""
    fresh = setup(ctx)
    out = _episodes(fresh, ctx, fresh["cells"][: fresh["column"]])
    return out["attempted"], out["failed"]


def record_fingerprint(ctx) -> str:
    """Run every cell of the grid once and write the reference file."""
    state = setup(ctx)
    state.pop("first")
    episodes = {}
    for w_h, seed in sorted(state["cells"], key=lambda c: (c[0], c[1])):
        record, _, _, _ = run_cell(state, ctx, w_h, seed)
        if record is None:
            raise RuntimeError(f"cell {cell_key(w_h, seed)} failed")
        episodes[cell_key(w_h, seed)] = record
    head = {"config": CONFIG, "config_hash": config.config_hash(state["cfg"])}
    lines = [f"{json.dumps(k)}:{json.dumps(v, separators=(',', ':'))}"
             for k, v in episodes.items()]
    with open(FINGERPRINT, "w", encoding="ascii") as fh:
        fh.write(json.dumps(head)[:-1] + ',"episodes":{\n')
        fh.write(",\n".join(lines) + "\n}}\n")
    return FINGERPRINT
