"""Workload `dense_filter`: the particle filter alone at N=2000, no planner.

The scenario of the Kalman acceptance test: a steep ramp map that is linear
in x, stationary control, so the belief stays Gaussian and its entropy has
a closed form. Each filter run (one per derived seed) makes three
assimilations through `pflocal.predict/update`, `infogain.entropy_posterior`,
`pflocal.estimate` and `pflocal.resample_if_needed`. `entropy_posterior`
builds an N x N pairwise log-density, which is the one-large-matrix use of
the same functions that `sweep_cells` calls at M x M.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from magplan import infogain, pflocal
from magplan.magmap import MagMap
from magplan.models import ControlInput, ModelSet, MotionNoise, Pose, SensorNoise

N_PARTICLES = 2000
STEPS = 3
DT = 0.1
RAMP_BASE = 25000.0
RAMP_X0 = -2.0
SLOPE = 3000.0  # nT per metre along x
X_TRUE = 6.0
PRIOR_STD = (0.05, 0.03, 0.01)
KERNELS = MotionNoise(0.02, 0.01, 0.01)
SENSOR = SensorNoise(150.0)
# The acceptance test's bound on the mean error against the closed form.
MEAN_ERROR_BITS = 0.2
REFERENCE = "stream"


def kalman_entropy_bits() -> float:
    """Closed-form posterior entropy after STEPS diffuse+measure cycles."""
    vx, vy, vt = (s * s for s in PRIOR_STD)
    for _ in range(STEPS):
        vx += KERNELS.sigma_x**2
        vy += KERNELS.sigma_y**2
        vt += KERNELS.sigma_theta**2
        vx = 1.0 / (1.0 / vx + SLOPE**2 / SENSOR.sigma_z**2)
    return 0.5 * math.log2((2.0 * math.pi * math.e) ** 3 * vx * vy * vt)


def _init(ctx, k: int):
    streams = np.random.SeedSequence([ctx.seed, k]).spawn(2)
    b = pflocal.init(
        Pose(X_TRUE, 0.0, 0.0), np.diag(np.square(PRIOR_STD)), N_PARTICLES, streams[0]
    )
    return b, np.random.default_rng(streams[1])


def setup(ctx):
    xs = RAMP_X0 + 0.1 * np.arange(221)
    grid = MagMap((RAMP_X0, -2.0), 0.1, np.tile(RAMP_BASE + SLOPE * (xs - RAMP_X0), (41, 1)))
    models = ModelSet(KERNELS, SENSOR, DT)
    return {"grid": grid, "models": models, "first": _init(ctx, 0), "next_k": 1}


def _filter_run(state, ctx, assim_ms):
    """One filter run of STEPS assimilations; returns (final bits, failures)."""
    if "first" in state:
        b, z_rng = state.pop("first")
    else:
        b, z_rng = _init(ctx, state["next_k"])
        state["next_k"] += 1
    grid, models = state["grid"], state["models"]
    u = ControlInput(0.0, 0.0)
    bits = math.nan
    failures = 0
    for step in range(STEPS):
        z = RAMP_BASE + SLOPE * (X_TRUE - RAMP_X0) + z_rng.normal(0.0, SENSOR.sigma_z)
        ctx.op()
        t0 = perf_counter()
        try:
            prev = b
            b = pflocal.predict(b, u, DT, KERNELS)
            b = pflocal.update(b, z, grid, SENSOR)
            bits = infogain.entropy_posterior(prev, b, z, u, grid, models).bits
            summary = pflocal.estimate(b)
            b = pflocal.resample_if_needed(b, b.n / 2.0)
        except Exception as exc:  # a failed operation is counted, not fatal
            ctx.note(f"assimilation failed: {type(exc).__name__}: {exc}")
            return math.nan, failures + STEPS - step  # the rest never ran
        finally:
            assim_ms.append((perf_counter() - t0) * 1e3)
        finite = (
            math.isfinite(bits)
            and math.isfinite(summary.mean.x)
            and math.isfinite(summary.mean.y)
            and bool(np.all(np.isfinite(summary.covariance)))
        )
        failures += not finite
    return bits, failures


def _runs(state, ctx, n_runs=None, deadline=None):
    assim_ms: list[float] = []
    errors: list[float] = []
    run_s: list[float] = []
    run_refs = 0.0
    failed = 0
    want = kalman_entropy_bits()
    while (n_runs is None or len(run_s) < n_runs) and (
        deadline is None or not run_s or perf_counter() < deadline
    ):
        t0 = ctx.clock()
        bits, failures = _filter_run(state, ctx, assim_ms)
        run_s.append(ctx.clock() - t0)
        run_refs += ctx.ref_units(run_s[-1])
        failed += failures
        errors.append(bits - want)
    attempted = len(run_s) * STEPS + 1
    mean_error = float(np.mean(errors))
    if not abs(mean_error) <= MEAN_ERROR_BITS:
        failed += 1
        ctx.note(f"mean entropy error {mean_error:.4f} bits exceeds {MEAN_ERROR_BITS}")
    return {"attempted": attempted, "failed": failed, "assim_ms": assim_ms,
            "run_s": run_s, "run_refs": run_refs, "mean_error": mean_error}


def measure(state, ctx, deadline):
    out = _runs(state, ctx, deadline=deadline)
    return {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "op_ms": out["assim_ms"],
        "items": len(out["run_s"]),
        "items_refs": out["run_refs"],
        "report": {
            "assimilate_ms_p50": (ctx.pct(out["assim_ms"], 50), "ms"),
            "assimilations": (len(out["assim_ms"]), "count"),
            "filter_runs": (len(out["run_s"]), "count"),
            "mean_entropy_error_bits": (out["mean_error"], "bits"),
        },
    }


def fixed_pass(ctx):
    """Set-up plus three filter runs (nine assimilations)."""
    out = _runs(setup(ctx), ctx, n_runs=3)
    return out["attempted"], out["failed"]
