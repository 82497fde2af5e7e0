"""Workload `calibrate`: Tolles-Lawson calibration of a 10,000-row maglog.

The only workload that reaches `tlcal` and file parsing. A noise-free log
whose readings obey the 20-term interference model is synthesised and
written once before timing, and is not counted as set-up. Each timed pass is
`tlcal.load_maglog`, `tlcal.fit` and `tlcal.compensate_log`, and must
recover the coefficients to 1e-6 relative error, as the acceptance test
requires. The workload seed perturbs the coefficients and the phases of
the attitude, speed and ambient-field profiles.
"""

from __future__ import annotations

import math
import os
import random
from time import perf_counter

import numpy as np

from magplan import tlcal

ROWS = 10_000
DT = 0.1
# Coefficients of the acceptance test, in tlcal's ordering: permanent (3),
# induced (6), eddy (9), bias, speed.
EPS_STAR = (
    12.0, -8.0, 5.0,
    4e-3, -2.5e-3, 3e-3, 1.2e-3, -1.5e-3, 8e-4,
    1e-3, -6e-4, 4e-4, -9e-4, 5e-4, 1.1e-3, -3e-4, 7e-4, -2e-4,
    30.0,
    5.0,
)
REL_TOL = 1e-6
LOG_NAME = "calibration.maglog"
REFERENCE = "parse"


def _draws(seed: int) -> tuple[list[float], list[float]]:
    """The seed's coefficients and profile phases."""
    rng = random.Random(seed)
    eps = [e * rng.uniform(0.8, 1.2) for e in EPS_STAR]
    return eps, [rng.uniform(0.0, 2.0 * math.pi) for _ in range(4)]


def synthesize(seed: int) -> list[list[float]]:
    """`maglog v1` rows, with the be_truth column, for one seed.

    The total reading solves B_t = B_e + p + q * B_t, where p collects the
    terms of the model that do not scale with B_t and q those that do; the
    vector channel is the attitude's direction cosines times B_t.
    """
    eps, ph = _draws(seed)

    def attitude(t: float) -> tuple[float, float, float]:
        azim = 0.9 * t + 0.6 * math.sin(1.7 * t + ph[0])
        incl = 0.5 + 0.45 * math.sin(1.1 * t + ph[1])
        return (math.cos(incl) * math.cos(azim), math.cos(incl) * math.sin(azim),
                math.sin(incl))

    rows = []
    prev = attitude(0.0)
    for i in range(ROWS):
        t = i * DT
        c = attitude(t)
        r = [(c[k] - prev[k]) / DT for k in range(3)] if i else [0.0, 0.0, 0.0]
        speed = 0.2 + 0.15 * math.sin(0.7 * t + ph[2])
        be = 25000.0 + 400.0 * math.sin(0.5 * t + ph[3])
        scaled = [c[0] * c[0], c[1] * c[1], c[2] * c[2], c[0] * c[1], c[0] * c[2],
                  c[1] * c[2]] + [ci * rk for ci in c for rk in r]
        p = eps[0] * c[0] + eps[1] * c[1] + eps[2] * c[2] + eps[18] + eps[19] * speed
        q = sum(e * s for e, s in zip(eps[3:18], scaled))
        bt = (be + p) / (1.0 - q)
        rows.append([t, c[0] * bt, c[1] * bt, c[2] * bt, bt, speed, be])
        prev = c
    return rows


def prepare(ctx) -> None:
    rows = synthesize(ctx.seed)
    with open(os.path.join(ctx.out_dir, LOG_NAME), "w", encoding="ascii") as fh:
        fh.write("maglog v1\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row) + "\n")


def setup(ctx):
    return {"path": os.path.join(ctx.out_dir, LOG_NAME),
            "eps": np.array(_draws(ctx.seed)[0])}


def _passes(state, ctx, n_passes=None, deadline=None):
    want = state["eps"]
    pass_ms: list[float] = []
    pass_refs = 0.0
    failed = 0
    while (n_passes is None or len(pass_ms) < n_passes) and (
        deadline is None or not pass_ms or perf_counter() < deadline
    ):
        ctx.op()
        t0 = perf_counter()
        try:
            samples, b_earth = tlcal.load_maglog(state["path"])
            coeffs = tlcal.fit(samples, b_earth)
            ambient = tlcal.compensate_log(samples, coeffs)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            ctx.note(f"calibration failed: {type(exc).__name__}: {exc}")
            continue
        finally:
            pass_ms.append((perf_counter() - t0) * 1e3)
            pass_refs += ctx.ref_units(pass_ms[-1] / 1e3)
        rel = float(np.max(np.abs((coeffs.eps - want) / want)))
        if not (rel <= REL_TOL and bool(np.all(np.isfinite(ambient)))):
            failed += 1
            ctx.note(f"coefficients off by {rel:.3g} relative")
    return {"attempted": len(pass_ms), "failed": failed, "pass_ms": pass_ms,
            "pass_refs": pass_refs}


def measure(state, ctx, deadline):
    out = _passes(state, ctx, deadline=deadline)
    items_s = sum(out["pass_ms"]) / 1e3
    rows = ROWS * len(out["pass_ms"])
    return {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "op_ms": out["pass_ms"],
        "items": rows,
        "items_refs": out["pass_refs"],
        "report": {
            "calib_rows_per_s": (rows / items_s, "1/s"),
            "passes": (len(out["pass_ms"]), "count"),
        },
    }


def fixed_pass(ctx):
    """Set-up plus three load/fit/compensate passes."""
    out = _passes(setup(ctx), ctx, n_passes=3)
    return out["attempted"], out["failed"]
