"""Release gate: every shipped guarantee at full size and stated tolerance.

The per-module suites exercise the same code at unit scale; these tests run
the real scenarios end to end, one test per guarantee, so a verbose run
reads as the acceptance checklist. The two sweep criteria share one
module-scoped 50-episode run.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from conftest import RAMP_BASE, RAMP_SLOPE, RAMP_X0, STD_DT, ramp_field
from magplan import tlcal
from magplan.cli import main
from magplan.config import (
    build_episode_config,
    canonical_text,
    load_config,
    sweep_params,
)
from magplan.infogain import eer, entropy_posterior
from magplan.magmap import MagMap
from magplan.models import ControlInput, ModelSet, MotionNoise, Pose, SensorNoise
from magplan.pflocal import estimate, init, predict, resample_if_needed, update
from magplan.planner import ActionSet, EerParams
from magplan.simloop import filter_entropy, run_episode, sweep
from oracles import GridBayes1D, kalman_posterior_entropy_bits, make_tl_log, predicted_entropy
from test_tlcal import EPS_STAR

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# --- 1: interference coefficient recovery ---


def test_01_compensation_recovery_and_speed():
    # Noise-free log: the 20 coefficients come back to rounding error, and
    # the full pipeline stays under a second at ten thousand rows.
    log, be = make_tl_log(EPS_STAR, 10_000)
    t0 = time.perf_counter()
    coeffs = tlcal.fit(log, be)
    elapsed = time.perf_counter() - t0
    rel = np.max(np.abs((coeffs.eps - EPS_STAR) / EPS_STAR))
    assert rel <= 1e-6
    assert elapsed < 1.0

    noisy_log, noisy_be = make_tl_log(EPS_STAR, 10_000, noise_sigma=1.0, seed=3)
    noisy = tlcal.fit(noisy_log, noisy_be)
    assert tlcal.residual_rms(noisy_log, noisy_be, noisy) <= 2.0


# --- 2: particle filter vs dense-grid Bayes filter ---


def test_02_filter_tracks_dense_bayes_oracle(ramp_grid):
    # Straight 100-step run up the ramp, x-only noise: the posterior mean
    # must stay within two map cells of an exhaustive grid filter at every
    # step, for at least 18 of 20 seeds.
    motion = MotionNoise(0.02, 0.0, 0.0)
    sensor = SensorNoise(150.0)
    u = ControlInput(0.2, 0.0)
    tol = 2 * ramp_grid.cell_size

    def worst_gap(seed: int) -> float:
        ss = np.random.SeedSequence(seed).spawn(3)
        truth_rng = np.random.default_rng(ss[0])
        sensor_rng = np.random.default_rng(ss[1])
        b = init(Pose(5.0, 0.0, 0.0), np.diag([0.25, 0.0, 0.0]), 1000, seed=ss[2])
        oracle = GridBayes1D(-2.0, 20.0, 2200)
        oracle.set_gaussian_prior(5.0, 0.5)
        map_at_xs = RAMP_BASE + RAMP_SLOPE * (oracle.xs - RAMP_X0)
        truth_x = 5.0
        worst = 0.0
        for _ in range(100):
            truth_x += u.v * STD_DT + truth_rng.normal(0.0, motion.sigma_x)
            z = ramp_field(truth_x, 0.0) + sensor_rng.normal(0.0, sensor.sigma_z)
            b = predict(b, u, STD_DT, motion)
            b = update(b, z, ramp_grid, sensor)
            b = resample_if_needed(b, b.n / 2)
            oracle.predict(u.v * STD_DT, motion.sigma_x)
            oracle.update(z, map_at_xs, sensor.sigma_z)
            worst = max(worst, abs(estimate(b).mean.x - oracle.mean()))
        return worst

    passing = sum(1 for seed in range(20) if worst_gap(seed) <= tol)
    assert passing >= 18


# --- 3: entropy estimator vs closed-form Kalman recursion ---

ENTROPY_SLOPE = 3000.0
ENTROPY_PRIOR_STD = (0.05, 0.03, 0.01)
ENTROPY_KERNELS = MotionNoise(0.02, 0.01, 0.01)
ENTROPY_SENSOR = SensorNoise(150.0)
ENTROPY_STEPS = 3


def steep_ramp() -> MagMap:
    xs = RAMP_X0 + 0.1 * np.arange(221)
    values = np.tile(RAMP_BASE + ENTROPY_SLOPE * (xs - RAMP_X0), (41, 1))
    return MagMap((RAMP_X0, -2.0), 0.1, values)


def entropy_estimate(seed: int, n: int, grid: MagMap, check_steps: bool = False) -> float:
    """Posterior entropy after three diffusion+measurement steps at x=6. With
    check_steps, the entropy after each earlier step must estimate too."""
    models = ModelSet(ENTROPY_KERNELS, ENTROPY_SENSOR, STD_DT)
    u = ControlInput(0.0, 0.0)
    ss = np.random.SeedSequence(seed).spawn(2)
    b = init(Pose(6.0, 0.0, 0.0), np.diag(np.square(ENTROPY_PRIOR_STD)), n, seed=ss[0])
    z_rng = np.random.default_rng(ss[1])
    for step in range(1, ENTROPY_STEPS + 1):
        prev = b
        z = RAMP_BASE + ENTROPY_SLOPE * (6.0 - RAMP_X0) + z_rng.normal(
            0.0, ENTROPY_SENSOR.sigma_z
        )
        b = predict(b, u, STD_DT, ENTROPY_KERNELS)
        b = update(b, z, grid, ENTROPY_SENSOR)
        if check_steps and step < ENTROPY_STEPS:
            assert math.isfinite(entropy_posterior(prev, b, z, u, grid, models).bits)
    return entropy_posterior(prev, b, z, u, grid, models).bits


def test_03a_entropy_matches_kalman_closed_form():
    grid = steep_ramp()
    want = kalman_posterior_entropy_bits(
        tuple(s * s for s in ENTROPY_PRIOR_STD),
        (
            ENTROPY_KERNELS.sigma_x**2,
            ENTROPY_KERNELS.sigma_y**2,
            ENTROPY_KERNELS.sigma_theta**2,
        ),
        ENTROPY_SLOPE,
        ENTROPY_SENSOR.sigma_z,
        ENTROPY_STEPS,
    )
    errs = [entropy_estimate(seed, 2000, grid) - want for seed in range(50)]
    assert abs(float(np.mean(errs))) <= 0.2


def test_03b_entropy_self_convergence():
    # Same measurement realization per seed, growing particle count: the
    # 4000-vs-1000 gap must beat the 1000-vs-250 gap in 15 of 20 seeds.
    grid = steep_ramp()
    wins = 0
    for seed in range(20):
        # Seed 0 also checks that steps 1 and 2 estimate without an EntropyError.
        h250 = entropy_estimate(seed, 250, grid, check_steps=seed == 0)
        h1000 = entropy_estimate(seed, 1000, grid, check_steps=seed == 0)
        h4000 = entropy_estimate(seed, 4000, grid, check_steps=seed == 0)
        wins += abs(h4000 - h1000) < abs(h1000 - h250)
    assert wins >= 15


# --- 4: featureless map yields exactly nothing ---


def test_04_flat_map_yields_zero_gain(uniform_grid):
    models = ModelSet(
        MotionNoise(0.01, 0.01, math.radians(0.15)), SensorNoise(150.0), 0.1
    )
    turn_rates = [math.radians(d) for d in (-25.0, -15.0, -5.0, 5.0, 15.0, 25.0)]
    for seed in range(10):
        b = init(
            Pose(0.0, 0.0, 0.0),
            np.diag([0.09, 0.09, math.radians(5.0) ** 2]),
            250,
            seed=seed,
        )
        for omega in turn_rates:
            (gain,), errors = eer(
                b,
                ActionSet((ControlInput(0.2, omega),)),
                uniform_grid,
                models,
                EerParams(30, 10),
                np.random.default_rng(seed),
            )
            assert errors == (None,)
            assert abs(gain) <= 1e-9

    # and conditioning on a flat-map measurement leaves entropy untouched
    u = ControlInput(0.2, 0.05)
    for seed in range(3):
        prev = init(
            Pose(0.0, 0.0, 0.0),
            np.diag([0.09, 0.09, math.radians(5.0) ** 2]),
            500,
            seed=seed,
        )
        cur = predict(prev, u, 0.1, models.motion)
        cur = update(cur, 25000.0 + 37.0, uniform_grid, models.sensor)
        with_z = entropy_posterior(prev, cur, 25000.0 + 37.0, u, uniform_grid, models)
        without = predicted_entropy(prev, cur, u, models)
        assert abs(with_z.bits - without.bits) <= 1e-9


# --- 5 and 6: the weight sweep ---


@pytest.fixture(scope="module")
def weight_sweep():
    raw = load_config(str(CONFIGS / "peak_sweep.cfg"))
    base = build_episode_config(raw, str(CONFIGS))
    w_h_values, seeds = sweep_params(raw)
    cells = sweep(base, w_h_values, seeds)
    assert all(c.trace is not None for c in cells), [c.error for c in cells]
    # Each cell by its (w_h, seed).
    return {(c.w_h, c.seed): c for c in cells}, w_h_values, seeds, base


def max_chord_deviation(trace, start_xy, goal_xy) -> float:
    """Largest cross-track distance of the true path from the start-goal line."""
    points = np.array([[r.truth.x, r.truth.y] for r in trace.rows])
    a = np.asarray(start_xy, dtype=float)
    direction = np.asarray(goal_xy, dtype=float) - a
    direction /= np.hypot(*direction)
    rel = points - a
    cross = rel[:, 0] * direction[1] - rel[:, 1] * direction[0]
    return float(np.max(np.abs(cross)))


def test_05_weight_sweep_path_geometry(weight_sweep):
    cells, w_h_values, seeds, base = weight_sweep
    start = (base.start.x, base.start.y)
    goal = base.goal.position
    devs = {
        (w, s): max_chord_deviation(cells[w, s].trace, start, goal)
        for w in w_h_values
        for s in seeds
    }
    # (a) with no uncertainty weight the robot holds the chord
    assert max(devs[(0.0, s)] for s in seeds) < 0.5
    # (b) detour size grows with the weight: rank correlation of the
    # per-level medians against the levels
    medians = [float(np.median([devs[(w, s)] for s in seeds])) for w in w_h_values]
    rho = spearmanr(w_h_values, medians).statistic
    assert rho > 0.8


def test_06_weight_sweep_uncertainty(weight_sweep):
    cells, w_h_values, seeds, _ = weight_sweep
    final_det = {
        (w, s): cells[w, s].metrics.final_det_pos_cov
        for w in (0.0, 5.0, 10.0)
        for s in seeds
    }
    wins = sum(1 for s in seeds if final_det[(5.0, s)] < final_det[(0.0, s)])
    assert wins >= 8

    mean_det = {
        w: float(
            np.mean([cells[w, s].metrics.mean_det_pos_cov for s in seeds])
        )
        for w in (0.0, 10.0)
    }
    assert mean_det[10.0] < mean_det[0.0]


# --- 7: planning fits the control period ---


def test_07_planning_step_under_budget(tmp_path):
    code = main(
        [
            "benchmark",
            "--config",
            str(CONFIGS / "benchmark.cfg"),
            "--out",
            str(tmp_path),
            "--steps",
            "30",
            "--quiet",
        ]
    )
    assert code == 0
    report = (tmp_path / "benchmark.txt").read_text()
    mean_ms = float(
        next(l for l in report.splitlines() if l.startswith("mean_ms:")).split(":")[1]
    )
    assert mean_ms < 100.0
    assert "within_budget: yes" in report


# --- 8: bitwise reproducibility ---


def test_08_byte_identical_reruns(tmp_path):
    episode_cfg = str(CONFIGS / "peak_episode.cfg")
    a, b = tmp_path / "run_a", tmp_path / "run_b"
    assert main(["run", "--config", episode_cfg, "--out", str(a), "--quiet"]) == 0
    assert main(["run", "--config", episode_cfg, "--out", str(b), "--quiet"]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    # reduced sweep, same contract
    raw = load_config(str(CONFIGS / "peak_sweep.cfg"))
    raw["sweep.w_h_values"] = "0, 5"
    raw["sweep.seeds"] = "0"
    raw["sim.step_budget"] = "12"
    mini = tmp_path / "mini_sweep.cfg"
    mini.write_text(canonical_text(raw))
    sa, sb = tmp_path / "sweep_a", tmp_path / "sweep_b"
    assert main(["sweep", "--config", str(mini), "--out", str(sa), "--quiet"]) == 0
    assert main(["sweep", "--config", str(mini), "--out", str(sb), "--quiet"]) == 0
    for name in ("summary.csv", "trace_wh0_seed0.csv", "trace_wh5_seed0.csv"):
        assert (sa / name).read_bytes() == (sb / name).read_bytes()


# The action sequences chosen at the commit that introduced this test; any
# drift in the planner's choices across changes fails here, not only
# between two runs of the same code as in test_08.
PINNED_PEAK_EPISODE = (
    "24343134312434133225431300212221303333432344423341321124454420050225000020"
    "340423132332233232323232323232"
)


def test_08b_action_sequences_pinned():
    raw = load_config(str(CONFIGS / "peak_episode.cfg"))
    trace = run_episode(build_episode_config(raw, str(CONFIGS)))
    assert trace.reached_goal
    assert "".join(str(r.action_index) for r in trace.rows) == PINNED_PEAK_EPISODE

    raw = load_config(str(CONFIGS / "peak_sweep.cfg"))
    raw["sweep.w_h_values"] = "5"
    raw["sweep.seeds"] = "0"
    base = build_episode_config(raw, str(CONFIGS))
    (cell,) = sweep(base, *sweep_params(raw))
    assert (cell.w_h, cell.seed) == (5.0, 0)
    assert cell.trace.reached_goal
    assert "".join(str(r.action_index) for r in cell.trace.rows) == PINNED_PEAK_EPISODE


# --- 9: outlier filter contract ---


def test_09_outlier_filter_contract():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(4, 60))
        series = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), n)
        if rng.random() < 0.4:
            series[rng.integers(1, n)] *= 50.0  # plant a spike
        out = filter_entropy(series)
        q1, q3 = np.percentile(series, [25.0, 75.0])
        lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
        assert out[0] == series[0]
        for i in range(1, n):
            if lo <= series[i] <= hi:
                assert out[i] == series[i]
            else:
                assert out[i] == out[i - 1]

    constant = np.full(25, -3.75)
    assert np.array_equal(filter_entropy(constant), constant)
