"""Unicycle kinematics, transition densities, and scalar measurement model."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import EDGE_HEADINGS, bit_equal
from magplan.infogain import _wrap_residual
from magplan.magmap import (
    MagMap,
    OutOfMapError,
    SyntheticMapSpec,
    generate_synthetic,
    lookup,
)
from magplan.models import (
    OUT_OF_MAP_PENALTY,
    ControlInput,
    DegenerateDensityError,
    ModelError,
    ModelSet,
    MotionNoise,
    Pose,
    SensorNoise,
    add_motion_noise,
    measurement_log_likelihood_array,
    motion_mean_array,
    simulate_measurement,
    step_motion,
    unicycle_rollout,
    wrap_angle,
    wrap_angle_array,
)
from oracles import (
    measurement_likelihood,
    transition_density,
    transition_log_density_matrix,
    unicycle_step,
)

NO_NOISE = MotionNoise(0.0, 0.0, 0.0)


def idle_rng() -> np.random.Generator:
    """A fresh generator for noiseless calls; NO_NOISE draws only zeros from it."""
    return np.random.default_rng(0)


# --- angle wrapping ---


def test_wrap_angle_branch_cut():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(2 * math.pi) == 0.0
    assert wrap_angle(0.0) == 0.0


@given(st.floats(-1e6, 1e6))
def test_wrap_angle_range(theta: float):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    # Wrapping must not move the angle off its equivalence class.
    assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-6)
    assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-6)


def test_wrap_angle_array_matches_scalar():
    thetas = np.array([0.0, math.pi, -math.pi, 4.0, -4.0, 10.5, -10.5])
    out = wrap_angle_array(thetas)
    for k, t in enumerate(thetas):
        assert out[k] == wrap_angle(float(t))


def test_wrap_residual_matches_wrap_angle_array_bitwise():
    # Every difference of two headings in [-pi, pi], the edge cases included:
    # signed zeros, the seam itself, its neighbours and denormal-scale values.
    edges = [0.0, -0.0, math.pi, -math.pi, math.nextafter(math.pi, 0.0),
             -math.nextafter(math.pi, 0.0), 1e-300, -1e-300, 1.0, -2.5, 3.0]
    headings = np.concatenate(
        [edges, np.random.default_rng(8).uniform(-math.pi, math.pi, 400)]
    )
    resid = (headings[:, None] - headings[None, :]).ravel()
    assert np.abs(resid).max() == 2 * math.pi
    got = _wrap_residual(resid.copy(), np.empty_like(resid))
    assert bit_equal(got, wrap_angle_array(resid))


@given(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
def test_wrap_residual_property(a: float, b: float):
    d = np.array([a - b])
    assert bit_equal(_wrap_residual(d.copy(), np.empty_like(d)), wrap_angle_array(d))


# --- pose and parameter validation ---


def test_pose_normalizes_heading():
    p = Pose(1.0, 2.0, 3 * math.pi)
    assert p.theta == pytest.approx(math.pi)
    assert p.position().tolist() == [1.0, 2.0]
    assert np.allclose(Pose(*p.as_array()).as_array(), p.as_array())


def test_pose_rejects_nonfinite():
    with pytest.raises(ModelError):
        Pose(math.nan, 0.0, 0.0)
    with pytest.raises(ModelError):
        Pose(0.0, math.inf, 0.0)


def test_noise_parameters_validated():
    with pytest.raises(ModelError):
        MotionNoise(-0.01, 0.01, 0.01)
    for sigma_z in (-1.0, 0.0, -0.0, math.nan, math.inf):
        with pytest.raises(ModelError, match="sigma_z"):
            SensorNoise(sigma_z)
    with pytest.raises(ModelError):
        ModelSet(NO_NOISE, SensorNoise(1.0), dt=0.0)
    with pytest.raises(ModelError):
        ModelSet(NO_NOISE, SensorNoise(1.0), dt=math.inf)
    with pytest.raises(ModelError, match="dt must be finite and > 0"):
        ModelSet(MotionNoise(0.01, 0.01, 0.01), SensorNoise(1.0), dt=math.nan)
    # Every ModelSet caller evaluates transition densities.
    with pytest.raises(DegenerateDensityError, match="motion sigmas must all be > 0"):
        ModelSet(MotionNoise(0.01, 0.0, 0.01), SensorNoise(1.0), dt=0.1)


def test_control_input_validated():
    with pytest.raises(ModelError):
        ControlInput(math.nan, 0.0)
    u = ControlInput(0.2, -0.1)
    assert (u.v, u.omega) == (0.2, -0.1)


# --- deterministic kinematics ---


def test_straight_step():
    p = step_motion(Pose(0.0, 0.0, 0.0), ControlInput(0.2, 0.0), 0.1, NO_NOISE, idle_rng())
    assert (p.x, p.y, p.theta) == (pytest.approx(0.02), pytest.approx(0.0), 0.0)


def test_step_translates_along_entry_heading():
    # Discrete unicycle: displacement points along the heading held during
    # the step; the turn takes effect for the NEXT step.
    p = step_motion(Pose(0.0, 0.0, 0.0), ControlInput(1.0, math.pi / 2), 1.0, NO_NOISE, idle_rng())
    assert p.x == pytest.approx(1.0)
    assert p.y == pytest.approx(0.0, abs=1e-12)
    assert p.theta == pytest.approx(math.pi / 2)


def test_step_axis_aligned_heading():
    p = step_motion(Pose(0.0, 0.0, math.pi / 2), ControlInput(1.0, 0.0), 1.0, NO_NOISE, idle_rng())
    assert p.x == pytest.approx(0.0, abs=1e-12)
    assert p.y == pytest.approx(1.0)
    assert p.theta == pytest.approx(math.pi / 2)


def test_pure_rotation_keeps_position():
    p = step_motion(Pose(3.0, -2.0, 0.4), ControlInput(0.0, 0.5), 0.1, NO_NOISE, idle_rng())
    assert (p.x, p.y) == (3.0, -2.0)
    assert p.theta == pytest.approx(0.45)


def test_two_half_steps_compose_when_not_turning():
    u = ControlInput(0.2, 0.0)
    mid = step_motion(Pose(0, 0, 0.7), u, 0.05, NO_NOISE, idle_rng())
    half = step_motion(mid, u, 0.05, NO_NOISE, idle_rng())
    full = step_motion(Pose(0, 0, 0.7), u, 0.1, NO_NOISE, idle_rng())
    assert half.as_array() == pytest.approx(full.as_array(), abs=1e-15)


def test_array_step_matches_scalar():
    rng = np.random.default_rng(0)
    states = np.column_stack(
        [rng.uniform(-5, 5, 30), rng.uniform(-5, 5, 30), rng.uniform(-4, 4, 30)]
    )
    u = ControlInput(0.2, 0.3)
    out = add_motion_noise(motion_mean_array(states, u, 0.1), NO_NOISE, idle_rng())
    for k in range(30):
        p = step_motion(Pose(*states[k]), u, 0.1, NO_NOISE, idle_rng())
        assert out[k] == pytest.approx(p.as_array(), abs=1e-15)


def test_motion_mean_array_is_noise_free_step():
    states = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 1.5]])
    u = ControlInput(0.5, -0.2)
    assert np.array_equal(
        motion_mean_array(states, u, 0.1),
        [step_motion(Pose(*s), u, 0.1, NO_NOISE, idle_rng()).as_array() for s in states],
    )


@given(
    st.floats(-10, 10),
    st.floats(-10, 10),
    st.floats(-20, 20),
    st.floats(0, 2),
    st.floats(-2, 2),
)
def test_step_heading_always_wrapped(x, y, theta, v, omega):
    p = step_motion(Pose(x, y, theta), ControlInput(v, omega), 0.1, NO_NOISE, idle_rng())
    assert -math.pi < p.theta <= math.pi


def test_noisy_step_statistics():
    # Monte Carlo check of the additive noise model: per-axis sigmas land on
    # the configured values and the mean stays on the deterministic step.
    rng = np.random.default_rng(7)
    noise = MotionNoise(0.05, 0.02, 0.01)
    n = 200_000
    states = np.tile([1.0, -2.0, 0.3], (n, 1))
    u = ControlInput(0.2, 0.1)
    out = add_motion_noise(motion_mean_array(states, u, 0.1), noise, rng)
    det = motion_mean_array(states[:1], u, 0.1)[0]
    se = np.array([0.05, 0.02, 0.01]) / math.sqrt(n)
    for axis in range(3):
        assert abs(out[:, axis].mean() - det[axis]) < 5 * se[axis]
    assert out[:, 0].std() == pytest.approx(0.05, rel=0.02)
    assert out[:, 1].std() == pytest.approx(0.02, rel=0.02)
    assert out[:, 2].std() == pytest.approx(0.01, rel=0.02)


@given(
    st.floats(-10, 10),
    st.floats(-10, 10),
    st.sampled_from(EDGE_HEADINGS) | st.floats(-4, 4),
    st.floats(0, 2),
    st.just(0.0) | st.floats(-3, 3),
    st.sampled_from([0.1, 0.5]) | st.floats(1e-3, 1.0),
    st.sampled_from([(0.0, 0.0, 0.0), (0.02, 0.0, 0.0), (0.01, 0.01, math.radians(0.15))])
    | st.tuples(st.floats(0, 0.1), st.floats(0, 0.1), st.floats(0, 0.1)),
    st.integers(0, 2**32 - 1),
)
def test_step_motion_matches_array_form_bitwise(x, y, theta, v, omega, dt, sigmas, seed):
    # The scalar step against its array twin on one pose, equal-seeded: the
    # same pose bits, and the generators left in the same state.
    p, u, noise = Pose(x, y, theta), ControlInput(v, omega), MotionNoise(*sigmas)
    rng, twin_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = step_motion(p, u, dt, noise, rng)
    row = add_motion_noise(motion_mean_array(p.as_array()[None, :], u, dt), noise, twin_rng)[0]
    assert bit_equal(got.as_array(), Pose(*row.tolist()).as_array())
    assert rng.bit_generator.state == twin_rng.bit_generator.state


@pytest.mark.parametrize("steps", [1, 8])
def test_rollout_matches_repeated_steps_bitwise(steps):
    # Six actions of 20 hypotheses each, headings close to the +/-pi seam and
    # turn rates of both signs, so the rollout wraps headings across it.
    rng = np.random.default_rng(steps)
    states = np.stack(
        [
            rng.normal(5.0, 2.0, (6, 20)),
            rng.normal(0.0, 2.0, (6, 20)),
            wrap_angle_array(rng.normal(math.pi, 0.2, (6, 20))),
        ],
        axis=-1,
    )
    omega = np.array([-2.5, -0.9, 0.0, 0.4, 1.3, 3.0])[:, None]
    dt = 0.1
    assert (np.abs(states[..., 2] + steps * omega * dt) > math.pi).any()
    want = states
    for _ in range(steps):
        want = unicycle_step(want, 0.3, omega, dt)
    assert bit_equal(unicycle_rollout(states, 0.3, omega, dt, steps), want)
    flat = states.reshape(-1, 3)
    u = ControlInput(0.3, 1.7)
    assert bit_equal(motion_mean_array(flat, u, dt), unicycle_step(flat, u.v, u.omega, dt))


def test_step_rejects_bad_dt():
    with pytest.raises(ModelError):
        step_motion(Pose(0.0, 0.0, 0.0), ControlInput(0.1, 0.0), 0.0, NO_NOISE, idle_rng())
    noise = MotionNoise(0.01, 0.01, 0.01)
    for dt in (math.nan, math.inf):
        with pytest.raises(ModelError, match="dt must be finite and > 0"):
            step_motion(Pose(0.0, 0.0, 0.0), ControlInput(0.1, 0.0), dt, noise, idle_rng())


# --- transition density ---


def test_transition_density_peaks_at_mean():
    noise = MotionNoise(0.01, 0.02, 0.005)
    prev = Pose(0.0, 0.0, 0.0)
    u = ControlInput(0.2, 0.0)
    mean = step_motion(prev, u, 0.1, NO_NOISE, idle_rng())
    peak = transition_density(mean, prev, u, 0.1, noise)
    expected = 1.0 / ((2 * math.pi) ** 1.5 * 0.01 * 0.02 * 0.005)
    assert peak == pytest.approx(expected, rel=1e-12)
    off = transition_density(Pose(mean.x + 0.01, mean.y, mean.theta), prev, u, 0.1, noise)
    assert off == pytest.approx(peak * math.exp(-0.5), rel=1e-12)


def test_transition_density_symmetric_about_mean():
    noise = MotionNoise(0.03, 0.01, 0.02)
    prev = Pose(1.0, 1.0, 0.5)
    u = ControlInput(0.1, 0.2)
    mean = step_motion(prev, u, 0.1, NO_NOISE, idle_rng())
    for d in (0.01, 0.02):
        lo = transition_density(Pose(mean.x, mean.y - d, mean.theta), prev, u, 0.1, noise)
        hi = transition_density(Pose(mean.x, mean.y + d, mean.theta), prev, u, 0.1, noise)
        assert lo == pytest.approx(hi, rel=1e-12)


def test_transition_density_wraps_heading_residual():
    # Successor heading just across the branch cut from the mean heading:
    # the wrapped residual is tiny, so the density must be near the peak.
    noise = MotionNoise(0.01, 0.01, 0.1)
    prev = Pose(0.0, 0.0, math.pi - 0.005)
    u = ControlInput(0.0, 0.1)  # mean heading wraps past +pi
    mean_theta = wrap_angle(prev.theta + 0.01)
    assert mean_theta < 0  # sanity: the mean crossed the cut
    near = transition_density(Pose(0.0, 0.0, mean_theta + 0.001), prev, u, 0.1, noise)
    peak = transition_density(Pose(0.0, 0.0, mean_theta), prev, u, 0.1, noise)
    assert near > 0.9 * peak


def test_transition_density_integrates_to_one():
    # Quadrature over a +/-6 sigma box in (x, y, theta).
    noise = MotionNoise(0.01, 0.015, 0.02)
    prev = Pose(0.5, -0.5, 0.3)
    u = ControlInput(0.2, 0.1)
    mean = motion_mean_array(prev.as_array()[None, :], u, 0.1)[0]
    axes = [
        np.linspace(mean[0] - 6 * 0.01, mean[0] + 6 * 0.01, 61),
        np.linspace(mean[1] - 6 * 0.015, mean[1] + 6 * 0.015, 61),
        np.linspace(mean[2] - 6 * 0.02, mean[2] + 6 * 0.02, 61),
    ]
    xg, yg, tg = np.meshgrid(*axes, indexing="ij")
    nxt = np.column_stack([xg.ravel(), yg.ravel(), tg.ravel()])
    log_d = transition_log_density_matrix(nxt, prev.as_array()[None, :], u, 0.1, noise)
    vol = (axes[0][1] - axes[0][0]) * (axes[1][1] - axes[1][0]) * (axes[2][1] - axes[2][0])
    total = np.exp(log_d[:, 0]).sum() * vol
    assert total == pytest.approx(1.0, rel=5e-3)


def test_transition_matrix_shape_and_scalar_agreement():
    noise = MotionNoise(0.02, 0.02, 0.01)
    rng = np.random.default_rng(5)
    prev = np.column_stack([rng.normal(0, 1, 4), rng.normal(0, 1, 4), rng.uniform(-3, 3, 4)])
    nxt = prev + rng.normal(0, 0.02, prev.shape)
    u = ControlInput(0.1, -0.3)
    mat = transition_log_density_matrix(nxt, prev, u, 0.1, noise)
    assert mat.shape == (4, 4)
    for i in range(4):
        for j in range(4):
            want = transition_density(Pose(*nxt[i]), Pose(*prev[j]), u, 0.1, noise)
            assert math.exp(mat[i, j]) == pytest.approx(want, rel=1e-10)


# --- measurement model ---


@pytest.fixture(scope="module")
def flat_map():
    spec = SyntheticMapSpec(25000.0, (0.0, 0.0), 0.0, (1.0, 1.0))
    return generate_synthetic(spec, (-5.0, -5.0), 1.0, 11, 11)


def test_measurement_likelihood_peak_and_falloff(flat_map):
    sensor = SensorNoise(150.0)
    pose = Pose(0.0, 0.0, 0.0)
    mode = 1.0 / (math.sqrt(2 * math.pi) * 150.0)
    assert measurement_likelihood(25000.0, pose, flat_map, sensor) == pytest.approx(
        mode, rel=1e-12
    )
    one_sigma = measurement_likelihood(25150.0, pose, flat_map, sensor)
    assert one_sigma == pytest.approx(mode * math.exp(-0.5), rel=1e-12)


def test_measurement_likelihood_uniform_over_poses(flat_map):
    sensor = SensorNoise(150.0)
    states = np.array([[0.0, 0.0, 0.0], [3.0, -4.0, 1.0], [-5.0, 5.0, -2.0]])
    ll = measurement_log_likelihood_array(25100.0, states, flat_map, sensor)
    assert np.all(ll == ll[0])


def test_out_of_map_likelihood_clamps_and_penalizes(flat_map):
    sensor = SensorNoise(150.0)
    inside = measurement_log_likelihood_array(
        25050.0, np.array([[5.0, 2.0, 0.0]]), flat_map, sensor
    )[0]
    outside = measurement_log_likelihood_array(
        25050.0, np.array([[7.5, 2.0, 0.0]]), flat_map, sensor
    )[0]
    assert outside == pytest.approx(inside + math.log(OUT_OF_MAP_PENALTY), abs=1e-12)
    assert measurement_likelihood(25050.0, Pose(7.5, 2.0, 0.0), flat_map, sensor) == (
        pytest.approx(math.exp(inside) * OUT_OF_MAP_PENALTY, rel=1e-12)
    )


def test_measurement_likelihood_heading_independent(flat_map):
    sensor = SensorNoise(150.0)
    for theta in (-3.0, 0.0, 1.2, 3.1):
        v = measurement_likelihood(25200.0, Pose(1.0, 1.0, theta), flat_map, sensor)
        assert v == measurement_likelihood(25200.0, Pose(1.0, 1.0, 0.0), flat_map, sensor)


def test_simulate_measurement_statistics(flat_map):
    sensor = SensorNoise(150.0)
    rng = np.random.default_rng(123)
    zs = np.array(
        [simulate_measurement(Pose(0.0, 0.0, 0.0), flat_map, sensor, rng) for _ in range(500)]
    )
    assert zs.mean() == pytest.approx(25000.0, abs=5 * 150.0 / math.sqrt(500))
    assert zs.std() == pytest.approx(150.0, rel=0.15)


# Values that vary from node to node, on a grid whose extent edges are not
# round numbers.
RAGGED_MAP = MagMap((-3.25, 1.5), 0.37, np.random.default_rng(4).uniform(2e4, 3e4, (7, 11)))
EXTENT_SPOTS = ("interior", "x_min", "x_max", "y_min", "y_max", "corner")


@given(
    st.floats(0, 1), st.floats(0, 1), st.sampled_from(EXTENT_SPOTS), st.integers(0, 2**32 - 1),
)
def test_simulate_measurement_matches_array_form_bitwise(fx, fy, spot, seed):
    # On x_max and y_max the cell index clamps to the last cell.
    x_min, x_max, y_min, y_max = RAGGED_MAP.extent()
    x = min(x_min + fx * (x_max - x_min), x_max)
    y = min(y_min + fy * (y_max - y_min), y_max)
    x, y = {"x_min": (x_min, y), "x_max": (x_max, y), "y_min": (x, y_min),
            "y_max": (x, y_max), "corner": (x_max, y_max)}.get(spot, (x, y))
    rng, twin_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = simulate_measurement(Pose(x, y, 0.3), RAGGED_MAP, SensorNoise(150.0), rng)
    want = float(lookup(RAGGED_MAP, np.array([[x, y]]))[0][0])
    want += float(twin_rng.normal(0.0, 150.0))
    assert bit_equal(got, want)
    assert rng.bit_generator.state == twin_rng.bit_generator.state


def test_simulate_measurement_outside_map_raises_as_sample_points_does():
    x_min, x_max, y_min, y_max = RAGGED_MAP.extent()
    outside = [
        (math.nextafter(x_max, math.inf), y_min), (x_min, math.nextafter(y_min, -math.inf)),
        (math.nextafter(x_min, -math.inf), y_max), (x_max, math.nextafter(y_max, math.inf)),
    ]
    for x, y in outside:
        with pytest.raises(OutOfMapError) as scalar:
            simulate_measurement(Pose(x, y, 0.0), RAGGED_MAP, SensorNoise(1.0), idle_rng())
        want = f"point ({x:g}, {y:g}) outside map extent {RAGGED_MAP.extent()}"
        assert str(scalar.value) == want


def test_simulate_measurement_outside_map_raises(flat_map):
    with pytest.raises(OutOfMapError):
        simulate_measurement(Pose(25.0, 0.0, 0.0), flat_map, SensorNoise(1.0), idle_rng())
