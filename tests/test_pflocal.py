"""Particle filter: prior sampling, predict/update, resampling, and summaries."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import RAMP_BASE, RAMP_SLOPE, STD_DT, bit_equal, ramp_field
from magplan import pflocal
from magplan.infogain import FAST_FLOOR, ZERO_BELOW, _safe_log
from magplan.models import (
    ControlInput,
    ModelError,
    MotionNoise,
    Pose,
    SensorNoise,
    measurement_log_likelihood_array,
    wrap_angle_array,
)
from magplan.pflocal import (
    FilterError,
    ParticleBelief,
    WeightCollapseError,
    effective_sample_size,
    estimate,
    init,
    predict,
    resample_if_needed,
    systematic_resample_indices,
    update,
)
from oracles import GridBayes1D, inline_reweighted

PRIOR_COV = np.diag([0.1**2, 0.1**2, math.radians(5.0) ** 2])


def make_belief(particles, weights, seed=0) -> ParticleBelief:
    return ParticleBelief(
        np.asarray(particles, dtype=float),
        np.asarray(weights, dtype=float),
        np.random.default_rng(seed),
    )


# --- initialization ---


def test_init_uniform_weights():
    b = init(Pose(1.0, 2.0, 0.3), PRIOR_COV, 250, seed=4)
    assert b.n == 250
    assert np.allclose(b.weights, 1.0 / 250)
    assert b.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_init_zero_covariance_degenerate_prior():
    b = init(Pose(1.0, -1.0, 2.0), np.zeros((3, 3)), 50, seed=0)
    assert np.allclose(b.particles, [1.0, -1.0, 2.0])


def test_init_reproducible_and_seed_sensitive():
    a = init(Pose(0, 0, 0), PRIOR_COV, 100, seed=7)
    b = init(Pose(0, 0, 0), PRIOR_COV, 100, seed=7)
    c = init(Pose(0, 0, 0), PRIOR_COV, 100, seed=8)
    assert np.array_equal(a.particles, b.particles)
    assert not np.array_equal(a.particles, c.particles)
    g = np.random.default_rng(7)
    assert init(Pose(0, 0, 0), PRIOR_COV, 100, seed=g).rng is g


def test_init_sampling_statistics():
    b = init(Pose(2.0, -3.0, 0.1), PRIOR_COV, 200_000, seed=1)
    assert b.particles[:, 0].mean() == pytest.approx(2.0, abs=0.005)
    assert b.particles[:, 1].std() == pytest.approx(0.1, rel=0.02)
    assert b.particles[:, 2].std() == pytest.approx(math.radians(5.0), rel=0.02)


def test_init_headings_are_wrapped():
    wide = np.diag([0.0, 0.0, 4.0])  # heading sigma of 2 rad forces wrapping
    b = init(Pose(0, 0, 3.0), wide, 5000, seed=2)
    assert np.all(b.particles[:, 2] > -math.pi)
    assert np.all(b.particles[:, 2] <= math.pi)


def test_init_validation():
    with pytest.raises(FilterError):
        init(Pose(0, 0, 0), PRIOR_COV, 1, seed=0)
    with pytest.raises(FilterError):
        init(Pose(0, 0, 0), np.zeros((2, 2)), 10, seed=0)
    bad = PRIOR_COV.copy()
    bad[0, 1] = 0.5  # asymmetric
    with pytest.raises(FilterError):
        init(Pose(0, 0, 0), bad, 10, seed=0)
    with pytest.raises(FilterError):
        init(Pose(0, 0, 0), np.diag([1.0, 1.0, -0.1]), 10, seed=0)
    with pytest.raises(FilterError, match="finite"):
        init(Pose(0, 0, 0), np.diag([np.inf, 1.0, 1.0]), 10, seed=0)


def test_belief_validation():
    with pytest.raises(FilterError):
        make_belief(np.zeros((3, 2)), [0.5, 0.5, 0.0])
    with pytest.raises(FilterError):
        make_belief(np.zeros((3, 3)), [0.7, 0.2, 0.2])
    with pytest.raises(FilterError):
        make_belief(np.zeros((3, 3)), [1.2, -0.1, -0.1])
    with pytest.raises(FilterError):
        make_belief(np.full((3, 3), np.nan), [0.4, 0.3, 0.3])
    b = make_belief(np.zeros((2, 3)), [0.5, 0.5])
    with pytest.raises(ValueError):
        b.weights[0] = 1.0


def test_belief_constructor_copies_caller_arrays():
    particles = np.zeros((2, 3))
    weights = np.array([0.5, 0.5])
    b = ParticleBelief(particles, weights, np.random.default_rng(0))
    particles[0, 0] = 9.0
    weights[0] = 9.0
    assert b.particles[0, 0] == 0.0 and b.weights[0] == 0.5
    assert particles.flags.writeable and weights.flags.writeable


# Both signed zeros, both ends of [-pi, pi] and the first floats past them.
EDGE_HEADINGS = [0.0, -0.0, math.pi, -math.pi, math.nextafter(math.pi, 4.0),
                 math.nextafter(-math.pi, -4.0)]


@given(st.lists(st.floats(-4.0, 4.0) | st.floats(-1e6, 1e6), max_size=30))
def test_belief_wraps_only_headings_outside_pi(drawn):
    """A heading on [-pi, pi] is stored bit for bit as given, any other one
    as `wrap_angle_array` gives it; x and y are stored as given."""
    theta = np.array(EDGE_HEADINGS + drawn)
    n = theta.size
    particles = np.column_stack([np.arange(n) * 0.1, np.arange(n) * -0.3, theta])
    b = make_belief(particles, np.full(n, 1.0 / n))
    inside = np.abs(theta) <= math.pi
    assert bit_equal(b.particles[inside, 2], theta[inside])
    assert bit_equal(b.particles[~inside, 2], wrap_angle_array(theta[~inside]))
    assert bit_equal(b.particles[:, :2], particles[:, :2])


def test_filter_outputs_are_read_only(ramp_grid):
    prior = init(Pose(1.0, 0.0, 0.0), PRIOR_COV, 50, seed=3)
    predicted = predict(prior, ControlInput(0.2, 0.0), STD_DT, MotionNoise(0.01, 0.01, 0.01))
    updated = update(predicted, ramp_field(1.02, 0.0), ramp_grid, SensorNoise(50.0))
    resampled = resample_if_needed(updated, threshold=updated.n + 1.0)
    assert resampled is not updated
    arrays = [
        a for b in (prior, predicted, updated, resampled) for a in (b.particles, b.weights)
    ] + [estimate(updated).covariance]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


# --- predict ---


def test_predict_noise_free_translation():
    b = make_belief([[0.0, 0.0, 0.0], [1.0, 1.0, math.pi / 2]], [0.5, 0.5])
    out = predict(b, ControlInput(0.2, 0.0), 0.1, MotionNoise(0, 0, 0))
    assert out.particles[0] == pytest.approx([0.02, 0.0, 0.0])
    assert out.particles[1] == pytest.approx([1.0, 1.02, math.pi / 2])
    assert np.array_equal(out.weights, b.weights)


def test_predict_spreads_the_cloud():
    noise = MotionNoise(0.01, 0.01, math.radians(0.15))
    b = init(Pose(0, 0, 0), np.zeros((3, 3)), 20_000, seed=5)
    out = predict(b, ControlInput(0.2, 0.0), 0.1, noise)
    assert out.particles[:, 0].std() == pytest.approx(0.01, rel=0.05)
    assert out.particles[:, 1].std() == pytest.approx(0.01, rel=0.05)


def test_predict_rejects_bad_dt():
    b = make_belief(np.zeros((4, 3)), [0.25] * 4)
    for dt in (0.0, math.nan, math.inf):
        with pytest.raises(ModelError, match="dt must be finite and > 0"):
            predict(b, ControlInput(0.2, 0.1), dt, MotionNoise(0.01, 0.01, 0.01))


def test_predict_keeps_weights_after_reweighting():
    b = make_belief(np.zeros((4, 3)), [0.4, 0.3, 0.2, 0.1])
    out = predict(b, ControlInput(0.0, 0.0), 0.1, MotionNoise(0, 0, 0))
    assert np.array_equal(out.weights, [0.4, 0.3, 0.2, 0.1])


# --- update ---


def test_update_uniform_map_keeps_weights(uniform_grid):
    b = init(Pose(0, 0, 0), PRIOR_COV, 100, seed=3)
    out = update(b, 25000.0, uniform_grid, SensorNoise(150.0))
    assert np.allclose(out.weights, b.weights, atol=1e-15)


def test_update_two_particle_likelihood_ratio(ramp_grid):
    # Particle B sits where the ramp is sqrt(2 ln 3) sigmas above the
    # measurement, making its likelihood exactly 1/3 of particle A's.
    sigma_z = 150.0
    x_a = 5.0
    dx = sigma_z * math.sqrt(2.0 * math.log(3.0)) / RAMP_SLOPE
    z = RAMP_BASE + RAMP_SLOPE * (x_a - (-2.0))
    b = make_belief([[x_a, 0.0, 0.0], [x_a + dx, 0.0, 0.0]], [0.5, 0.5])
    out = update(b, z, ramp_grid, SensorNoise(sigma_z))
    assert out.weights[0] == pytest.approx(0.75, abs=1e-9)
    assert out.weights[1] == pytest.approx(0.25, abs=1e-9)


def test_update_renormalizes(ramp_grid):
    b = init(Pose(5.0, 0.0, 0.0), PRIOR_COV, 300, seed=9)
    out = update(b, 27000.0, ramp_grid, SensorNoise(150.0))
    assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(out.weights >= 0)


def test_update_zero_weight_stays_zero(uniform_grid):
    b = make_belief(np.zeros((4, 3)), [0.5, 0.5, 0.0, 0.0])
    out = update(b, 25000.0, uniform_grid, SensorNoise(150.0))
    assert out.weights[2] == 0.0 and out.weights[3] == 0.0
    assert out.weights[0] == pytest.approx(0.5)


def test_update_collapse_raises(ramp_grid):
    b = make_belief([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], [0.5, 0.5])
    with pytest.raises(WeightCollapseError):
        update(b, RAMP_BASE + 4.0e6, ramp_grid, SensorNoise(0.5))


# z for each case: a peaked cloud whose shifted log terms reach exp's band
# (ZERO_BELOW, FAST_FLOOR], every log term -inf, and every log term nan.
REWEIGHT_CASES = {"exp band": ramp_field(5.0, 0.0), "-inf collapse": math.inf, "nan z": math.nan}


@pytest.mark.parametrize("case", list(REWEIGHT_CASES))
def test_update_equals_former_inline_reweighting_bitwise(ramp_grid, case):
    # The reweighting reduces through infogain's log-sum-exp; its weights,
    # log mass and collapse messages equal the former inline form's.
    rng = np.random.default_rng(26)
    n = 500
    particles = np.column_stack(
        [rng.uniform(4.0, 6.0, n), rng.uniform(-0.5, 0.5, n), rng.uniform(-3.0, 3.0, n)]
    )
    weights = rng.dirichlet(np.ones(n))
    weights[:5] = 0.0
    b = make_belief(particles, weights / weights.sum())
    sensor, z = SensorNoise(5.0), REWEIGHT_CASES[case]
    log_w = _safe_log(b.weights)
    log_lik = measurement_log_likelihood_array(z, b.particles, ramp_grid, sensor)
    if case == "exp band":
        terms = log_w + log_lik - np.max(log_w + log_lik)
        assert np.any((terms > ZERO_BELOW) & (terms <= FAST_FLOOR))
        want_weights, want_mass = inline_reweighted(log_w, log_lik)
        got, mass = pflocal._reweighted(b, log_w, log_lik)
        assert bit_equal(got.weights, want_weights) and bit_equal(mass, want_mass)
        assert bit_equal(update(b, z, ramp_grid, sensor).weights, want_weights)
        return
    message = "^every particle has zero posterior mass$"
    with pytest.raises(WeightCollapseError, match=message):
        inline_reweighted(log_w, log_lik)
    with pytest.raises(WeightCollapseError, match=message):
        update(b, z, ramp_grid, sensor)


def test_update_against_grid_oracle(ramp_grid):
    # Straight run up the ramp with x-only noise; a dense-grid Bayes filter
    # over x is the reference posterior. One seed here; the acceptance
    # suite repeats this over 20 seeds at full size.
    motion = MotionNoise(0.02, 0.0, 0.0)
    sensor = SensorNoise(150.0)
    u = ControlInput(0.2, 0.0)
    seed_seq = np.random.SeedSequence(42)
    truth_rng, sensor_rng, filt_seed = (
        np.random.default_rng(seed_seq.spawn(3)[0]),
        np.random.default_rng(seed_seq.spawn(3)[1]),
        seed_seq.spawn(3)[2],
    )
    b = init(Pose(5.0, 0.0, 0.0), np.diag([0.5**2, 0.0, 0.0]), 800, seed=filt_seed)
    oracle = GridBayes1D(-2.0, 20.0, 2200)
    oracle.set_gaussian_prior(5.0, 0.5)
    map_at_xs = np.array([ramp_field(x, 0.0) for x in oracle.xs])
    truth_x = 5.0
    for _ in range(40):
        truth_x += u.v * STD_DT + truth_rng.normal(0.0, motion.sigma_x)
        z = ramp_field(truth_x, 0.0) + sensor_rng.normal(0.0, sensor.sigma_z)
        b = predict(b, u, STD_DT, motion)
        b = update(b, z, ramp_grid, sensor)
        b = resample_if_needed(b, b.n / 2)
        oracle.predict(u.v * STD_DT, motion.sigma_x)
        oracle.update(z, map_at_xs, sensor.sigma_z)
    pf_mean = estimate(b).mean.x
    assert pf_mean == pytest.approx(oracle.mean(), abs=2 * ramp_grid.cell_size)


# --- effective sample size and resampling ---


def test_ess_uniform_and_degenerate():
    n = 250
    b = make_belief(np.zeros((n, 3)), np.full(n, 1.0 / n))
    assert effective_sample_size(b) == pytest.approx(n, rel=1e-12)
    w = np.zeros(n)
    w[0] = 1.0
    assert effective_sample_size(make_belief(np.zeros((n, 3)), w)) == pytest.approx(1.0)


def test_ess_known_value():
    b = make_belief(np.zeros((4, 3)), [0.5, 0.5, 0.0, 0.0])
    assert effective_sample_size(b) == pytest.approx(2.0)


def test_no_resample_above_threshold_returns_same_object():
    n = 100
    b = make_belief(np.zeros((n, 3)), np.full(n, 1.0 / n))
    state_before = b.rng.bit_generator.state
    out = resample_if_needed(b, n / 2)
    assert out is b
    assert b.rng.bit_generator.state == state_before


def test_resample_triggers_below_threshold():
    n = 100
    particles = np.arange(3 * n, dtype=float).reshape(n, 3)
    w = np.zeros(n)
    w[7] = 1.0
    b = make_belief(particles, w)
    out = resample_if_needed(b, n / 2)
    assert np.allclose(out.particles, b.particles[7])
    assert np.allclose(out.weights, 1.0 / n)


@given(st.integers(0, 10_000), st.integers(2, 64))
def test_systematic_offspring_counts_near_expectation(seed, n):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(n) * 0.4)
    idx = systematic_resample_indices(w, np.random.default_rng(seed + 1))
    assert idx.shape == (n,)
    counts = np.bincount(idx, minlength=n)
    assert np.all(np.abs(counts - n * w) <= 1.0 + 1e-9)


def test_systematic_resampling_unbiased_mean():
    # Signed error of the post-resampling weighted mean should average to
    # zero across seeds (law of total expectation for the comb).
    rng = np.random.default_rng(0)
    n = 64
    particles = np.column_stack([rng.normal(0, 1, n), np.zeros(n), np.zeros(n)])
    w = rng.dirichlet(np.ones(n))
    before = float(w @ particles[:, 0])
    diffs = []
    for seed in range(300):
        idx = systematic_resample_indices(w, np.random.default_rng(seed))
        diffs.append(particles[idx, 0].mean() - before)
    diffs = np.array(diffs)
    assert abs(diffs.mean()) <= 5 * diffs.std() / math.sqrt(len(diffs))


# --- estimate ---


def test_estimate_matches_longhand_four_particles():
    particles = np.array(
        [[1.0, 2.0, 0.1], [2.0, 0.0, -0.2], [0.5, 1.0, 0.3], [1.5, 0.5, 0.0]]
    )
    w = np.array([0.4, 0.3, 0.2, 0.1])
    s = estimate(make_belief(particles, w))
    mx = (w * particles[:, 0]).sum()
    my = (w * particles[:, 1]).sum()
    mt = math.atan2(
        (w * np.sin(particles[:, 2])).sum(), (w * np.cos(particles[:, 2])).sum()
    )
    assert s.mean.x == pytest.approx(mx, abs=1e-12)
    assert s.mean.y == pytest.approx(my, abs=1e-12)
    assert s.mean.theta == pytest.approx(mt, abs=1e-12)
    cov = np.zeros((3, 3))
    for k in range(4):
        r = np.array(
            [particles[k, 0] - mx, particles[k, 1] - my, particles[k, 2] - mt]
        )
        cov += w[k] * np.outer(r, r)
    assert np.allclose(s.covariance, cov, atol=1e-12)
    assert s.det_positional() == pytest.approx(np.linalg.det(cov[:2, :2]), rel=1e-9)


def test_estimate_circular_mean_across_seam():
    b = make_belief(
        [[0.0, 0.0, math.pi - 0.05], [0.0, 0.0, -math.pi + 0.05]], [0.5, 0.5]
    )
    s = estimate(b)
    assert abs(s.mean.theta) == pytest.approx(math.pi, abs=1e-12)
    # Wrapped residuals are +/-0.05, not nearly 2 pi.
    assert s.covariance[2, 2] == pytest.approx(0.05**2, rel=1e-9)


def test_estimate_identical_particles_zero_covariance():
    b = make_belief(np.tile([1.0, 2.0, 0.5], (10, 1)), np.full(10, 0.1))
    s = estimate(b)
    assert np.allclose(s.covariance, 0.0, atol=1e-15)
    assert s.det_positional() == 0.0
