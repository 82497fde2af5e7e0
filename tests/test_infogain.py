"""Particle entropy estimators, expected entropy reduction, and outlier filtering."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from conftest import RAMP_BASE, RAMP_X0, STD_DT, STD_MOTION, STD_SENSOR, ramp_field
from magplan.models import (
    ControlInput,
    DegenerateDensityError,
    ModelSet,
    MotionNoise,
    Pose,
    SensorNoise,
    motion_mean_array,
)
from magplan.pflocal import ParticleBelief, init, predict, update
from magplan.planner import ActionSet, EerParams, Goal, PlannerWeights, select_action
from magplan.infogain import (
    EerValue,
    EntropyError,
    EntropyEstimate,
    InfoGainError,
    eer,
    entropy_posterior,
    entropy_predicted,
    iqr_reject,
    logsumexp,
)
from magplan.magmap import sample
from oracles import (
    build_hypotheses,
    direct_eer_bits,
    direct_posterior_entropy_bits,
    direct_predicted_entropy_bits,
    future_entropy,
    gaussian_entropy_bits,
    kalman_posterior_entropy_bits,
    predicted_entropy_at_horizon,
)

TURN_RATES = [math.radians(d) for d in (-25.0, -15.0, -5.0, 5.0, 15.0, 25.0)]


def ramp_belief(seed: int, n: int = 50, spread: float = 0.3) -> ParticleBelief:
    """A weighted cloud placed well inside the ramp map."""
    rng = np.random.default_rng(seed)
    particles = np.column_stack(
        [
            rng.normal(5.0, spread, n),
            rng.normal(0.0, spread, n),
            rng.normal(0.3, 0.1, n),
        ]
    )
    return ParticleBelief(particles, rng.dirichlet(np.ones(n)), np.random.default_rng(seed + 1))


@pytest.fixture(scope="module")
def models() -> ModelSet:
    return ModelSet(STD_MOTION, STD_SENSOR, STD_DT)


# --- estimator vs straight-line oracle ---


def test_posterior_entropy_matches_direct_oracle(ramp_grid, models):
    u = ControlInput(0.2, 0.1)
    prev = ramp_belief(12)
    cur = predict(prev, u, STD_DT, STD_MOTION)
    z = ramp_field(5.0, 0.0) + 80.0
    cur = update(cur, z, ramp_grid, STD_SENSOR)
    got = entropy_posterior(prev, cur, z, u, ramp_grid, models)
    want = direct_posterior_entropy_bits(
        prev.particles,
        prev.weights,
        cur.particles,
        cur.weights,
        z,
        (u.v, u.omega),
        STD_DT,
        (STD_MOTION.sigma_x, STD_MOTION.sigma_y, STD_MOTION.sigma_theta),
        ramp_field,
        STD_SENSOR.sigma_z,
    )
    assert got.with_measurement
    assert got.n_particles == prev.n
    assert got.bits == pytest.approx(want, abs=1e-9)


def test_predicted_entropy_matches_direct_oracle(ramp_grid, models):
    u = ControlInput(0.2, 0.1)
    prev = ramp_belief(21)
    cur = predict(prev, u, STD_DT, STD_MOTION)
    got = entropy_predicted(prev, cur, u, models)
    want = direct_predicted_entropy_bits(
        prev.particles,
        prev.weights,
        cur.particles,
        cur.weights,
        (u.v, u.omega),
        STD_DT,
        (STD_MOTION.sigma_x, STD_MOTION.sigma_y, STD_MOTION.sigma_theta),
    )
    assert not got.with_measurement
    assert got.bits == pytest.approx(want, abs=1e-9)


def test_entropy_invariant_under_particle_permutation(ramp_grid, models):
    u = ControlInput(0.2, 0.0)
    prev = ramp_belief(33)
    cur = predict(prev, u, STD_DT, STD_MOTION)
    z = ramp_field(5.1, 0.0)
    cur = update(cur, z, ramp_grid, STD_SENSOR)
    base = entropy_posterior(prev, cur, z, u, ramp_grid, models).bits
    perm = np.random.default_rng(0).permutation(prev.n)
    prev_p = ParticleBelief(prev.particles[perm], prev.weights[perm], prev.rng)
    cur_p = ParticleBelief(cur.particles[perm], cur.weights[perm], cur.rng)
    permuted = entropy_posterior(prev_p, cur_p, z, u, ramp_grid, models).bits
    assert permuted == pytest.approx(base, abs=1e-12)


def test_posterior_equals_predicted_on_uniform_map(uniform_grid, models):
    # With a featureless map the measurement carries no position information,
    # so conditioning on it must not change the entropy.
    u = ControlInput(0.2, 0.05)
    prev = ramp_belief(7)
    cur = predict(prev, u, STD_DT, STD_MOTION)
    z = 25000.0 + 42.0
    cur_post = update(cur, z, uniform_grid, STD_SENSOR)
    with_z = entropy_posterior(prev, cur_post, z, u, uniform_grid, models)
    without = entropy_predicted(prev, cur_post, u, models)
    assert with_z.bits == pytest.approx(without.bits, abs=1e-9)


def test_particle_count_mismatch_rejected(ramp_grid, models):
    prev = ramp_belief(1, n=20)
    cur = ramp_belief(2, n=30)
    with pytest.raises(EntropyError):
        entropy_predicted(prev, cur, ControlInput(0.2, 0.0), models)


# --- estimator vs closed-form Kalman oracle ---


class TestLinearGaussianScenario:
    """Pure diffusion (V=0) on a steep ramp: the belief stays Gaussian and
    the posterior covariance follows scalar Kalman recursions, giving a
    closed-form entropy. Slope and priors are chosen so the measurement
    genuinely tightens x (about 4x in variance over the three steps)."""

    SLOPE = 3000.0
    PRIOR_STD = (0.05, 0.03, 0.01)
    KERNELS = MotionNoise(0.02, 0.01, 0.01)
    STEPS = 3

    def steep_ramp(self):
        from magplan.magmap import MagMap

        xs = RAMP_X0 + 0.1 * np.arange(221)
        values = np.tile(RAMP_BASE + self.SLOPE * (xs - RAMP_X0), (41, 1))
        return MagMap((RAMP_X0, -2.0), 0.1, values)

    def run_estimate(self, seed: int, n: int, grid) -> float:
        models = ModelSet(self.KERNELS, STD_SENSOR, STD_DT)
        u = ControlInput(0.0, 0.0)
        ss = np.random.SeedSequence(seed).spawn(2)
        b = init(Pose(6.0, 0.0, 0.0), np.diag(np.square(self.PRIOR_STD)), n, seed=ss[0])
        z_rng = np.random.default_rng(ss[1])
        bits = math.nan
        for _ in range(self.STEPS):
            prev = b
            z = RAMP_BASE + self.SLOPE * (6.0 - RAMP_X0) + z_rng.normal(0, STD_SENSOR.sigma_z)
            b = predict(b, u, STD_DT, self.KERNELS)
            b = update(b, z, grid, STD_SENSOR)
            bits = entropy_posterior(prev, b, z, u, grid, models).bits
        return bits

    def closed_form(self) -> float:
        return kalman_posterior_entropy_bits(
            tuple(s * s for s in self.PRIOR_STD),
            (self.KERNELS.sigma_x**2, self.KERNELS.sigma_y**2, self.KERNELS.sigma_theta**2),
            self.SLOPE,
            STD_SENSOR.sigma_z,
            self.STEPS,
        )

    def test_matches_closed_form(self):
        # Smoke version: 5 seeds at N=2000. The acceptance suite runs the
        # full 50-seed average at the 0.2 bit tolerance.
        grid = self.steep_ramp()
        want = self.closed_form()
        errs = [self.run_estimate(seed, 2000, grid) - want for seed in range(5)]
        assert abs(float(np.mean(errs))) <= 0.2
        assert max(abs(e) for e in errs) <= 0.35

    def test_diffusion_only_matches_gaussian_entropy(self):
        # One noise-free-measurement-free step: predicted entropy of a
        # Gaussian prior diffused once has a textbook closed form.
        models = ModelSet(self.KERNELS, STD_SENSOR, STD_DT)
        u = ControlInput(0.0, 0.0)
        var0 = np.square(self.PRIOR_STD)
        step = np.square([self.KERNELS.sigma_x, self.KERNELS.sigma_y, self.KERNELS.sigma_theta])
        want = gaussian_entropy_bits(var0 + step)
        errs = []
        for seed in range(5):
            b0 = init(Pose(6.0, 0.0, 0.0), np.diag(var0), 2000, seed=seed)
            b1 = predict(b0, u, STD_DT, self.KERNELS)
            errs.append(entropy_predicted(b0, b1, u, models).bits - want)
        assert abs(float(np.mean(errs))) <= 0.2


# --- hypothesis rollouts ---


def test_build_hypotheses_geometry(ramp_grid, models):
    b = ParticleBelief(
        np.tile([5.0, 0.0, 0.0], (10, 1)), np.full(10, 0.1), np.random.default_rng(0)
    )
    a = ControlInput(0.2, 0.0)
    hyp = build_hypotheses(b, a, ramp_grid, models, m_count=4, horizon_steps=10, rng=b.rng)
    # Straight noise-free rollout from identical particles: terminal states
    # sit exactly H steps east, states_prev one step short.
    assert np.allclose(hyp.states[:, 0], 5.0 + 10 * 0.2 * STD_DT, atol=1e-12)
    assert np.allclose(hyp.states_prev[:, 0], 5.0 + 9 * 0.2 * STD_DT, atol=1e-12)
    assert np.allclose(hyp.states, motion_mean_array(hyp.states_prev, a, STD_DT))
    assert np.allclose(hyp.weights, 0.25)
    assert np.allclose(hyp.predicted_z, ramp_field(5.0 + 10 * 0.2 * STD_DT, 0.0), atol=1e-9)


def test_build_hypotheses_respects_weights(ramp_grid, models):
    particles = np.array([[4.0, 0.0, 0.0], [6.0, 0.0, 0.0], [8.0, 0.0, 0.0]])
    w = np.array([0.0, 1.0, 0.0])
    b = ParticleBelief(particles, w, np.random.default_rng(3))
    hyp = build_hypotheses(
        b, ControlInput(0.0, 0.0), ramp_grid, models, m_count=3, horizon_steps=1, rng=b.rng
    )
    assert np.allclose(hyp.states[:, 0], 6.0)


def test_build_hypotheses_deterministic_given_rng(ramp_grid, models):
    b = ramp_belief(5, n=40)
    a = ControlInput(0.2, 0.1)
    h1 = build_hypotheses(b, a, ramp_grid, models, 15, 5, np.random.default_rng(9))
    h2 = build_hypotheses(b, a, ramp_grid, models, 15, 5, np.random.default_rng(9))
    assert np.array_equal(h1.states, h2.states)
    assert np.array_equal(h1.predicted_z, h2.predicted_z)


def test_build_hypotheses_clamps_escaped_rollouts(ramp_grid, models):
    # Heading east near the east edge: long rollouts leave the map and the
    # predicted measurement comes from the clamped boundary point.
    b = ParticleBelief(
        np.tile([19.8, 0.0, 0.0], (5, 1)), np.full(5, 0.2), np.random.default_rng(0)
    )
    hyp = build_hypotheses(
        b, ControlInput(0.2, 0.0), ramp_grid, models, m_count=3, horizon_steps=50, rng=b.rng
    )
    assert np.all(hyp.states[:, 0] > 20.0)  # genuinely outside
    assert np.allclose(hyp.predicted_z, ramp_field(20.0, 0.0), atol=1e-9)


def test_eer_validation(ramp_grid, models):
    b = ramp_belief(2, n=10)
    rng = np.random.default_rng(0)
    a = (ControlInput(0.2, 0.0),)
    with pytest.raises(InfoGainError):
        eer(b, a, ramp_grid, models, 11, 5, rng)
    with pytest.raises(InfoGainError):
        eer(b, a, ramp_grid, models, 1, 5, rng)
    with pytest.raises(InfoGainError):
        eer(b, a, ramp_grid, models, 5, 0, rng)
    with pytest.raises(InfoGainError):
        eer(b, (ControlInput(0.2, 0.0), ControlInput(0.3, 0.0)), ramp_grid, models, 5, 5, rng)


# --- future entropy ---


def test_future_entropy_flat_region_equals_baseline(uniform_grid, models):
    b = ParticleBelief(
        np.column_stack(
            [
                np.random.default_rng(1).normal(0.0, 0.5, 30),
                np.random.default_rng(2).normal(0.0, 0.5, 30),
                np.zeros(30),
            ]
        ),
        np.full(30, 1 / 30),
        np.random.default_rng(3),
    )
    hyp = build_hypotheses(b, ControlInput(0.2, 0.0), uniform_grid, models, 20, 5, b.rng)
    h_z = future_entropy(hyp, 25000.0, uniform_grid, models)
    h_base = predicted_entropy_at_horizon(hyp, models)
    assert h_z.bits == pytest.approx(h_base.bits, abs=1e-9)


def test_future_entropy_gradient_informative(ramp_grid, uniform_grid, models):
    # The same cloud straddling a slope vs sitting on a flat map: a terminal
    # measurement must lower entropy only where the field varies.
    rng = np.random.default_rng(4)
    particles = np.column_stack(
        [rng.normal(8.0, 1.0, 40), rng.normal(0.0, 0.5, 40), np.zeros(40)]
    )
    w = np.full(40, 1 / 40)
    for grid, base_z in ((ramp_grid, ramp_field(8.2, 0.0)), (uniform_grid, 25000.0)):
        b = ParticleBelief(particles, w, np.random.default_rng(5))
        hyp = build_hypotheses(b, ControlInput(0.2, 0.0), grid, models, 40, 1, b.rng)
        h_z = future_entropy(hyp, base_z, grid, models).bits
        h_base = predicted_entropy_at_horizon(hyp, models).bits
        if grid is ramp_grid:
            assert h_z < h_base - 0.3
        else:
            assert h_z == pytest.approx(h_base, abs=1e-9)


# --- expected entropy reduction ---


def test_eer_matches_direct_oracle(ramp_grid, models):
    b = ramp_belief(17, n=60, spread=0.2)
    u = ControlInput(0.2, 0.1)
    (got,) = eer(
        b, (u,), ramp_grid, models, m_count=25, horizon_steps=3, rng=np.random.default_rng(77)
    )
    want = direct_eer_bits(
        b.particles,
        b.weights,
        (u.v, u.omega),
        STD_DT,
        (STD_MOTION.sigma_x, STD_MOTION.sigma_y, STD_MOTION.sigma_theta),
        ramp_field,
        STD_SENSOR.sigma_z,
        25,
        3,
        np.random.default_rng(77),
    )
    assert got.action == u
    assert got.bits == pytest.approx(want, abs=1e-9)


def test_eer_zero_on_uniform_map(uniform_grid, models):
    # Light version of the zeroing criterion: every candidate turn rate,
    # a few seeds, must come out exactly zero up to float noise.
    for seed in (0, 1):
        b = init(
            Pose(0.0, 0.0, 0.0),
            np.diag([0.3**2, 0.3**2, math.radians(5.0) ** 2]),
            250,
            seed=seed,
        )
        for omega in TURN_RATES:
            (v,) = eer(
                b,
                (ControlInput(0.2, omega),),
                uniform_grid,
                models,
                m_count=30,
                horizon_steps=10,
                rng=np.random.default_rng(seed),
            )
            assert abs(v.bits) <= 1e-9


def test_eer_deterministic_given_rng(peak_grid, models):
    b = init(Pose(5.0, 0.5, 0.0), np.diag([0.3**2, 0.3**2, 0.01]), 250, seed=3)
    u = ControlInput(0.2, math.radians(15.0))
    a = eer(b, (u,), peak_grid, models, 30, 10, np.random.default_rng(5))[0].bits
    b2 = eer(b, (u,), peak_grid, models, 30, 10, np.random.default_rng(5))[0].bits
    assert a == b2


def test_eer_prefers_gradient_over_flat_heading(peak_grid, models):
    # Belief south of the peak, heading east: turning left climbs the bump,
    # turning right walks away over flattening field.
    toward = ControlInput(0.2, math.radians(25.0))
    away = ControlInput(0.2, math.radians(-25.0))
    for seed in range(3):
        b = init(
            Pose(5.0, 0.5, 0.0),
            np.diag([0.3**2, 0.3**2, math.radians(5.0) ** 2]),
            250,
            seed=seed,
        )
        rng_t = np.random.default_rng(seed * 2 + 1)
        rng_a = np.random.default_rng(seed * 2 + 1)
        assert (
            eer(b, (toward,), peak_grid, models, 30, 10, rng_t)[0].bits
            > eer(b, (away,), peak_grid, models, 30, 10, rng_a)[0].bits
        )


def test_eer_finite_when_rollouts_escape(ramp_grid, models):
    b = ParticleBelief(
        np.random.default_rng(0).normal([19.5, 0.0, 0.0], [0.2, 0.2, 0.05], (40, 3)),
        np.full(40, 1 / 40),
        np.random.default_rng(1),
    )
    (v,) = eer(b, (ControlInput(0.2, 0.0),), ramp_grid, models, 20, 30, np.random.default_rng(2))
    assert math.isfinite(v.bits)


def test_eer_rejects_degenerate_sensor(ramp_grid):
    models0 = ModelSet(STD_MOTION, SensorNoise(0.0), STD_DT)
    b = ramp_belief(3, n=20)
    with pytest.raises(DegenerateDensityError):
        eer(b, (ControlInput(0.2, 0.0),), ramp_grid, models0, 10, 2, np.random.default_rng(0))


@pytest.mark.parametrize("grid_name", ["ramp_grid", "peak_grid"])
def test_batched_eer_matches_scalar_oracle_per_action(grid_name, models, request):
    # The kernel scores all six actions from one (A, M) draw; the oracle
    # scores them one by one from the same generator, so action k sees the
    # stream at the same position on both sides.
    grid = request.getfixturevalue(grid_name)
    actions = tuple(ControlInput(0.2, w) for w in TURN_RATES)
    b = init(
        Pose(5.0, 0.5, 0.0), np.diag([0.3**2, 0.3**2, math.radians(5.0) ** 2]), 250, seed=4
    )
    rng_kernel = np.random.default_rng(31)
    rng_oracle = np.random.default_rng(31)
    got = eer(b, actions, grid, models, m_count=30, horizon_steps=10, rng=rng_kernel)
    for a, value in zip(actions, got):
        want = direct_eer_bits(
            b.particles,
            b.weights,
            (a.v, a.omega),
            STD_DT,
            (STD_MOTION.sigma_x, STD_MOTION.sigma_y, STD_MOTION.sigma_theta),
            lambda x, y: sample(grid, (x, y)),
            STD_SENSOR.sigma_z,
            30,
            10,
            rng_oracle,
        )
        assert value.action == a
        assert value.bits == pytest.approx(want, abs=1e-12)
    assert rng_kernel.random() == rng_oracle.random()


def test_batched_eer_fails_one_action_alone(ramp_grid, models, monkeypatch):
    # A non-finite map value under one action's terminal hypotheses makes
    # that action's estimate non-finite; the other actions keep their values.
    import magplan.infogain as infogain

    actions = tuple(ControlInput(0.2, w) for w in TURN_RATES)
    b = ramp_belief(9, n=60)
    want = eer(b, actions, ramp_grid, models, 20, 4, np.random.default_rng(6))
    real_sample = infogain.sample_points

    def poisoned(grid, pts):
        out = real_sample(grid, pts).reshape(len(actions), -1)
        out[2] = np.nan
        return out.ravel()

    monkeypatch.setattr(infogain, "sample_points", poisoned)
    got = eer(b, actions, ramp_grid, models, 20, 4, np.random.default_rng(6))
    assert isinstance(got[2], EntropyError)
    assert "zero mass" in str(got[2])
    for k in (0, 1, 3, 4, 5):
        assert got[k].bits == want[k].bits

    goal = Goal((10.0, 0.0), 0.5)
    r = select_action(
        b, goal, ActionSet(actions), PlannerWeights(1.0, 1.0, 0.5), ramp_grid, models,
        EerParams(20, 4), np.random.default_rng(6),
    )
    for k, d in enumerate(r.diagnostics):
        if k == 2:
            assert d.cost == math.inf and math.isnan(d.eer_bits) and "zero mass" in d.error
        else:
            assert math.isfinite(d.cost) and d.error is None


def test_logsumexp_matches_scipy():
    rng = np.random.default_rng(12)
    for shape, axis in (((40,), None), ((7, 9), 0), ((7, 9), 1), ((3, 5, 6), 2), ((3, 5, 6), None)):
        a = rng.normal(0.0, 50.0, shape)
        a[rng.random(shape) < 0.3] = -np.inf
        if len(shape) > 1:
            a[(0,) * (len(shape) - 1)] = -np.inf  # one all -inf slice along the last axis
        got = logsumexp(a, axis=axis)
        want = scipy_logsumexp(a, axis=axis)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        finite = np.isfinite(want)
        assert np.allclose(np.asarray(got)[finite], np.asarray(want)[finite], rtol=0, atol=1e-12)
    assert logsumexp(np.full((2, 4), -np.inf), axis=1).tolist() == [-np.inf, -np.inf]
    assert math.isnan(float(logsumexp(np.array([0.0, np.nan]))))


def test_estimate_types_reject_nonfinite():
    with pytest.raises(EntropyError):
        EntropyEstimate(math.inf, 100, with_measurement=True)
    with pytest.raises(EntropyError):
        EerValue(math.nan, ControlInput(0.1, 0.0))


# --- outlier rejection ---


def test_iqr_constant_series_unchanged():
    s = np.full(10, 3.25)
    assert np.array_equal(iqr_reject(s), s)


def test_iqr_single_spike_replaced_by_predecessor():
    s = np.array([1.0, 1.0, 1.0, 1.0, 100.0, 1.0, 1.0, 1.0])
    out = iqr_reject(s)
    assert out.tolist() == [1.0] * 8


def test_iqr_replacement_chains_from_last_kept():
    s = np.array([2.0, 2.1, 50.0, 60.0, 2.2, 1.9, 2.0, 2.1])
    out = iqr_reject(s)
    assert out[2] == out[1] and out[3] == out[1]
    assert out[4] == 2.2


def test_iqr_first_element_always_kept():
    s = np.array([500.0, 1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0])
    out = iqr_reject(s)
    assert out[0] == 500.0


def test_iqr_no_outliers_is_identity():
    rng = np.random.default_rng(8)
    s = rng.uniform(10.0, 11.0, 50)
    assert np.array_equal(iqr_reject(s), s)


def test_iqr_validation():
    with pytest.raises(InfoGainError):
        iqr_reject(np.ones(3))
    with pytest.raises(InfoGainError):
        iqr_reject(np.array([1.0, 2.0, np.nan, 3.0]))
    with pytest.raises(InfoGainError):
        iqr_reject(np.ones((4, 2)))


@given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=120))
def test_iqr_output_inside_fences_or_chained(series):
    arr = np.asarray(series)
    out = iqr_reject(arr)
    q1, q3 = np.percentile(arr, [25.0, 75.0])
    lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    assert out[0] == arr[0]
    for i in range(1, len(out)):
        assert (lo <= out[i] <= hi) or out[i] == out[i - 1]
        if lo <= arr[i] <= hi:
            assert out[i] == arr[i]
