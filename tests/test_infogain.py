"""Particle entropy estimators, expected entropy reduction, and outlier filtering."""

from __future__ import annotations

import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from conftest import (
    RAMP_BASE,
    RAMP_X0,
    STD_DT,
    STD_MOTION,
    STD_SENSOR,
    bit_equal,
    ramp_field,
)
from magplan.models import (
    ControlInput,
    ModelSet,
    MotionNoise,
    Pose,
    SensorNoise,
    measurement_log_likelihood_array,
    motion_mean_array,
    wrap_angle_array,
)
from magplan import infogain, pflocal
from magplan.pflocal import ParticleBelief, estimate, init, predict, update
from magplan.planner import ActionSet, EerParams, Goal, PlannerWeights, select_action
from magplan.simloop import EpisodeConfig, EpisodeRunner, filter_entropy
from magplan.infogain import (
    TILE_ELEMENTS,
    EntropyError,
    _safe_log,
    eer,
    entropy_posterior,
    logsumexp,
)
from oracles import (
    dense_log_predicted_density,
    direct_eer_bits,
    direct_posterior_entropy_bits,
    direct_predicted_entropy_bits,
    gaussian_entropy_bits,
    kalman_posterior_entropy_bits,
    plain_logsumexp,
    predicted_entropy,
    sample,
    transition_log_density_matrix,
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
    assert got.bits == pytest.approx(want, abs=1e-9)


def test_predicted_entropy_matches_direct_oracle(ramp_grid, models):
    u = ControlInput(0.2, 0.1)
    prev = ramp_belief(21)
    cur = predict(prev, u, STD_DT, STD_MOTION)
    got = predicted_entropy(prev, cur, u, models)
    want = direct_predicted_entropy_bits(
        prev.particles,
        prev.weights,
        cur.particles,
        cur.weights,
        (u.v, u.omega),
        STD_DT,
        (STD_MOTION.sigma_x, STD_MOTION.sigma_y, STD_MOTION.sigma_theta),
    )
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
    without = predicted_entropy(prev, cur_post, u, models)
    assert with_z.bits == pytest.approx(without.bits, abs=1e-9)


def test_particle_count_mismatch_rejected(ramp_grid, models):
    prev = ramp_belief(1, n=20)
    cur = ramp_belief(2, n=30)
    with pytest.raises(EntropyError):
        entropy_posterior(
            prev, cur, ramp_field(5.0, 0.0), ControlInput(0.2, 0.0), ramp_grid, models
        )


def test_zero_weight_on_zero_density_counts_zero():
    # 0 * (-inf) adds nothing to either entropy; a positive weight on a
    # particle of zero density is an error that names the estimate.
    w = np.array([0.0, 0.25, 0.75])
    log_pred = np.array([-np.inf, -1.0, -2.0])
    log_lik = np.array([-np.inf, -0.5, -0.25])
    pred = infogain._particle_entropy(w, log_pred)
    assert pred.bits * math.log(2.0) == pytest.approx(0.25 + 1.5, abs=1e-15)
    post = infogain._particle_entropy(w, log_pred, log_lik, 1.0)
    assert post.bits * math.log(2.0) == pytest.approx(1.0 + 0.375 + 1.6875, abs=1e-15)
    w = np.array([0.5, 0.25, 0.25])
    with pytest.raises(EntropyError, match="^predicted entropy: positive-weight"):
        infogain._particle_entropy(w, log_pred)
    with pytest.raises(EntropyError, match="^posterior entropy: positive-weight"):
        infogain._particle_entropy(w, log_pred, log_lik, 1.0)
    with pytest.raises(EntropyError, match="measurement has zero mass"):
        infogain._particle_entropy(w, log_pred, log_lik, -np.inf)


# --- row-tiled predicted density vs the dense N x N oracle ---

KERNEL_MODELS = ModelSet(MotionNoise(0.021, 0.013, 0.047), STD_SENSOR, STD_DT)
KERNEL_U = ControlInput(0.2, 0.3)


def seam_clouds(n: int, seed: int, zero_every: int = 0, wide: bool = False):
    """prev/cur clouds whose headings straddle the +/-pi seam, with weights.
    With `wide` the prev headings fill the whole circle, so a call of more
    than one tile takes the seam fallback."""
    rng = np.random.default_rng(seed)
    prev = np.column_stack(
        [
            rng.normal(5.0, 0.05, n),
            rng.normal(0.0, 0.05, n),
            wrap_angle_array(
                rng.uniform(-math.pi, math.pi, n) if wide else rng.normal(math.pi, 0.1, n)
            ),
        ]
    )
    cur = motion_mean_array(prev, KERNEL_U, STD_DT) + rng.normal(0.0, 0.02, (n, 3))
    cur[:, 2] = wrap_angle_array(cur[:, 2])
    w = rng.dirichlet(np.ones(n))
    if zero_every:
        w[::zero_every] = 0.0
        w /= w.sum()
    return prev, cur, w


def kernel_args(prev: np.ndarray, w: np.ndarray):
    """The arguments of `_log_predicted_density` after `cur` for a prev cloud under KERNEL_U."""
    return motion_mean_array(prev, KERNEL_U, STD_DT), _safe_log(w), KERNEL_MODELS.motion


def ragged_n(whole_tiles: int, batch: int = 1) -> int:
    """An N whose (batch, N, N) density splits into about `whole_tiles` full
    row tiles and a partial last one, whatever TILE_ELEMENTS is."""
    n = math.isqrt(whole_tiles * TILE_ELEMENTS // batch)
    while n % (TILE_ELEMENTS // (batch * n)) == 0:
        n += 1
    return n


@pytest.fixture
def fills(monkeypatch):
    """(tile form, on the caller's thread, rows) of every tile fill: "direct"
    for `_fill_tiles`, "gram" for `_fill_gram`."""
    calls = []
    caller = threading.get_ident()
    for form, name in (("direct", "_fill_tiles"), ("gram", "_fill_gram")):

        def spy(out, *args, form=form, fill=getattr(infogain, name)):
            calls.append((form, threading.get_ident() == caller, out.shape[-1]))
            return fill(out, *args)

        monkeypatch.setattr(infogain, name, spy)
    return calls


def gram_bound(cur: np.ndarray, means: np.ndarray, log_w: np.ndarray, motion: MotionNoise) -> float:
    """The most a Gram row of one cloud may differ from the dense oracle's row.

    Argued from the roundings of both forms, to first order in the unit
    roundoff u = eps / 2. In the scaled coordinates (x/sx, y/sy, th/st) let
    D^2 = sum_k (span_k / sigma_k)^2, where span_k is the extent of both
    clouds together along k (headings turned by the first mean's and
    wrapped). D then bounds |X_i|, |M_j| and |X_i - M_j| for any reference
    inside the means' extent. Let W = max |log w_j| over the positive weights
    and N0 = |log_norm|. Counting 2u per centred and scaled coordinate, 3u for
    each three-term dot product or squared norm, u for each add and
    3u (log2 m + 1) for the log-sum-exp (shift, exp, pairwise sum, log), the
    Gram row lies within u (14.5 D^2 + 4 W + 2 N0) of the exact row and the
    dense row within u (5 D^2 + 2 W + 3 N0). A turned or wrapped heading
    carries up to 3 pi u of absolute error, which moves a term by at most
    3 pi u D / st for each of the three such headings (cur and mean turned,
    the oracle's residual wrapped). In eps the sum is below
    9.75 D^2 + 3 W + 2.5 N0 + 4.5 pi D / st + 3 (log2 m + 1); c = 16 covers
    every coefficient.
    """
    both = np.concatenate([cur, means])
    turned = wrap_angle_array(both[:, 2] - means[0, 2])
    spans = (np.ptp(both[:, 0]), np.ptp(both[:, 1]), np.ptp(turned))
    sigmas = (motion.sigma_x, motion.sigma_y, motion.sigma_theta)
    d2 = sum((span / sigma) ** 2 for span, sigma in zip(spans, sigmas))
    w = np.abs(log_w[np.isfinite(log_w)]).max()
    n0 = abs(sum(math.log(s) for s in sigmas) + 1.5 * math.log(2 * math.pi))
    heading = math.pi * math.sqrt(d2) / motion.sigma_theta
    return 16 * np.finfo(float).eps * (d2 + w + n0 + heading + math.log2(len(means)) + 1)


@pytest.mark.parametrize(
    "n, zero_every, ragged",
    [
        (1, 0, False),  # one particle
        (40, 0, False),  # well below one tile
        (150, 0, False),  # as in the shipped configs, one tile
        (150, 3, False),  # zero weights
        # N follows the tile budget and the id does not: about 3, 15 and 31
        # full row tiles, then a partial one (zero weights in the first).
        pytest.param(ragged_n(3), 3, True, id="ragged-3-zero-weights"),
        pytest.param(ragged_n(15), 0, True, id="ragged-15"),
        pytest.param(ragged_n(31), 0, True, id="ragged-31"),
    ],
)
def test_tiled_predicted_density_matches_dense_oracle_bitwise(fills, n, zero_every, ragged):
    # One-tile calls, and multi-tile calls whose headings fill the circle
    # (the seam fallback), run the dense form's operations on every tile.
    rows = TILE_ELEMENTS // n
    assert not ragged or (rows < n and n % rows != 0)
    prev, cur, w = seam_clouds(n, 100 + n, zero_every, wide=ragged)
    assert n == 1 or ((cur[:, 2] > 0).any() and (cur[:, 2] < 0).any())
    got = infogain._log_predicted_density(cur, *kernel_args(prev, w))
    want = dense_log_predicted_density(cur, *kernel_args(prev, w))
    assert {form for form, *_ in fills} == {"direct"}
    assert bit_equal(got, want)


@pytest.mark.parametrize(
    "batch, n, ragged",
    [
        pytest.param(6, 20, False, id="eer-6x20"),  # eer's (A, M) hypotheses in one tile
        pytest.param(3, ragged_n(2, 3), True, id="ragged-3-clouds"),
    ],
)
def test_stacked_predicted_density_matches_each_cloud_bitwise(fills, batch, n, ragged):
    # A stack shares each tile's rows across its clouds; every row must come
    # out as the cloud's own 2-D call and the dense oracle give it. The
    # ragged stack's headings fill the circle, so it takes the seam fallback.
    rows = TILE_ELEMENTS // (batch * n)
    assert (rows < n and n % rows != 0) == ragged
    clouds = [seam_clouds(n, 7 * k + n, 3 * (k % 2), wide=ragged) for k in range(batch)]
    prev, cur, w = (np.stack(parts) for parts in zip(*clouds))
    means = motion_mean_array(prev.reshape(-1, 3), KERNEL_U, STD_DT).reshape(prev.shape)
    got = infogain._log_predicted_density(cur, means, _safe_log(w), KERNEL_MODELS.motion)
    assert got.shape == (batch, n)
    assert {form for form, *_ in fills} == {"direct"}
    for k in range(batch):
        args = kernel_args(prev[k], w[k])
        assert bit_equal(got[k], infogain._log_predicted_density(cur[k], *args))
        assert bit_equal(got[k], dense_log_predicted_density(cur[k], *args))


@pytest.mark.parametrize(
    "batch, n, zero_every",
    [
        pytest.param(1, ragged_n(3), 3, id="ragged-3-zero-weights"),
        pytest.param(1, ragged_n(15), 0, id="ragged-15"),
        pytest.param(1, ragged_n(31), 0, id="ragged-31"),
        pytest.param(3, ragged_n(2, 3), 3, id="ragged-3-clouds"),
    ],
)
def test_gram_rows_within_bound_of_dense_oracle(fills, batch, n, zero_every):
    # Clouds that straddle the +/-pi seam are turned by one angle and take
    # the Gram tiles; every row of every cloud, each with its own reference,
    # stays within `gram_bound` of the dense oracle.
    clouds = [seam_clouds(n, 7 * k + n, zero_every) for k in range(batch)]
    prev, cur, w = (np.stack(parts) for parts in zip(*clouds))
    means = motion_mean_array(prev.reshape(-1, 3), KERNEL_U, STD_DT).reshape(prev.shape)
    log_w = _safe_log(w)
    args = [a[0] if batch == 1 else a for a in (cur, means, log_w)]
    got = infogain._log_predicted_density(*args, KERNEL_MODELS.motion).reshape(batch, n)
    assert {form for form, *_ in fills} == {"gram"}
    for k in range(batch):
        want = dense_log_predicted_density(cur[k], means[k], log_w[k], KERNEL_MODELS.motion)
        bound = gram_bound(cur[k], means[k], log_w[k], KERNEL_MODELS.motion)
        assert np.abs(got[k] - want).max() <= bound


def test_gram_rows_within_bound_at_a_5e5_m_offset(fills):
    # Translation relation. Shifting both clouds by 5e5 m moves the rows of
    # either form by up to about 1e-8 nats, because the shifted inputs lose
    # their low bits, so both forms run on the same shifted inputs. The Gram
    # form centres before it scales, so its operands and its bound are those
    # of the unshifted clouds; scaling first would cost about 1e-8 nats here
    # and stay inside the bound near the origin.
    n = ragged_n(3)
    prev, cur, w = seam_clouds(n, 29)
    means, log_w, motion = kernel_args(prev, w)
    cur[:, :2] += 5e5
    means[:, :2] += 5e5
    got = infogain._log_predicted_density(cur, means, log_w, motion)
    want = dense_log_predicted_density(cur, means, log_w, motion)
    assert {form for form, *_ in fills} == {"gram"}
    assert np.abs(got - want).max() <= gram_bound(cur, means, log_w, motion)


def band_clouds(n: int, seed: int, cur_band, mean_band):
    """cur states, motion means and log weights whose headings are drawn from
    the two bands, each band's ends pinned onto two states; the first mean
    takes mean_band[0]."""
    rng = np.random.default_rng(seed)
    means = np.column_stack(
        [rng.normal(5.0, 0.05, n), rng.normal(0.0, 0.05, n), rng.uniform(*mean_band, n)]
    )
    cur = np.column_stack(
        [means[:, 0] + rng.normal(0.0, 0.02, n), means[:, 1] + rng.normal(0.0, 0.02, n),
         rng.uniform(*cur_band, n)]
    )
    cur[:2, 2] = cur_band
    means[:2, 2] = mean_band
    return cur, means, _safe_log(rng.dirichlet(np.ones(n)))


NEXT_BELOW_PI = math.nextafter(math.pi, 0.0)


@pytest.mark.parametrize(
    "cur_band, mean_band, form",
    [
        pytest.param((1.0, math.pi), (0.0, 1.0), "direct", id="hi-at-pi"),
        pytest.param((1.0, NEXT_BELOW_PI), (0.0, 1.0), "gram", id="hi-below-pi"),
        pytest.param((0.0, 0.5), (0.0, math.pi), "direct", id="lo-at-minus-pi"),
        pytest.param((0.0, 0.5), (0.0, NEXT_BELOW_PI), "gram", id="lo-above-minus-pi"),
    ],
)
def test_seam_check_is_strict(fills, cur_band, mean_band, form):
    # The first mean's heading is 0.0 and every heading lies in [0, pi], so
    # the turn leaves each heading as it is, and the call's extreme residuals
    # are cur_band[1] - mean_band[0] and cur_band[0] - mean_band[1]. A
    # residual of exactly +/-pi falls back, bit for bit; one float inside,
    # the call takes the Gram tiles.
    cur, means, log_w = band_clouds(ragged_n(3), 3, cur_band, mean_band)
    motion = KERNEL_MODELS.motion
    got = infogain._log_predicted_density(cur, means, log_w, motion)
    want = dense_log_predicted_density(cur, means, log_w, motion)
    assert {f for f, *_ in fills} == {form}
    if form == "direct":
        assert bit_equal(got, want)
    else:
        assert np.abs(got - want).max() <= gram_bound(cur, means, log_w, motion)


def test_closed_loop_entropy_equals_entropy_posterior_bitwise(peak_grid, models, monkeypatch):
    # The step takes the measurement's log evidence from the reweighting;
    # the public estimator reduces it with logsumexp. They must agree bit
    # for bit, on resampled steps as on the others.
    cfg = EpisodeConfig(
        grid=peak_grid,
        start=Pose(3.5, 1.5, 0.0),
        goal=Goal((10.0, 0.5), 0.5),
        weights=PlannerWeights(1.0, 1.0, 0.5),
        actions=ActionSet.from_turn_rates(0.2, TURN_RATES),
        models=ModelSet(STD_MOTION, SensorNoise(5.0), STD_DT),
        prior_cov=np.diag([0.09, 0.09, math.radians(5.0) ** 2]),
        n_particles=150,
        eer_params=EerParams(20, 5),
        step_budget=6,
        seed=0,
    )
    runner = EpisodeRunner(cfg)
    updated = []
    resampled = pflocal._resampled

    def capture(b, ess, threshold):
        updated.append(b)
        return resampled(b, ess, threshold)

    monkeypatch.setattr(pflocal, "_resampled", capture)
    flags = []
    for _ in range(cfg.step_budget):
        prev = runner.belief
        row = runner.step()
        assert not row.collapsed
        flags.append(row.resampled)
        want = entropy_posterior(prev, updated[-1], row.z, row.action, peak_grid, cfg.models)
        assert bit_equal(row.entropy_bits, want.bits)
    assert any(flags) and not all(flags)


# peak_sweep.cfg's motion noise, narrow against a prior-wide cloud.
PEAKED_MOTION = MotionNoise(0.01, 0.01, math.radians(0.15))


def peaked_clouds(n: int, wide: bool = False):
    """prev, cur states, motion means and log weights of a cloud far wider
    than PEAKED_MOTION; with `wide`, two prev particles face the other way."""
    rng = np.random.default_rng(n)
    prev = np.column_stack(
        [rng.normal(5.0, 0.3, n), rng.normal(0.0, 0.3, n), rng.normal(0.3, math.radians(5.0), n)]
    )
    if wide:
        prev[:2, 2] = wrap_angle_array(prev[:2, 2] + math.pi)
    means = motion_mean_array(prev, KERNEL_U, STD_DT)
    sigmas = [PEAKED_MOTION.sigma_x, PEAKED_MOTION.sigma_y, PEAKED_MOTION.sigma_theta]
    cur = means[rng.integers(0, n, n)] + rng.normal(0.0, sigmas, (n, 3))
    cur[:, 2] = wrap_angle_array(cur[:, 2])
    return prev, cur, means, _safe_log(rng.dirichlet(np.ones(n)))


@pytest.mark.parametrize("n", [150, 600])  # one tile; tiles of 81 rows, the last one 33
def test_peaked_predicted_density_matches_dense_oracle_bitwise(fills, n):
    # The closed loop's case: most peak-shifted terms underflow to 0 and some
    # fall in exp's slow band, so the exp step takes its clamped branch. At
    # N = 600 two particles face the other way, so the call takes the seam
    # fallback.
    prev, cur, means, log_w = peaked_clouds(n, wide=n > 150)
    log_t = transition_log_density_matrix(cur, prev, KERNEL_U, STD_DT, PEAKED_MOTION) + log_w
    shifted = log_t - log_t.max(axis=1, keepdims=True)
    assert (shifted <= -746.0).mean() > 0.5
    assert ((shifted > -746.0) & (shifted <= infogain.FAST_FLOOR)).sum() > n
    got = infogain._log_predicted_density(cur, means, log_w, PEAKED_MOTION)
    assert {form for form, *_ in fills} == {"direct"}
    assert bit_equal(got, dense_log_predicted_density(cur, means, log_w, PEAKED_MOTION))


def test_peaked_gram_rows_within_bound_of_dense_oracle(fills):
    # Spans of 180 sigma make |X|^2 about 1e5, the largest operands of these
    # tests, and the log-sum-exp still takes its clamped branch.
    prev, cur, means, log_w = peaked_clouds(600)
    got = infogain._log_predicted_density(cur, means, log_w, PEAKED_MOTION)
    want = dense_log_predicted_density(cur, means, log_w, PEAKED_MOTION)
    assert {form for form, *_ in fills} == {"gram"}
    assert np.abs(got - want).max() <= gram_bound(cur, means, log_w, PEAKED_MOTION)


@pytest.mark.parametrize("offset", [0.0, 5e5], ids=["near-origin", "offset-5e5-m"])
@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_multi_tile_rows_equal_one_tile_calls_bitwise(monkeypatch, fills, split, offset):
    # A multi-tile call whose headings fill the circle takes the seam
    # fallback, which runs the one-tile operations on every tile: slices of
    # cur small enough for one tile, against the same means, must give its
    # rows, serially and split. At map offsets of 5e5 m the subtraction
    # cancels most bits of its operands.
    two_cpus(monkeypatch, 0 if split else infogain.SPLIT_ELEMENTS)
    n = ragged_n(3)
    rows = TILE_ELEMENTS // n
    prev, cur, w = seam_clouds(n, 29, wide=True)
    means, log_w, motion = kernel_args(prev, w)
    cur[:, :2] += offset
    means[:, :2] += offset
    got = infogain._log_predicted_density(cur, means, log_w, motion)
    assert sorted(caller for _, caller, _ in fills) == ([False, True] if split else [True])
    slices = [cur[r0 : r0 + rows] for r0 in range(0, n, rows)]
    want = np.concatenate([infogain._log_predicted_density(c, means, log_w, motion) for c in slices])
    assert {form for form, *_ in fills} == {"direct"}
    assert bit_equal(got, want)


# --- calls split over the caller's thread and one helper thread ---


def two_cpus(monkeypatch, split_elements: int = 0) -> None:
    """Split every multi-tile call of at least `split_elements` pairwise
    elements, as a process that may use two CPUs does, however many CPUs
    this process may use."""
    monkeypatch.setattr(infogain, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(infogain, "SPLIT_ELEMENTS", split_elements)


def split_n(tiles: int, batch: int = 1) -> int:
    """An N whose (batch, N, N) density has exactly `tiles` row tiles, the
    last one partial, whatever TILE_ELEMENTS is."""
    n = math.isqrt((tiles - 1) * TILE_ELEMENTS // batch)
    while -(-n // (TILE_ELEMENTS // (batch * n))) != tiles or n % (TILE_ELEMENTS // (batch * n)) == 0:
        n += 1
    return n


SPLIT_CASES = [
    pytest.param(1, 5, id="one-cloud-5-tiles"),
    pytest.param(1, 4, id="one-cloud-4-tiles"),
    pytest.param(2, 7, id="2-clouds-7-tiles"),
]


def split_clouds(batch: int, tiles: int, wide: bool):
    """N, the stacked (prev, cur, w) of `batch` seam clouds with `tiles` row
    tiles, and the kernel's (cur, means, log_w), unstacked for one cloud."""
    n = split_n(tiles, batch)
    clouds = [seam_clouds(n, 11 * k + n, 3 * (k % 2), wide) for k in range(batch)]
    prev, cur, w = (np.stack(parts) for parts in zip(*clouds))
    means = motion_mean_array(prev.reshape(-1, 3), KERNEL_U, STD_DT).reshape(prev.shape)
    args = [a[0] if batch == 1 else a for a in (cur, means, _safe_log(w))]
    return n, (prev, cur, w), args


@pytest.mark.parametrize("batch, tiles", SPLIT_CASES)
def test_split_call_matches_dense_oracle_bitwise(monkeypatch, fills, batch, tiles):
    # Headings that fill the circle take the seam fallback. The caller fills
    # the first ceil(tiles / 2) tiles and the helper the rest, the partial
    # last tile among them; every row of every cloud comes out as the dense
    # oracle gives it.
    two_cpus(monkeypatch)
    n, (prev, cur, w), args = split_clouds(batch, tiles, wide=True)
    rows = TILE_ELEMENTS // (batch * n)
    got = infogain._log_predicted_density(*args, KERNEL_MODELS.motion).reshape(batch, n)
    mid = (tiles + 1) // 2 * rows
    assert sorted(fills, reverse=True) == [("direct", True, mid), ("direct", False, n - mid)]
    for k in range(batch):
        assert bit_equal(got[k], dense_log_predicted_density(cur[k], *kernel_args(prev[k], w[k])))


@pytest.mark.parametrize("batch, tiles", SPLIT_CASES)
def test_split_gram_call_matches_serial_call_bitwise(monkeypatch, fills, batch, tiles):
    # Split, the Gram tiles are the same products of the same rows as the
    # serial call's, in halves as above, so every row keeps its bits.
    n, _, args = split_clouds(batch, tiles, wide=False)
    rows = TILE_ELEMENTS // (batch * n)
    monkeypatch.setattr(infogain, "_usable_cpus", lambda: 1)
    want = infogain._log_predicted_density(*args, KERNEL_MODELS.motion)
    assert fills == [("gram", True, n)]
    fills.clear()
    two_cpus(monkeypatch)
    got = infogain._log_predicted_density(*args, KERNEL_MODELS.motion)
    mid = (tiles + 1) // 2 * rows
    assert sorted(fills, reverse=True) == [("gram", True, mid), ("gram", False, n - mid)]
    assert bit_equal(got, want)


def test_split_follows_call_size_and_cpus(monkeypatch, fills):
    # A multi-tile call splits from SPLIT_ELEMENTS pairwise elements on, and
    # only when the process may use more than one CPU; the bits stay the
    # same. With the constant as shipped, dense_filter's N = 2000 call
    # splits on two CPUs and a closed loop's N = 600 call does not.
    shipped = infogain.SPLIT_ELEMENTS
    n = split_n(5)
    prev, cur, w = seam_clouds(n, 8)
    args = kernel_args(prev, w)
    monkeypatch.setattr(infogain, "_usable_cpus", lambda: 1)
    want = infogain._log_predicted_density(cur, *args)
    for cpus, split_elements, split in (
        (2, n * n, True),
        (2, n * n + 1, False),
        (1, 0, False),
    ):
        monkeypatch.setattr(infogain, "_usable_cpus", lambda cpus=cpus: cpus)
        monkeypatch.setattr(infogain, "SPLIT_ELEMENTS", split_elements)
        fills.clear()
        assert bit_equal(infogain._log_predicted_density(cur, *args), want)
        assert sorted(caller for _, caller, _ in fills) == ([False, True] if split else [True])
    assert 600 * 600 < shipped <= 2000 * 2000


@pytest.mark.parametrize("cpu_count, split", [(2, True), (1, False), (None, False)])
def test_split_size_call_without_sched_getaffinity(monkeypatch, fills, cpu_count, split):
    # macOS and Windows Pythons have no os.sched_getaffinity: there the
    # kernel counts os.cpu_count() CPUs (one when that is unknown) and a
    # call of split size gives the same bits.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    prev, cur, w = seam_clouds(500, 14)
    args = kernel_args(prev, w)
    assert 500 * 500 < infogain.SPLIT_ELEMENTS
    want = infogain._log_predicted_density(cur, *args)
    monkeypatch.setattr(infogain, "SPLIT_ELEMENTS", 0)
    fills.clear()
    assert bit_equal(infogain._log_predicted_density(cur, *args), want)
    assert sorted(caller for _, caller, _ in fills) == ([False, True] if split else [True])


def test_helper_half_runs_under_the_callers_errstate(monkeypatch, fills):
    # Rows far off the means overflow the squared residual. Their squared
    # norms are not finite, so the call takes the direct tiles, and in the
    # helper's half they warn as in the caller's, and not under the
    # caller's np.errstate(over="ignore").
    two_cpus(monkeypatch)
    n = split_n(4)
    prev, cur, w = seam_clouds(n, 12)
    cur[-3:, 0] = 1e200
    args = kernel_args(prev, w)
    with pytest.warns(RuntimeWarning, match="overflow"):
        infogain._log_predicted_density(cur, *args)
    assert {form for form, *_ in fills} == {"direct"}
    with np.errstate(over="ignore"):
        got = infogain._log_predicted_density(cur, *args)
        want = dense_log_predicted_density(cur, *args)
    assert np.isneginf(got[-3:]).all() and np.isfinite(got[:-3]).all()
    assert bit_equal(got, want)


class HalfFailed(Exception):
    pass


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_split_call_raises_from_either_half_and_leaves_no_thread(monkeypatch, failing):
    two_cpus(monkeypatch)
    n = split_n(4)
    prev, cur, w = seam_clouds(n, 13)
    args = kernel_args(prev, w)
    threads = threading.active_count()
    infogain._log_predicted_density(cur, *args)
    assert threading.active_count() == threads
    fill = infogain._fill_gram
    caller = threading.get_ident()

    def spy(*fill_args):
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise HalfFailed(failing)
        return fill(*fill_args)

    monkeypatch.setattr(infogain, "_fill_gram", spy)
    with pytest.raises(HalfFailed, match=failing):
        infogain._log_predicted_density(cur, *args)
    assert threading.active_count() == threads


def concurrent_results(calls, rounds: int = 5):
    """The results of each zero-argument call run `rounds` times on its own
    thread, all threads at once under a short switch interval."""
    results = [[] for _ in calls]

    def run(k):
        for _ in range(rounds):
            results[k].append(calls[k]())

    threads = threading.active_count()
    callers = [threading.Thread(target=run, args=(k,)) for k in range(len(calls))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert threading.active_count() == threads
    assert all(len(got) == rounds for got in results)
    return results


def test_concurrent_split_calls_match_dense_oracle_bitwise(monkeypatch, fills):
    # Three callers on their own threads, each with its helper, so more
    # threads than CPUs: nothing the calls share may change a bit, and no
    # thread outlives them. The headings fill the circle (seam fallback).
    two_cpus(monkeypatch)
    clouds = [seam_clouds(split_n(5), 20 + k, wide=True) for k in range(3)]
    calls = [
        lambda prev=prev, cur=cur, w=w: infogain._log_predicted_density(cur, *kernel_args(prev, w))
        for prev, cur, w in clouds
    ]
    wants = [dense_log_predicted_density(cur, *kernel_args(prev, w)) for prev, cur, w in clouds]
    for got, want in zip(concurrent_results(calls), wants):
        assert all(bit_equal(g, want) for g in got)
    assert {form for form, *_ in fills} == {"direct"}


def test_concurrent_gram_split_calls_match_serial_call_bitwise(monkeypatch):
    # As above on the Gram tiles, whose products run in BLAS on every thread.
    clouds = [seam_clouds(split_n(5), 20 + k) for k in range(3)]
    calls = [
        lambda prev=prev, cur=cur, w=w: infogain._log_predicted_density(cur, *kernel_args(prev, w))
        for prev, cur, w in clouds
    ]
    monkeypatch.setattr(infogain, "_usable_cpus", lambda: 1)
    wants = [call() for call in calls]
    two_cpus(monkeypatch)
    for got, want in zip(concurrent_results(calls), wants):
        assert all(bit_equal(g, want) for g in got)


def entropy_pair(ramp_grid, n: int, wide: bool):
    """(posterior, predicted) entropy arguments over one seam cloud pair."""
    prev, cur_states, w = seam_clouds(n, 5, zero_every=7, wide=wide)
    b_prev = ParticleBelief(prev, w, np.random.default_rng(0))
    cur = ParticleBelief(cur_states, w, np.random.default_rng(1))
    z = ramp_field(5.0, 0.0) + 40.0
    cur = update(cur, z, ramp_grid, STD_SENSOR)
    post = (b_prev, cur, z, KERNEL_U, ramp_grid, KERNEL_MODELS)
    return post, (b_prev, cur, KERNEL_U, KERNEL_MODELS)


def test_entropies_match_dense_oracle_bitwise(ramp_grid, monkeypatch, fills):
    # N = 300 is a multi-tile call; its headings fill the circle, so it takes
    # the seam fallback.
    post, pred = entropy_pair(ramp_grid, 300, wide=True)
    got_post = entropy_posterior(*post).bits
    got_pred = predicted_entropy(*pred).bits
    assert {form for form, *_ in fills} == {"direct"}
    monkeypatch.setattr(infogain, "_log_predicted_density", dense_log_predicted_density)
    assert bit_equal(got_post, entropy_posterior(*post).bits)
    assert bit_equal(got_pred, predicted_entropy(*pred).bits)


def test_gram_entropies_within_bound_of_dense_oracle(ramp_grid, monkeypatch, fills):
    # Each entropy is log_evidence - sum_i w_i t_i with t_i = log L_i +
    # log_pred_i, and the weights sum to 1, so rows within B of the oracle's
    # move it by at most B nats. Each of the two evaluations adds its own
    # rounding: at most (n + 2) u (sum_i |w_i t_i| + |log_evidence|) for the
    # n products, their sum and the final subtraction.
    post, pred = entropy_pair(ramp_grid, 300, wide=False)
    b_prev, cur = post[0], post[1]
    means = motion_mean_array(b_prev.particles, KERNEL_U, STD_DT)
    log_w = _safe_log(b_prev.weights)
    log_pred = dense_log_predicted_density(cur.particles, means, log_w, KERNEL_MODELS.motion)
    log_lik = measurement_log_likelihood_array(post[2], cur.particles, ramp_grid, STD_SENSOR)
    log_ev = abs(float(logsumexp(log_lik + log_w)))
    bound = gram_bound(cur.particles, means, log_w, KERNEL_MODELS.motion)
    u = np.finfo(float).eps / 2
    got_post = entropy_posterior(*post).bits
    got_pred = predicted_entropy(*pred).bits
    assert {form for form, *_ in fills} == {"gram"}
    monkeypatch.setattr(infogain, "_log_predicted_density", dense_log_predicted_density)
    for got, want, terms, ev in (
        (got_post, entropy_posterior(*post).bits, log_lik + log_pred, log_ev),
        (got_pred, predicted_entropy(*pred).bits, log_pred, 0.0),
    ):
        rounding = 2 * (cur.n + 2) * u * (np.abs(cur.weights * terms).sum() + ev)
        assert abs(got - want) * math.log(2.0) <= (bound + rounding) * (1 + 4 * u)


def test_unwrapped_headings_stay_near_dense_oracle():
    # The belief stores headings outside [-pi, pi] wrapped, which may move
    # the last bits of the residual against the raw cloud but no more.
    prev, cur, w = seam_clouds(150, 9)
    turns = np.random.default_rng(3).integers(-3, 4, (2, 150))
    prev[:, 2] += 2 * math.pi * turns[0]
    cur[:, 2] += 2 * math.pi * turns[1]
    assert (np.abs(cur[:, 2]) > math.pi).sum() > 50
    stored = ParticleBelief(cur, w, np.random.default_rng(0)).particles
    got = infogain._log_predicted_density(stored, *kernel_args(prev, w))
    want = dense_log_predicted_density(cur, *kernel_args(prev, w))
    assert np.all(np.isfinite(want))
    assert np.abs(got - want).max() <= 1e-12


def test_entropy_memory_bounded_by_tiles(ramp_grid):
    # One N x N float matrix at N = 4000 is 128 MB; the tiled estimate holds
    # one tile buffer (one per half when the call splits) plus O(N)
    # vectors, under eight tile buffers in all. numpy reports its array
    # allocations to tracemalloc.
    n = 4000
    u = ControlInput(0.2, 0.1)
    prev = ramp_belief(4, n=n)
    cur = predict(prev, u, STD_DT, STD_MOTION)
    z = ramp_field(5.0, 0.0) + 80.0
    cur = update(cur, z, ramp_grid, STD_SENSOR)
    models = ModelSet(STD_MOTION, STD_SENSOR, STD_DT)
    tracemalloc.start()
    try:
        est = entropy_posterior(prev, cur, z, u, ramp_grid, models)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(est.bits)
    assert peak < 8 * TILE_ELEMENTS * 8, f"peak traced {peak / 2**20:.2f} MB"


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
            errs.append(predicted_entropy(b0, b1, u, models).bits - want)
        assert abs(float(np.mean(errs))) <= 0.2


# --- expected entropy reduction ---


def test_eer_matches_direct_oracle(ramp_grid, models):
    b = ramp_belief(17, n=60, spread=0.2)
    u = ControlInput(0.2, 0.1)
    (got,), errors = eer(
        b, ActionSet((u,)), ramp_grid, models, EerParams(25, 3), np.random.default_rng(77)
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
    assert errors == (None,)
    assert got == pytest.approx(want, abs=1e-9)


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
            (v,), errors = eer(
                b,
                ActionSet((ControlInput(0.2, omega),)),
                uniform_grid,
                models,
                EerParams(30, 10),
                np.random.default_rng(seed),
            )
            assert errors == (None,)
            assert abs(v) <= 1e-9


def test_eer_deterministic_given_rng(peak_grid, models):
    b = init(Pose(5.0, 0.5, 0.0), np.diag([0.3**2, 0.3**2, 0.01]), 250, seed=3)
    u = ControlInput(0.2, math.radians(15.0))
    a = eer(b, ActionSet((u,)), peak_grid, models, EerParams(30, 10), np.random.default_rng(5))
    b2 = eer(b, ActionSet((u,)), peak_grid, models, EerParams(30, 10), np.random.default_rng(5))
    a, b2 = a[0][0], b2[0][0]
    assert a == b2


def test_eer_prefers_gradient_over_flat_heading(peak_grid, models):
    # Belief south of the peak, heading east: turning left climbs the bump,
    # turning right walks away over flattening field.
    toward = ActionSet((ControlInput(0.2, math.radians(25.0)),))
    away = ActionSet((ControlInput(0.2, math.radians(-25.0)),))
    params = EerParams(30, 10)
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
            eer(b, toward, peak_grid, models, params, rng_t)[0][0]
            > eer(b, away, peak_grid, models, params, rng_a)[0][0]
        )


def test_eer_finite_when_rollouts_escape(ramp_grid, models):
    b = ParticleBelief(
        np.random.default_rng(0).normal([19.5, 0.0, 0.0], [0.2, 0.2, 0.05], (40, 3)),
        np.full(40, 1 / 40),
        np.random.default_rng(1),
    )
    (v,), errors = eer(
        b, ActionSet((ControlInput(0.2, 0.0),)), ramp_grid, models, EerParams(20, 30),
        np.random.default_rng(2),
    )
    assert errors == (None,)
    assert math.isfinite(v)


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
    got, errors = eer(b, ActionSet(actions), grid, models, EerParams(30, 10), rng_kernel)
    assert got.shape == (len(actions),)
    assert errors == (None,) * len(actions)
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
        assert value == pytest.approx(want, abs=1e-12)
    assert rng_kernel.random() == rng_oracle.random()


def test_batched_eer_fails_one_action_alone(ramp_grid, models, monkeypatch):
    # A non-finite map value under one action's terminal hypotheses makes
    # that action's estimate non-finite; the other actions keep their values.
    aset, params = ActionSet.from_turn_rates(0.2, TURN_RATES), EerParams(20, 4)
    b = ramp_belief(9, n=60)
    want, _ = eer(b, aset, ramp_grid, models, params, np.random.default_rng(6))
    real_lookup = infogain.lookup

    def poisoned(grid, pts):
        values, inside = real_lookup(grid, pts)
        values.reshape(len(aset), -1)[2] = np.nan
        return values, inside

    monkeypatch.setattr(infogain, "lookup", poisoned)
    got, errors = eer(b, aset, ramp_grid, models, params, np.random.default_rng(6))
    assert "zero mass" in errors[2]
    for k in (0, 1, 3, 4, 5):
        assert errors[k] is None
        assert got[k] == want[k]

    goal = Goal((10.0, 0.0), 0.5)
    r = select_action(
        b, estimate(b).mean, goal, aset, PlannerWeights(1.0, 1.0, 0.5), ramp_grid, models,
        params, np.random.default_rng(6),
    )
    for k, (bits, cost, error) in enumerate(zip(r.eer_bits, r.costs, r.errors)):
        if k == 2:
            assert cost == math.inf and math.isnan(bits) and "zero mass" in error
        else:
            assert math.isfinite(cost) and error is None


def test_batched_eer_reports_a_nonfinite_gain(ramp_grid, models, monkeypatch):
    # A likelihood block with a -inf diagonal for one action leaves its
    # entropies and evidence finite but its pbar, and so its EER, nan: the
    # fourth check names it; the other actions keep their values.
    aset, params = ActionSet.from_turn_rates(0.2, TURN_RATES), EerParams(20, 4)
    b = ramp_belief(9, n=60)
    want, _ = eer(b, aset, ramp_grid, models, params, np.random.default_rng(6))
    real_likelihood = infogain.sensor_log_likelihood

    def poisoned(*args):
        log_lik = real_likelihood(*args)
        log_lik[3][np.diag_indices(20)] = -np.inf
        return log_lik

    monkeypatch.setattr(infogain, "sensor_log_likelihood", poisoned)
    got, errors = eer(b, aset, ramp_grid, models, params, np.random.default_rng(6))
    assert errors[3] == "EER is not finite"
    assert not math.isfinite(got[3])
    for k in (0, 1, 2, 4, 5):
        assert errors[k] is None
        assert got[k] == want[k]


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


@pytest.mark.parametrize("axis", [None, 0, 1, 2])
def test_logsumexp_matches_plain_formula_bitwise(axis):
    # Both the public function and the in-place body the tile loop calls.
    rng = np.random.default_rng(21)
    a = rng.normal(0.0, 100.0, (4, 6, 50))  # exp(a) stays finite where nan or inf sets no shift
    a[0, 1] = -np.inf  # an all -inf slice along the last axis
    a[1, 2, rng.random(50) < 0.5] = -np.inf
    a[1, 3, 7] = np.nan
    a[2] = rng.normal(0.0, 1.0, (6, 50))  # many terms of one size: the sum order shows
    a[2, 4, 9] = np.inf
    # Slow-path exp inputs: a - peak in the subnormal band (-746, -708].
    a[3] = 10.0 - rng.uniform(708.0, 746.0, (6, 50))
    a[3, :, 0] = 10.0
    assert ((a[3, :, 1:] - 10.0 > -746.0) & (a[3, :, 1:] - 10.0 <= -708.0)).all()
    a = np.concatenate([a, floor_block(rng)])
    want = plain_logsumexp(a, axis=axis)
    assert bit_equal(logsumexp(a, axis=axis), want)
    assert bit_equal(infogain._logsumexp_into(a.copy(), axis=axis), want)
    f = np.asfortranarray(a)  # another layout, so another summation order
    assert bit_equal(logsumexp(f, axis=axis), plain_logsumexp(f, axis=axis))
    if axis == 2:
        assert np.isneginf(want[0, 1]) and np.isnan(want[1, 3]) and np.isposinf(want[2, 4])
        assert np.isnan(want[4, 2]) and np.isfinite(want[4, [0, 1, 3, 4, 5]]).all()
    # No term below the floor anywhere: the exp step's plain branch.
    a = rng.normal(0.0, 50.0, (4, 6, 50))
    assert (a - a.max() > infogain.FAST_FLOOR).all()
    want = plain_logsumexp(a, axis=axis)
    assert bit_equal(logsumexp(a, axis=axis), want)
    assert bit_equal(infogain._logsumexp_into(a.copy(), axis=axis), want)


# Peak-shifted lanes at the exp step's floor and zero bound and either side of
# them, in numpy's slow exp range, and far below it.
FLOOR_LANES = np.array(
    [
        -700.0,
        np.nextafter(-700.0, -np.inf),
        np.nextafter(-700.0, np.inf),
        -705.0,
        -707.9,
        -708.4,
        -745.13,
        -746.0,
        np.nextafter(-746.0, -np.inf),
        -800.0,
        -1e300,
    ]
)


def floor_block(rng: np.random.Generator) -> np.ndarray:
    """(2, 6, 50) slices whose peak is 0.0, so that a - peak is a itself
    along the last axis: FLOOR_LANES in most of them, and the exp step's
    edge cases."""
    k = len(FLOOR_LANES)
    b = np.empty((2, 6, 50))
    b[..., 0] = 0.0
    b[..., 1 : k + 1] = FLOOR_LANES
    b[0, 0, k + 1 :] = rng.uniform(-690.0, 0.0, 50 - k - 1)  # most lanes kept
    b[0, 1, 1:] = rng.uniform(-760.0, -700.0, 49)  # every lane but the peak low
    b[0, 1, -2:] = -700.0, np.nextafter(-700.0, -np.inf)
    b[0, 2, k + 1 :] = rng.uniform(-800.0, -600.0, 50 - k - 1)
    b[0, 2, -3:] = -np.inf, np.nan, -np.inf  # a nan among low lanes: its peak is nan
    b[0, 3, k + 1 :] = -np.inf  # -inf in the low lanes of a finite-peak slice
    b[0, 4] = rng.permutation(b[0, 0])
    b[0, 5, 1:] = rng.uniform(-1000.0, -600.0, 49)
    b[1] = rng.uniform(-760.0, -690.0, (6, 50))
    b[1, :, 0] = 0.0
    return b


def test_exp_step_matches_plain_exp_bitwise():
    rng = np.random.default_rng(23)
    a = floor_block(rng)
    cases = [
        a,
        np.concatenate([FLOOR_LANES, [0.0, -np.inf, np.inf, np.nan, -0.0]]),
        rng.uniform(-699.0, 5.0, (7, 9)),  # no lane at or below the floor
        np.asfortranarray(a),
        a.copy()[:, ::2, 1::3],  # a strided view: the band is written back through it
        np.array(-745.5),
    ]
    for d in cases:
        want = np.exp(d)
        assert infogain._exp_into(d) is d
        assert bit_equal(d, want)


# --- outlier rejection (simloop.filter_entropy) ---


def test_iqr_constant_series_unchanged():
    s = np.full(10, 3.25)
    assert np.array_equal(filter_entropy(s), s)


def test_iqr_single_spike_replaced_by_predecessor():
    s = np.array([1.0, 1.0, 1.0, 1.0, 100.0, 1.0, 1.0, 1.0])
    out = filter_entropy(s)
    assert out.tolist() == [1.0] * 8


def test_iqr_replacement_chains_from_last_kept():
    s = np.array([2.0, 2.1, 50.0, 60.0, 2.2, 1.9, 2.0, 2.1])
    out = filter_entropy(s)
    assert out[2] == out[1] and out[3] == out[1]
    assert out[4] == 2.2


def test_iqr_first_element_always_kept():
    s = np.array([500.0, 1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0])
    out = filter_entropy(s)
    assert out[0] == 500.0


def test_iqr_no_outliers_is_identity():
    rng = np.random.default_rng(8)
    s = rng.uniform(10.0, 11.0, 50)
    assert np.array_equal(filter_entropy(s), s)


def test_iqr_validation():
    # A series shorter than the filter's 4 values is copied unfiltered.
    s = np.ones(3)
    out = filter_entropy(s)
    assert out is not s and np.array_equal(out, s)


@given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=120))
def test_iqr_output_inside_fences_or_chained(series):
    arr = np.asarray(series)
    out = filter_entropy(arr)
    q1, q3 = np.percentile(arr, [25.0, 75.0])
    lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    assert out[0] == arr[0]
    for i in range(1, len(out)):
        assert (lo <= out[i] <= hi) or out[i] == out[i - 1]
        if lo <= arr[i] <= hi:
            assert out[i] == arr[i]
