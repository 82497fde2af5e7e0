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
    _wrap_residual,
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


def seam_clouds(n: int, seed: int, zero_every: int = 0):
    """prev/cur clouds whose headings straddle the +/-pi seam, with weights."""
    rng = np.random.default_rng(seed)
    prev = np.column_stack(
        [
            rng.normal(5.0, 0.05, n),
            rng.normal(0.0, 0.05, n),
            wrap_angle_array(rng.normal(math.pi, 0.1, n)),
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
def test_tiled_predicted_density_matches_dense_oracle_bitwise(n, zero_every, ragged):
    rows = TILE_ELEMENTS // n
    assert not ragged or (rows < n and n % rows != 0)
    prev, cur, w = seam_clouds(n, 100 + n, zero_every)
    assert n == 1 or ((cur[:, 2] > 0).any() and (cur[:, 2] < 0).any())
    got = infogain._log_predicted_density(cur, *kernel_args(prev, w))
    want = dense_log_predicted_density(cur, *kernel_args(prev, w))
    assert bit_equal(got, want)


@pytest.mark.parametrize(
    "batch, n, ragged",
    [
        pytest.param(6, 20, False, id="eer-6x20"),  # eer's (A, M) hypotheses in one tile
        pytest.param(3, ragged_n(2, 3), True, id="ragged-3-clouds"),
    ],
)
def test_stacked_predicted_density_matches_each_cloud_bitwise(batch, n, ragged):
    # A stack shares each tile's rows across its clouds; every row must come
    # out as the cloud's own 2-D call and the dense oracle give it.
    rows = TILE_ELEMENTS // (batch * n)
    assert (rows < n and n % rows != 0) == ragged
    clouds = [seam_clouds(n, 7 * k + n, zero_every=3 * (k % 2)) for k in range(batch)]
    prev, cur, w = (np.stack(parts) for parts in zip(*clouds))
    means = motion_mean_array(prev.reshape(-1, 3), KERNEL_U, STD_DT).reshape(prev.shape)
    got = infogain._log_predicted_density(cur, means, _safe_log(w), KERNEL_MODELS.motion)
    assert got.shape == (batch, n)
    for k in range(batch):
        args = kernel_args(prev[k], w[k])
        assert bit_equal(got[k], infogain._log_predicted_density(cur[k], *args))
        assert bit_equal(got[k], dense_log_predicted_density(cur[k], *args))


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


@pytest.mark.parametrize("n", [150, 600])  # one tile; tiles of 81 rows, the last one 33
def test_peaked_predicted_density_matches_dense_oracle_bitwise(n):
    # The closed loop's case: most peak-shifted terms underflow to 0 and some
    # fall in exp's slow band, so the exp step takes its clamped branch.
    rng = np.random.default_rng(n)
    prev = np.column_stack(
        [rng.normal(5.0, 0.3, n), rng.normal(0.0, 0.3, n), rng.normal(0.3, math.radians(5.0), n)]
    )
    means = motion_mean_array(prev, KERNEL_U, STD_DT)
    sigmas = [PEAKED_MOTION.sigma_x, PEAKED_MOTION.sigma_y, PEAKED_MOTION.sigma_theta]
    cur = means[rng.integers(0, n, n)] + rng.normal(0.0, sigmas, (n, 3))
    log_w = _safe_log(rng.dirichlet(np.ones(n)))
    log_t = transition_log_density_matrix(cur, prev, KERNEL_U, STD_DT, PEAKED_MOTION) + log_w
    shifted = log_t - log_t.max(axis=1, keepdims=True)
    assert (shifted <= -746.0).mean() > 0.5
    assert ((shifted > -746.0) & (shifted <= infogain.FAST_FLOOR)).sum() > n
    got = infogain._log_predicted_density(cur, means, log_w, PEAKED_MOTION)
    assert bit_equal(got, dense_log_predicted_density(cur, means, log_w, PEAKED_MOTION))


# --- calls of more than one tile: row-sized ufunc buffer, four-pass wrap ---


def band_clouds(n: int, seed: int, cur_band, mean_band, signed_zeros: bool = False):
    """cur states, motion means and log weights whose headings are drawn from
    the two bands. Each band's ends are pinned onto two states, so the call's
    residual bounds are exactly cur_band[0] - mean_band[1] and
    cur_band[1] - mean_band[0]. With `signed_zeros`, some headings of both
    clouds are -0.0 and some +0.0."""
    rng = np.random.default_rng(seed)
    means = np.column_stack(
        [rng.normal(5.0, 0.05, n), rng.normal(0.0, 0.05, n), rng.uniform(*mean_band, n)]
    )
    cur = np.column_stack(
        [means[:, 0] + rng.normal(0.0, 0.02, n), means[:, 1] + rng.normal(0.0, 0.02, n),
         rng.uniform(*cur_band, n)]
    )
    cur[:2, 2] = cur_band
    means[:2, 2] = mean_band[::-1]
    if signed_zeros:
        cur[2::3, 2], cur[3::7, 2] = -0.0, 0.0
        means[2::5, 2], means[4::7, 2] = -0.0, 0.0
    return cur, means, _safe_log(rng.dirichlet(np.ones(n)))


@pytest.fixture
def wrap_forms(monkeypatch):
    """The `short` flag of every `_wrap_residual` call the kernel makes."""
    forms = []

    def spy(d, shift, short):
        forms.append(short)
        return _wrap_residual(d, shift, short)

    monkeypatch.setattr("magplan.infogain._wrap_residual", spy)
    return forms


NEXT_BELOW_MINUS_3 = math.nextafter(-3.0, -4.0)
NEXT_ABOVE_PI = math.nextafter(math.pi, 4.0)


@pytest.mark.parametrize(
    "n, cur_band, mean_band, signed_zeros, short",
    [
        # Headings in a band off the +/-pi seam.
        pytest.param(ragged_n(15), (0.2, 0.6), (0.25, 0.55), False, True, id="ragged-15-off-seam"),
        pytest.param(2000, (-0.4, 0.1), (-0.3, 0.05), False, True, id="2000-off-seam"),
        # The bounds themselves, and the first floats past them.
        pytest.param(ragged_n(3), (-1.5, 1.5), (-1.5, 1.5), False, True, id="lo-at-minus-3"),
        pytest.param(ragged_n(3), (NEXT_BELOW_MINUS_3 + 1.5, 1.5), (-1.5, 1.5), False, False,
                     id="lo-below-minus-3"),
        pytest.param(ragged_n(3), (-1.0, 2.0), (2.0 - math.pi, 1.0), False, True, id="hi-at-pi"),
        pytest.param(ragged_n(3), (-1.0, 2.0), (2.0 - NEXT_ABOVE_PI, 1.0), False, False,
                     id="hi-above-pi"),
        pytest.param(ragged_n(3), (-0.3, 0.3), (-0.3, 0.3), True, True, id="signed-zeros"),
    ],
)
def test_multi_tile_wrap_forms_match_dense_oracle_bitwise(
    wrap_forms, n, cur_band, mean_band, signed_zeros, short
):
    cur, means, log_w = band_clouds(n, n, cur_band, mean_band, signed_zeros)
    lo = cur[:, 2].min() - means[:, 2].max()
    hi = cur[:, 2].max() - means[:, 2].min()
    assert (lo, hi) == (cur_band[0] - mean_band[1], cur_band[1] - mean_band[0])
    assert short == (lo >= -3.0 and hi <= math.pi)
    if signed_zeros:
        assert np.signbit(cur[cur[:, 2] == 0.0, 2]).any()
        assert np.signbit(means[means[:, 2] == 0.0, 2]).any()
    got = infogain._log_predicted_density(cur, means, log_w, KERNEL_MODELS.motion)
    assert len(wrap_forms) > 1 and set(wrap_forms) == {short}
    assert bit_equal(got, dense_log_predicted_density(cur, means, log_w, KERNEL_MODELS.motion))


def test_one_tile_call_takes_the_six_pass_wrap(wrap_forms):
    # Only a call of more than one tile checks the residual bounds.
    cur, means, log_w = band_clouds(150, 4, (0.2, 0.6), (0.25, 0.55))
    got = infogain._log_predicted_density(cur, means, log_w, KERNEL_MODELS.motion)
    assert wrap_forms == [False]
    assert bit_equal(got, dense_log_predicted_density(cur, means, log_w, KERNEL_MODELS.motion))


@pytest.mark.parametrize("offset", [0.0, 5e5], ids=["near-origin", "offset-5e5-m"])
@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_multi_tile_rows_equal_one_tile_calls_bitwise(monkeypatch, split, offset):
    # A multi-tile call forms each residual plane with one subtraction that
    # broadcasts both operands; a one-tile call copies cur and subtracts the
    # means. Slices of cur small enough for one tile, against the same means,
    # must give the multi-tile call's rows, serially and split. At map
    # offsets of 5e5 m the subtraction cancels most bits of its operands.
    two_cpus(monkeypatch, 0 if split else infogain.SPLIT_ELEMENTS)
    n = ragged_n(3)
    rows = TILE_ELEMENTS // n
    prev, cur, w = seam_clouds(n, 29)
    means, log_w, motion = kernel_args(prev, w)
    cur[:, :2] += offset
    means[:, :2] += offset
    forms = []
    residual = infogain._residual_into

    def spy(d, nxt, mu, broadcast):
        forms.append(broadcast)
        residual(d, nxt, mu, broadcast)

    monkeypatch.setattr(infogain, "_residual_into", spy)
    got = infogain._log_predicted_density(cur, means, log_w, motion)
    assert len(forms) > 3 and set(forms) == {True}
    forms.clear()
    slices = [cur[r0 : r0 + rows] for r0 in range(0, n, rows)]
    want = np.concatenate([infogain._log_predicted_density(c, means, log_w, motion) for c in slices])
    assert forms == [False] * 3 * len(slices)
    assert bit_equal(got, want)


def test_ufunc_buffer_is_one_tile_row_and_restored(monkeypatch):
    # The tiles of a multi-tile call run with numpy's ufunc buffer at one row,
    # rounded up to a multiple of 16, on scratch that starts on a 64-byte
    # boundary, under the caller's errstate; the caller's buffer size is back
    # afterwards, also when the first tile raises. A split call does the same
    # in every tile of both halves. A one-tile call leaves the buffer alone.
    # The caller's size is set apart from any row size, and its errstate
    # apart from numpy's default, so a leaked or lost setting cannot pass.
    n = ragged_n(3)
    assert n % 16 != 0
    tiles = -(-n // (TILE_ELEMENTS // n))
    cur, means, log_w = band_clouds(n, 6, (-0.4, 0.1), (-0.3, 0.05))
    seen = []
    reduce = infogain._logsumexp_into

    def spy(a, axis=None):
        seen.append((np.getbufsize(), a.ctypes.data % 64, np.geterr(), threading.get_ident()))
        return reduce(a, axis)

    def first_tile_raises(a, axis=None):
        raise FloatingPointError("first tile")

    monkeypatch.setattr(infogain, "_logsumexp_into", spy)
    saved = np.setbufsize(4096)
    threads = threading.active_count()
    try:
        with np.errstate(over="ignore"):
            caller_err = np.geterr()
            for split_elements, threads_seen in ((infogain.SPLIT_ELEMENTS, 1), (0, 2)):
                two_cpus(monkeypatch, split_elements)
                seen.clear()
                infogain._log_predicted_density(cur, means, log_w, KERNEL_MODELS.motion)
                assert np.getbufsize() == 4096
                assert len(seen) == tiles
                assert {(size, offset) for size, offset, _, _ in seen} == {(-(-n // 16) * 16, 0)}
                assert all(err == caller_err for _, _, err, _ in seen)
                assert len({ident for *_, ident in seen}) == threads_seen
            seen.clear()
            infogain._log_predicted_density(cur[:40], means[:40], log_w[:40], KERNEL_MODELS.motion)
            assert [size for size, *_ in seen] == [4096]
            monkeypatch.setattr(infogain, "_logsumexp_into", first_tile_raises)
            with pytest.raises(FloatingPointError, match="first tile"):
                infogain._log_predicted_density(cur, means, log_w, KERNEL_MODELS.motion)
            assert np.getbufsize() == 4096
            assert threading.active_count() == threads
    finally:
        np.setbufsize(saved)


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


@pytest.fixture
def fills(monkeypatch):
    """(on the caller's thread, rows) of every `_fill_tiles` call."""
    calls = []
    fill = infogain._fill_tiles
    caller = threading.get_ident()

    def spy(out, *args, **kwargs):
        calls.append((threading.get_ident() == caller, out.shape[-1]))
        return fill(out, *args, **kwargs)

    monkeypatch.setattr(infogain, "_fill_tiles", spy)
    return calls


@pytest.mark.parametrize(
    "batch, tiles",
    [
        pytest.param(1, 5, id="one-cloud-5-tiles"),
        pytest.param(1, 4, id="one-cloud-4-tiles"),
        pytest.param(2, 7, id="2-clouds-7-tiles"),
    ],
)
def test_split_call_matches_dense_oracle_bitwise(monkeypatch, fills, batch, tiles):
    # The caller fills the first ceil(tiles / 2) tiles and the helper the
    # rest, the partial last tile among them; every row of every cloud comes
    # out as the dense oracle gives it.
    two_cpus(monkeypatch)
    n = split_n(tiles, batch)
    rows = TILE_ELEMENTS // (batch * n)
    clouds = [seam_clouds(n, 11 * k + n, zero_every=3 * (k % 2)) for k in range(batch)]
    prev, cur, w = (np.stack(parts) for parts in zip(*clouds))
    means = motion_mean_array(prev.reshape(-1, 3), KERNEL_U, STD_DT).reshape(prev.shape)
    args = [a[0] if batch == 1 else a for a in (cur, means, _safe_log(w))]
    got = infogain._log_predicted_density(*args, KERNEL_MODELS.motion).reshape(batch, n)
    mid = (tiles + 1) // 2 * rows
    assert sorted(fills, reverse=True) == [(True, mid), (False, n - mid)]
    for k in range(batch):
        assert bit_equal(got[k], dense_log_predicted_density(cur[k], *kernel_args(prev[k], w[k])))


def test_split_follows_call_size_and_cpus(monkeypatch, fills):
    # A multi-tile call splits from SPLIT_ELEMENTS pairwise elements on, and
    # only when the process may use more than one CPU; the bits stay the
    # same. With the constant as shipped, dense_filter's N = 2000 call
    # splits on two CPUs and a closed loop's N = 600 call does not.
    shipped = infogain.SPLIT_ELEMENTS
    n = split_n(5)
    prev, cur, w = seam_clouds(n, 8)
    args = kernel_args(prev, w)
    want = dense_log_predicted_density(cur, *args)
    for cpus, split_elements, split in (
        (2, n * n, True),
        (2, n * n + 1, False),
        (1, 0, False),
    ):
        monkeypatch.setattr(infogain, "_usable_cpus", lambda cpus=cpus: cpus)
        monkeypatch.setattr(infogain, "SPLIT_ELEMENTS", split_elements)
        fills.clear()
        assert bit_equal(infogain._log_predicted_density(cur, *args), want)
        assert sorted(caller for caller, _ in fills) == ([False, True] if split else [True])
    assert 600 * 600 < shipped <= 2000 * 2000


@pytest.mark.parametrize("cpu_count, split", [(2, True), (1, False), (None, False)])
def test_split_size_call_without_sched_getaffinity(monkeypatch, fills, cpu_count, split):
    # macOS and Windows Pythons have no os.sched_getaffinity: there the
    # kernel counts os.cpu_count() CPUs (one when that is unknown) and a
    # call of split size gives the same bits.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    monkeypatch.setattr(infogain, "SPLIT_ELEMENTS", 0)
    prev, cur, w = seam_clouds(500, 14)
    args = kernel_args(prev, w)
    want = dense_log_predicted_density(cur, *args)
    assert bit_equal(infogain._log_predicted_density(cur, *args), want)
    assert sorted(caller for caller, _ in fills) == ([False, True] if split else [True])


def test_helper_half_runs_under_the_callers_errstate(monkeypatch):
    # Rows far off the means overflow the squared residual. In the helper's
    # half they warn as in the caller's, and not under the caller's
    # np.errstate(over="ignore").
    two_cpus(monkeypatch)
    n = split_n(4)
    prev, cur, w = seam_clouds(n, 12)
    cur[-3:, 0] = 1e200
    args = kernel_args(prev, w)
    with pytest.warns(RuntimeWarning, match="overflow"):
        infogain._log_predicted_density(cur, *args)
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
    fill = infogain._fill_tiles
    caller = threading.get_ident()

    def spy(*fill_args, **fill_kwargs):
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise HalfFailed(failing)
        return fill(*fill_args, **fill_kwargs)

    monkeypatch.setattr(infogain, "_fill_tiles", spy)
    with pytest.raises(HalfFailed, match=failing):
        infogain._log_predicted_density(cur, *args)
    assert threading.active_count() == threads


def test_concurrent_split_calls_match_dense_oracle_bitwise(monkeypatch):
    # Three callers on their own threads, each with its helper, so more
    # threads than CPUs, under a short switch interval: nothing the calls
    # share may change a bit, and no thread outlives them.
    two_cpus(monkeypatch)
    n = split_n(5)
    clouds = [seam_clouds(n, 20 + k) for k in range(3)]
    wants = [dense_log_predicted_density(cur, *kernel_args(prev, w)) for prev, cur, w in clouds]
    results = [[] for _ in clouds]

    def call(k):
        prev, cur, w = clouds[k]
        for _ in range(5):
            results[k].append(infogain._log_predicted_density(cur, *kernel_args(prev, w)))

    threads = threading.active_count()
    callers = [threading.Thread(target=call, args=(k,)) for k in range(len(clouds))]
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
    for got, want in zip(results, wants):
        assert len(got) == 5 and all(bit_equal(g, want) for g in got)


def test_entropies_match_dense_oracle_bitwise(ramp_grid, monkeypatch):
    prev, cur_states, w = seam_clouds(300, 5, zero_every=7)
    b_prev = ParticleBelief(prev, w, np.random.default_rng(0))
    cur = ParticleBelief(cur_states, w, np.random.default_rng(1))
    z = ramp_field(5.0, 0.0) + 40.0
    cur = update(cur, z, ramp_grid, STD_SENSOR)
    args = (b_prev, cur, z, KERNEL_U, ramp_grid, KERNEL_MODELS)
    got_post = entropy_posterior(*args).bits
    got_pred = predicted_entropy(b_prev, cur, KERNEL_U, KERNEL_MODELS).bits
    monkeypatch.setattr(infogain, "_log_predicted_density", dense_log_predicted_density)
    assert bit_equal(got_post, entropy_posterior(*args).bits)
    assert bit_equal(got_pred, predicted_entropy(b_prev, cur, KERNEL_U, KERNEL_MODELS).bits)


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
    # a few tile buffers (six when the call splits) plus O(N) vectors, under
    # eight tile buffers in all. numpy reports its array allocations to
    # tracemalloc.
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
