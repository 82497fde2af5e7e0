"""Particle-based entropy estimation and expected entropy reduction.

Belief entropy is estimated directly from the weighted particle set, using
the pairwise transition densities between consecutive particle clouds and
the measurement likelihoods of the incorporated reading (the particle
entropy estimator of Boers, Driessen, Bagchi and Mandal, FUSION 2010). All
sums run in log space through the one `logsumexp` below, the filter's
reweighting in `pflocal` included; entropies are reported in bits, and
`EntropyError` is the one error (`eer` reports failures per action).

Estimator conventions (the hard cases, pinned down by the oracle tests):

* Posterior entropy with measurement z over clouds prev -> cur, where cur
  holds the predicted particles reweighted by z:

      H = log(sum_i L_i w_prev_i)
          - sum_i w_cur_i * [log L_i + log(sum_j T_ij w_prev_j)]

  with L_i the likelihood of z at cur particle i and T_ij the transition
  density from prev particle j to cur particle i under the executed
  control. The posterior weights w_cur carry the outer expectation.

* Without a measurement (the closed-loop step on weight collapse, and
  EER's baseline) the first term and the likelihood factors drop:

      H = - sum_i w_cur_i * log(sum_j T_ij w_prev_j),   w_cur = w_prev.

* Both are `_entropy_nats`, with 0 * (-inf) counted as 0. The filter step
  takes the first term from its reweighting, which reduces the same N terms.

* T_ij is the motion model's Gaussian about prev particle j's motion mean
  mu_j, with (dx, dy, dth) = cur_i - mu_j and sx, sy, st the `ModelSet`'s
  motion sigmas:

      log T_ij = -(log sx + log sy + log st + 1.5 log(2 pi))
                 - 0.5 * (((dx/sx)^2 + (dy/sy)^2) + (dth/st)^2)

  dth is wrapped into (-pi, pi], so a step across the +/-pi seam is not
  scored as a near-full turn, by two exact shifts rather than np.remainder.
  That is exact while both headings lie in [-pi, pi]: every motion step
  returns such headings, and a `ParticleBelief` stores any heading outside
  that range wrapped, so the kernel takes its clouds as they are.

* The pairwise sum over j is formed in row tiles of at most TILE_ELEMENTS
  elements, each a block of whole rows i reduced by its own max-shifted
  log-sum-exp, holding O(N * tile) memory instead of O(N^2). Each call lays
  cur and the means out once as contiguous (3, n) coordinate planes and
  allocates one tile's scratch, which every tile reuses. Each tile is
  reduced in place by the body of `logsumexp` (peak subtracted, exp, sum and
  log on the tile buffer itself), so the loop makes no tile-sized float
  temporaries; only the exp step's masks, when a term lies at or below
  FAST_FLOOR, are tile-shaped (bool). In a peaked belief most peak-shifted
  terms lie far below the peak, where numpy's `exp` leaves its fast loop
  (below about -707.8, near and past the underflow to subnormals and 0).
  So the exp step (`_exp_into`) clamps every term at FAST_FLOOR = -700,
  zeroes the clamped lanes and writes back the exact exp of the few terms
  in the band (-746, -700]; the result is plain `np.exp`'s, bit for bit.

* A call of one tile (n <= rows: the shipped N = 150 step and eer's stacks)
  evaluates log T_ij as written above, in place and in that operation order
  (`_fill_tiles`), so its rows equal the dense N x N form's bit for bit.

* A call of more than one tile (N above 221 for one cloud, such as the
  dense_filter benchmark at N = 2000) forms each tile as one matrix product
  (`_gram_operands`, `_fill_gram`). Each cloud pair is centred on the
  means' centroid in x and y and turned by the first mean's heading
  (wrapped), then scaled to X_i = (x/sx, y/sy, th/st) and M_j alike, so

      log sum_j T_ij w_j = log_norm - 0.5|X_i|^2
                           + log sum_j exp(X_i . M_j + s_j),
      s_j = log w_j - 0.5|M_j|^2,

  and a tile is one (rows, 3) by (3, m) `np.matmul` into the tile buffer,
  plus s, reduced by the same log-sum-exp. Centring first keeps the
  operands as small as the clouds' spread, wherever the map lies. The
  product has no heading wrap, so it holds only while every turned heading
  residual lies strictly inside (-pi, pi); where one may not (the seam
  check), or a squared norm is not finite, every tile takes the one-tile
  form. The rows then differ from the exact ones by a few eps times
  D^2 + max|log w_j| + |log_norm| + pi D / st, with D^2 a bound on |X_i|^2
  and |M_j|^2 (`gram_bound` in `tests/test_infogain.py` counts the
  roundings).

* A multi-tile call of at least SPLIT_ELEMENTS pairwise elements
  (batch x n x m; N of about 1750 and up for one cloud), in a process that
  may use more than one CPU (`_usable_cpus`: its affinity set where the
  platform has one, as Linux does, else `os.cpu_count()`), splits its tiles
  into two contiguous halves of whole tiles (`_fill_halves`): one helper
  thread fills the second half, in a copy of the caller's context (so under
  its errstate), while the caller fills the first, each on its own scratch;
  the caller joins the helper before it returns or raises. A split call's
  rows equal a serial call's bit for bit.

* EER(a) = H_base - sum_j pbar_j H_j, where H_base is the no-measurement
  entropy at the rollout's terminal step, H_j the posterior entropy there
  given predicted measurement z_j, and pbar_j the normalized likelihoods
  p(z_j | hypothesis j). Both entropies run over the same M hypotheses, so
  an uninformative map cancels the two terms identically.

`eer` scores the A actions of the planner's `ActionSet` in one batched
kernel over an (A, M, 3) hypothesis tensor. One rng.choice call of shape
(A, M) draws every hypothesis set; it consumes the generator exactly like A
successive size-M draws in action order. One batched noise-free rollout
moves all actions over the whole horizon (they share one speed; omega * dt
broadcasts per action). Because the rollout is noise free, the terminal
hypotheses are themselves the transition means of the step before them, so
the filter's kernel `_log_predicted_density` takes them as both cloud and
means in one stacked (A, M) call, and both entropies are `_entropy_nats`.
The (A, M, M) likelihood block follows from the predicted map values alone:
z_j is the map value at hypothesis j. A failure confined to one action's
rollout (a non-finite estimate) fails that action alone.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .magmap import MagMap, lookup
from .models import (
    TWO_PI,
    ControlInput,
    ModelSet,
    MotionNoise,
    measurement_log_likelihood_array,
    motion_mean_array,
    sensor_log_likelihood,
    unicycle_rollout,
)

if TYPE_CHECKING:  # annotations only: pflocal and planner import this module
    from .pflocal import ParticleBelief
    from .planner import ActionSet, EerParams

LN2 = math.log(2.0)

# Element budget of one row tile of the N x N transition block (48k float64
# elements, 384 KB per buffer). With the two-thread split, 49152 beat 32768
# by 16-18% in paired probes at N = 1750 and 2000; on the serial multi-tile
# path it stayed within 3% of 32768 at N = 300-1200 (faster at 300 and 600).
# BENCH_19.json has the numbers, BENCH_13.json those of 16384 -> 32768.
TILE_ELEMENTS = 49152

# Multi-tile calls of at least this many pairwise elements (batch x n x m,
# N of about 1750 for one cloud) split their row tiles over the caller and
# one helper thread when the process may use more than one CPU. In paired
# probes on a 2-vCPU host the split won most pairs of every probe from here
# up, and lost most pairs of some probes at N = 800-1200 (BENCH_19.json).
SPLIT_ELEMENTS = 3_000_000

# numpy's float64 exp runs its fast loop for inputs above about -707.8 and
# a slow one below (2-vCPU AVX-512 Xeon, numpy 2.4.6, 16k elements: 18 us
# at -707.5, 290 us at -707.9, 2.9 ms where the results are subnormal and
# 280 us at -800, where they are 0). `_exp_into` clamps at FAST_FLOOR. exp
# of anything below about -745.13 is under half the smallest subnormal, so
# every input at or below ZERO_BELOW has exp +0.0.
FAST_FLOOR = -700.0
ZERO_BELOW = -746.0


class EntropyError(Exception):
    """An entropy estimate could not be formed (degenerate inputs or -inf mass)."""


@dataclass(frozen=True)
class EntropyEstimate:
    """An entropy value in bits; `_particle_entropy` raises on a non-finite one."""

    bits: float


def _safe_log(w: np.ndarray) -> np.ndarray:
    """Elementwise log with log(0) = -inf, never touching the zero entries."""
    out = np.full(w.shape, -np.inf)
    np.log(w, out=out, where=w > 0)
    return out


def logsumexp(a, axis=None) -> np.ndarray:
    """log(sum(exp(a))) over `axis` (every axis when None), shifted by the max.

    A slice that is all -inf gives -inf; nan propagates.
    """
    return _logsumexp_into(np.array(a, dtype=float), axis)


def _logsumexp_into(a: np.ndarray, axis=None) -> np.ndarray:
    """`logsumexp(a, axis)` for a float array, reduced in place: `a` is left
    holding exp(a - peak).

    The exp step is `_exp_into`: terms at or below FAST_FLOOR are clamped
    onto exp's fast loop and zeroed, and the band (ZERO_BELOW, FAST_FLOOR]
    gets its exact exp back, so every bit equals plain `np.exp`'s.
    """
    # The ufunc reductions are np.max and np.sum without their Python wrappers.
    peak = np.maximum.reduce(a, axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    a -= peak
    _exp_into(a)
    with np.errstate(divide="ignore"):
        out = np.log(np.add.reduce(a, axis=axis, keepdims=True))
    return np.squeeze(out + peak, axis=axis)


def _exp_into(d: np.ndarray) -> np.ndarray:
    """`np.exp(d, out=d)`, bit for bit, with every lane on exp's fast loop.

    Lanes at or below FAST_FLOOR are clamped to it, exponentiated and
    zeroed; the band (ZERO_BELOW, FAST_FLOOR] then gets its exact exp back.
    The result equals plain exp for five reasons: lanes above the floor
    (+inf included) are not touched; band lanes go through the same
    `np.exp`; lanes at or below ZERO_BELOW give +0.0 either way; nan
    survives the clamp and the multiply; and -inf gives 0. The band is found
    by one XOR of two masks, so no index array is built over the (often
    many) zero lanes, and `take` and `put` index `d` in its own order,
    whatever its memory layout.
    """
    keep = d > FAST_FLOOR
    if keep.all():
        return np.exp(d, out=d)
    band = np.flatnonzero(np.greater(d, ZERO_BELOW) ^ keep)
    exact = np.exp(np.take(d, band))
    np.maximum(d, FAST_FLOOR, out=d)
    np.exp(d, out=d)
    d *= keep
    np.put(d, band, exact)
    return d


def _log_predicted_density(
    cur_states: np.ndarray, means: np.ndarray, log_w: np.ndarray, motion: MotionNoise
) -> np.ndarray:
    """log of sum_j T_ij w_prev_j for every cur particle i, in row tiles, given
    the prev particles' motion `means` and `log_w = _safe_log(w_prev)`. Leading
    axes stack clouds, cur (..., n, 3), means (..., m, 3) and log_w (..., m)
    into (..., n); each tile holds the same rows of every cloud. The module
    docstring says how a call of more than one tile forms its tiles."""
    cur = _coordinate_planes(cur_states)
    mu = _coordinate_planes(means)[..., None, :]
    lead, n, m = cur.shape[1:-1], cur.shape[-1], mu.shape[-1]
    rows = max(1, TILE_ELEMENTS // (math.prod(lead) * m))
    out = np.empty((*lead, n))
    log_w = log_w[..., None, :]
    if n <= rows:
        _fill_tiles(out, cur, mu, log_w, motion, rows, np.empty((3, *lead, n, m)))
        return out
    gram = _gram_operands(cur, mu, log_w, motion)
    if gram is None:
        fill, row_ops, col_ops = _fill_tiles, (cur,), (mu, log_w, motion)
        scratch = (3, *lead, rows, m)
    else:
        fill, row_ops, col_ops = _fill_gram, gram[:2], gram[2:]
        scratch = (*lead, rows, m)
    if math.prod(lead) * n * m >= SPLIT_ELEMENTS and _usable_cpus() > 1:
        _fill_halves(fill, out, row_ops, col_ops, rows, scratch)
    else:
        fill(out, *row_ops, *col_ops, rows, np.empty(scratch))
    return out


def _usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity set where the
    platform has one (Linux), else `os.cpu_count()`."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_halves(fill, out, row_ops, col_ops, rows, scratch) -> None:
    """`fill` over two contiguous halves of whole tiles: the caller's thread
    fills the first ceil(tiles / 2), one helper thread the rest, each with
    its own `scratch`-shaped buffer. The row operands are cut along their
    last axis. The helper runs in a copy of the caller's context, so it has
    the caller's errstate. An exception in either half propagates after the
    join."""
    n = out.shape[-1]
    mid = (-(-n // rows) + 1) // 2 * rows
    halves = [
        (out[..., r0:r1], *(op[..., r0:r1] for op in row_ops), *col_ops, rows, np.empty(scratch))
        for r0, r1 in ((0, mid), (mid, n))
    ]
    failed: list[BaseException] = []

    def helper() -> None:
        try:
            fill(*halves[1])
        except BaseException as exc:  # re-raised on the caller's thread below
            failed.append(exc)

    thread = threading.Thread(target=contextvars.copy_context().run, args=(helper,))
    thread.start()
    try:
        fill(*halves[0])
    finally:
        thread.join()
    if failed:
        raise failed[0]


def _log_norm(motion: MotionNoise) -> float:
    """The Gaussian's log normaliser, -(log sx + log sy + log st + 1.5 log 2 pi)."""
    sx, sy, st = motion.sigma_x, motion.sigma_y, motion.sigma_theta
    return -(math.log(sx) + math.log(sy) + math.log(st) + 1.5 * math.log(TWO_PI))


def _fill_tiles(out, cur, mu, log_w, motion, rows, bufs) -> None:
    """Write `_log_predicted_density` into `out` tile by tile, `rows` rows at a
    time, reusing the (3, ..., rows, m) scratch `bufs` for every tile.

    log T_ij runs in place in the plain expression's operation order, so its
    bits are the same.
    """
    n = cur.shape[-1]
    sx, sy, st = motion.sigma_x, motion.sigma_y, motion.sigma_theta
    log_norm = _log_norm(motion)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        tile, tmp, shift = bufs[..., : r1 - r0, :]
        nxt = cur[..., r0:r1, None]
        np.copyto(tile, nxt[0])
        tile -= mu[0]
        tile /= sx
        np.square(tile, out=tile)
        np.copyto(tmp, nxt[1])
        tmp -= mu[1]
        tmp /= sy
        tile += np.square(tmp, out=tmp)
        np.copyto(tmp, nxt[2])
        tmp -= mu[2]
        _wrap_residual(tmp, shift)
        tmp /= st
        tile += np.square(tmp, out=tmp)
        tile *= 0.5
        np.subtract(log_norm, tile, out=tile)
        tile += log_w
        out[..., r0:r1] = _logsumexp_into(tile, axis=-1)


def _gram_operands(cur, mu, log_w, motion):
    """(x, a, mt, s) for `_fill_gram` from a call's coordinate planes: x
    (..., 3, n) and mt (..., 3, m) the centred, turned and scaled cur and
    means, a = log_norm - 0.5|x_i|^2 and s = log_w - 0.5|mt_j|^2. None where
    the module docstring's seam check or a squared norm fails."""
    mu = mu[..., 0, :]
    ref = mu.mean(axis=-1, keepdims=True)
    ref[2] = mu[2, ..., :1]
    x, mt = cur - ref, mu - ref
    for theta in (x[2], mt[2]):
        _wrap_residual(theta, np.empty_like(theta))
    # Rounding is monotone, so every residual lies between these two.
    lo = x[2].min(axis=-1) - mt[2].max(axis=-1)
    hi = x[2].max(axis=-1) - mt[2].min(axis=-1)
    sigma = np.array([motion.sigma_x, motion.sigma_y, motion.sigma_theta])
    sigma = sigma.reshape(3, *[1] * (x.ndim - 1))
    x /= sigma
    mt /= sigma
    with np.errstate(over="ignore"):
        a = _log_norm(motion) - 0.5 * np.add.reduce(np.square(x), axis=0)
        half = 0.5 * np.add.reduce(np.square(mt), axis=0)
    if not (
        np.all(-math.pi < lo) and np.all(hi < math.pi)
        and np.isfinite(a).all() and np.isfinite(half).all()
    ):
        return None
    return np.moveaxis(x, 0, -2), a, np.moveaxis(mt, 0, -2), log_w - half[..., None, :]


def _fill_gram(out, x, a, mt, s, rows, buf) -> None:
    """Write `_log_predicted_density` into `out` tile by tile from the
    operands of `_gram_operands`: each tile is the (rows, 3) by (3, m) product
    of x and mt into the (..., rows, m) `buf`, plus s, reduced by the
    log-sum-exp and shifted by a."""
    n = x.shape[-1]
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        tile = buf[..., : r1 - r0, :]
        np.matmul(x[..., r0:r1].mT, mt, out=tile)
        tile += s
        np.add(_logsumexp_into(tile, axis=-1), a[..., r0:r1], out=out[..., r0:r1])


def _coordinate_planes(states: np.ndarray) -> np.ndarray:
    """The x, y and heading columns of an (..., 3) stack as one contiguous
    (3, ...) array, so each coordinate is read at unit stride."""
    states = np.asarray(states, dtype=float)
    return np.ascontiguousarray(states.transpose(-1, *range(states.ndim - 1)))


def _wrap_residual(d: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """`models.wrap_angle_array(d)` in place, by two exact shifts.

    Bitwise equal to `wrap_angle_array` for every d in [-2*pi, 2*pi], which
    holds for the difference of two headings in [-pi, pi]. Each shift is a
    comparison written as 0.0 or 1.0 into the float buffer `shift` (d's
    shape), scaled by 2*pi and added, so the wrap makes no temporaries.
    """
    np.less(d, 0.0, out=shift)
    shift *= TWO_PI
    d += shift
    np.greater(d, math.pi, out=shift)
    shift *= TWO_PI
    d -= shift
    return d


def _entropy_nats(w, log_pred, log_lik=None, log_evidence=None, axis=-1) -> np.ndarray:
    """log_evidence - sum over `axis` of w * (log_lik + log_pred), in nats; with
    no measurement, -sum w * log_pred. A zero weight on a -inf term counts 0;
    a positive one makes the result non-finite, which the caller reports."""
    log_terms = log_pred if log_lik is None else log_lik + log_pred
    terms = np.zeros(np.broadcast(w, log_terms).shape)
    np.multiply(w, log_terms, out=terms, where=w > 0)
    total = np.add.reduce(terms, axis=axis)
    return -total if log_evidence is None else log_evidence - total


def _particle_entropy(w_cur, log_pred, log_lik=None, log_evidence=None) -> EntropyEstimate:
    """The filter's entropy from cur's weights and its per-particle log terms: the
    posterior given z's log_lik and log evidence log(sum_i L_i w_prev_i)."""
    measured = log_lik is not None
    if measured and not math.isfinite(log_evidence):
        raise EntropyError("measurement has zero mass under the predicted belief")
    nats = _entropy_nats(w_cur, log_pred, log_lik, log_evidence)
    if not math.isfinite(nats):
        what = "posterior" if measured else "predicted"
        raise EntropyError(f"{what} entropy: positive-weight particle with zero density")
    return EntropyEstimate(float(nats) / LN2)


def entropy_posterior(
    prev: ParticleBelief,
    cur: ParticleBelief,
    z: float,
    u: ControlInput,
    grid: MagMap,
    models: ModelSet,
) -> EntropyEstimate:
    """Entropy of the belief after incorporating measurement z.

    `prev` is the belief before the motion step, `cur` the belief after
    predict + update under control u; both must hold the same N.
    """
    if prev.n != cur.n:
        raise EntropyError(f"particle counts differ: {prev.n} vs {cur.n}")
    log_w = _safe_log(prev.weights)
    means = motion_mean_array(prev.particles, u, models.dt)
    log_pred = _log_predicted_density(cur.particles, means, log_w, models.motion)
    log_lik = measurement_log_likelihood_array(z, cur.particles, grid, models.sensor)
    log_evidence = float(logsumexp(log_lik + log_w))
    return _particle_entropy(cur.weights, log_pred, log_lik, log_evidence)


def eer(
    b: ParticleBelief,
    aset: ActionSet,
    grid: MagMap,
    models: ModelSet,
    params: EerParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, tuple[str | None, ...]]:
    """Expected entropy reduction of each action in `aset`, in bits, in action order.

    `params.m_count` hypotheses per action are drawn with replacement,
    proportional to weight, and rolled out noise free with the action held
    constant; each terminal hypothesis predicts the measurement it would see
    by one `magmap.lookup` (at the nearest extent point if it left the map).
    The expectation runs over one representative future measurement per
    hypothesis, weighted by the normalized likelihoods p(z_j | hypothesis j).
    Baseline and future entropies are both evaluated at the terminal horizon
    step over the same hypothesis set, so a map with no gradient yields
    exactly zero. `ActionSet` and `EerParams` own their rules; eer checks none.

    Returns `(bits, errors)`: the (A,) EER array and one entry per action,
    None or the reason its estimate is not finite (its bits are then not
    to be read); the other actions are unaffected.
    """
    actions, m_count, horizon = aset.actions, params.m_count, params.horizon_steps
    n_actions = len(actions)
    omega = np.array([a.omega for a in actions])[:, None]
    idx = rng.choice(b.n, size=(n_actions, m_count), replace=True, p=b.weights)
    states = unicycle_rollout(b.particles[idx], actions[0].v, omega, models.dt, horizon)

    w = 1.0 / m_count
    pts = states[..., :2].reshape(-1, 2)
    z_pred, inside = (a.reshape(n_actions, m_count) for a in lookup(grid, pts))
    with np.errstate(over="ignore", invalid="ignore"):
        # Hypothesis j one step earlier has motion mean x_j, so the terminal
        # hypotheses are both cloud and means; unicycle_rollout wrapped headings.
        log_w = np.full((n_actions, m_count), math.log(w))
        log_pred = _log_predicted_density(states, states, log_w, models.motion)
        h_base = _entropy_nats(w, log_pred)
        # (a, i, j): log p(z_j | x_i).
        log_lik = sensor_log_likelihood(
            z_pred[:, None, :], z_pred[:, :, None], inside[:, :, None], models.sensor
        )
        log_joint = log_lik + math.log(w)
        log_evidence = logsumexp(log_joint, axis=1)
        w_post = np.exp(log_joint - log_evidence[:, None, :])
        h_future = _entropy_nats(w_post, log_pred[:, :, None], log_lik, log_evidence, axis=1)
        # p(z_j | x_j) sits on the likelihood block's diagonal; normalize
        # across j so the future-entropy average is a proper expectation.
        log_pz = np.diagonal(log_lik, axis1=1, axis2=2)
        pbar = np.exp(log_pz - logsumexp(log_pz, axis=1)[:, None])
        bits = (h_base - np.einsum("aj,aj->a", pbar, h_future)) / LN2

    checks = (
        (np.isfinite(h_base),
         "horizon baseline entropy: positive-weight particle with zero density"),
        (np.isfinite(log_evidence).all(axis=1),
         "a predicted measurement has zero mass under the rollout"),
        (np.isfinite(h_future).all(axis=1),
         "future entropy: positive-weight hypothesis with zero density"),
        (np.isfinite(bits), "EER is not finite"),
    )
    errors = tuple(next((why for ok, why in checks if not ok[k]), None) for k in range(n_actions))
    return bits, errors

