"""Particle-based entropy estimation and expected entropy reduction.

Belief entropy is estimated directly from the weighted particle set, using
the pairwise transition densities between consecutive particle clouds and
the measurement likelihoods of the incorporated reading (the particle
entropy estimator of Boers, Driessen, Bagchi and Mandal, FUSION 2010). All
sums run in log space through the one `logsumexp` below; entropies are
reported in bits.

Estimator conventions (the hard cases, pinned down by the oracle tests):

* Posterior entropy with measurement z over clouds prev -> cur, where cur
  holds the predicted particles reweighted by z:

      H = log(sum_i L_i w_prev_i)
          - sum_i w_cur_i * [log L_i + log(sum_j T_ij w_prev_j)]

  with L_i the likelihood of z at cur particle i and T_ij the transition
  density from prev particle j to cur particle i under the executed
  control. The posterior weights w_cur carry the outer expectation.

* Without a measurement the first term and the likelihood factors drop:

      H = - sum_i w_cur_i * log(sum_j T_ij w_prev_j),   w_cur = w_prev.

* EER(a) = H_base - sum_j pbar_j H_j, where H_base is the no-measurement
  entropy at the rollout's terminal step, H_j the posterior entropy there
  given predicted measurement z_j, and pbar_j the normalized likelihoods
  p(z_j | hypothesis j). Both entropies run over the same M hypotheses, so
  an uninformative map cancels the two terms identically.

`eer` scores all A candidate actions of a planning step in one batched
kernel over an (A, M, 3) hypothesis tensor. One rng.choice call of shape
(A, M) draws every hypothesis set; it consumes the generator exactly like A
successive size-M draws in action order. One noise-free horizon loop rolls
all actions forward together (they share one speed; omega * dt broadcasts
per action). Because the rollout is noise free, the terminal hypotheses are
themselves the transition means of the step before them, so the (A, M, M)
transition block is centred on them directly. The (A, M, M) likelihood
block follows from the predicted map values alone: z_j is the map value at
hypothesis j. A failure confined to one action's rollout (a non-finite
estimate) fails that action alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .magmap import MagMap, sample_points
from .models import (
    ControlInput,
    ModelSet,
    measurement_log_likelihood_array,
    sensor_log_likelihood,
    transition_log_density_from_means,
    transition_log_density_matrix,
    unicycle_mean,
)
from .pflocal import ParticleBelief, _safe_log

LN2 = math.log(2.0)


class InfoGainError(Exception):
    """Base error for entropy estimation and series analysis."""


class EntropyError(InfoGainError):
    """An entropy estimate could not be formed (degenerate inputs or -inf mass)."""


@dataclass(frozen=True)
class EntropyEstimate:
    """A finite entropy value in bits; non-finite estimates raise instead."""

    bits: float
    n_particles: int
    with_measurement: bool

    def __post_init__(self) -> None:
        if not math.isfinite(self.bits):
            raise EntropyError(f"entropy estimate is not finite: {self.bits}")


@dataclass(frozen=True)
class EerValue:
    bits: float
    action: ControlInput

    def __post_init__(self) -> None:
        if not math.isfinite(self.bits):
            raise EntropyError(f"EER is not finite: {self.bits}")


def logsumexp(a, axis=None) -> np.ndarray:
    """log(sum(exp(a))) over `axis` (every axis when None), shifted by the max.

    A slice that is all -inf gives -inf; nan propagates.
    """
    a = np.asarray(a, dtype=float)
    peak = np.max(a, axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True))
    return np.squeeze(out + peak, axis=axis)


def _log_predicted_density(
    cur_states: np.ndarray,
    prev_states: np.ndarray,
    w_prev: np.ndarray,
    u: ControlInput,
    models: ModelSet,
) -> np.ndarray:
    """log of sum_j T_ij w_prev_j for every cur particle i."""
    log_t = transition_log_density_matrix(
        cur_states, prev_states, u, models.dt, models.motion
    )
    return logsumexp(log_t + _safe_log(w_prev)[None, :], axis=1)


def _expectation(weights: np.ndarray, log_terms: np.ndarray, what: str) -> float:
    # 0 * (-inf) is a legitimate 0 contribution; positive weight on -inf is not.
    terms = np.where(weights > 0, weights * log_terms, 0.0)
    if not np.all(np.isfinite(terms)):
        raise EntropyError(f"{what}: positive-weight particle with zero density")
    return float(terms.sum())


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
    log_lik = measurement_log_likelihood_array(z, cur.particles, grid, models.sensor)
    log_pred = _log_predicted_density(
        cur.particles, prev.particles, prev.weights, u, models
    )
    log_evidence = float(logsumexp(log_lik + _safe_log(prev.weights)))
    if not math.isfinite(log_evidence):
        raise EntropyError("measurement has zero mass under the predicted belief")
    nats = log_evidence - _expectation(
        cur.weights, log_lik + log_pred, "posterior entropy"
    )
    return EntropyEstimate(nats / LN2, cur.n, with_measurement=True)


def entropy_predicted(
    prev: ParticleBelief,
    cur: ParticleBelief,
    u: ControlInput,
    models: ModelSet,
) -> EntropyEstimate:
    """Entropy of the motion-predicted belief, no measurement incorporated."""
    if prev.n != cur.n:
        raise EntropyError(f"particle counts differ: {prev.n} vs {cur.n}")
    log_pred = _log_predicted_density(
        cur.particles, prev.particles, prev.weights, u, models
    )
    nats = -_expectation(cur.weights, log_pred, "predicted entropy")
    return EntropyEstimate(nats / LN2, cur.n, with_measurement=False)


def eer(
    b: ParticleBelief,
    actions: Sequence[ControlInput],
    grid: MagMap,
    models: ModelSet,
    m_count: int,
    horizon_steps: int,
    rng: np.random.Generator,
) -> tuple[EerValue | EntropyError, ...]:
    """Expected entropy reduction of each action, in bits, in action order.

    M hypotheses per action are subsampled proportional to weight and rolled
    out noise free with the action held constant; each terminal hypothesis
    predicts the measurement it would see by querying the map there
    (clamped to the extent if it left the map). The expectation runs over
    one representative future measurement per hypothesis, weighted by the
    normalized likelihoods p(z_j | hypothesis j). Baseline and future
    entropies are both evaluated at the terminal horizon step over the same
    hypothesis set, so a map with no gradient yields exactly zero.

    An action whose estimate comes out non-finite gets the EntropyError
    that says why in its slot; the others are unaffected. Arguments that
    fail every action raise InfoGainError, and a zero motion or sensor
    sigma raises DegenerateDensityError.
    """
    if m_count > b.n:
        raise InfoGainError(f"m_count {m_count} exceeds particle count {b.n}")
    if m_count < 2:
        raise InfoGainError(f"need at least 2 hypotheses, got {m_count}")
    if horizon_steps < 1:
        raise InfoGainError(f"horizon must be >= 1, got {horizon_steps}")
    speeds = {a.v for a in actions}
    if len(speeds) != 1:
        raise InfoGainError(f"actions must share one linear speed, got {speeds}")
    n_actions = len(actions)
    omega = np.array([a.omega for a in actions])[:, None]
    idx = rng.choice(b.n, size=(n_actions, m_count), replace=True, p=b.weights)
    states = b.particles[idx]
    for _ in range(horizon_steps):
        states = unicycle_mean(states, actions[0].v, omega, models.dt)

    w = 1.0 / m_count
    log_w = math.log(w)
    pts = states[..., :2].reshape(-1, 2)
    z_pred = sample_points(grid, grid.clamp(pts)).reshape(n_actions, m_count)
    inside = grid.contains(pts).reshape(n_actions, m_count)
    with np.errstate(over="ignore", invalid="ignore"):
        # (a, i, j): log p(x_i | hypothesis j one step earlier), whose motion
        # mean is x_j, and log p(z_j | x_i).
        log_t = transition_log_density_from_means(states, states, models.motion)
        log_lik = sensor_log_likelihood(
            z_pred[:, None, :], z_pred[:, :, None], inside[:, :, None], models.sensor
        )
        log_pred = logsumexp(log_t + log_w, axis=2)
        h_base = -(w * log_pred).sum(axis=1)
        log_joint = log_lik + log_w
        log_evidence = logsumexp(log_joint, axis=1)
        w_post = np.exp(log_joint - log_evidence[:, None, :])
        terms = np.where(w_post > 0, w_post * (log_lik + log_pred[:, :, None]), 0.0)
        h_future = log_evidence - terms.sum(axis=1)
        # p(z_j | x_j) sits on the likelihood block's diagonal; normalize
        # across j so the future-entropy average is a proper expectation.
        log_pz = np.diagonal(log_lik, axis1=1, axis2=2)
        pbar = np.exp(log_pz - logsumexp(log_pz, axis=1)[:, None])
        nats = h_base - np.einsum("aj,aj->a", pbar, h_future)

    checks = (
        (np.isfinite(log_pred).all(axis=1),
         "horizon baseline entropy: positive-weight particle with zero density"),
        (np.isfinite(log_evidence).all(axis=1),
         "a predicted measurement has zero mass under the rollout"),
        (np.isfinite(terms).all(axis=(1, 2)),
         "future entropy: positive-weight hypothesis with zero density"),
    )
    out: list[EerValue | EntropyError] = []
    for k, a in enumerate(actions):
        reason = next((why for ok, why in checks if not ok[k]), None)
        if reason is not None:
            out.append(EntropyError(reason))
            continue
        try:
            out.append(EerValue(float(nats[k]) / LN2, a))
        except EntropyError as exc:
            out.append(exc)
    return tuple(out)


def iqr_reject(series) -> np.ndarray:
    """Replace fence-breaking values with the last kept value.

    Fences are Q1 - 1.5*IQR and Q3 + 1.5*IQR over the whole input, with
    linearly interpolated quartiles. The first element is always kept and
    seeds the replacement chain.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1:
        raise InfoGainError(f"expected a 1D series, got shape {arr.shape}")
    if arr.shape[0] < 4:
        raise InfoGainError(f"need at least 4 values, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise InfoGainError("series values must be finite")
    q1, q3 = np.percentile(arr, [25.0, 75.0])
    spread = 1.5 * (q3 - q1)
    lo, hi = q1 - spread, q3 + spread
    out = arr.copy()
    for i in range(1, out.shape[0]):
        if not (lo <= arr[i] <= hi):
            out[i] = out[i - 1]
    return out
