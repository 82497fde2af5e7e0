"""Particle-filter localization on a magnetic map.

Weighted pose hypotheses approximate the posterior over robot state. The
filter cycle is predict (motion sampling), update (measurement likelihood
reweighting in log space), and conditional systematic resampling when the
effective sample size drops below a threshold. The closed loop's filter
step, `assimilate`, composes the private forms of these steps with
`infogain`'s entropy terms. The reweighting reduces its log mass through
`infogain`'s one log-sum-exp.

Beliefs are immutable snapshots; operations return new beliefs. The rng
travels with the belief and is shared by its successors, so a filter
lineage is single-writer by construction.

Validation runs where values enter: `init`, `predict`'s dt and the
`ParticleBelief` constructor check what callers pass, freeze copies and
store any heading outside [-pi, pi] wrapped, as `Pose` does. The filter
steps trust the arrays they have just computed: `_snapshot` freezes them in
place and returns them with no copy and no check. `GaussianSummary` is made
only by `estimate` and checks nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .infogain import _log_predicted_density, _logsumexp_into, _particle_entropy, _safe_log
from .magmap import MagMap
from .models import (
    ControlInput,
    ModelSet,
    MotionNoise,
    Pose,
    SensorNoise,
    _check_dt,
    add_motion_noise,
    measurement_log_likelihood_array,
    motion_mean_array,
    wrap_angle_array,
)

# Unnormalized posterior mass below this means every particle is effectively
# impossible under the measurement; callers reset to a uniform belief.
COLLAPSE_THRESHOLD = 1e-300

WEIGHT_SUM_TOL = 1e-9


class FilterError(Exception):
    """Base error for particle-filter operations."""


class WeightCollapseError(FilterError):
    """All particle weights underflowed during a measurement update."""


def _snapshot(cls, *values):
    """`cls(*values)` without `__post_init__`, for arrays nothing else can write to."""
    obj = object.__new__(cls)
    for field, value in zip(fields(cls), values, strict=True):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, field.name, value)
    return obj


@dataclass(frozen=True)
class ParticleBelief:
    """N weighted pose hypotheses plus the generator that drives them."""

    particles: np.ndarray
    weights: np.ndarray
    rng: np.random.Generator

    def __post_init__(self) -> None:
        particles = np.array(self.particles, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if particles.ndim != 2 or particles.shape[1] != 3:
            raise FilterError(f"particles must be (N, 3), got {particles.shape}")
        n = particles.shape[0]
        if n < 2:
            raise FilterError(f"need at least 2 particles, got {n}")
        if weights.shape != (n,):
            raise FilterError(
                f"weights shape {weights.shape} does not match {n} particles"
            )
        if not np.all(np.isfinite(particles)):
            raise FilterError("particles must be finite")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise FilterError("weights must be finite and nonnegative")
        if abs(float(weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise FilterError(f"weights must sum to 1, got {weights.sum()!r}")
        # In-range headings keep their bits; a plain wrap moves some by an ulp.
        theta = particles[:, 2]
        particles[:, 2] = np.where(np.abs(theta) <= math.pi, theta, wrap_angle_array(theta))
        particles.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "particles", particles)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.particles.shape[0]


@dataclass(frozen=True)
class GaussianSummary:
    """Weighted mean and covariance of a belief, heading handled circularly."""

    mean: Pose
    covariance: np.ndarray

    def det_positional(self) -> float:
        """Determinant of the 2x2 position block, the quantity plotted over time."""
        return float(np.linalg.det(self.covariance[:2, :2]))


def check_prior_cov(prior_cov) -> np.ndarray:
    """`prior_cov` as a float array if it is a finite, symmetric, positive
    semidefinite 3x3 matrix; FilterError if not. A zero covariance is a valid
    degenerate prior (all particles at the mean)."""
    cov = np.asarray(prior_cov, dtype=float)
    if cov.shape != (3, 3) or not np.all(np.isfinite(cov)):
        raise FilterError(f"prior covariance must be a finite 3x3 matrix, got {cov.tolist()}")
    if not np.allclose(cov, cov.T, rtol=0, atol=1e-9):
        raise FilterError(f"prior covariance must be symmetric, got {cov.tolist()}")
    eigvals = np.linalg.eigvalsh(cov)
    if float(eigvals.min()) < -1e-9:
        raise FilterError(f"prior covariance not PSD (min eigenvalue {eigvals.min():g})")
    return cov


def init(prior_mean: Pose, prior_cov: np.ndarray, n: int, seed) -> ParticleBelief:
    """Gaussian-prior belief with uniform weights; `seed` is anything
    `np.random.default_rng` takes, and a Generator is used as it is."""
    if n < 2:
        raise FilterError(f"need at least 2 particles, got {n}")
    cov = check_prior_cov(prior_cov)
    rng = np.random.default_rng(seed)
    particles = rng.multivariate_normal(
        prior_mean.as_array(), cov, size=n, check_valid="ignore", method="svd"
    )
    particles[:, 2] = wrap_angle_array(particles[:, 2])
    return _snapshot(ParticleBelief, particles, np.full(n, 1.0 / n), rng)


def predict(
    b: ParticleBelief, u: ControlInput, dt: float, noise: MotionNoise
) -> ParticleBelief:
    """Push every particle through one noisy motion step; weights unchanged."""
    _check_dt(dt)
    return _moved(b, motion_mean_array(b.particles, u, dt), noise)


def _moved(b: ParticleBelief, means: np.ndarray, noise: MotionNoise) -> ParticleBelief:
    """`b` with its particles replaced by their motion `means` plus noise."""
    particles = add_motion_noise(means, noise, b.rng)
    return _snapshot(ParticleBelief, particles, b.weights, b.rng)


def update(
    b: ParticleBelief, z: float, grid: MagMap, noise: SensorNoise
) -> ParticleBelief:
    """Reweight by measurement likelihood and renormalize.

    Computed in log space with max-subtraction: squared residuals of a
    150 nT sensor across a flat map region underflow linear-space products
    long before the posterior is actually degenerate.
    """
    log_lik = measurement_log_likelihood_array(z, b.particles, grid, noise)
    return _reweighted(b, _safe_log(b.weights), log_lik)[0]


def _reweighted(b: ParticleBelief, log_w: np.ndarray, log_lik: np.ndarray):
    """`b` reweighted by `log_lik` (`log_w` is `_safe_log(b.weights)`) and its log
    mass, by `_logsumexp_into`; the weights re-sum the exp terms it leaves."""
    terms = log_w + log_lik
    log_mass = float(_logsumexp_into(terms))
    if not math.isfinite(log_mass):
        raise WeightCollapseError("every particle has zero posterior mass")
    if log_mass < math.log(COLLAPSE_THRESHOLD):
        raise WeightCollapseError(
            f"unnormalized posterior mass underflowed (log mass {log_mass:.1f})"
        )
    return _snapshot(ParticleBelief, b.particles, terms / float(terms.sum()), b.rng), log_mass


def effective_sample_size(b: ParticleBelief) -> float:
    return float(1.0 / np.sum(b.weights**2))


def systematic_resample_indices(
    weights: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Low-variance comb: one uniform draw, offspring counts within 1 of N*w."""
    n = weights.shape[0]
    positions = (rng.uniform() + np.arange(n)) / n
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0  # guard against float shortfall at the top end
    return np.searchsorted(cumulative, positions, side="left").astype(np.intp)


def resample_if_needed(b: ParticleBelief, threshold: float) -> ParticleBelief:
    """Systematic resampling when ESS < threshold, otherwise the belief as-is.

    Resampled weights are reset to uniform. The rng is consumed only when
    resampling actually triggers, so the trigger pattern is reproducible.
    """
    return _resampled(b, effective_sample_size(b), threshold)


def _resampled(b: ParticleBelief, ess: float, threshold: float) -> ParticleBelief:
    """`resample_if_needed` given the belief's effective sample size `ess`."""
    if ess >= threshold:
        return b
    idx = systematic_resample_indices(b.weights, b.rng)
    return _snapshot(ParticleBelief, b.particles[idx], np.full(b.n, 1.0 / b.n), b.rng)


def estimate(b: ParticleBelief) -> GaussianSummary:
    """Weighted mean and covariance; theta uses the circular mean and wrapped residuals."""
    w = b.weights
    x = b.particles[:, 0]
    y = b.particles[:, 1]
    theta = b.particles[:, 2]
    mean_x = float(w @ x)
    mean_y = float(w @ y)
    mean_theta = math.atan2(float(w @ np.sin(theta)), float(w @ np.cos(theta)))
    resid = np.empty_like(b.particles)
    resid[:, 0] = x - mean_x
    resid[:, 1] = y - mean_y
    resid[:, 2] = wrap_angle_array(theta - mean_theta)
    cov = (resid * w[:, None]).T @ resid
    cov = 0.5 * (cov + cov.T)
    return _snapshot(GaussianSummary, Pose(mean_x, mean_y, mean_theta), cov)


@dataclass(frozen=True)
class Assimilation:
    """One filter step: the new belief, and the estimate (taken before any
    resample), entropy, ESS and flags that the trace records of the step."""

    belief: ParticleBelief
    summary: GaussianSummary
    entropy_bits: float
    ess: float
    resampled: bool
    collapsed: bool


def assimilate(
    belief: ParticleBelief, u: ControlInput, z: float, grid: MagMap, models: ModelSet
) -> Assimilation:
    """Predict + update + entropy + resample when the ESS falls below N/2.

    On weight collapse the belief resets to uniform weights over the predicted
    particles and the entropy is the no-measurement one, with w_cur = w_prev
    (see `infogain`). Each term the filter steps share, the log evidence too,
    is computed once.
    """
    means = motion_mean_array(belief.particles, u, models.dt)
    predicted = _moved(belief, means, models.motion)
    log_w = _safe_log(belief.weights)
    cur = predicted.particles
    log_pred = _log_predicted_density(cur, means, log_w, models.motion)
    log_lik = measurement_log_likelihood_array(z, cur, grid, models.sensor)
    try:
        updated, log_evidence = _reweighted(predicted, log_w, log_lik)
    except WeightCollapseError:
        uniform = np.full(predicted.n, 1.0 / predicted.n)
        updated = _snapshot(ParticleBelief, cur, uniform, predicted.rng)
        entropy = _particle_entropy(predicted.weights, log_pred)
        collapsed = True
    else:
        entropy = _particle_entropy(updated.weights, log_pred, log_lik, log_evidence)
        collapsed = False
    summary = estimate(updated)
    ess = effective_sample_size(updated)
    new = _resampled(updated, ess, belief.n / 2.0)
    return Assimilation(new, summary, entropy.bits, ess, new is not updated, collapsed)
