"""Particle-filter localization on a magnetic map.

Weighted pose hypotheses approximate the posterior over robot state. The
filter cycle is predict (motion sampling), update (measurement likelihood
reweighting in log space), and conditional systematic resampling when the
effective sample size drops below a threshold.

Beliefs are immutable snapshots; operations return new beliefs. The rng
travels with the belief and is shared by its successors, so a filter
lineage is single-writer by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .magmap import MagMap
from .models import (
    ControlInput,
    MotionNoise,
    Pose,
    SensorNoise,
    measurement_log_likelihood_array,
    step_motion_array,
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


SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


def _safe_log(w: np.ndarray) -> np.ndarray:
    """Elementwise log with log(0) = -inf, never touching the zero entries."""
    out = np.full(w.shape, -np.inf)
    np.log(w, out=out, where=w > 0)
    return out


def _as_generator(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class ParticleBelief:
    """N weighted pose hypotheses plus the generator that drives them."""

    particles: np.ndarray
    weights: np.ndarray
    rng: np.random.Generator

    def __post_init__(self) -> None:
        particles = np.asarray(self.particles, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
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
        particles = particles.copy()
        weights = weights.copy()
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

    def __post_init__(self) -> None:
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (3, 3):
            raise FilterError(f"covariance must be 3x3, got {cov.shape}")
        if not np.all(np.isfinite(cov)):
            raise FilterError("covariance must be finite")
        if not np.allclose(cov, cov.T, rtol=0, atol=1e-12):
            raise FilterError("covariance must be symmetric")
        if float(np.linalg.eigvalsh(cov).min()) < -1e-12:
            raise FilterError("covariance must be positive semidefinite")
        cov = cov.copy()
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)

    def det_positional(self) -> float:
        """Determinant of the 2x2 position block, the quantity plotted over time."""
        return float(np.linalg.det(self.covariance[:2, :2]))


def init(
    prior_mean: Pose, prior_cov: np.ndarray, n: int, seed: SeedLike
) -> ParticleBelief:
    """Gaussian-prior belief with uniform weights.

    A zero covariance is a valid degenerate prior (all particles at the
    mean). Non-PSD covariance is rejected.
    """
    if n < 2:
        raise FilterError(f"need at least 2 particles, got {n}")
    cov = np.asarray(prior_cov, dtype=float)
    if cov.shape != (3, 3):
        raise FilterError(f"prior covariance must be 3x3, got {cov.shape}")
    if not np.allclose(cov, cov.T, rtol=0, atol=1e-9):
        raise FilterError("prior covariance must be symmetric")
    eigvals = np.linalg.eigvalsh(cov)
    if float(eigvals.min()) < -1e-9:
        raise FilterError(f"prior covariance not PSD (min eigenvalue {eigvals.min():g})")
    rng = _as_generator(seed)
    particles = rng.multivariate_normal(
        prior_mean.as_array(), cov, size=n, check_valid="ignore", method="svd"
    )
    particles[:, 2] = wrap_angle_array(particles[:, 2])
    return ParticleBelief(particles, np.full(n, 1.0 / n), rng)


def predict(
    b: ParticleBelief, u: ControlInput, dt: float, noise: MotionNoise
) -> ParticleBelief:
    """Push every particle through one noisy motion step; weights unchanged."""
    particles = step_motion_array(b.particles, u, dt, noise, b.rng)
    return ParticleBelief(particles, b.weights, b.rng)


def update(
    b: ParticleBelief, z: float, grid: MagMap, noise: SensorNoise
) -> ParticleBelief:
    """Reweight by measurement likelihood and renormalize.

    Computed in log space with max-subtraction: squared residuals of a
    150 nT sensor across a flat map region underflow linear-space products
    long before the posterior is actually degenerate.
    """
    log_w = _safe_log(b.weights) + measurement_log_likelihood_array(
        z, b.particles, grid, noise
    )
    peak = float(np.max(log_w))
    if not math.isfinite(peak):
        raise WeightCollapseError("every particle has zero posterior mass")
    shifted = np.exp(log_w - peak)
    total = float(shifted.sum())
    if peak + math.log(total) < math.log(COLLAPSE_THRESHOLD):
        raise WeightCollapseError(
            f"unnormalized posterior mass underflowed (log mass {peak + math.log(total):.1f})"
        )
    return ParticleBelief(b.particles, shifted / total, b.rng)


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
    if effective_sample_size(b) >= threshold:
        return b
    idx = systematic_resample_indices(b.weights, b.rng)
    return ParticleBelief(b.particles[idx], np.full(b.n, 1.0 / b.n), b.rng)


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
    return GaussianSummary(Pose(mean_x, mean_y, mean_theta), cov)
