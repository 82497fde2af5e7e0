"""Probabilistic motion and measurement models.

Unicycle kinematics with additive per-step Gaussian noise, and a scalar
magnetometer whose reading is the map value at the robot position plus
Gaussian noise. Shared by the simulator (sampling), the particle filter
(likelihoods), and the planner (transition densities for entropy terms).

Scalar operations take and return `Pose`; the `*_array` variants operate on
(N, 3) float arrays of [x, y, theta] rows, which is how the filter and the
entropy code actually call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .magmap import MagMap, OutOfMapError, sample_points

TWO_PI = 2.0 * math.pi

# Likelihood multiplier for poses outside the map: the query is clamped to
# the nearest extent point and the density is scaled down by this factor.
OUT_OF_MAP_PENALTY = 1e-3


class ModelError(Exception):
    """Base error for model construction and evaluation."""


class DegenerateDensityError(ModelError):
    """A density was requested for a distribution with zero spread."""


def wrap_angle(theta: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    w = theta % TWO_PI
    if w > math.pi:
        w -= TWO_PI
    return w


def wrap_angle_array(theta: np.ndarray) -> np.ndarray:
    w = np.asarray(theta, dtype=float) % TWO_PI
    return np.where(w > math.pi, w - TWO_PI, w)


@dataclass(frozen=True)
class Pose:
    """Planar robot state [x, y, theta]; theta is normalized on construction."""

    x: float
    y: float
    theta: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.x, self.y, self.theta)):
            raise ModelError(f"pose fields must be finite, got {self}")
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta], dtype=float)

    @staticmethod
    def from_array(arr: np.ndarray) -> "Pose":
        return Pose(float(arr[0]), float(arr[1]), float(arr[2]))

    def position(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class ControlInput:
    """Commanded linear and angular velocity [v, omega]."""

    v: float
    omega: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v) and math.isfinite(self.omega)):
            raise ModelError(f"control fields must be finite, got {self}")


@dataclass(frozen=True)
class MotionNoise:
    """Per-step standard deviations of the additive motion noise."""

    sigma_x: float
    sigma_y: float
    sigma_theta: float

    def __post_init__(self) -> None:
        sigmas = (self.sigma_x, self.sigma_y, self.sigma_theta)
        if not all(math.isfinite(s) and s >= 0 for s in sigmas):
            raise ModelError(f"motion sigmas must be finite and >= 0, got {self}")

    def is_zero(self) -> bool:
        return self.sigma_x == 0 and self.sigma_y == 0 and self.sigma_theta == 0


@dataclass(frozen=True)
class SensorNoise:
    """Scalar magnetometer noise standard deviation (nT).

    sigma_z = 0 is accepted as a degenerate noiseless limit so tests can
    synthesize exact measurements; density evaluation rejects it.
    """

    sigma_z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma_z) and self.sigma_z >= 0):
            raise ModelError(f"sigma_z must be finite and >= 0, got {self.sigma_z}")


@dataclass(frozen=True)
class ModelSet:
    """The model bundle threaded through filter, entropy, and planner calls."""

    motion: MotionNoise
    sensor: SensorNoise
    dt: float

    def __post_init__(self) -> None:
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ModelError(f"dt must be finite and > 0, got {self.dt}")


def unicycle_mean(
    states: np.ndarray, v: float, omega: float | np.ndarray, dt: float
) -> np.ndarray:
    """Noise-free unicycle step on a (..., 3) stack of [x, y, theta] rows.

    `omega` is a scalar or an array that broadcasts against
    `states[..., 2]`, so one call can step several turn rates at once.
    """
    out = np.empty_like(states)
    out[..., 0] = states[..., 0] + v * np.cos(states[..., 2]) * dt
    out[..., 1] = states[..., 1] + v * np.sin(states[..., 2]) * dt
    out[..., 2] = wrap_angle_array(states[..., 2] + omega * dt)
    return out


def motion_mean_array(states: np.ndarray, u: ControlInput, dt: float) -> np.ndarray:
    """Noise-free unicycle step applied to every [x, y, theta] row."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    return unicycle_mean(states, u.v, u.omega, dt)


def step_motion_array(
    states: np.ndarray,
    u: ControlInput,
    dt: float,
    noise: MotionNoise,
    rng: np.random.Generator,
) -> np.ndarray:
    """Advance every state one step, adding independent per-axis noise draws.

    With all sigmas zero no rng draw is consumed, so the noiseless path is
    reproducible regardless of generator state.
    """
    if dt <= 0:
        raise ModelError(f"dt must be > 0, got {dt}")
    out = motion_mean_array(states, u, dt)
    if not noise.is_zero():
        n = out.shape[0]
        eps = rng.normal(
            0.0,
            [noise.sigma_x, noise.sigma_y, noise.sigma_theta],
            size=(n, 3),
        )
        out[:, 0] += eps[:, 0]
        out[:, 1] += eps[:, 1]
        out[:, 2] = wrap_angle_array(out[:, 2] + eps[:, 2])
    return out


def step_motion(
    p: Pose, u: ControlInput, dt: float, noise: MotionNoise, rng: np.random.Generator
) -> Pose:
    return Pose.from_array(
        step_motion_array(p.as_array().reshape(1, 3), u, dt, noise, rng)[0]
    )


def _check_densities_valid(noise: MotionNoise) -> None:
    if noise.sigma_x == 0 or noise.sigma_y == 0 or noise.sigma_theta == 0:
        raise DegenerateDensityError(
            "transition density undefined with a zero motion sigma; "
            "use the sampled form instead"
        )


def transition_log_density_matrix(
    next_states: np.ndarray,
    prev_states: np.ndarray,
    u: ControlInput,
    dt: float,
    noise: MotionNoise,
) -> np.ndarray:
    """Pairwise log p(next_i | prev_j, u) as an (N, M) matrix."""
    nxt = np.atleast_2d(np.asarray(next_states, dtype=float))
    return transition_log_density_from_means(
        nxt, motion_mean_array(prev_states, u, dt), noise
    )


def transition_log_density_from_means(
    next_states: np.ndarray, means: np.ndarray, noise: MotionNoise
) -> np.ndarray:
    """Pairwise log N(next_i; mean_j, noise) for (..., N, 3) and (..., M, 3) stacks.

    Leading axes broadcast, giving a (..., N, M) block. The angular residual
    is wrapped before the Gaussian is evaluated so a heading step across the
    +/-pi seam is not scored as a near-full turn.
    """
    _check_densities_valid(noise)
    dx = next_states[..., :, None, 0] - means[..., None, :, 0]
    dy = next_states[..., :, None, 1] - means[..., None, :, 1]
    dth = wrap_angle_array(next_states[..., :, None, 2] - means[..., None, :, 2])
    log_norm = -(
        math.log(noise.sigma_x)
        + math.log(noise.sigma_y)
        + math.log(noise.sigma_theta)
        + 1.5 * math.log(TWO_PI)
    )
    return log_norm - 0.5 * (
        (dx / noise.sigma_x) ** 2
        + (dy / noise.sigma_y) ** 2
        + (dth / noise.sigma_theta) ** 2
    )


def transition_log_density(
    p_next: Pose, p: Pose, u: ControlInput, dt: float, noise: MotionNoise
) -> float:
    return float(
        transition_log_density_matrix(
            p_next.as_array().reshape(1, 3), p.as_array().reshape(1, 3), u, dt, noise
        )[0, 0]
    )


def transition_density(
    p_next: Pose, p: Pose, u: ControlInput, dt: float, noise: MotionNoise
) -> float:
    """Density of landing at p_next after one noisy step from p under u."""
    return math.exp(transition_log_density(p_next, p, u, dt, noise))


def measurement_log_likelihood_array(
    z: float, states: np.ndarray, grid: MagMap, noise: SensorNoise
) -> np.ndarray:
    """Log p(z | state, map) for every [x, y, theta] row.

    Out-of-map states are scored at the nearest extent point with a fixed
    log(OUT_OF_MAP_PENALTY) markdown, keeping weights finite while strongly
    discounting escaped hypotheses.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    pts = states[:, :2]
    predicted = sample_points(grid, grid.clamp(pts))
    return sensor_log_likelihood(z, predicted, grid.contains(pts), noise)


def sensor_log_likelihood(
    z, predicted: np.ndarray, inside: np.ndarray, noise: SensorNoise
) -> np.ndarray:
    """Log N(z; predicted, sigma_z), marked down by OUT_OF_MAP_PENALTY where
    `inside` is False. All three arrays broadcast against each other."""
    if noise.sigma_z == 0:
        raise DegenerateDensityError(
            "measurement likelihood undefined at sigma_z = 0"
        )
    resid = (z - predicted) / noise.sigma_z
    log_pdf = -0.5 * resid**2 - math.log(noise.sigma_z) - 0.5 * math.log(TWO_PI)
    return np.where(inside, log_pdf, log_pdf + math.log(OUT_OF_MAP_PENALTY))


def measurement_likelihood(
    z: float, p: Pose, grid: MagMap, noise: SensorNoise
) -> float:
    return float(
        np.exp(
            measurement_log_likelihood_array(
                z, p.as_array().reshape(1, 3), grid, noise
            )[0]
        )
    )


def simulate_measurement(
    p: Pose, grid: MagMap, noise: SensorNoise, rng: np.random.Generator
) -> float:
    """Draw one magnetometer reading at p. Raises OutOfMapError outside the map."""
    pos = p.position().reshape(1, 2)
    if not bool(grid.contains(pos)[0]):
        raise OutOfMapError(
            f"cannot simulate a measurement at ({p.x:g}, {p.y:g}): outside map"
        )
    mean = float(sample_points(grid, pos)[0])
    if noise.sigma_z == 0:
        return mean
    return mean + float(rng.normal(0.0, noise.sigma_z))
