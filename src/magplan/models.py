"""Probabilistic motion and measurement models.

Unicycle kinematics with additive per-step Gaussian noise, and a scalar
magnetometer whose reading is the map value at the robot position plus
Gaussian noise. Shared by the simulator (sampling), the particle filter
(motion steps and likelihoods), and the planner (rollouts and predicted
readings). `ModelSet` checks once what every filter, entropy and planner
call relies on.

The single-pose operations the simulator runs once per step (`step_motion`,
`simulate_measurement`) take and return `Pose` and are written in `math`
scalars; the `*_array` variants operate on (N, 3) float arrays of
[x, y, theta] rows and serve the filter and EER. Each scalar form makes the
same float operations in the same order, and the same rng draws, as its
array twin, so the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .magmap import MagMap, lookup, sample_point

TWO_PI = 2.0 * math.pi

# Likelihood multiplier for poses outside the map: `magmap.lookup` reads the
# map at the nearest extent point and the density is scaled down by this factor.
OUT_OF_MAP_PENALTY = 1e-3


class ModelError(Exception):
    """Base error for model construction and evaluation."""


class DegenerateDensityError(ModelError):
    """Motion noise with a zero sigma in a `ModelSet`, which has no transition
    density; raised by `ModelSet` alone."""


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
    """Per-step standard deviations of the additive motion noise, finite and
    >= 0; a zero sigma samples a noise-free axis but has no density."""

    sigma_x: float
    sigma_y: float
    sigma_theta: float

    def __post_init__(self) -> None:
        sigmas = (self.sigma_x, self.sigma_y, self.sigma_theta)
        if not all(math.isfinite(s) and s >= 0 for s in sigmas):
            raise ModelError(f"motion sigmas must be finite and >= 0, got {self}")


@dataclass(frozen=True)
class SensorNoise:
    """Scalar magnetometer noise standard deviation (nT), finite and > 0.

    The noiseless reading is the map value, `magmap.sample_point`.
    """

    sigma_z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma_z) and self.sigma_z > 0):
            raise ModelError(f"sigma_z must be finite and > 0, got {self.sigma_z}")


@dataclass(frozen=True)
class ModelSet:
    """The model bundle of filter, entropy, and planner calls: `dt` finite and
    > 0, and every motion sigma > 0 (DegenerateDensityError), which
    `infogain`'s pairwise kernel divides by; checked here once for them all."""

    motion: MotionNoise
    sensor: SensorNoise
    dt: float

    def __post_init__(self) -> None:
        _check_dt(self.dt)
        if 0 in (self.motion.sigma_x, self.motion.sigma_y, self.motion.sigma_theta):
            raise DegenerateDensityError(
                f"motion sigmas must all be > 0 for a transition density, got {self.motion}"
            )


def unicycle_rollout(
    states: np.ndarray, v: float, omega: float | np.ndarray, dt: float, steps: int
) -> np.ndarray:
    """`steps` noise-free unicycle steps on a (..., 3) stack of [x, y, theta] rows.

    Each step moves x and y by v*dt along theta, then turns theta by omega*dt
    and wraps it. `omega` is a scalar or an array that broadcasts against
    `states[..., 2]`, so one call can roll several turn rates at once. The
    steps run as one batch: headings first, then x and y as running sums.
    """
    lead = states.shape[:-1]
    theta = np.empty((steps + 1, *lead))
    theta[0] = states[..., 2]
    turn = omega * dt
    for k in range(steps):
        theta[k + 1] = wrap_angle_array(theta[k] + turn)
    moves = np.empty((steps + 1, *lead, 2))
    moves[0] = states[..., :2]
    moves[1:, ..., 0] = v * np.cos(theta[:-1]) * dt
    moves[1:, ..., 1] = v * np.sin(theta[:-1]) * dt
    out = np.empty((*lead, 3))
    # Reduced over its outer axis, the sum runs in step order, one running
    # sum per coordinate, as repeated single steps add their moves.
    np.add.reduce(moves, axis=0, out=out[..., :2])
    out[..., 2] = theta[-1]
    return out


def _check_dt(dt: float) -> None:
    if not (math.isfinite(dt) and dt > 0):
        raise ModelError(f"dt must be finite and > 0, got {dt}")


def motion_mean_array(states: np.ndarray, u: ControlInput, dt: float) -> np.ndarray:
    """Noise-free unicycle step of every [x, y, theta] row; its callers check dt."""
    return unicycle_rollout(states, u.v, u.omega, dt, 1)


def add_motion_noise(
    means: np.ndarray, noise: MotionNoise, rng: np.random.Generator
) -> np.ndarray:
    """(N, 3) motion means plus independent per-axis noise draws, with the
    headings wrapped, as a new array."""
    out = means + rng.normal(
        0.0, [noise.sigma_x, noise.sigma_y, noise.sigma_theta], size=means.shape
    )
    out[:, 2] = wrap_angle_array(out[:, 2])
    return out


def step_motion(
    p: Pose, u: ControlInput, dt: float, noise: MotionNoise, rng: np.random.Generator
) -> Pose:
    """One noisy unicycle step from p.

    `add_motion_noise(motion_mean_array(...))` on one pose: its three scalar
    draws consume the generator as the array form's one (1, 3) draw does.
    """
    _check_dt(dt)
    x = p.x + u.v * math.cos(p.theta) * dt
    y = p.y + u.v * math.sin(p.theta) * dt
    theta = wrap_angle(p.theta + u.omega * dt)
    x += rng.normal(0.0, noise.sigma_x)
    y += rng.normal(0.0, noise.sigma_y)
    return Pose(x, y, wrap_angle(theta + rng.normal(0.0, noise.sigma_theta)))


def measurement_log_likelihood_array(
    z: float, states: np.ndarray, grid: MagMap, noise: SensorNoise
) -> np.ndarray:
    """Log p(z | state, map) for every [x, y, theta] row.

    One `magmap.lookup`: out-of-map states are read at the nearest extent point
    and marked down by log(OUT_OF_MAP_PENALTY), keeping weights finite while
    strongly discounting escaped hypotheses.
    """
    return sensor_log_likelihood(z, *lookup(grid, states[:, :2]), noise)


def sensor_log_likelihood(
    z, predicted: np.ndarray, inside: np.ndarray, noise: SensorNoise
) -> np.ndarray:
    """Log N(z; predicted, sigma_z), marked down by OUT_OF_MAP_PENALTY where
    `inside` is False. All three arrays broadcast against each other."""
    resid = (z - predicted) / noise.sigma_z
    log_pdf = -0.5 * resid**2 - math.log(noise.sigma_z) - 0.5 * math.log(TWO_PI)
    return np.where(inside, log_pdf, log_pdf + math.log(OUT_OF_MAP_PENALTY))


def simulate_measurement(
    p: Pose, grid: MagMap, noise: SensorNoise, rng: np.random.Generator
) -> float:
    """Draw one magnetometer reading at p. Raises OutOfMapError outside the map."""
    return sample_point(grid, p.x, p.y) + float(rng.normal(0.0, noise.sigma_z))
