"""Independent reference implementations used to pin expected test values.

Everything here is written as plainly as possible (scalar loops, linear-space
probability math, closed forms) and deliberately avoids the library's
vectorized code paths, so agreement between the two is evidence rather than
tautology. The only shared primitives are numpy's rng (both sides must
consume identical draws) and, where a test says so, the map sampler.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from magplan.infogain import EntropyEstimate
from magplan.magmap import MagMap, sample_points
from magplan.models import (
    ControlInput,
    ModelSet,
    measurement_log_likelihood_array,
    motion_mean_array,
    transition_log_density_matrix,
)
from magplan.tlcal import MagSample

LN2 = math.log(2.0)
TWO_PI = 2.0 * math.pi


# --- Tolles-Lawson forward model -------------------------------------------
#
# The platform interference seen by the scalar magnetometer is a linear
# function of 20 regressors; the induced and eddy groups are scaled by the
# total reading itself, so the forward model solves a scalar fixed point:
#
#     B_t = B_e + p + q * B_t   =>   B_t = (B_e + p) / (1 - q)
#
# with p collecting the B_t-free terms and q the B_t-scaled ones.


def tl_row_reference(
    c: tuple[float, float, float],
    r: tuple[float, float, float],
    b_total: float,
    speed: float,
) -> list[float]:
    """The 20 regressors, written out longhand."""
    cx, cy, cz = c
    rx, ry, rz = r
    return [
        cx, cy, cz,
        b_total * cx * cx, b_total * cy * cy, b_total * cz * cz,
        b_total * cx * cy, b_total * cx * cz, b_total * cy * cz,
        b_total * cx * rx, b_total * cx * ry, b_total * cx * rz,
        b_total * cy * rx, b_total * cy * ry, b_total * cy * rz,
        b_total * cz * rx, b_total * cz * ry, b_total * cz * rz,
        1.0,
        speed,
    ]


def _attitude(t: float) -> tuple[float, float, float]:
    # A smooth tumbling motion that keeps all cosine and rate channels alive.
    azim = 0.9 * t + 0.6 * math.sin(1.7 * t + 0.3)
    incl = 0.5 + 0.45 * math.sin(1.1 * t + 1.2)
    return (
        math.cos(incl) * math.cos(azim),
        math.cos(incl) * math.sin(azim),
        math.sin(incl),
    )


def make_tl_log(
    eps: np.ndarray,
    n: int,
    dt: float = 0.1,
    noise_sigma: float = 0.0,
    seed: int = 0,
    speed_amp: float = 0.15,
) -> tuple[list[MagSample], np.ndarray]:
    """Synthesize a calibration log whose readings obey the 20-term model.

    Direction cosines come from a tumbling attitude profile; the vector
    channel is scaled to the (possibly noisy) total reading so the cosine
    computation returns the attitude exactly. speed_amp sets how much the
    platform speed varies (near zero makes the speed column almost
    constant). Returns (samples, b_earth).
    """
    rng = np.random.default_rng(seed)
    eps = np.asarray(eps, dtype=float)
    samples: list[MagSample] = []
    b_earth = np.empty(n)
    prev_c = _attitude(0.0)
    for i in range(n):
        t = i * dt
        c = _attitude(t)
        rates = tuple((c[k] - prev_c[k]) / dt for k in range(3)) if i > 0 else (0.0, 0.0, 0.0)
        speed = 0.2 + speed_amp * math.sin(0.7 * t + 0.9)
        be = 25000.0 + 400.0 * math.sin(0.5 * t + 0.2)
        b_earth[i] = be
        # Split the row into B_t-free and B_t-scaled parts with b_total = 1.
        unit_row = tl_row_reference(c, rates, 1.0, speed)
        p = (
            eps[0] * unit_row[0] + eps[1] * unit_row[1] + eps[2] * unit_row[2]
            + eps[18] * unit_row[18] + eps[19] * unit_row[19]
        )
        q = sum(eps[k] * unit_row[k] for k in range(3, 18))
        bt = (be + p) / (1.0 - q)
        if noise_sigma > 0:
            bt += rng.normal(0.0, noise_sigma)
        samples.append(
            MagSample(
                b_vec=(c[0] * bt, c[1] * bt, c[2] * bt),
                b_total=bt,
                speed=speed,
                timestamp=t,
            )
        )
        prev_c = c
    return samples, b_earth


# --- Dense-grid Bayes filter in one dimension -------------------------------


class GridBayes1D:
    """Brute-force Bayes filter on a fine fixed grid over x.

    Used as ground truth for the particle filter on a ramp map where only
    the x coordinate is informative. The motion kernel (constant shift plus
    Gaussian diffusion) is precomputed as a dense transition matrix.
    """

    def __init__(self, x_lo: float, x_hi: float, n_cells: int):
        self.xs = np.linspace(x_lo, x_hi, n_cells)
        self.dx = self.xs[1] - self.xs[0]
        self.p = np.full(n_cells, 1.0 / (n_cells * self.dx))
        self._kernel_cache: dict[tuple[float, float], np.ndarray] = {}

    def set_gaussian_prior(self, mean: float, sigma: float) -> None:
        self.p = np.exp(-0.5 * ((self.xs - mean) / sigma) ** 2)
        self.p /= self.p.sum() * self.dx

    def predict(self, shift: float, sigma: float) -> None:
        key = (shift, sigma)
        if key not in self._kernel_cache:
            diff = self.xs[:, None] - self.xs[None, :] - shift
            t = np.exp(-0.5 * (diff / sigma) ** 2) / (sigma * math.sqrt(TWO_PI))
            self._kernel_cache[key] = t * self.dx
        self.p = self._kernel_cache[key] @ self.p
        self.p /= self.p.sum() * self.dx

    def update(self, z: float, map_at_xs: np.ndarray, sigma_z: float) -> None:
        lik = np.exp(-0.5 * ((z - map_at_xs) / sigma_z) ** 2)
        self.p *= lik
        total = self.p.sum() * self.dx
        if total <= 0:
            raise RuntimeError("grid filter collapsed")
        self.p /= total

    def mean(self) -> float:
        return float((self.xs * self.p).sum() * self.dx)


# --- Closed-form entropy for the linear-Gaussian scenario -------------------
#
# With zero commanded velocity the motion model is pure diffusion in each of
# x, y, theta, and a ramp map makes the measurement linear in x. The belief
# then stays exactly Gaussian, the three dimensions stay independent, and
# the posterior covariance follows the scalar Kalman recursions below.


def kalman_posterior_entropy_bits(
    var0: tuple[float, float, float],
    step_var: tuple[float, float, float],
    gradient: float,
    sigma_z: float,
    n_steps: int,
) -> float:
    vx, vy, vt = var0
    for _ in range(n_steps):
        vx += step_var[0]
        vy += step_var[1]
        vt += step_var[2]
        vx = 1.0 / (1.0 / vx + gradient**2 / sigma_z**2)
    det = vx * vy * vt
    return 0.5 * math.log2((TWO_PI * math.e) ** 3 * det)


def gaussian_entropy_bits(variances) -> float:
    """Entropy of an axis-aligned Gaussian, one variance per dimension."""
    h = 0.0
    for v in variances:
        h += 0.5 * math.log2(TWO_PI * math.e * v)
    return h


# --- Straight-line particle entropy and EER ---------------------------------
#
# Scalar-loop, linear-space implementations of the particle estimators. They
# assume every state is inside the map (no edge penalty) and take the field
# as a callable so ramp scenarios stay fully independent of the library.


def _wrap(a: float) -> float:
    return math.remainder(a, TWO_PI)


def _trans_density(
    xi: np.ndarray,
    xj: np.ndarray,
    u: tuple[float, float],
    dt: float,
    sig: tuple[float, float, float],
) -> float:
    px = xj[0] + u[0] * math.cos(xj[2]) * dt
    py = xj[1] + u[0] * math.sin(xj[2]) * dt
    pt = xj[2] + u[1] * dt
    d = 1.0
    for resid, s in (((xi[0] - px), sig[0]), ((xi[1] - py), sig[1]), ((_wrap(xi[2] - pt)), sig[2])):
        d *= math.exp(-0.5 * (resid / s) ** 2) / (s * math.sqrt(TWO_PI))
    return d


def _gauss(z: float, mean: float, sigma: float) -> float:
    return math.exp(-0.5 * ((z - mean) / sigma) ** 2) / (sigma * math.sqrt(TWO_PI))


def direct_posterior_entropy_bits(
    prev_particles: np.ndarray,
    prev_weights: np.ndarray,
    cur_particles: np.ndarray,
    cur_weights: np.ndarray,
    z: float,
    u: tuple[float, float],
    dt: float,
    motion_sig: tuple[float, float, float],
    field,
    sigma_z: float,
) -> float:
    n = len(prev_weights)
    lik = [_gauss(z, field(cur_particles[i, 0], cur_particles[i, 1]), sigma_z) for i in range(n)]
    evidence = sum(lik[i] * prev_weights[i] for i in range(n))
    h = math.log(evidence)
    for i in range(n):
        if cur_weights[i] == 0:
            continue
        pred = sum(
            _trans_density(cur_particles[i], prev_particles[j], u, dt, motion_sig)
            * prev_weights[j]
            for j in range(n)
        )
        h -= cur_weights[i] * (math.log(lik[i]) + math.log(pred))
    return h / LN2


def direct_predicted_entropy_bits(
    prev_particles: np.ndarray,
    prev_weights: np.ndarray,
    cur_particles: np.ndarray,
    cur_weights: np.ndarray,
    u: tuple[float, float],
    dt: float,
    motion_sig: tuple[float, float, float],
) -> float:
    n = len(prev_weights)
    h = 0.0
    for i in range(n):
        if cur_weights[i] == 0:
            continue
        pred = sum(
            _trans_density(cur_particles[i], prev_particles[j], u, dt, motion_sig)
            * prev_weights[j]
            for j in range(n)
        )
        h -= cur_weights[i] * math.log(pred)
    return h / LN2


def direct_eer_bits(
    particles: np.ndarray,
    weights: np.ndarray,
    u: tuple[float, float],
    dt: float,
    motion_sig: tuple[float, float, float],
    field,
    sigma_z: float,
    m_count: int,
    horizon: int,
    rng: np.random.Generator,
) -> float:
    """Plain-loop expected entropy reduction over an in-map hypothesis set.

    Consumes the rng exactly like the library (one choice() call), so seeding
    both sides identically selects identical hypotheses.
    """
    idx = rng.choice(len(weights), size=m_count, replace=True, p=weights)
    states = particles[idx].copy()
    w = np.full(m_count, 1.0 / m_count)

    def advance(arr: np.ndarray) -> np.ndarray:
        out = arr.copy()
        for i in range(len(out)):
            out[i, 0] += u[0] * math.cos(out[i, 2]) * dt
            out[i, 1] += u[0] * math.sin(out[i, 2]) * dt
            out[i, 2] = _wrap(out[i, 2] + u[1] * dt)
        return out

    for _ in range(horizon - 1):
        states = advance(states)
    prev_states = states
    states = advance(prev_states)

    z_pred = [field(states[i, 0], states[i, 1]) for i in range(m_count)]
    pred = [
        sum(
            _trans_density(states[i], prev_states[j], u, dt, motion_sig) * w[j]
            for j in range(m_count)
        )
        for i in range(m_count)
    ]
    h_base = -sum(w[i] * math.log(pred[i]) for i in range(m_count))

    h_future = []
    p_meas = []
    for j in range(m_count):
        lik = [_gauss(z_pred[j], z_pred[i], sigma_z) for i in range(m_count)]
        evidence = sum(lik[i] * w[i] for i in range(m_count))
        w_post = [lik[i] * w[i] / evidence for i in range(m_count)]
        h = math.log(evidence) - sum(
            w_post[i] * (math.log(lik[i]) + math.log(pred[i])) for i in range(m_count)
        )
        h_future.append(h)
        p_meas.append(lik[j])
    total = sum(p_meas)
    eer_nats = h_base - sum(p_meas[j] / total * h_future[j] for j in range(m_count))
    return eer_nats / LN2


# --- One action's EER rollout, scalar form ----------------------------------
#
# The per-action form of the library's batched EER kernel: one action's
# hypothesis set, rolled out with the library's motion step and scored with
# the library's densities but scipy's logsumexp.


@dataclass(frozen=True)
class Hypotheses:
    """M hypotheses at the last two horizon steps of one action's rollout."""

    m_count: int
    action: ControlInput
    states_prev: np.ndarray
    states: np.ndarray
    weights: np.ndarray
    predicted_z: np.ndarray


def build_hypotheses(
    b,
    a: ControlInput,
    grid: MagMap,
    models: ModelSet,
    m_count: int,
    horizon_steps: int,
    rng: np.random.Generator,
) -> Hypotheses:
    """Subsample M hypotheses proportional to weight (one choice() call, as
    the library draws one action's block) and roll them out noise free."""
    idx = rng.choice(b.n, size=m_count, replace=True, p=b.weights)
    states = b.particles[idx]
    for _ in range(horizon_steps - 1):
        states = motion_mean_array(states, a, models.dt)
    states_prev = states
    states = motion_mean_array(states_prev, a, models.dt)
    predicted_z = sample_points(grid, grid.clamp(states[:, :2]))
    return Hypotheses(
        m_count, a, states_prev, states, np.full(m_count, 1.0 / m_count), predicted_z
    )


def _hyp_log_pred(hyp: Hypotheses, models: ModelSet) -> np.ndarray:
    log_t = transition_log_density_matrix(
        hyp.states, hyp.states_prev, hyp.action, models.dt, models.motion
    )
    return logsumexp(log_t + np.log(hyp.weights)[None, :], axis=1)


def future_entropy(
    hyp: Hypotheses, z_future: float, grid: MagMap, models: ModelSet
) -> EntropyEstimate:
    """Posterior entropy at the rollout's terminal step, given z_future."""
    log_lik = measurement_log_likelihood_array(z_future, hyp.states, grid, models.sensor)
    log_w = np.log(hyp.weights)
    log_evidence = logsumexp(log_lik + log_w)
    w_post = np.exp(log_lik + log_w - log_evidence)
    nats = log_evidence - float(w_post @ (log_lik + _hyp_log_pred(hyp, models)))
    return EntropyEstimate(nats / LN2, hyp.m_count, with_measurement=True)


def predicted_entropy_at_horizon(hyp: Hypotheses, models: ModelSet) -> EntropyEstimate:
    """No-measurement entropy at the rollout's terminal step (the EER baseline)."""
    nats = -float(hyp.weights @ _hyp_log_pred(hyp, models))
    return EntropyEstimate(nats / LN2, hyp.m_count, with_measurement=False)
