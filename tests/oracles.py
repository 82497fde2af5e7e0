"""Independent reference implementations used to pin expected test values.

Everything here is written as plainly as possible (scalar loops, linear-space
probability math, closed forms) and deliberately avoids the library's
vectorized code paths, so agreement between the two is evidence rather than
tautology. The only shared primitives are numpy's rng (both sides must
consume identical draws) and, where a test says so, the map sampler. The
exceptions are marked in their sections: the library's former dense,
per-step, two-axis-index and one-shot regressor forms, its former inline
reweighting and its former line-walk file readers, kept as references for
the forms that replaced them (the dense
forms take their motion means and heading wrap from the library's array
forms); `predicted_entropy`, which runs the library's own kernel and
estimator; and scalar wrappers over the library's array forms.
"""

from __future__ import annotations

import math

import numpy as np

from magplan import infogain, textio
from magplan.infogain import EntropyEstimate, _safe_log
from magplan.magmap import MagMap, MapError, MapFormatError, _check_placement, sample_point
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
from magplan.pflocal import COLLAPSE_THRESHOLD, WeightCollapseError
from magplan.tlcal import (
    MAGLOG_V1,
    MAGLOG_V1_WIDTH,
    N_COEFFS,
    CalibrationCoefficients,
    CalibrationError,
    InvalidSampleError,
    MagLog,
)

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


def one_shot_regressor_matrix(log: MagLog) -> np.ndarray:
    """The library's former `build_regressor_matrix`: all rows in one array pass.

    Kept as the bitwise reference for the blocked build. Overflowing rows
    are left as they come out, without the finiteness check.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cos = log.b_vec / log.b_total[:, None]
        rates = np.diff(cos, axis=0) / np.diff(log.timestamp)[:, None]
        c = cos[1:]
        bt = log.b_total[1:, None]
        rows = np.empty((len(log) - 1, 20), dtype=float)
        rows[:, 0:3] = c
        rows[:, 3:9] = (c[:, [0, 1, 2, 0, 0, 1]] * c[:, [0, 1, 2, 1, 2, 2]]) * bt
        rows[:, 9:18] = (c[:, :, None] * rates[:, None, :]).reshape(-1, 9) * bt
    rows[:, 18] = 1.0
    rows[:, 19] = log.speed[1:]
    return rows


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
) -> tuple[MagLog, np.ndarray]:
    """Synthesize a calibration log whose readings obey the 20-term model.

    Direction cosines come from a tumbling attitude profile; the vector
    channel is scaled to the (possibly noisy) total reading so the cosine
    computation returns the attitude exactly. speed_amp sets how much the
    platform speed varies (near zero makes the speed column almost
    constant). Returns (log, b_earth).
    """
    rng = np.random.default_rng(seed)
    eps = np.asarray(eps, dtype=float)
    rows: list[tuple[float, ...]] = []
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
        rows.append((t, c[0] * bt, c[1] * bt, c[2] * bt, bt, speed))
        prev_c = c
    return log_from_rows(rows), b_earth


def log_from_rows(rows) -> MagLog:
    """A MagLog from `maglog v1` rows (timestamp, bx, by, bz, btotal, speed)."""
    table = np.array(rows, dtype=float)
    return MagLog(table[:, 0], table[:, 1:4], table[:, 4], table[:, 5])


# --- Dense-grid Bayes filter in one dimension -------------------------------


class GridBayes1D:
    """Brute-force Bayes filter on a fine fixed grid over x.

    Used as ground truth for the particle filter on a ramp map where only
    the x coordinate is informative. The motion kernel (constant shift plus
    Gaussian diffusion) is applied as a banded convolution: the weight of a
    move of k cells, for every k whose Gaussian term does not underflow to
    zero (within 40 sigma of the shift). Mass moved off either end is lost.
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
            reach = math.ceil((abs(shift) + 40.0 * sigma) / self.dx)
            moves = np.arange(-reach, reach + 1) * self.dx - shift
            t = np.exp(-0.5 * (moves / sigma) ** 2) / (sigma * math.sqrt(TWO_PI))
            self._kernel_cache[key] = t * self.dx
        band = self._kernel_cache[key]
        reach = len(band) // 2
        # Full convolution index i + reach sums p[j] * band[i - j + reach].
        self.p = np.convolve(self.p, band)[reach : reach + len(self.p)]
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


# --- The line-walk readers of the header-plus-table formats ------------------
#
# The maglog, tlcoef and magmap readers as they were before `textio.read_body`:
# the whole file as a list of lines, its non-blank rows after the header as one
# table, each row's file line kept beside it. The shipped readers must return
# the same arrays, bit for bit, or raise the same message. They share the
# library's line walk (`textio.read_lines`, `read_table`) and records.


def _line_walk_table(path, header: str, widths, ints=()):
    lines = textio.read_lines(path)
    if not lines or lines[0].strip() != header:
        raise CalibrationError(f"line 1: expected header {header!r}")
    try:
        return textio.read_table(lines, 1, ",", widths, ints)
    except textio.TextError as exc:
        raise CalibrationError(str(exc)) from None


def line_walk_maglog(path):
    table, linenos = _line_walk_table(path, "maglog v1", (MAGLOG_V1_WIDTH, MAGLOG_V1_WIDTH + 1))
    try:
        log = MagLog(**{k: table[:, c] for k, c in MAGLOG_V1.items()})
    except InvalidSampleError as exc:
        raise CalibrationError(f"line {linenos[exc.row]}: {exc.reason}") from exc
    truth = table[:, MAGLOG_V1_WIDTH].copy() if table.shape[1] > MAGLOG_V1_WIDTH else None
    if truth is not None and not np.isfinite(truth).all():
        i = int(np.argmax(~np.isfinite(truth)))
        raise CalibrationError(f"line {linenos[i]}: be_truth must be finite, got {truth[i]}")
    return log, truth


def line_walk_coefficients(path) -> CalibrationCoefficients:
    table, linenos = _line_walk_table(path, "tlcoef v1", (2,), ints=(0,))
    if len(table) != N_COEFFS:
        raise CalibrationError(f"expected {N_COEFFS} coefficient rows, got {len(table)}")
    index, eps = table.T
    bad = (index != np.arange(1, N_COEFFS + 1)) | ~np.isfinite(eps)
    if bad.any():
        i = int(np.argmax(bad))
        what = (
            f"expected index {i + 1}, got {index[i]:.0f}"
            if index[i] != i + 1
            else f"coefficient must be finite, got {eps[i]}"
        )
        raise CalibrationError(f"line {linenos[i]}: {what}")
    return CalibrationCoefficients(eps)


def line_walk_map(path) -> MagMap:
    lines = textio.read_lines(path)
    if not any(line.strip() for line in lines):
        raise MapFormatError("empty map file", line=1)
    header = lines[0].split()
    if len(header) != 7 or header[0] != "magmap" or header[1] != "v1":
        raise MapFormatError(
            "expected header 'magmap v1 <width> <height> <origin_x> <origin_y> <cell_size>'",
            line=1,
        )
    try:
        width, height = (textio.parse_cell(f, int) for f in header[2:4])
        origin_x, origin_y, cell_size = (textio.parse_cell(f) for f in header[4:])
        _check_placement((origin_x, origin_y), cell_size, width, height)
    except (textio.TextError, MapError) as exc:
        raise MapFormatError(str(exc), line=1) from None
    try:
        values, linenos = textio.read_table(lines, 1, None, (width,))
    except textio.TextError as exc:
        raise MapFormatError(exc.reason, exc.line) from None
    if len(values) != height:
        found = f"declared {height} rows but found {len(values)}"
        raise MapFormatError(found, line=(linenos or [1])[-1])
    bad = ~((values > 0) & (values < np.inf)).all(axis=1)
    if bad.any():
        raise MapFormatError("field values must be finite and > 0", line=linenos[np.argmax(bad)])
    return MagMap((origin_x, origin_y), cell_size, values)


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


# --- Per-step unicycle rollout, array distance, two-axis-index lookup -------
#
# The library's forms before the EER rollout was batched, the planner's
# distance went to `math` scalars and the map lookup gathered its four
# corners through one flat index and became one call with its extent clip
# and inside mask. The faster forms keep every float operation in the same
# order, so the two compare bitwise.


def unicycle_step(
    states: np.ndarray, v: float, omega: float | np.ndarray, dt: float
) -> np.ndarray:
    """One noise-free unicycle step on a (..., 3) stack of [x, y, theta] rows."""
    out = np.empty_like(states)
    out[..., 0] = states[..., 0] + v * np.cos(states[..., 2]) * dt
    out[..., 1] = states[..., 1] + v * np.sin(states[..., 2]) * dt
    out[..., 2] = wrap_angle_array(states[..., 2] + omega * dt)
    return out


def expected_distance_array(p: Pose, a: ControlInput, goal_position, dt: float) -> float:
    """The planner's distance to the goal from the action's expected next
    position, as a two-element array: the form before the scalar one."""
    heading = p.theta + a.omega * dt
    position = np.array(
        [p.x + a.v * dt * math.cos(heading), p.y + a.v * dt * math.sin(heading)]
    )
    delta = position - np.asarray(goal_position, dtype=float)
    return float(np.hypot(delta[0], delta[1]))


def contains(grid: MagMap, points: np.ndarray) -> np.ndarray:
    """Boolean mask of points inside the extent (boundary inclusive)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x_min, x_max, y_min, y_max = grid.extent()
    return (
        (pts[:, 0] >= x_min)
        & (pts[:, 0] <= x_max)
        & (pts[:, 1] >= y_min)
        & (pts[:, 1] <= y_max)
    )


def clamp(grid: MagMap, points: np.ndarray) -> np.ndarray:
    """Clip points onto the extent rectangle (nearest in-map point)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x_min, x_max, y_min, y_max = grid.extent()
    out = np.maximum(pts, (x_min, y_min))
    return np.minimum(out, (x_max, y_max), out=out)


def interpolate_two_axis(grid: MagMap, pts: np.ndarray) -> np.ndarray:
    """Bilinear interpolation at (N, 2) points, one (row, column) gather per corner."""
    u = (pts[:, 0] - grid.origin[0]) / grid.cell_size
    v = (pts[:, 1] - grid.origin[1]) / grid.cell_size
    i0 = np.clip(np.floor(u).astype(int), 0, grid.width - 2)
    j0 = np.clip(np.floor(v).astype(int), 0, grid.height - 2)
    fu = u - i0
    fv = v - j0
    vals = grid.values
    return (
        vals[j0, i0] * (1 - fu) * (1 - fv)
        + vals[j0, i0 + 1] * fu * (1 - fv)
        + vals[j0 + 1, i0] * (1 - fu) * fv
        + vals[j0 + 1, i0 + 1] * fu * fv
    )


# --- Max-shifted log-sum-exp, one expression ---------------------------------
#
# The library reduces in place, on a copy or on a tile buffer; this is the
# same max-shifted reduction written as one out-of-place expression, so the
# two can be compared bitwise (Blanchard, Higham and Higham, IMA J. Numer.
# Anal. 41(4), 2021).


def plain_logsumexp(a, axis=None) -> np.ndarray:
    """log(sum(exp(a - peak))) + peak over `axis`, where peak is the max and a
    non-finite max (an all -inf slice, +inf or nan) shifts by 0 instead."""
    a = np.asarray(a, dtype=float)
    peak = np.max(a, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True)) + peak
    return np.squeeze(out, axis=axis)


# --- The filter's former inline reweighting ----------------------------------
#
# `pflocal._reweighted` as it was before it reduced through the library's
# log-sum-exp: its own max shift, plain `np.exp`, one sum for both the log
# mass and the normalisation. A bitwise comparison pins the shared reduction,
# its exp step included, to this form.


def inline_reweighted(log_w: np.ndarray, log_lik: np.ndarray) -> tuple[np.ndarray, float]:
    """(weights, log mass) of the reweighting by `log_lik`, given `log_w =
    _safe_log(w)`; raises WeightCollapseError with the filter's messages."""
    log_w = log_w + log_lik
    peak = float(np.max(log_w))
    if not math.isfinite(peak):
        raise WeightCollapseError("every particle has zero posterior mass")
    shifted = np.exp(log_w - peak)
    total = float(shifted.sum())
    log_mass = float(np.log(total)) + peak
    if log_mass < math.log(COLLAPSE_THRESHOLD):
        raise WeightCollapseError(
            f"unnormalized posterior mass underflowed (log mass {log_mass:.1f})"
        )
    return shifted / total, log_mass


# --- Dense transition density and scalar wrappers ---------------------------
#
# `dense_transition_log_density` is the library's pairwise transition density
# (the Gaussian of the `infogain` docstring) as one out-of-place expression:
# the whole N x M matrix at once, the heading residual wrapped with
# np.remainder (`wrap_angle_array`). It shares none of the library's tiled,
# in-place kernel, so a bitwise comparison pins that kernel to the plain
# formula. `dense_log_predicted_density` is the library's predicted density
# as it was before row tiling: that matrix plus log_w, reduced with
# `plain_logsumexp` above (plain `np.exp`, out of place), so a bitwise
# comparison with the tiled kernel pins the library's whole reduction, its
# exp step included. `transition_log_density_matrix` is the same matrix
# between states and their predecessors. `predicted_entropy` is the
# library's no-measurement particle entropy between two beliefs, as the
# closed-loop step forms it on weight collapse. The scalar wrappers below
# evaluate the library's array forms at one pose or one point.


def dense_transition_log_density(
    next_states: np.ndarray, means: np.ndarray, noise: MotionNoise
) -> np.ndarray:
    """Pairwise log N(next_i; means_j, noise) as an (N, M) matrix."""
    nxt = np.atleast_2d(np.asarray(next_states, dtype=float))
    dx = nxt[:, None, 0] - means[None, :, 0]
    dy = nxt[:, None, 1] - means[None, :, 1]
    dth = wrap_angle_array(nxt[:, None, 2] - means[None, :, 2])
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


def dense_log_predicted_density(
    cur_states: np.ndarray, means: np.ndarray, log_w: np.ndarray, noise: MotionNoise
) -> np.ndarray:
    """log of sum_j T_ij w_prev_j for every cur particle i, one N x N matrix.

    Same arguments as the library's: the prev particles' motion `means` and
    `log_w = _safe_log(w_prev)`.
    """
    log_t = dense_transition_log_density(cur_states, means, noise)
    return plain_logsumexp(log_t + log_w[None, :], axis=1)


def predicted_entropy(prev, cur, u: ControlInput, models: ModelSet) -> EntropyEstimate:
    """Entropy of the motion-predicted belief `cur`, no measurement incorporated,
    through the library's kernel and estimator (`infogain` is looked up at call
    time, so a test that patches its kernel patches this too)."""
    means = motion_mean_array(prev.particles, u, models.dt)
    log_pred = infogain._log_predicted_density(
        cur.particles, means, _safe_log(prev.weights), models.motion
    )
    return infogain._particle_entropy(cur.weights, log_pred)


def transition_log_density_matrix(
    next_states: np.ndarray,
    prev_states: np.ndarray,
    u: ControlInput,
    dt: float,
    noise: MotionNoise,
) -> np.ndarray:
    """Pairwise log p(next_i | prev_j, u) as an (N, M) matrix."""
    means = motion_mean_array(np.atleast_2d(prev_states), u, dt)
    return dense_transition_log_density(next_states, means, noise)


def transition_density(
    p_next: Pose, p: Pose, u: ControlInput, dt: float, noise: MotionNoise
) -> float:
    """Density of landing at p_next after one noisy step from p under u."""
    log_d = transition_log_density_matrix(
        p_next.as_array().reshape(1, 3), p.as_array().reshape(1, 3), u, dt, noise
    )
    return math.exp(float(log_d[0, 0]))


def measurement_likelihood(
    z: float, p: Pose, grid: MagMap, noise: SensorNoise
) -> float:
    log_l = measurement_log_likelihood_array(z, p.as_array().reshape(1, 3), grid, noise)
    return float(np.exp(log_l[0]))


def sample(grid: MagMap, p: tuple[float, float]) -> float:
    """Field intensity (nT) at a single position inside the map."""
    return sample_point(grid, *p)
