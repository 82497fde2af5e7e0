"""Augmented Tolles-Lawson magnetometer calibration.

The platform's magnetic interference is modeled as a linear function of 20
regressors built from the field direction cosines: 3 permanent-moment terms,
6 induced terms, 9 eddy-current terms, a constant bias, and a speed term.
Fitting recovers the coefficient vector from a calibration log where the
ambient field is known; compensation subtracts the predicted interference
from raw total-field readings.

Log file format (`maglog v1`): first line `maglog v1`, then one CSV row per
sample: `timestamp,bx,by,bz,btotal,speed[,be_truth]`. The trailing column is
the known ambient field and is required for fitting.

Coefficient file format (`tlcoef v1`): first line `tlcoef v1`, then 20 rows
`index,value` with the integer index 1..20 in the ordering above.

Cells of both follow the `textio` number grammar, blank lines are skipped
and errors name the file line. Both are read by `textio.read_body`, one
`np.loadtxt` on the path; the file's lines are read only when that call
fails, or when a row's line must be named.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import textio

N_COEFFS = 20

# Column variance this far below the largest column's marks the coefficient
# as unidentifiable from the log.
EXCITATION_RATIO = 1e-12

# Rows per block of build_regressor_matrix: a block's scratch planes (about
# 390 KB) stay in cache and are reused by every block.
BLOCK_ROWS = 2048


class CalibrationError(Exception):
    """Base error for calibration data handling and fitting."""


class InvalidSampleError(CalibrationError):
    """Row `row` of a log violates the record's invariants for `reason`."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row, self.reason = row, reason


class InsufficientDataError(CalibrationError):
    """Too few usable rows to identify the coefficient vector."""


class RankDeficientError(CalibrationError):
    """The regressor matrix does not have full column rank.

    Attributes:
        rank: numerical rank found by the solver.
    """

    def __init__(self, rank: int):
        super().__init__(
            f"regressor matrix has numerical rank {rank}, need {N_COEFFS}; "
            "the log does not excite all coefficients"
        )
        self.rank = rank


class ExcitationWarning(UserWarning):
    """A regressor column is (nearly) constant; its coefficient is weakly identified."""


# The `maglog v1` row: each record column and its CSV columns, in file order.
# An optional be_truth column follows them.
MAGLOG_V1 = {"timestamp": 0, "b_vec": slice(1, 4), "b_total": 4, "speed": 5}
MAGLOG_V1_WIDTH = 6


@dataclass(frozen=True)
class MagLog:
    """A calibration log: synchronized vector + scalar magnetometer readings.

    One row per sample, in columns timestamp (n,), b_vec (n, 3), b_total (n,)
    and speed (n,). The record is checked once, here: the shapes agree, every
    value is finite, b_total > 0 and timestamps strictly increase by steps
    no larger than the largest float. The columns are frozen copies.
    """

    timestamp: np.ndarray
    b_vec: np.ndarray
    b_total: np.ndarray
    speed: np.ndarray

    def __post_init__(self) -> None:
        cols = {k: np.array(getattr(self, k), dtype=float) for k in MAGLOG_V1}
        n = len(np.atleast_1d(cols["timestamp"]))
        for k, c in cols.items():
            if c.shape != ((n, 3) if k == "b_vec" else (n,)):
                rows = len(np.atleast_1d(c))  # a length mismatch names the first lone row
                raise InvalidSampleError(
                    min(n, rows) if rows != n else 0, f"{k} has shape {c.shape} for {n} timestamps"
                )
        t, b_vec, b_total, speed = cols.values()
        finite = np.isfinite(np.column_stack([t, b_vec, b_total, speed])).all(axis=1)
        for bad, what in ((~finite, "must be finite"), (b_total <= 0, "needs b_total > 0")):
            if bad.any():
                i = int(np.argmax(bad))
                got = f"timestamp {t[i]}, b_vec {b_vec[i].tolist()}, b_total {b_total[i]}"
                raise InvalidSampleError(i, f"sample {what}, got {got}, speed {speed[i]}")
        _check_timestamps(t)
        for k, c in cols.items():
            c.setflags(write=False)
            object.__setattr__(self, k, c)

    def __len__(self) -> int:
        return self.timestamp.shape[0]


@dataclass(frozen=True)
class CalibrationCoefficients:
    """The fitted 20-term interference model.

    Ordering: eps[0:3] permanent, eps[3:9] induced, eps[9:18] eddy,
    eps[18] bias, eps[19] speed.
    """

    eps: np.ndarray

    def __post_init__(self) -> None:
        eps = np.asarray(self.eps, dtype=float)
        if eps.shape != (N_COEFFS,):
            raise CalibrationError(f"expected {N_COEFFS} coefficients, got {eps.shape}")
        if not np.all(np.isfinite(eps)):
            raise CalibrationError("coefficients must all be finite")
        eps = eps.copy()
        eps.setflags(write=False)
        object.__setattr__(self, "eps", eps)


def _check_timestamps(t: np.ndarray) -> None:
    # The rate terms divide by these steps, so each must be positive and finite.
    # A step between two finite timestamps overflows to inf past the largest float.
    with np.errstate(over="ignore"):
        step = np.diff(t)
    bad = np.flatnonzero(~((step > 0) & (step < np.inf)))
    if bad.size:
        i = int(bad[0]) + 1
        what = "be strictly increasing" if step[i - 1] <= 0 else "step by a finite amount"
        raise InvalidSampleError(i, f"timestamps must {what}, got {t[i]} after {t[i - 1]}")


def build_regressor_matrix(log: MagLog) -> np.ndarray:
    """Regressor rows for log[1:]; log[0] seeds the rate differences.

    Row layout: [0:3] direction cosines c = b_vec / b_total, [3:9] b_total *
    quadratic cosine products (xx, yy, zz, xy, xz, yz), [9:18] b_total *
    (cosine x rate) grid in row-major (cx, cy, cz) x (cx_dot, cy_dot,
    cz_dot) order, [18] constant 1, [19] speed. Rates are the backward
    differences (c_i - c_{i-1}) / (t_i - t_{i-1}). Matrix row i belongs to
    sample i + 1; a sample whose regressors overflow raises
    InvalidSampleError naming it.

    The C-order matrix is filled in blocks of BLOCK_ROWS rows. Each block is
    computed as contiguous column planes in one scratch buffer, reused by
    every block, and copied into the matrix transposed, so the memory beyond
    the output is bounded by one block. Every entry is the same floating-
    point operation on the same operands whatever the block size.
    """
    n = len(log) - 1
    if n < 1:
        raise InsufficientDataError("need at least 2 samples to form rate terms")
    t, b_vec, b_total = log.timestamp, log.b_vec, log.b_total
    rows = np.empty((n, N_COEFFS), dtype=float)
    # Column j of a block's planes holds sample r0 + j: the 20 regressor
    # planes, then the three rates and the time step. Column 0 holds only
    # the cosines of the sample before the block, which seed its rates.
    scratch = np.empty((N_COEFFS + 4, min(n, BLOCK_ROWS) + 1), dtype=float)
    scratch[18] = 1.0
    eddy = scratch[9:18].reshape(3, 3, -1)
    # A valid log can still overflow in the cosines, the rates or the products,
    # so the finished matrix is checked once instead of each step.
    with np.errstate(over="ignore", invalid="ignore"):
        for r0 in range(0, n, BLOCK_ROWS):
            m = min(BLOCK_ROWS, n - r0)
            cols, cur = slice(1, m + 1), slice(r0 + 1, r0 + m + 1)
            cos = scratch[0:3, : m + 1]
            np.divide(b_vec[r0 : r0 + m + 1].T, b_total[r0 : r0 + m + 1], out=cos)
            c, rates, dt = cos[:, 1:], scratch[20:23, cols], scratch[23, cols]
            np.subtract(t[cur], t[r0 : r0 + m], out=dt)
            np.subtract(c, cos[:, :-1], out=rates)
            rates /= dt
            np.multiply(c, c, out=scratch[3:6, cols])
            np.multiply(c[0], c[1:3], out=scratch[6:8, cols])
            np.multiply(c[1], c[2], out=scratch[8, cols])
            np.multiply(c[:, None], rates[None], out=eddy[:, :, cols])
            scratch[3:18, cols] *= b_total[cur]
            scratch[19, cols] = log.speed[cur]
            rows[r0 : r0 + m] = scratch[:N_COEFFS, cols].T
    if not np.isfinite(rows).all():
        i = int(np.argmax(~np.isfinite(rows).all(axis=1))) + 1
        got = f"b_vec {b_vec[i].tolist()}, b_total {b_total[i]}"
        raise InvalidSampleError(i, f"regressors overflow, got {got}")
    return rows


def _warn_on_poor_excitation(a: np.ndarray) -> None:
    # Column 19 (the constant bias regressor) has zero variance by
    # construction, so it is exempt from the check. Huge finite regressors
    # may square to inf, which marks every finite column as weak.
    with np.errstate(over="ignore"):
        variances = a.var(axis=0)
    limit = EXCITATION_RATIO * float(variances.max())
    weak = [c + 1 for c in range(N_COEFFS) if c != 18 and variances[c] < limit]
    if weak:
        warnings.warn(
            f"regressor columns {weak} are barely excited; their coefficients are unreliable",
            ExcitationWarning,
            stacklevel=3,
        )


def fit(log: MagLog, b_earth: Sequence[float]) -> CalibrationCoefficients:
    """Least-squares coefficients from a log with known ambient field.

    b_earth is aligned 1:1 with log; the first entry is unused because the
    first sample only seeds the rate differences. Solved by SVD rather than
    the normal equations; the minimizer is the same, the conditioning is not.
    """
    truth = _checked_truth(log, b_earth)
    a = build_regressor_matrix(log)
    if a.shape[0] < N_COEFFS:
        raise InsufficientDataError(f"need >= {N_COEFFS} usable rows, got {a.shape[0]}")
    _warn_on_poor_excitation(a)
    y = log.b_total[1:] - truth[1:]
    eps, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
    if rank < N_COEFFS:
        raise RankDeficientError(int(rank))
    return CalibrationCoefficients(eps)


def _checked_truth(log: MagLog, b_earth: Sequence[float]) -> np.ndarray:
    """b_earth as a float array, checked to hold one finite entry per sample."""
    truth = np.asarray(b_earth, dtype=float)
    if truth.ndim != 1 or len(truth) != len(log):
        got = f"{len(truth)} entries" if truth.ndim == 1 else f"shape {truth.shape}"
        raise CalibrationError(f"b_earth has {got} for {len(log)} samples")
    bad = np.flatnonzero(~np.isfinite(truth))
    if bad.size:
        raise CalibrationError(f"b_earth[{bad[0]}] must be finite, got {truth[bad[0]]}")
    return truth


def compensate_log(log: MagLog, eps: CalibrationCoefficients) -> np.ndarray:
    """Ambient-field estimates for rows 1.. of log (rates from backward differences)."""
    return log.b_total[1:] - build_regressor_matrix(log) @ eps.eps


def residual_rms(log: MagLog, b_earth: Sequence[float], eps: CalibrationCoefficients) -> float:
    """RMS of (estimated - true) ambient field over the usable rows."""
    resid = compensate_log(log, eps) - _checked_truth(log, b_earth)[1:]
    return float(np.sqrt(np.mean(resid**2)))


def _load_table(path: str, header: str, widths: Sequence[int], ints=()) -> np.ndarray:
    """A `header` file's body table; `textio.body_lines` gives each row's file line."""
    if textio.head_line(path).strip() != header:
        raise CalibrationError(f"line 1: expected header {header!r}")
    try:
        return textio.read_body(path, ",", widths, ints)
    except textio.TextError as exc:
        raise CalibrationError(str(exc)) from None


def load_maglog(path: str) -> tuple[MagLog, Optional[np.ndarray]]:
    """Parse a `maglog v1` file.

    Returns the log and, when every row carries the optional be_truth
    column, the aligned truth array (otherwise None).
    """
    table = _load_table(path, "maglog v1", (MAGLOG_V1_WIDTH, MAGLOG_V1_WIDTH + 1))
    try:
        log = MagLog(**{k: table[:, c] for k, c in MAGLOG_V1.items()})
    except InvalidSampleError as exc:
        raise CalibrationError(f"line {textio.body_lines(path)[exc.row]}: {exc.reason}") from exc
    truth = table[:, MAGLOG_V1_WIDTH].copy() if table.shape[1] > MAGLOG_V1_WIDTH else None
    if truth is not None and not np.isfinite(truth).all():
        i = int(np.argmax(~np.isfinite(truth)))
        line = textio.body_lines(path)[i]
        raise CalibrationError(f"line {line}: be_truth must be finite, got {truth[i]}")
    return log, truth


def save_maglog(path: str, log: MagLog, b_earth: Optional[Sequence[float]] = None) -> None:
    """Write a `maglog v1` file, with the be_truth column when b_earth is given."""
    table = np.empty((len(log), MAGLOG_V1_WIDTH + (b_earth is not None)), dtype=float)
    for k, c in MAGLOG_V1.items():
        table[:, c] = getattr(log, k)
    if b_earth is not None:
        table[:, MAGLOG_V1_WIDTH] = _checked_truth(log, b_earth)
    textio.write_table(path, ["maglog v1"], table.tolist())


def save_coefficients(eps: CalibrationCoefficients, path: str) -> None:
    textio.write_table(path, ["tlcoef v1"], enumerate(eps.eps.tolist(), start=1), ints=(0,))


def load_coefficients(path: str) -> CalibrationCoefficients:
    table = _load_table(path, "tlcoef v1", (2,), ints=(0,))
    if len(table) != N_COEFFS:
        raise CalibrationError(f"expected {N_COEFFS} coefficient rows, got {len(table)}")
    index, eps = table.T
    # The first row with a wrong index or a non-finite value, checked in that order.
    bad = (index != np.arange(1, N_COEFFS + 1)) | ~np.isfinite(eps)
    if bad.any():
        i = int(np.argmax(bad))
        what = (
            f"expected index {i + 1}, got {index[i]:.0f}"
            if index[i] != i + 1
            else f"coefficient must be finite, got {eps[i]}"
        )
        raise CalibrationError(f"line {textio.body_lines(path)[i]}: {what}")
    return CalibrationCoefficients(eps)
