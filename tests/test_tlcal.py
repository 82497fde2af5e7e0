"""20-term magnetometer calibration: regressors, fitting, compensation, file I/O."""

from __future__ import annotations

import gzip
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from magplan import textio
from magplan.tlcal import (
    BLOCK_ROWS,
    MAGLOG_V1,
    N_COEFFS,
    CalibrationCoefficients,
    CalibrationError,
    ExcitationWarning,
    InsufficientDataError,
    InvalidSampleError,
    MagLog,
    RankDeficientError,
    build_regressor_matrix,
    compensate_log,
    fit,
    load_coefficients,
    load_maglog,
    residual_rms,
    save_coefficients,
    save_maglog,
)
from conftest import FULLWIDTH_42_LATIN1, ODD_FLOATS
from oracles import log_from_rows, make_tl_log, one_shot_regressor_matrix, tl_row_reference

# Representative interference model: permanent terms of tens of nT, induced
# and eddy factors small enough to keep the total perturbation below ~1%.
EPS_STAR = np.array(
    [
        12.0, -8.0, 5.0,
        4e-3, -2.5e-3, 3e-3, 1.2e-3, -1.5e-3, 8e-4,
        1e-3, -6e-4, 4e-4, -9e-4, 5e-4, 1.1e-3, -3e-4, 7e-4, -2e-4,
        30.0,
        5.0,
    ]
)


def cosine_log(
    cosines: list[tuple[float, float, float]],
    b_total: float = 1.0,
    speed: float = 0.0,
    dt: float = 0.1,
) -> MagLog:
    """A log whose vector channel is cosines * b_total, dt apart."""
    return log_from_rows(
        [
            (dt * k, c[0] * b_total, c[1] * b_total, c[2] * b_total, b_total, speed)
            for k, c in enumerate(cosines)
        ]
    )


# --- the log record and cosines ---


def test_direction_cosines_basic():
    log = log_from_rows([(0.0, 3.0, 4.0, 0.0, 5.0, 0.2), (1.0, 3.0, 4.0, 0.0, 5.0, 0.2)])
    a = build_regressor_matrix(log)
    assert a[0, 0:3].tolist() == [0.6, 0.8, 0.0]


def test_sample_validation():
    # Row 1 of each two-row log is the bad one.
    for b_vec, b_total in (
        ((1.0, 0.0, 0.0), 0.0),
        ((1.0, 0.0, 0.0), -3.0),
        ((math.nan, 0.0, 0.0), 1.0),
    ):
        with pytest.raises(InvalidSampleError, match="row 1: sample"):
            MagLog([0.0, 1.0], [(1.0, 0.0, 0.0), b_vec], [1.0, b_total], [0.2, 0.2])


GOOD_ROWS = [
    (0.0, 3.0, 4.0, 0.0, 5.0, 0.2),
    (0.1, 3.0, 0.0, 4.0, 5.0, 0.3),
    (0.2, 0.0, 3.0, 4.0, 5.0, 0.4),
    (0.3, 4.0, 3.0, 0.0, 5.0, 0.5),
]


@pytest.mark.parametrize(
    "column,value,fragment",
    [
        (0, math.nan, "row 2: sample must be finite"),
        (0, math.inf, "row 2: sample must be finite"),
        (2, math.nan, "row 2: sample must be finite"),
        (3, -math.inf, "row 2: sample must be finite"),
        (4, math.inf, "row 2: sample must be finite"),
        (5, math.nan, "row 2: sample must be finite"),
        (4, 0.0, "row 2: sample needs b_total > 0"),
        (4, -5.0, "row 2: sample needs b_total > 0"),
        (0, 0.1, "row 2: timestamps must be strictly increasing, got 0.1 after 0.1"),
        (0, 0.05, "row 2: timestamps must be strictly increasing, got 0.05 after 0.1"),
    ],
)
def test_maglog_rejects_bad_row(column, value, fragment):
    rows = [list(r) for r in GOOD_ROWS]
    rows[2][column] = value
    with pytest.raises(InvalidSampleError, match=fragment) as info:
        log_from_rows(rows)
    assert info.value.row == 2


def test_maglog_rejects_a_timestamp_step_past_the_largest_float():
    # Both steps of the first log exceed the largest float; the second log
    # steps by exactly the largest float, and its rate terms stay finite.
    huge = np.finfo(float).max
    rows = [list(r) for r in GOOD_ROWS[:3]]
    for row, t in zip(rows, (-1e308, 1e308, huge)):
        row[0] = t
    with pytest.raises(InvalidSampleError, match="row 1: timestamps must step by a finite amount"):
        log_from_rows(rows)
    for row, t in zip(rows, (-huge / 2, huge / 2, huge)):
        row[0] = t
    assert np.isfinite(build_regressor_matrix(log_from_rows(rows))).all()


@pytest.mark.parametrize(
    "b_total, row",
    [
        (1e-10, 1),  # the direction cosine b_vec / b_total overflows
        (1.0, 1),  # the cosine is finite, and its products overflow
        (1.0, BLOCK_ROWS + 2),  # as above, in the second block of matrix rows
    ],
    ids=["1e-10", "1.0", "second-block"],
)
def test_regressors_that_overflow_name_the_sample(b_total, row):
    # A valid log: every value finite, b_total > 0, increasing timestamps.
    # Only the last sample carries the huge b_vec.
    rows = [(float(k), 1e300 if k == row else 1.0, 0.0, 0.0, b_total, 0.2) for k in range(row + 1)]
    log = log_from_rows(rows)
    zero = CalibrationCoefficients(np.zeros(N_COEFFS))
    for build in (build_regressor_matrix, lambda log: compensate_log(log, zero)):
        # The suite turns warnings into errors, so this also pins "no overflow warning".
        with pytest.raises(InvalidSampleError, match=f"row {row}: regressors overflow") as info:
            build(log)
        assert info.value.row == row


def test_maglog_rejects_mismatched_columns():
    good = log_from_rows(GOOD_ROWS)
    t, b_vec, b_total, speed = good.timestamp, good.b_vec, good.b_total, good.speed
    with pytest.raises(InvalidSampleError, match=r"row 3: b_vec has shape \(3, 3\)"):
        MagLog(t, b_vec[:3], b_total, speed)
    with pytest.raises(InvalidSampleError, match=r"row 2: b_total has shape \(4,\) for 2 "):
        MagLog(t[:2], b_vec[:2], b_total, speed)
    with pytest.raises(InvalidSampleError, match=r"row 4: speed has shape \(5,\)"):
        MagLog(t, b_vec, b_total, np.append(speed, 0.6))
    with pytest.raises(InvalidSampleError, match=r"row 0: b_vec has shape \(4, 2\)"):
        MagLog(t, b_vec[:, :2], b_total, speed)


def test_maglog_columns_are_frozen_copies():
    b_total = np.array([5.0, 5.0])
    log = MagLog([0.0, 1.0], [(3.0, 4.0, 0.0), (3.0, 0.0, 4.0)], b_total, [0.2, 0.2])
    b_total[0] = -1.0
    assert log.b_total.tolist() == [5.0, 5.0]
    assert len(log) == 2 and log.b_vec.shape == (2, 3)
    with pytest.raises(ValueError):
        log.b_vec[0, 0] = 1.0


def test_fit_rejects_an_empty_log():
    empty = MagLog(np.empty(0), np.empty((0, 3)), np.empty(0), np.empty(0))
    assert len(empty) == 0
    with pytest.raises(InsufficientDataError):
        fit(empty, [])


@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
def test_cosines_unit_norm_when_total_matches(cx, cy, cz):
    norm = math.sqrt(cx * cx + cy * cy + cz * cz)
    if norm < 1e-3:
        return
    log = log_from_rows([(0.0, cx, cy, cz, norm, 0.0), (0.1, cx, cy, cz, norm, 0.0)])
    c = build_regressor_matrix(log)[0, 0:3]
    assert float(c @ c) == pytest.approx(1.0, abs=1e-12)


def test_cosine_rates_zero_for_repeated_attitude():
    a = build_regressor_matrix(cosine_log([(0.2, 0.3, 0.5)] * 2, b_total=25000.0))
    assert np.all(a[:, 9:18] == 0.0)


def test_cosine_rates_backward_difference():
    # With b_total = 1 the eddy columns are the cosine x rate grid itself.
    a = build_regressor_matrix(cosine_log([(0.0, 0.5, 0.5), (0.1, 0.5, 0.4)]))
    grid = np.outer((0.1, 0.5, 0.4), (1.0, 0.0, -1.0)).ravel()
    assert a[0, 9:18].tolist() == pytest.approx(grid.tolist())


def test_linear_cosine_drift_gives_constant_rates():
    # Cosine channels moving linearly in time must produce identical
    # backward-difference rates at every step.
    ts = [0.1 * k for k in range(12)]
    seq = [(0.1 + 0.05 * t, 0.3 - 0.02 * t, 0.5 + 0.01 * t) for t in ts]
    a = build_regressor_matrix(cosine_log(seq))
    for row in a:
        grid = np.outer(row[0:3], (0.05, -0.02, 0.01)).ravel()
        assert row[9:18].tolist() == pytest.approx(grid.tolist(), abs=1e-12)


# --- regressor layout ---


def test_row_unit_x_attitude():
    row = build_regressor_matrix(cosine_log([(1.0, 0.0, 0.0)] * 2))[0]
    expected = np.zeros(N_COEFFS)
    expected[0] = 1.0  # permanent cx
    expected[3] = 1.0  # induced cx^2 scaled by b_total = 1
    expected[18] = 1.0  # bias
    assert np.array_equal(row, expected)


def test_row_speed_column():
    row = build_regressor_matrix(cosine_log([(0.0, 0.0, 0.0)] * 2, 123.0, 0.2))[0]
    assert row[19] == 0.2
    assert row[18] == 1.0
    assert np.all(row[:18] == 0.0)


@st.composite
def increasing_logs(draw) -> list[tuple[float, ...]]:
    """`maglog v1` rows (timestamp, bx, by, bz, btotal, speed)."""
    n = draw(st.integers(2, 8))
    t = draw(st.floats(-1e3, 1e3))
    rows = []
    for _ in range(n):
        b_vec = draw(st.tuples(*[st.floats(-1e5, 1e5)] * 3))
        rows.append((t, *b_vec, draw(st.floats(1e3, 1e5)), draw(st.floats(0, 2))))
        t += draw(st.floats(1e-3, 10))
    return rows


@given(increasing_logs())
def test_row_matches_longhand_reference(rows):
    a = build_regressor_matrix(log_from_rows(rows))
    assert a.shape == (len(rows) - 1, N_COEFFS)
    for i in range(1, len(rows)):
        (t_prev, *b_prev, bt_prev, _), (t, *b_vec, b_total, speed) = rows[i - 1], rows[i]
        c = tuple(v / b_total for v in b_vec)
        c_prev = tuple(v / bt_prev for v in b_prev)
        r = tuple((c[k] - c_prev[k]) / (t - t_prev) for k in range(3))
        row = a[i - 1]
        assert row[0:3].tolist() == list(c)
        assert (row[18], row[19]) == (1.0, speed)
        # The scaled products may differ from the longhand grouping by an ulp.
        expected = tl_row_reference(c, r, b_total, speed)[3:18]
        assert row[3:18].tolist() == pytest.approx(expected, rel=1e-13)


# n samples give n - 1 matrix rows; the ids count rows in blocks of B.
@pytest.mark.parametrize(
    "n, noise_sigma",
    [
        (10_000, 0.0),  # the acceptance log
        (2, 1.0),
        (BLOCK_ROWS, 1.0),
        (BLOCK_ROWS + 1, 1.0),
        (BLOCK_ROWS + 2, 1.0),
        (2 * BLOCK_ROWS + 2, 1.0),
    ],
    ids=["acceptance", "1-row", "B-1-rows", "B-rows", "B+1-rows", "2B+1-rows"],
)
def test_blocked_matrix_equals_one_shot_reference_bitwise(n, noise_sigma):
    log, _ = make_tl_log(EPS_STAR, n, noise_sigma=noise_sigma, seed=n)
    a = build_regressor_matrix(log)
    assert a.shape == (n - 1, N_COEFFS) and a.flags.c_contiguous
    assert a.tobytes() == one_shot_regressor_matrix(log).tobytes()


def test_matrix_skips_seed_sample_and_checks_order():
    log, _ = make_tl_log(np.zeros(N_COEFFS), n=6)
    a = build_regressor_matrix(log)
    assert a.shape == (5, N_COEFFS)
    # The record itself holds the timestamp order, so no matrix sees a bad one.
    t = log.timestamp
    for bad_t in (t[[0, 2, 1, 3, 4, 5]], np.r_[t[:2], t[1], t[3:]]):
        with pytest.raises(InvalidSampleError, match="row 2"):
            MagLog(bad_t, log.b_vec, log.b_total, log.speed)
    with pytest.raises(InsufficientDataError):
        build_regressor_matrix(MagLog(t[:1], log.b_vec[:1], log.b_total[:1], log.speed[:1]))


# --- fitting ---


def test_fit_zero_interference_gives_zero_coefficients():
    log, b_earth = make_tl_log(np.zeros(N_COEFFS), n=200)
    eps = fit(log, b_earth)
    assert np.max(np.abs(eps.eps)) <= 1e-9


def test_fit_recovers_known_model():
    log, b_earth = make_tl_log(EPS_STAR, n=400)
    eps = fit(log, b_earth)
    assert np.allclose(eps.eps, EPS_STAR, rtol=1e-6, atol=1e-9)


def test_fit_recovery_under_sensor_noise():
    # 1 nT of reading noise: the fit must stay unbiased enough that the
    # compensation residual is on the order of the noise floor.
    worst = 0.0
    for seed in range(100):
        log, b_earth = make_tl_log(EPS_STAR, n=300, noise_sigma=1.0, seed=seed)
        eps = fit(log, b_earth)
        worst = max(worst, residual_rms(log, b_earth, eps))
    assert worst <= 2.0


def test_fit_rejects_misaligned_truth():
    log, b_earth = make_tl_log(np.zeros(N_COEFFS), n=30)
    with pytest.raises(CalibrationError):
        fit(log, b_earth[:-1])


def test_fit_rejects_non_finite_truth():
    log, b_earth = make_tl_log(np.zeros(N_COEFFS), n=30)
    for bad in (math.nan, math.inf):
        truth = b_earth.copy()
        truth[7] = bad
        with pytest.raises(CalibrationError, match=r"b_earth\[7\] must be finite"):
            fit(log, truth)


def test_residual_rms_rejects_misaligned_truth():
    log, b_earth = make_tl_log(EPS_STAR, n=300)
    eps = fit(log, b_earth)
    with pytest.raises(CalibrationError, match="b_earth has 299 entries for 300 samples"):
        residual_rms(log, b_earth[:-1], eps)


def test_residual_rms_rejects_non_finite_truth():
    log, b_earth = make_tl_log(EPS_STAR, n=300)
    eps = fit(log, b_earth)
    truth = b_earth.copy()
    truth[5] = math.nan
    with pytest.raises(CalibrationError, match=r"b_earth\[5\] must be finite"):
        residual_rms(log, truth, eps)


def test_fit_insufficient_rows():
    log, b_earth = make_tl_log(np.zeros(N_COEFFS), n=15)
    with pytest.raises(InsufficientDataError):
        fit(log, b_earth)


def test_fit_constant_attitude_is_rank_deficient():
    base, _ = make_tl_log(np.zeros(N_COEFFS), n=3)
    log = log_from_rows(
        [(0.1 * i, *base.b_vec[0], base.b_total[0], 0.2 + 0.01 * i) for i in range(60)]
    )
    b_earth = np.full(60, 25000.0)
    with pytest.raises(RankDeficientError) as exc:
        with pytest.warns(ExcitationWarning):
            fit(log, b_earth)
    assert exc.value.rank < N_COEFFS


def test_fit_warns_on_barely_moving_speed_column():
    log, b_earth = make_tl_log(EPS_STAR, n=300, speed_amp=1e-4)
    with pytest.warns(ExcitationWarning, match="20"):
        eps = fit(log, b_earth)
    # Well-excited coefficients are still fine; only the speed term drifts.
    assert np.allclose(eps.eps[:18], EPS_STAR[:18], rtol=1e-4, atol=1e-6)


def test_fit_on_regressors_whose_squares_overflow_reports_the_rank():
    # Finite cosines near 1e150 square past the largest float in the column
    # variances; fit must still end in its own warning and error, not numpy's.
    n = 25
    t = 0.1 * np.arange(n)
    b_vec = np.column_stack([1e150 * (1 + 0.01 * np.arange(n)), np.sin(t), np.cos(t)])
    log = MagLog(t, b_vec, np.ones(n), 0.2 + 0.1 * np.sin(t))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RankDeficientError) as exc:
            fit(log, np.ones(n))
    assert [w.category for w in caught] == [ExcitationWarning]
    assert exc.value.rank == 2


def test_solution_invariant_under_row_permutation():
    log, b_earth = make_tl_log(EPS_STAR, n=250, noise_sigma=1.0, seed=3)
    a = build_regressor_matrix(log)
    y = log.b_total[1:] - b_earth[1:]
    sol, *_ = np.linalg.lstsq(a, y, rcond=None)
    perm = np.random.default_rng(0).permutation(len(y))
    sol_p, *_ = np.linalg.lstsq(a[perm], y[perm], rcond=None)
    assert np.allclose(sol, sol_p, rtol=1e-9, atol=1e-12)


# --- compensation ---


def test_compensate_log_recovers_truth():
    log, b_earth = make_tl_log(EPS_STAR, n=400)
    eps = fit(log, b_earth)
    est = compensate_log(log, eps)
    assert np.allclose(est, b_earth[1:], atol=1e-6)
    assert residual_rms(log, b_earth, eps) <= 1e-6


def test_compensate_zero_coefficients_is_identity():
    log, _ = make_tl_log(np.zeros(N_COEFFS), n=10)
    eps = CalibrationCoefficients(np.zeros(N_COEFFS))
    assert compensate_log(log, eps).tolist() == log.b_total[1:].tolist()


def test_bias_only_interference():
    eps_bias = np.zeros(N_COEFFS)
    eps_bias[18] = 100.0
    log, b_earth = make_tl_log(eps_bias, n=300)
    assert np.allclose(log.b_total - b_earth, 100.0, atol=1e-9)
    eps = fit(log, b_earth)
    assert eps.eps[18] == pytest.approx(100.0, rel=1e-9)
    assert np.allclose(np.delete(eps.eps, 18), np.delete(eps_bias, 18), atol=1e-7)


@given(st.integers(0, 2**32 - 1))
def test_compensation_linear_in_coefficients(seed):
    rng = np.random.default_rng(seed)
    e1 = rng.normal(0, 1, N_COEFFS)
    e2 = rng.normal(0, 1, N_COEFFS)
    base = 25000.0
    # One reading after a previous one is compensated as the single row of a
    # 2-row log.
    pair = log_from_rows(
        [(0.9, 20000.0, 9000.0, 12000.0, base, 0.3), (1.0, 20000.0, 9000.0, 12000.0, base, 0.3)]
    )
    d1 = base - compensate_log(pair, CalibrationCoefficients(e1))[0]
    d2 = base - compensate_log(pair, CalibrationCoefficients(e2))[0]
    d12 = base - compensate_log(pair, CalibrationCoefficients(e1 + e2))[0]
    assert d12 == pytest.approx(d1 + d2, rel=1e-9, abs=1e-9)


# --- file formats ---


def test_maglog_round_trip(tmp_path):
    log, b_earth = make_tl_log(EPS_STAR, n=25, noise_sigma=0.5, seed=9)
    path = tmp_path / "log.maglog"
    save_maglog(path, log, b_earth)
    back, truth = load_maglog(path)
    assert truth is not None
    assert np.array_equal(truth, b_earth)
    assert len(back) == len(log)
    for name in ("timestamp", "b_vec", "b_total", "speed"):
        # The repr round trip is exact.
        assert np.array_equal(getattr(back, name), getattr(log, name))


def test_maglog_without_truth_column(tmp_path):
    log, _ = make_tl_log(np.zeros(N_COEFFS), n=5)
    path = tmp_path / "log.maglog"
    save_maglog(path, log)
    back, truth = load_maglog(path)
    assert truth is None
    assert len(back) == 5


def test_save_maglog_writes_fixed_text(tmp_path):
    log = log_from_rows(
        [
            (0.0, 3.0, 4.0, 0.0, 5.0, 0.2),
            (0.1, -1.5, 2.25, 1e-05, 25000.5, 0.0),
            (2.0, 1e20, -0.0, 7.0, 0.125, 3.0),
        ]
    )
    path = tmp_path / "log.maglog"
    body = [
        "0.0,3.0,4.0,0.0,5.0,0.2",
        "0.1,-1.5,2.25,1e-05,25000.5,0.0",
        "2.0,1e+20,-0.0,7.0,0.125,3.0",
    ]
    save_maglog(path, log)
    assert path.read_text() == "maglog v1\n" + "".join(line + "\n" for line in body)
    save_maglog(path, log, [25000, 24999.875, 0.1])
    truth = (",25000.0", ",24999.875", ",0.1")
    assert path.read_text() == "maglog v1\n" + "".join(
        line + t + "\n" for line, t in zip(body, truth)
    )


def test_save_maglog_rejects_truth_that_load_maglog_rejects(tmp_path):
    log, b_earth = make_tl_log(np.zeros(N_COEFFS), n=5)
    path = tmp_path / "log.maglog"
    nan_truth = b_earth.copy()
    nan_truth[3] = math.nan
    for bad, fragment in (
        (nan_truth, r"b_earth\[3\] must be finite, got nan"),
        (np.column_stack([b_earth, b_earth]), r"b_earth has shape \(5, 2\) for 5 samples"),
        (b_earth[:-1], "b_earth has 4 entries for 5 samples"),
    ):
        with pytest.raises(CalibrationError, match=fragment):
            save_maglog(path, log, bad)
        assert not path.exists()


def test_save_coefficients_writes_fixed_text(tmp_path):
    neg0, tiny, big = ODD_FLOATS[:3]
    eps = [neg0, tiny, big, 0.1, -2.5, 1e-05, 1e20, *(0.25 * i for i in range(13))]
    path = tmp_path / "c.tlcoef"
    save_coefficients(CalibrationCoefficients(eps), path)
    assert path.read_text() == (
        "tlcoef v1\n1,-0.0\n2,5e-324\n3,1.7976931348623157e+308\n4,0.1\n5,-2.5\n"
        "6,1e-05\n7,1e+20\n8,0.0\n9,0.25\n10,0.5\n11,0.75\n12,1.0\n13,1.25\n14,1.5\n"
        "15,1.75\n16,2.0\n17,2.25\n18,2.5\n19,2.75\n20,3.0\n"
    )


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("wrong v1\n", "header"),
        ("maglog v1\n1,2,3\n", "line 2"),
        ("maglog v1\n0,1,1,1,2,0.2\nnope,1,1,1,2,0.2\n", "line 3"),
        ("maglog v1\n0,1,1,1,-2,0.2\n", "line 2"),
        ("maglog v1\n0,1,1,1,2,0.2,25000\n1,1,1,1,2,0.2\n", "line 3: expected 7 CSV fields as on line 2, got 6"),
        ("maglog v1\n1,1,1,1,2,0.2\n0.5,1,1,1,2,0.2\n", "increasing"),
        ("maglog v1\n0,1,1,1,2,0.2,25000\n1,1,1,1,2,0.2,nan\n", "line 3: be_truth"),
        ("maglog v1\n0,1,1,1,2,0.2,inf\n1,1,1,1,2,0.2,25000\n", "line 2: be_truth"),
        # numpy skips an empty line without a trace; the line count keeps it.
        ("maglog v1\n0,1,1,1,2,0.2,25000\n\n1,1,1,1,2,0.2,nan\n", "line 4: be_truth"),
        # A gzip stream is not a maglog, whatever its name.
        pytest.param(
            gzip.compress(b"maglog v1\n0,1,1,1,2,0.2\n"), "line 1: expected header", id="gzip"
        ),
        ("maglog v1\n0,1,1,1,2,0.2\n1,1,1\xe9,1,2,0.2\n", "line 3: bad value"),
        ("maglog v1\xe9\n0,1,1,1,2,0.2\n", "line 1: expected header"),
        ("maglog v1\n0,1,1,1,2,0.2\n\n1,1,nan,1,2,0.2\n", "line 4: sample must be finite"),
        (
            "maglog v1\n0,1,1,1,2,0.2\n\n2,1,1,1,2,0.2\n1,1,1,1,2,0.2\n",
            "line 5: timestamps must be strictly increasing",
        ),
        # A whitespace-only line is skipped and keeps its place in the count.
        # Only a newline ends a line: a vertical tab is cell padding.
        ("maglog v1\n0,1,1,1,2,0.2\x0b\n1,1,1,1,2,0.2\n2,1,nope,1,2,0.2\n", "line 4: bad value"),
        ("maglog v1\r\n0,1,1,1,2,0.2\r\n1,1,1\r\n", "line 3: expected 6 or 7 CSV fields, got 3"),
        ("maglog v1\n0,1,1,1,2,0.2\n \t \n1,1,1\n", "line 4: expected 6 or 7 CSV fields, got 3"),
        # There is no comment syntax.
        ("maglog v1\n0,1,1,1,2,0.2 # note\n", "line 2: bad value: .*'0.2 # note'"),
        # `float` takes digit separators; the maglog grammar does not.
        ("maglog v1\n0,1,1,1,2,0.2\n1,1,1,1,2,1_0\n", "line 3: bad value: .*'1_0'"),
        (f"maglog v1\n0,1,1,1,2,0.2\n1,1,1,1,2,{FULLWIDTH_42_LATIN1}\n", "line 3: bad value"),
        ("maglog v1\n0,1,,1,2,0.2\n", "line 2: bad value: .*''"),
        (
            "maglog v1\n-1e308,1,1,1,2,0.2\n\n1e308,1,1,1,2,0.2\n",
            "line 4: timestamps must step by a finite amount",
        ),
    ],
)
def test_maglog_parse_errors(tmp_path, text, fragment):
    # A bytes case is a gzip stream, named as numpy would decompress it.
    path = tmp_path / ("bad.maglog.gz" if isinstance(text, bytes) else "bad.maglog")
    path.write_bytes(text if isinstance(text, bytes) else text.encode("latin-1"))
    with pytest.raises(CalibrationError, match=fragment):
        load_maglog(path)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_maglog_named_like_a_compressed_file_reads_as_text(tmp_path, suffix):
    log, b_earth = make_tl_log(EPS_STAR, n=5)
    plain, named = tmp_path / "log.maglog", tmp_path / f"log.maglog{suffix}"
    save_maglog(plain, log, b_earth)
    named.write_bytes(plain.read_bytes())
    back, truth = load_maglog(named)
    assert np.array_equal(back.b_vec, log.b_vec) and np.array_equal(truth, b_earth)


def test_maglog_header_only_is_an_empty_log(tmp_path):
    # The suite turns warnings into errors, so this also pins "no warning".
    path = tmp_path / "empty.maglog"
    path.write_text("maglog v1\n\n")
    log, truth = load_maglog(path)
    assert len(log) == 0 and log.b_vec.shape == (0, 3)
    assert truth is None


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Any two of these differ by at most the largest float, a finite timestamp step.
HALF_MAX = float(np.finfo(float).max / 2)
# The timestamps step by the largest float, the widest step a log may take.
EXTREMES = np.array(
    [
        [-HALF_MAX, -0.0, 5e-324, -5e-324, 5e-324, -0.0, 1.7976931348623157e308],
        [HALF_MAX, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.7976931348623157e308,
         5e-324, -0.0],
        [1.7976931348623157e308, 1.0, 2.0, 3.0, 25000.5, 1e-300, 0.0],
    ]
)


@st.composite
def maglog_tables(draw) -> np.ndarray:
    """A valid (n, 7) maglog table: increasing timestamps, positive b_total, be_truth last."""
    n = draw(st.integers(1, 8))  # a header-only file has no be_truth column to round-trip
    table = draw(arrays(np.float64, (n, 7), elements=FINITE))
    timestamps = st.floats(-HALF_MAX, HALF_MAX)
    table[:, 0] = sorted(draw(st.lists(timestamps, min_size=n, max_size=n, unique=True)))
    table[:, 4] = draw(arrays(np.float64, n, elements=st.floats(min_value=5e-324, max_value=1e308)))
    return table


@given(table=maglog_tables(), with_truth=st.booleans())
@example(table=EXTREMES, with_truth=True)
@example(table=EXTREMES, with_truth=False)
def test_maglog_round_trip_is_bitwise(tmp_path_factory, table, with_truth):
    log = MagLog(**{k: table[:, c] for k, c in MAGLOG_V1.items()})
    path = tmp_path_factory.mktemp("rt") / "log.maglog"
    save_maglog(path, log, table[:, 6] if with_truth else None)
    back, truth = load_maglog(path)
    assert (truth is not None) == with_truth
    cols = [back.timestamp, back.b_vec, back.b_total, back.speed] + ([truth] if with_truth else [])
    got = np.column_stack(cols)
    assert np.array_equal(got.view(np.uint64), table[:, : got.shape[1]].view(np.uint64))


def test_maglog_reads_every_float_spelling(tmp_path):
    # Forms `float` accepts that save_maglog never writes.
    rows = ["-0,1e5,+3, 2.5 ,.5,5.,1E-3", "1E-3, 2.5 ,.5,5.,1e5,-0,+3"]
    path = tmp_path / "forms.maglog"
    path.write_text("maglog v1\n" + "\n".join(rows) + "\n")
    log, truth = load_maglog(path)
    got = np.column_stack([log.timestamp, log.b_vec, log.b_total, log.speed, truth])
    want = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_load_maglog_memory_bounded(tmp_path):
    log, b_earth = make_tl_log(EPS_STAR, n=10_000, noise_sigma=0.5, seed=2)
    path = tmp_path / "big.maglog"
    save_maglog(path, log, b_earth)
    assert 1.1e6 < path.stat().st_size < 1.4e6
    tracemalloc.start()
    try:
        load_maglog(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A load must hold the (n, 7) table (0.56 MB), the MagLog column copies
    # (0.48 MB) and the truth copy (0.08 MB): 1.12 MB. The 0.88 MB of slack
    # covers numpy growing its table as it reads; a list of the file's lines
    # would add about 1.5 MB.
    assert peak < 2.0e6


def test_clean_maglog_is_read_without_its_lines(tmp_path, monkeypatch):
    log, b_earth = make_tl_log(EPS_STAR, n=10_000, noise_sigma=0.5, seed=2)
    path = tmp_path / "big.maglog"
    save_maglog(path, log, b_earth)

    def no_lines(path):
        raise AssertionError("a clean maglog was read as a list of lines")

    monkeypatch.setattr(textio, "read_lines", no_lines)
    back, truth = load_maglog(path)
    assert np.array_equal(back.b_vec, log.b_vec) and np.array_equal(truth, b_earth)


def test_header_only_maglog_is_read_without_its_lines(tmp_path, monkeypatch):
    # An empty body is numpy's "no data" warning, which the path parse reads
    # as a 0-row table; it needs no line walk.
    path = tmp_path / "empty.maglog"
    path.write_text("maglog v1\n")

    def no_lines(path):
        raise AssertionError("a header-only maglog was read as a list of lines")

    monkeypatch.setattr(textio, "read_lines", no_lines)
    back, truth = load_maglog(path)
    assert len(back.b_total) == 0 and truth is None


def test_coefficients_round_trip(tmp_path):
    eps = CalibrationCoefficients(EPS_STAR)
    path = tmp_path / "c.tlcoef"
    save_coefficients(eps, path)
    text = path.read_text().splitlines()
    assert text[0] == "tlcoef v1"
    assert len(text) == N_COEFFS + 1
    assert text[1].startswith("1,")
    back = load_coefficients(path)
    assert np.array_equal(back.eps, eps.eps)


@pytest.mark.parametrize(
    "mutation",
    [
        "header", "count", "index", "value", "nan", "inf", "non_ascii", "blank_lines",
        "blank_first", "index_after_blank", "1_0", FULLWIDTH_42_LATIN1,
        # Spellings of the index 5 that Python's int or float reads as 5.
        "index:0_5", "index:5.0", "index:5e0", f"index:{FULLWIDTH_42_LATIN1}",
    ],
)
def test_coefficients_parse_errors(tmp_path, mutation):
    path = tmp_path / "c.tlcoef"
    save_coefficients(CalibrationCoefficients(np.zeros(N_COEFFS)), path)
    lines = path.read_text().splitlines()
    if mutation == "header":
        lines[0] = "tlcoef v9"
    elif mutation == "count":
        lines = lines[:-1]
    elif mutation == "index":
        lines[5] = "9,0.0"
    elif mutation == "value":
        lines[5] = "5,potato"
    elif mutation == "non_ascii":
        lines[5] = "5,0.0\xe9"
    elif mutation == "blank_lines":
        lines[2:3] = ["", "", "2,abc"]
    elif mutation == "blank_first":
        lines.insert(0, "")
    elif mutation == "index_after_blank":
        lines[3:3] = [""]
        lines[6] = "9,0.0"
    elif mutation.startswith("index:"):
        lines[5] = mutation.removeprefix("index:") + ",0.0"
    else:
        lines[5] = f"5,{mutation}"
    path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    with pytest.raises(CalibrationError) as info:
        load_coefficients(path)
    if mutation in ("nan", "inf"):
        assert "line 6: coefficient must be finite" in str(info.value)
    if mutation in ("non_ascii", "1_0", FULLWIDTH_42_LATIN1) or mutation.startswith("index:"):
        assert "line 6: bad value" in str(info.value)
    if mutation == "blank_lines":
        assert "line 5: bad value" in str(info.value)
    if mutation == "blank_first":
        assert "line 1: expected header" in str(info.value)
    if mutation == "index_after_blank":
        assert "line 7: expected index 5, got 9" in str(info.value)


def test_coefficients_vector_validated():
    with pytest.raises(CalibrationError):
        CalibrationCoefficients(np.zeros(19))
    with pytest.raises(CalibrationError):
        CalibrationCoefficients(np.full(N_COEFFS, np.nan))
    eps = CalibrationCoefficients(np.zeros(N_COEFFS))
    with pytest.raises(ValueError):
        eps.eps[0] = 1.0
