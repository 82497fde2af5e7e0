"""End-to-end CLI behavior, run in process through main()."""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from magplan import __version__, simloop, tlcal
from magplan.cli import main
from magplan.magmap import load_map
from magplan.models import ControlInput, Pose
from magplan.simloop import EpisodeTrace, TraceRow, read_trace, write_trace
from conftest import FULLWIDTH_42, ODD_FLOATS
from oracles import make_tl_log
from test_config import BASE, render
from test_tlcal import EPS_STAR


def comment_lines(path) -> list[str]:
    """The `#` lines of a written file."""
    return [l for l in pathlib.Path(path).read_text().splitlines() if l.startswith("#")]


def write_cfg(tmp_path, name="exp.cfg", extra=None, remove=()):
    entries = {k: v for k, v in BASE.items() if k not in remove}
    entries.update(extra or {})
    path = tmp_path / name
    path.write_text(render(entries))
    return str(path)


# --- argument handling ---


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == f"magplan {__version__}"


def test_subcommand_required():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_run_requires_config():
    with pytest.raises(SystemExit) as info:
        main(["run"])
    assert info.value.code == 2


def test_export_rejects_unknown_kind(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["export", str(tmp_path / "t.csv"), "--kind", "violin"])
    assert info.value.code == 2


# --- genmap ---


def test_genmap_writes_loadable_map(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "maps"
    assert main(["genmap", "--config", cfg, "--out", str(out)]) == 0
    assert "141x101" in capsys.readouterr().out
    grid = load_map(str(out / "map.magmap"))
    assert grid.width == 141


def test_genmap_quiet(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["genmap", "--config", cfg, "--out", str(tmp_path / "m"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_genmap_missing_map_keys(tmp_path, capsys):
    cfg = write_cfg(tmp_path, remove=("map.peak_sigma_x",))
    assert main(["genmap", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "map.peak_sigma_x" in capsys.readouterr().err


def test_non_positive_synthetic_field_is_a_config_error(tmp_path, capsys):
    # A dip deeper than the 25000 nT base field leaves values <= 0 in the grid.
    cfg = write_cfg(tmp_path, extra={"map.peak_amplitude": "-40000.0"})
    for command in ("genmap", "run"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "error: invalid map spec: map values must all be > 0" in capsys.readouterr().err
        assert not out.exists()


# --- calibrate ---


def test_calibrate_end_to_end(tmp_path, capsys):
    log, be = make_tl_log(EPS_STAR, 400)
    log_path = tmp_path / "cal.maglog"
    tlcal.save_maglog(str(log_path), log, be)
    out = tmp_path / "cal"
    assert main(["calibrate", str(log_path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "fit 399 rows" in stdout
    coeffs = tlcal.load_coefficients(str(out / "coefficients.tlcoef"))
    assert np.allclose(coeffs.eps, EPS_STAR, rtol=1e-6, atol=1e-9)
    report = (out / "calibration_report.txt").read_text()
    assert "residual_rms_nt: " in report
    assert "samples: 400" in report
    assert "warnings: none" in report


def test_calibrate_reports_excitation_warning(tmp_path):
    log, be = make_tl_log(EPS_STAR, 400, speed_amp=1e-4)
    log_path = tmp_path / "flat.maglog"
    tlcal.save_maglog(str(log_path), log, be)
    out = tmp_path / "cal"
    assert main(["calibrate", str(log_path), "--out", str(out), "--quiet"]) == 0
    assert "warning:" in (out / "calibration_report.txt").read_text()


def test_calibrate_needs_truth_column(tmp_path, capsys):
    log, _ = make_tl_log(EPS_STAR, 50)
    log_path = tmp_path / "no_truth.maglog"
    tlcal.save_maglog(str(log_path), log)
    assert main(["calibrate", str(log_path), "--out", str(tmp_path)]) == 2
    assert "be_truth" in capsys.readouterr().err


def test_calibrate_non_ascii_log_is_an_error(tmp_path, capsys):
    log, b_earth = make_tl_log(EPS_STAR, 50)
    log_path = tmp_path / "accent.maglog"
    tlcal.save_maglog(str(log_path), log, b_earth)
    text = log_path.read_bytes().splitlines(keepends=True)
    text[3] = text[3].replace(b",", b"\xe9,", 1)
    log_path.write_bytes(b"".join(text))
    assert main(["calibrate", str(log_path), "--out", str(tmp_path)]) == 2
    assert "line 4: bad value" in capsys.readouterr().err


def test_calibrate_non_ascii_path_is_escaped_in_the_report(tmp_path):
    log, be = make_tl_log(EPS_STAR, 400)
    log_path = tmp_path / "vol\u00e9.maglog"
    tlcal.save_maglog(str(log_path), log, be)
    out = tmp_path / "cal"
    assert main(["calibrate", str(log_path), "--out", str(out), "--quiet"]) == 0
    report = (out / "calibration_report.txt").read_bytes().decode("ascii")
    assert "vol\\xe9.maglog\n" in report
    assert "warnings: none" in report


def test_calibrate_missing_log_file(tmp_path, capsys):
    assert main(["calibrate", str(tmp_path / "ghost.maglog"), "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


# --- run ---


def test_run_writes_trace_and_metrics(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra={"sim.step_budget": "8"})
    out = tmp_path / "ep"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "8 steps (budget exhausted)" in stdout
    assert len(read_trace(str(out / "trace.csv"))["step"]) == 8
    head = comment_lines(out / "trace.csv")
    assert "# seed: 0" in head
    assert f"# magplan_version: {__version__}" in head
    assert "# reached_goal: 0" in head
    hashes = [l for l in head if l.startswith("# config_hash: ")]
    assert len(hashes) == 1 and len(hashes[0]) == len("# config_hash: ") + 16
    metrics_text = (out / "metrics.csv").read_text()
    assert "# magplan-metrics v1" in metrics_text


def test_run_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, extra={"sim.step_budget": "6"})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a), "--quiet"]) == 0
    assert main(["run", "--config", cfg, "--out", str(b), "--quiet"]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


def test_run_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, extra={"sim.step_budget": "6"})
    base, other, again = (tmp_path / d for d in ("s0", "s5", "s5b"))
    assert main(["run", "--config", cfg, "--out", str(base), "--quiet"]) == 0
    assert main(["run", "--config", cfg, "--out", str(other), "--seed", "5", "--quiet"]) == 0
    assert main(["run", "--config", cfg, "--out", str(again), "--seed", "5", "--quiet"]) == 0
    assert "# seed: 5" in comment_lines(other / "trace.csv")
    assert (other / "trace.csv").read_bytes() != (base / "trace.csv").read_bytes()
    assert (other / "trace.csv").read_bytes() == (again / "trace.csv").read_bytes()


def test_run_rejects_a_seed_outside_the_integer_grammar(tmp_path, capsys):
    # Python's int reads these as 10 and 42; a config's sim.seed rejects them too.
    cfg = write_cfg(tmp_path, extra={"sim.step_budget": "6"})
    out = tmp_path / "ep"
    for seed in ("1_0", FULLWIDTH_42):
        with pytest.raises(SystemExit) as info:
            main(["run", "--config", cfg, "--out", str(out), "--seed", seed])
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_run_uses_map_file_relative_to_config(tmp_path):
    gen_cfg = write_cfg(tmp_path)
    assert main(["genmap", "--config", gen_cfg, "--out", str(tmp_path), "--quiet"]) == 0
    cfg = write_cfg(
        tmp_path,
        name="with_file.cfg",
        extra={"map.file": "map.magmap", "sim.step_budget": "4"},
    )
    out = tmp_path / "filemap"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert len(read_trace(str(out / "trace.csv"))["step"]) == 4


def test_run_non_ascii_map_file_is_a_config_error(tmp_path, capsys):
    gen_cfg = write_cfg(tmp_path)
    assert main(["genmap", "--config", gen_cfg, "--out", str(tmp_path), "--quiet"]) == 0
    path = tmp_path / "map.magmap"
    path.write_bytes(path.read_bytes().replace(b" ", b"\xe9 ", 1))
    cfg = write_cfg(tmp_path, name="with_file.cfg", extra={"map.file": "map.magmap"})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "cannot load map.file" in capsys.readouterr().err


def test_run_non_ascii_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "accent.cfg"
    cfg.write_bytes(pathlib.Path(write_cfg(tmp_path)).read_bytes() + b"# caf\xe9\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_run_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("schema_version = 1\nsim.velocity = 3\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_run_step_failure_exit_code(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        extra={
            "start.x": "11.5",
            "start.theta_deg": "0.0",
            "goal.x": "11.9",
            "goal.arrival_radius": "0.05",
            "planner.w_h": "0.0",
            "sim.step_budget": "60",
            "sim.seed": "3",
            "filter.prior_sigma_x": "0.3",
            "filter.prior_sigma_y": "0.3",
        },
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
    assert "episode failed at step" in capsys.readouterr().err


# --- sweep ---


def test_sweep_writes_cells_and_summary(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        extra={
            "sim.step_budget": "3",
            "sweep.w_h_values": "0, 5",
            "sweep.seeds": "0",
        },
    )
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "w_h=0 seed=0: 3 steps" in stdout
    assert (out / "trace_wh0_seed0.csv").exists()
    assert (out / "trace_wh5_seed0.csv").exists()
    lines = [
        l for l in (out / "summary.csv").read_text().splitlines() if not l.startswith("#")
    ]
    assert len(lines) == 3  # header + 2 cells
    assert "# w_h: 5.0" in comment_lines(out / "trace_wh5_seed0.csv")


def test_sweep_summary_records_no_base_seed(tmp_path):
    # sim.seed is not a sweep cell's seed, so the summary must not name it.
    cfg = write_cfg(
        tmp_path,
        extra={
            "sim.seed": "7",
            "sim.step_budget": "2",
            "sweep.w_h_values": "0",
            "sweep.seeds": "1",
        },
    )
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    preamble = [l for l in summary if l.startswith("#")]
    assert preamble[0] == "# magplan-summary v1"
    assert any(l.startswith("# config_hash: ") for l in preamble)
    assert not any(l.startswith("# seed:") for l in preamble)
    assert summary[len(preamble) + 1].split(",")[:2] == ["0.0", "1"]
    assert "# seed: 1" in comment_lines(out / "trace_wh0_seed1.csv")


def test_sweep_failing_cells_exit_nonzero(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        extra={
            "start.x": "11.5",
            "start.theta_deg": "0.0",
            "goal.x": "11.9",
            "goal.arrival_radius": "0.05",
            "sim.step_budget": "60",
            "sweep.w_h_values": "0",
            "sweep.seeds": "3",
            "filter.prior_sigma_x": "0.3",
            "filter.prior_sigma_y": "0.3",
        },
    )
    out = tmp_path / "swf"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert "FAILED" in capsys.readouterr().out
    assert not (out / "trace_wh0_seed3.csv").exists()
    rows = [
        l for l in (out / "summary.csv").read_text().splitlines() if not l.startswith("#")
    ]
    assert "step" in rows[1].rsplit(",", 1)[1]


def test_sweep_requires_sweep_keys(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "sweep.w_h_values" in capsys.readouterr().err
    # A w_h the planner rejects stops the sweep before any episode runs.
    cfg = write_cfg(tmp_path, extra={"sweep.w_h_values": "-1, 0", "sweep.seeds": "0"})
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: sweep.w_h_values: w_h must be")
    assert not out.exists()


@pytest.mark.parametrize(
    "w_h_values,seeds,cells",
    [
        ("0.1234561, 0.1234562", "0", "w_h=0.1234561 seed=0 and w_h=0.1234562 seed=0"),
        ("0, 0", "0", "w_h=0.0 seed=0 and w_h=0.0 seed=0"),
        ("0", "1, 1", "w_h=0.0 seed=1 and w_h=0.0 seed=1"),
    ],
)
def test_sweep_rejects_colliding_trace_names(tmp_path, capsys, w_h_values, seeds, cells):
    # Two cells that would write the same trace file stop the sweep before
    # any episode runs.
    cfg = write_cfg(tmp_path, extra={"sweep.w_h_values": w_h_values, "sweep.seeds": seeds})
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: sweep cells {cells} would both write trace_wh")
    assert not out.exists()


def test_sweep_has_no_seed_flag(tmp_path, capsys):
    # Every cell runs its own sweep.seeds entry, so a --seed would be inert.
    cfg = write_cfg(tmp_path, extra={"sweep.w_h_values": "0", "sweep.seeds": "0"})
    out = tmp_path / "sw"
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--config", cfg, "--out", str(out), "--seed", "7"])
    assert info.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


# --- export ---


@pytest.fixture()
def run_trace(tmp_path):
    cfg = write_cfg(tmp_path, extra={"sim.step_budget": "6"})
    out = tmp_path / "ep"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    return out / "trace.csv"


def test_export_trajectory(run_trace, tmp_path):
    out = tmp_path / "plots"
    assert main(["export", str(run_trace), "--kind", "trajectory", "--out", str(out)]) == 0
    text = (out / "export_trajectory.csv").read_text()
    assert text.startswith("# magplan-export trajectory v1\n")
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert body[0] == "step,time_s,truth_x,truth_y,est_x,est_y"
    assert len(body) == 1 + 6


def test_export_detcov_matches_trace(run_trace, tmp_path):
    out = tmp_path / "plots"
    assert main(["export", str(run_trace), "--kind", "detcov", "--out", str(out), "--quiet"]) == 0
    cols = read_trace(str(run_trace))
    body = [
        l
        for l in (out / "export_detcov.csv").read_text().splitlines()
        if not l.startswith("#")
    ][1:]
    got = [float(line.split(",")[2]) for line in body]
    assert got == cols["det_pos_cov"].tolist()


def test_export_entropy_includes_filtered_column(run_trace, tmp_path):
    out = tmp_path / "plots"
    assert main(["export", str(run_trace), "--kind", "entropy", "--out", str(out), "--quiet"]) == 0
    body = [
        l
        for l in (out / "export_entropy.csv").read_text().splitlines()
        if not l.startswith("#")
    ]
    assert body[0] == "step,time_s,entropy_raw,entropy_filtered"
    assert len(body) == 1 + 6


def test_export_malformed_trace_is_an_error(run_trace, tmp_path, capsys):
    lines = run_trace.read_text().splitlines()
    renamed = [line.replace("entropy_bits", "entropy_bitz") for line in lines]
    badcell = lines[:-1] + ["abc" + lines[-1][lines[-1].index(","):]]
    entropy = next(l for l in lines if not l.startswith("#")).split(",").index("entropy_bits")
    cells = lines[-1].split(",")
    cells[entropy] = "nan"
    nancell = lines[:-1] + [",".join(cells)]
    for name, text, fragment in (
        ("renamed.csv", renamed, "entropy_bitz"),
        ("badcell.csv", badcell, f"line {len(lines)}"),
        ("nancell.csv", nancell, f"line {len(lines)}: entropy_bits must be finite"),
    ):
        bad = tmp_path / name
        bad.write_text("\n".join(text) + "\n")
        args = ["export", str(bad), "--kind", "entropy", "--out", str(tmp_path), "--quiet"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and fragment in err


def test_export_non_ascii_trace_name_is_escaped(run_trace, tmp_path):
    renamed = run_trace.rename(run_trace.with_name("trac\u00e9.csv"))
    out = tmp_path / "plots"
    assert main(["export", str(renamed), "--kind", "detcov", "--out", str(out), "--quiet"]) == 0
    text = (out / "export_detcov.csv").read_bytes().decode("ascii")
    assert "# source: trac\\xe9.csv\n" in text


NEG0, TINY, BIG, NAN, INF = ODD_FLOATS
# Per export kind: the header and the rows of the two-step odd_trace.
EXPORT_TEXT = {
    "trajectory": [
        "step,time_s,truth_x,truth_y,est_x,est_y",
        "0,5e-324,-0.0,1.7976931348623157e+308,0.5,-0.0",
        "1,0.2,1.5,5e-324,1.7976931348623157e+308,1e-05",
    ],
    "detcov": ["step,time_s,detcov", "0,5e-324,-0.0", "1,0.2,5e-324"],
    "entropy": [
        "step,time_s,entropy_raw,entropy_filtered",
        "0,5e-324,1.7976931348623157e+308,1.7976931348623157e+308",
        "1,0.2,-0.0,-0.0",
    ],
}


def odd_trace(path) -> None:
    """A two-step, one-action trace file holding every ODD_FLOATS value.

    Only the per-action cells may be nan or inf, so the exported columns hold
    the finite ones.
    """
    rows = tuple(
        TraceRow(
            step=k, time_s=t, truth=Pose(tx, ty, 0.0), z=25000.0, action_index=0,
            action=ControlInput(0.2, 0.0), est=Pose(ex, ey, NEG0), covariance=np.eye(3),
            det_pos_cov=det, entropy_bits=h, ess=10.0, resampled=False, collapsed=False,
            eer_bits=(NAN,), distances=(INF,), costs=(-INF,),
        )
        for k, (t, tx, ty, ex, ey, det, h) in enumerate(
            [(TINY, NEG0, BIG, 0.5, NEG0, NEG0, BIG), (0.2, 1.5, TINY, BIG, 1e-05, TINY, NEG0)]
        )
    )
    write_trace(EpisodeTrace(rows, False, 1), str(path), {"seed": "1"})


@pytest.mark.parametrize("kind", sorted(EXPORT_TEXT))
def test_export_writes_fixed_text(tmp_path, kind):
    trace = tmp_path / "odd.csv"
    odd_trace(trace)
    out = tmp_path / "plots"
    assert main(["export", str(trace), "--kind", kind, "--out", str(out), "--quiet"]) == 0
    head = [f"# magplan-export {kind} v1", f"# magplan_version: {__version__}", "# source: odd.csv"]
    want = "".join(line + "\n" for line in head + EXPORT_TEXT[kind])
    assert (out / f"export_{kind}.csv").read_text() == want


def test_export_missing_trace(tmp_path, capsys):
    assert main(["export", str(tmp_path / "none.csv"), "--kind", "detcov", "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


# --- benchmark ---


def test_benchmark_writes_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "bench"
    assert main(["benchmark", "--config", cfg, "--out", str(out), "--steps", "3"]) == 0
    stdout = capsys.readouterr().out
    assert "mean_ms:" in stdout
    text = (out / "benchmark.txt").read_text()
    assert "steps_timed: 3" in text
    # The episode's sizes, as the config sets them.
    for line in ("n_particles: 150", "eer_hypotheses: 20", "horizon_steps: 5", "n_actions: 6"):
        assert f"\n{line}\n" in text
    assert "within_budget: yes" in text


@pytest.mark.parametrize(
    "times, lines",
    [
        ((1.0, 2.0, 4.5), ["steps_timed: 3", "mean_ms: 2.5", "max_ms: 4.5", "within_budget: yes"]),
        # Rounded to the microsecond.
        ((0.0004, 0.0012, 0.0017), ["mean_ms: 0.001", "max_ms: 0.002"]),
        # A mean at the budget is not within it.
        ((99.0, 101.0), ["mean_ms: 100.0", "max_ms: 101.0", "within_budget: no"]),
    ],
)
def test_benchmark_report_derives_mean_and_max_from_the_times(tmp_path, monkeypatch, times, lines):
    monkeypatch.setattr(simloop, "benchmark_planning", lambda episode, steps: times)
    out = tmp_path / "bench"
    assert main(["benchmark", "--config", write_cfg(tmp_path), "--out", str(out), "--quiet"]) == 0
    text = (out / "benchmark.txt").read_text()
    for line in lines:
        assert f"\n{line}\n" in text


def test_benchmark_rejects_zero_motion_sigma(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra={"noise.motion_sigma_x": "0"})
    out = tmp_path / "bench"
    assert main(["benchmark", "--config", cfg, "--out", str(out), "--steps", "3"]) == 2
    assert "motion sigmas must all be > 0" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_rejects_non_positive_steps(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "bench"
    for steps in ("0", "-2", "three", "1_0", FULLWIDTH_42):
        with pytest.raises(SystemExit) as info:
            main(["benchmark", "--config", cfg, "--out", str(out), "--steps", steps])
        assert info.value.code == 2
        assert "--steps" in capsys.readouterr().err
    assert not out.exists()
