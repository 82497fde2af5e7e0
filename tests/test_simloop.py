"""Closed-loop episode runner, metrics, sweep, benchmark, and trace files."""

from __future__ import annotations

import copy
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import FULLWIDTH_42_LATIN1, ODD_FLOATS, STD_MOTION, STD_SENSOR, bit_equal
from magplan import infogain, magmap, models, pflocal, planner, simloop, textio
from magplan.config import build_episode_config, load_config
from magplan.magmap import OutOfMapError
from magplan.models import (
    ControlInput,
    DegenerateDensityError,
    ModelError,
    ModelSet,
    MotionNoise,
    Pose,
    SensorNoise,
)
from magplan.pflocal import ParticleBelief
from magplan.planner import ActionSet, EerParams, Goal, PlannerWeights
from magplan.simloop import (
    EpisodeConfig,
    EpisodeError,
    EpisodeRunner,
    EpisodeTrace,
    MetricsRecord,
    StepFailure,
    SweepCell,
    TraceRow,
    benchmark_planning,
    compute_metrics,
    read_trace,
    run_episode,
    sweep,
    trace_columns,
    write_metrics,
    write_summary,
    write_trace,
)
from oracles import predicted_entropy

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ACTIONS = ActionSet.from_turn_rates(
    0.2, [math.radians(d) for d in (-25.0, -15.0, -5.0, 5.0, 15.0, 25.0)]
)


@pytest.fixture
def base_cfg(peak_grid):
    def make(motion=STD_MOTION, sensor=STD_SENSOR, dt=0.1, **over):
        kw = dict(
            grid=peak_grid,
            start=Pose(0.5, 0.5, 0.0),
            goal=Goal((10.0, 0.5), 0.5),
            weights=PlannerWeights(1.0, 1.0, 0.5),
            actions=ACTIONS,
            models=ModelSet(motion, sensor, dt),
            prior_cov=np.diag([0.09, 0.09, math.radians(5.0) ** 2]),
            n_particles=150,
            eer_params=EerParams(20, 5),
            step_budget=12,
            seed=0,
        )
        kw.update(over)
        return EpisodeConfig(**kw)

    return make


# --- configuration ---


@pytest.mark.parametrize(
    "field, value, fragment",
    [
        ("dt", 0.0, "dt"),
        ("dt", math.inf, "dt"),
        ("step_budget", 0, "step_budget"),
        ("n_particles", 1, "n_particles"),
        ("motion", MotionNoise(0.01, 0.0, 0.01), "motion sigmas"),
        ("motion", MotionNoise(0.0, 0.01, 0.01), "motion sigmas"),
        ("motion", MotionNoise(0.01, 0.01, 0.0), "motion sigmas"),
    ],
)
def test_config_scalar_validation(base_cfg, field, value, fragment):
    # dt and the motion sigmas are checked by ModelSet, before an
    # EpisodeConfig can exist.
    error = {"dt": ModelError, "motion": DegenerateDensityError}.get(field, EpisodeError)
    with pytest.raises(error, match=fragment):
        base_cfg(**{field: value})


def test_config_cross_field_validation(base_cfg):
    with pytest.raises(EpisodeError, match="m_count"):
        base_cfg(n_particles=10, eer_params=EerParams(20, 5))
    with pytest.raises(EpisodeError, match="seed"):
        base_cfg(seed=-1)
    with pytest.raises(EpisodeError, match="3x3"):
        base_cfg(prior_cov=np.eye(2))
    with pytest.raises(EpisodeError, match="finite 3x3"):
        base_cfg(prior_cov=np.diag([np.inf, 1.0, 1.0]))
    # What pflocal.init rejects is rejected here, before an episode runs.
    with pytest.raises(EpisodeError, match="symmetric"):
        base_cfg(prior_cov=[[0.09, 0.5, 0.0], [0.0, 0.09, 0.0], [0.0, 0.0, 0.01]])
    with pytest.raises(EpisodeError, match="PSD"):
        base_cfg(prior_cov=np.diag([1.0, 1.0, -0.1]))
    with pytest.raises(EpisodeError, match="goal"):
        base_cfg(goal=Goal((50.0, 0.0), 0.5))
    with pytest.raises(EpisodeError, match="start"):
        base_cfg(start=Pose(-10.0, 0.0, 0.0))


def test_config_freezes_prior_cov(base_cfg):
    cfg = base_cfg()
    with pytest.raises(ValueError):
        cfg.prior_cov[0, 0] = 99.0
    assert cfg.models.dt == 0.1


# --- determinism and information hygiene ---


def test_same_seed_reproduces_trace_bytes(base_cfg, tmp_path):
    cfg = base_cfg(step_budget=8)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(run_episode(cfg), str(p1), {"case": "x"})
    write_trace(run_episode(cfg), str(p2), {"case": "x"})
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seeds_differ(base_cfg):
    za = [r.z for r in run_episode(base_cfg(step_budget=4, seed=0)).rows]
    zb = [r.z for r in run_episode(base_cfg(step_budget=4, seed=99)).rows]
    assert za != zb


@pytest.mark.parametrize(
    "eer_params", [EerParams(40, 8), EerParams(20, 3)], ids=["m-count-40", "horizon-3"]
)
def test_eer_settings_move_only_eer_and_cost_columns_at_w_h_0(eer_params):
    # Stream relation. EER draws its hypotheses from its own rng stream, and
    # at w_h = 0 its bits cannot move the choice, so another m_count or
    # horizon changes the eer_* and cost_* columns and no other. A planner
    # drawing from the truth, sensor or filter stream would move the truth,
    # the reading or the estimate too.
    cfg = build_episode_config(load_config(str(CONFIGS / "peak_episode.cfg")), str(CONFIGS))
    weights = dataclasses.replace(cfg.weights, w_h=0.0)
    cfg = dataclasses.replace(cfg, weights=weights, step_budget=12)
    assert cfg.eer_params == EerParams(20, 8)
    columns = trace_columns(len(cfg.actions))
    kept = [k for k, name in enumerate(columns) if not name.startswith(("eer_", "cost_"))]
    base = run_episode(cfg).rows
    other = run_episode(dataclasses.replace(cfg, eer_params=eer_params)).rows
    assert len(base) == len(other) == 12
    for a, b in zip(base, other):
        cells_a, cells_b = simloop._trace_cells(a), simloop._trace_cells(b)
        assert [cells_a[k] for k in kept] == [cells_b[k] for k in kept]
    assert any(a.eer_bits != b.eer_bits for a, b in zip(base, other))


def test_belief_blind_to_truth_pose(base_cfg):
    # Clobbering the true pose after the measurement is drawn must leave
    # the filter output untouched: the belief sees the world only via z.
    cfg = base_cfg(step_budget=6)
    honest = EpisodeRunner(cfg)
    tampered = EpisodeRunner(cfg)
    for _ in range(6):
        sel_h = honest.plan()
        sel_t = tampered.plan()
        assert sel_t.chosen_index == sel_h.chosen_index
        honest.advance_truth(sel_h.chosen)
        tampered.advance_truth(sel_t.chosen)
        z_h = honest.measure()
        z_t = tampered.measure()
        assert z_t == z_h
        tampered.truth = Pose(-1.5, -3.5, 1.0)  # junk, still on the map
        honest.assimilate(sel_h.chosen, z_h)
        tampered.assimilate(sel_t.chosen, z_t)
        tampered.truth = honest.truth
        assert np.array_equal(tampered.belief.particles, honest.belief.particles)
        assert np.array_equal(tampered.belief.weights, honest.belief.weights)


# --- termination ---


def test_step_runs_on_trusted_snapshots(base_cfg, monkeypatch):
    """The filter's own beliefs, the collapse reset's too, and the episode's
    model bundle skip the boundary checks."""

    def boundary_check(self):
        raise AssertionError("boundary check on an internal snapshot")

    cfg = base_cfg()
    monkeypatch.setattr(pflocal.ParticleBelief, "__post_init__", boundary_check)
    monkeypatch.setattr(ModelSet, "__post_init__", boundary_check)
    runner = EpisodeRunner(cfg)
    row = runner.step()
    assert not row.collapsed
    assert not runner.belief.particles.flags.writeable
    # A reading no particle can explain collapses the weights.
    monkeypatch.setattr(runner, "measure", lambda: 1e9)
    row = runner.step()
    assert row.collapsed
    assert np.all(runner.belief.weights == 1.0 / cfg.n_particles)
    assert not runner.belief.weights.flags.writeable


def test_failed_action_goes_through_the_step(base_cfg, monkeypatch, tmp_path):
    """One action whose EER fails (its map reads poisoned, as in
    test_infogain) keeps nan EER, +inf cost and its reason, and the rest of
    the step equals an unpoisoned one."""

    class Recording(EpisodeRunner):
        def plan(self):
            self.selection = super().plan()
            return self.selection

    cfg = base_cfg()
    clean = Recording(cfg)
    want = clean.step()
    bad = 0 if want.action_index != 0 else 1
    real_lookup = infogain.lookup

    def poisoned(grid, pts):
        values, inside = real_lookup(grid, pts)
        values.reshape(len(ACTIONS), -1)[bad] = np.nan
        return values, inside

    monkeypatch.setattr(infogain, "lookup", poisoned)
    runner = Recording(cfg)
    row = runner.step()
    assert math.isnan(row.eer_bits[bad]) and row.costs[bad] == math.inf
    assert "zero mass" in runner.selection.errors[bad]
    others = [k for k in range(len(ACTIONS)) if k != bad]
    assert all(runner.selection.errors[k] is None for k in others)
    for field in ("eer_bits", "costs"):
        got, ref = getattr(row, field), getattr(want, field)
        assert [got[k] for k in others] == [ref[k] for k in others]
    assert row.distances == want.distances
    assert (row.action_index, row.truth, row.z, row.entropy_bits) == (
        want.action_index, want.truth, want.z, want.entropy_bits
    )

    path = tmp_path / "trace.csv"
    write_trace(EpisodeTrace((row,), False, len(ACTIONS)), str(path), {})
    cols = read_trace(str(path))
    for field, prefix in (("eer_bits", "eer"), ("distances", "dist"), ("costs", "cost")):
        got = [cols[f"{prefix}_{j}"][0] for j in range(len(ACTIONS))]
        assert bit_equal(np.array(got), np.array(getattr(row, field)))


def test_stops_at_goal(base_cfg):
    trace = run_episode(base_cfg(start=Pose(9.2, 0.5, 0.0), step_budget=40, seed=1))
    assert trace.reached_goal
    assert len(trace) < 40
    last = trace.rows[-1]
    gx, gy = 10.0, 0.5
    assert math.hypot(last.est.x - gx, last.est.y - gy) <= 0.5


def test_exhausts_budget_when_goal_far(base_cfg):
    trace = run_episode(base_cfg(step_budget=5))
    assert not trace.reached_goal
    assert len(trace) == 5
    assert [r.step for r in trace.rows] == list(range(5))
    assert trace.rows[2].time_s == pytest.approx(0.3)


def test_truth_leaving_map_is_a_step_failure(base_cfg):
    cfg = base_cfg(
        start=Pose(11.5, 0.5, 0.0),
        goal=Goal((11.9, 0.5), 0.05),
        weights=PlannerWeights(0.0, 1.0, 0.5),
        step_budget=60,
        seed=3,
    )
    with pytest.raises(StepFailure) as info:
        run_episode(cfg)
    assert isinstance(info.value.cause, OutOfMapError)
    assert 0 <= info.value.step < 60
    # The benchmark runs the same loop, so it fails the same way.
    with pytest.raises(StepFailure) as timed:
        benchmark_planning(cfg, cfg.step_budget)
    assert timed.value.step == info.value.step
    assert isinstance(timed.value.cause, OutOfMapError)


def test_collapse_recovers_and_flags(base_cfg):
    # A near-exact sensor zeroes every particle weight; the runner must
    # flag the collapse, fall back to the prediction, and keep running.
    trace = run_episode(base_cfg(sensor=SensorNoise(1e-9), step_budget=5, seed=2))
    assert len(trace) == 5
    assert all(r.collapsed for r in trace.rows)
    assert all(math.isfinite(r.entropy_bits) for r in trace.rows)
    assert all(math.isfinite(r.det_pos_cov) for r in trace.rows)


def test_collapse_scores_the_prediction_with_the_prior_weights(base_cfg):
    # The fallback entropy is the no-measurement one: the predicted particles
    # keep the weights they had before the collapse, not the uniform reset.
    cfg = base_cfg()
    runner = EpisodeRunner(cfg)
    for _ in range(3):
        runner.step()
    prev = runner.belief
    assert prev.weights.min() < prev.weights.max()
    action = cfg.actions.actions[0]
    record = runner.assimilate(action, 1e12)
    assert record.collapsed and not record.resampled
    predicted = ParticleBelief(runner.belief.particles, prev.weights, np.random.default_rng(0))
    want = predicted_entropy(prev, predicted, action, cfg.models)
    assert bit_equal(record.entropy_bits, want.bits)


@pytest.mark.parametrize(
    "over, flags",
    [
        # A sharp sensor near the peak: resampled steps and others.
        (dict(start=Pose(3.5, 1.5, 0.0), sensor=SensorNoise(5.0), step_budget=6),
         {(True, False), (False, False)}),
        # A near-exact sensor: every step collapses.
        (dict(sensor=SensorNoise(1e-9), step_budget=3, seed=2), {(False, True)}),
    ],
    ids=["resampling", "collapsing"],
)
def test_assimilate_is_the_step_the_runner_traces(base_cfg, over, flags):
    # The module-level filter step on a copy of the runner's belief, given the
    # step's action and reading, is bit for bit what the runner's step traces.
    cfg = base_cfg(**over)
    runner = EpisodeRunner(cfg)
    seen = set()
    for _ in range(cfg.step_budget):
        belief = copy.deepcopy(runner.belief)
        row = runner.step()
        record = pflocal.assimilate(belief, row.action, row.z, cfg.grid, cfg.models)
        assert bit_equal(record.entropy_bits, row.entropy_bits)
        assert bit_equal(record.ess, row.ess)
        assert (record.resampled, record.collapsed) == (row.resampled, row.collapsed)
        assert record.summary.mean == row.est
        assert bit_equal(record.summary.covariance, row.covariance)
        assert record.summary.det_positional() == row.det_pos_cov
        assert bit_equal(record.belief.particles, runner.belief.particles)
        assert bit_equal(record.belief.weights, runner.belief.weights)
        seen.add((row.resampled, row.collapsed))
    assert seen == flags


def test_resamples_below_half_the_particle_count(base_cfg):
    # A sharp sensor near the peak: the ESS falls below N/2 on some steps only.
    cfg = base_cfg(start=Pose(3.5, 1.5, 0.0), sensor=SensorNoise(5.0), step_budget=6)
    rows = run_episode(cfg).rows
    flags = [r.resampled for r in rows]
    assert flags == [r.ess < 75.0 for r in rows]
    assert any(flags) and not all(flags)


def test_each_step_computes_its_filter_terms_once(base_cfg, monkeypatch):
    """Per step: one likelihood, one motion-mean and one ESS evaluation on the
    particle cloud, one reduction of its log joint log_w + log_lik (by the
    reweighting, or by a log-sum-exp over the N particles), and a second
    estimate only after a resample. The mean pose the planner gets is the
    estimate of the current belief."""
    cfg = base_cfg(start=Pose(3.5, 1.5, 0.0), sensor=SensorNoise(5.0), step_budget=6)
    runner = EpisodeRunner(cfg)
    estimate = pflocal.estimate
    calls = {}

    def counting(key, fn, on_cloud):
        def counted(*args, **kwargs):
            if on_cloud(args[0]):
                calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def every(_):
        return True

    def n_rows(a):
        return np.shape(a)[:1] == (cfg.n_particles,)

    for owner, name, key, on_cloud in (
        (models, "measurement_log_likelihood_array", "measurement_log_likelihood_array", every),
        (models, "motion_mean_array", "motion_mean_array", n_rows),
        (pflocal, "estimate", "estimate", every),
        (pflocal, "effective_sample_size", "effective_sample_size", every),
        (pflocal, "_reweighted", "log_joint", every),
        (infogain, "logsumexp", "log_joint", lambda a: np.shape(a) == (cfg.n_particles,)),
    ):
        fn = getattr(owner, name)
        for site in (magmap, models, pflocal, infogain, planner, simloop):
            if vars(site).get(name) is fn:
                monkeypatch.setattr(site, name, counting(key, fn, on_cloud))
    flags = []
    for _ in range(cfg.step_budget):
        calls.clear()
        row = runner.step()
        flags.append(row.resampled)
        assert calls == {
            "measurement_log_likelihood_array": 1,
            "motion_mean_array": 1,
            "effective_sample_size": 1,
            "log_joint": 1,
            "estimate": 1 + row.resampled,
        }
        want = estimate(runner.belief)
        assert runner.summary.mean == want.mean
        assert bit_equal(runner.summary.covariance, want.covariance)
    assert any(flags) and not all(flags)


# --- metrics ---


def make_row(step, truth_xy, est_xy, det, entropy):
    return TraceRow(
        step=step,
        time_s=0.1 * (step + 1),
        truth=Pose(truth_xy[0], truth_xy[1], 0.0),
        z=25000.0,
        action_index=0,
        action=ControlInput(0.2, 0.0),
        est=Pose(est_xy[0], est_xy[1], 0.0),
        covariance=np.eye(3),
        det_pos_cov=det,
        entropy_bits=entropy,
        ess=10.0,
        resampled=False,
        collapsed=False,
        eer_bits=(0.1, 0.2),
        distances=(1.0, 2.0),
        costs=(1.1, 2.2),
    )


def test_metrics_longhand():
    rows = (
        make_row(0, (0.0, 0.0), (0.0, 1.0), 4.0, 3.0),
        make_row(1, (3.0, 4.0), (3.0, 4.0), 9.0, 2.5),
    )
    m = compute_metrics(EpisodeTrace(rows, reached_goal=True, n_actions=2))
    assert m.position_error == pytest.approx([1.0, 0.0])
    assert m.rmse_position == pytest.approx(math.sqrt(0.5))
    assert m.mean_error == pytest.approx(0.5)
    assert m.final_error == 0.0
    assert m.path_length == pytest.approx(5.0)
    assert m.final_det_pos_cov == 9.0
    assert m.mean_det_pos_cov == pytest.approx(6.5)
    assert m.steps == 2 and m.reached_goal
    # too short for the outlier filter: series passes through
    assert np.array_equal(m.entropy_filtered, m.entropy_raw)


def test_metrics_single_row_path_length_zero():
    m = compute_metrics(
        EpisodeTrace((make_row(0, (1.0, 1.0), (1.5, 1.0), 1.0, 2.0),), False, 2)
    )
    assert m.path_length == 0.0
    assert m.final_error == pytest.approx(0.5)


def test_metrics_filters_entropy_spike():
    entropies = [1.0, 1.0, 1.0, 1.0, 100.0, 1.0, 1.0, 1.0]
    rows = tuple(
        make_row(k, (0.1 * k, 0.0), (0.1 * k, 0.0), 1.0, e) for k, e in enumerate(entropies)
    )
    m = compute_metrics(EpisodeTrace(rows, False, 2))
    assert m.entropy_raw[4] == 100.0
    assert m.entropy_filtered.tolist() == [1.0] * 8


def test_metrics_empty_trace_rejected():
    with pytest.raises(EpisodeError):
        compute_metrics(EpisodeTrace((), False, 2))


# --- trace files ---


def test_trace_round_trip(base_cfg, tmp_path):
    trace = run_episode(base_cfg(step_budget=6, seed=5))
    path = tmp_path / "trace.csv"
    write_trace(trace, str(path), {"config_hash": "abc123", "seed": "5"})
    assert path.read_text().splitlines()[:4] == [
        "# magplan-trace v1", "# config_hash: abc123", "# seed: 5",
        f"# reached_goal: {int(trace.reached_goal)}",
    ]
    cols = read_trace(str(path))
    assert len(cols["step"]) == len(trace)

    def group(names, k):
        return [cols[name][k] for name in names]

    n = len(ACTIONS)
    cov = [[f"cov_{r}{c}" for c in "xyt"] for r in "xyt"]
    for k, row in enumerate(trace.rows):
        assert cols["step"][k] == row.step
        assert cols["time_s"][k] == row.time_s
        assert group(("truth_x", "truth_y", "truth_theta"), k) == [
            row.truth.x, row.truth.y, row.truth.theta
        ]
        assert cols["z_nt"][k] == row.z
        assert cols["action_index"][k] == row.action_index
        assert group(("action_v", "action_omega"), k) == [row.action.v, row.action.omega]
        assert group(("est_x", "est_y", "est_theta"), k) == [row.est.x, row.est.y, row.est.theta]
        assert np.array_equal([group(names, k) for names in cov], row.covariance)
        assert cols["det_pos_cov"][k] == row.det_pos_cov
        assert cols["entropy_bits"][k] == row.entropy_bits
        assert cols["ess"][k] == row.ess
        assert group(("resampled", "collapsed"), k) == [row.resampled, row.collapsed]
        assert group([f"eer_{j}" for j in range(n)], k) == list(row.eer_bits)
        assert group([f"dist_{j}" for j in range(n)], k) == list(row.distances)
        assert group([f"cost_{j}" for j in range(n)], k) == list(row.costs)


def test_trace_bytes_round_trip_through_the_columns(base_cfg, tmp_path):
    """The columns read back, rewritten by name in header order, give the
    file's bytes: each row's cells sit under their `trace_columns` names."""
    # A sharp sensor near the peak: resampled steps and others.
    cfg = base_cfg(start=Pose(3.5, 1.5, 0.0), sensor=SensorNoise(5.0), step_budget=6)
    trace = run_episode(cfg)
    assert any(row.resampled for row in trace.rows)
    path, again = tmp_path / "trace.csv", tmp_path / "again.csv"
    write_trace(trace, str(path), {"config_hash": "abc123", "seed": "5"})
    columns = read_trace(str(path))
    assert columns["resampled"].tolist() == [row.resampled for row in trace.rows]
    header = trace_columns(trace.n_actions)
    lines = path.read_text().splitlines()
    head = lines[: lines.index(",".join(header)) + 1]
    integers = ("step", "action_index", "resampled", "collapsed")
    ints = [c for c, name in enumerate(header) if name in integers]
    rows = zip(*(columns[name].tolist() for name in header))
    textio.write_table(str(again), head, rows, ints=ints)
    assert again.read_bytes() == path.read_bytes()


def test_trace_reader_rejects_malformed(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# magplan-trace v1\n")
    with pytest.raises(EpisodeError, match="header"):
        read_trace(str(empty))

    headeronly = tmp_path / "headeronly.csv"
    headeronly.write_text("step,time_s\n")
    with pytest.raises(EpisodeError, match="data rows"):
        read_trace(str(headeronly))

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("step,time_s\n0,0.1\n1\n")
    with pytest.raises(EpisodeError, match="ragged.csv: line 3: expected 2 CSV fields, got 1"):
        read_trace(str(ragged))

    good = tmp_path / "good.csv"
    rows = tuple(make_row(k, (0.1 * k, 0.0), (0.1 * k, 0.0), 1.0, 2.0) for k in range(3))
    write_trace(EpisodeTrace(rows, False, 2), str(good), {"seed": "0"})
    text = good.read_text()

    renamed = tmp_path / "renamed.csv"
    renamed.write_text(text.replace("entropy_bits", "entropy_bitz"))
    with pytest.raises(EpisodeError, match="renamed.csv.*entropy_bitz"):
        read_trace(str(renamed))

    # Line 6 (index 5) is the second data row: it follows three comment
    # lines, the header and the first row.
    lines = text.splitlines(keepends=True)
    cells = lines[5].split(",")
    cells[22] = "abc"  # entropy_bits
    badcell = tmp_path / "badcell.csv"
    badcell.write_text("".join(lines[:5] + [",".join(cells)] + lines[6:]))
    with pytest.raises(EpisodeError, match="badcell.csv: line 6: .*'abc'"):
        read_trace(str(badcell))

    # Only the per-action eer/dist/cost cells may be non-finite.
    cells[22] = "nan"
    nancell = tmp_path / "nancell.csv"
    nancell.write_text("".join(lines[:5] + [",".join(cells)] + lines[6:]))
    with pytest.raises(EpisodeError, match="nancell.csv: line 6: entropy_bits .*'nan'"):
        read_trace(str(nancell))
    cells[22], cells[-1] = "2.0", "inf\n"  # cost_1
    failedaction = tmp_path / "failedaction.csv"
    failedaction.write_text("".join(lines[:5] + [",".join(cells)] + lines[6:]))
    cols = read_trace(str(failedaction))
    assert [cols["cost_0"][1], cols["cost_1"][1]] == [1.1, math.inf]

    # One number grammar: no digit separators, no non-ASCII digits, and an
    # integer column (step, action_index and the flags) takes no decimal point.
    # The flags hold 0 or 1, as write_trace writes them.
    for c, cell, error in [
        (22, "1_0", "bad value: could not convert string to float: '1_0'"),
        (22, FULLWIDTH_42_LATIN1, "bad value: could not convert string to float"),
        (0, "1_0", "bad value: could not convert string to int: '1_0'"),
        (0, FULLWIDTH_42_LATIN1, "bad value: could not convert string to int"),
        (6, "1.0", "bad value: could not convert string to int: '1.0'"),
        (24, "5", "resampled must be 0 or 1, got '5'"),
        (25, "-1", "collapsed must be 0 or 1, got '-1'"),
    ]:
        cells = lines[5].split(",")
        cells[c] = cell
        grammar = tmp_path / "grammar.csv"
        grammar.write_bytes("".join(lines[:5] + [",".join(cells)] + lines[6:]).encode("latin-1"))
        with pytest.raises(EpisodeError) as info:
            read_trace(str(grammar))
        assert str(info.value).startswith(f"{grammar}: line 6: {error}")

    nonascii = tmp_path / "nonascii.csv"
    nonascii.write_bytes(text.replace(",2.0,", ",2.0\xe9,", 1).encode("latin-1"))
    with pytest.raises(EpisodeError, match="nonascii.csv: line 5"):
        read_trace(str(nonascii))


def test_trace_schema_matches_written_header(tmp_path):
    rows = (make_row(0, (0.0, 0.0), (0.0, 0.0), 1.0, 2.0),)
    path = tmp_path / "trace.csv"
    write_trace(EpisodeTrace(rows, False, 2), str(path), {})
    header = [l for l in path.read_text().splitlines() if not l.startswith("#")][0]
    assert header.split(",") == trace_columns(2)
    cols = read_trace(str(path))
    assert cols["truth_x"].tolist() == [rows[0].truth.x]
    assert cols["cov_xy"].tolist() == [rows[0].covariance[0, 1]]
    assert cols["cost_1"].tolist() == [2.2]


def test_metrics_file_contents(base_cfg, tmp_path):
    trace = run_episode(base_cfg(step_budget=6, seed=7))
    m = compute_metrics(trace)
    path = tmp_path / "metrics.csv"
    write_metrics(m, str(path), {"seed": "7"})
    text = path.read_text()
    assert text.startswith("# magplan-metrics v1\n")
    assert f"# rmse_position: {m.rmse_position!r}\n" in text
    assert f"# steps: {m.steps}\n" in text
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert body[0] == "step,det_pos_cov,entropy_raw,entropy_filtered,position_error"
    assert len(body) == 1 + m.steps
    first = body[1].split(",")
    assert float(first[1]) == m.det_pos_cov[0]
    assert float(first[4]) == m.position_error[0]


def odd_metrics(**scalars) -> MetricsRecord:
    """Two steps of metrics with every ODD_FLOATS value in the series."""
    neg0, tiny, big, nan, inf = ODD_FLOATS
    return MetricsRecord(
        det_pos_cov=np.array([neg0, tiny]), entropy_raw=np.array([big, nan]),
        entropy_filtered=np.array([inf, 0.1]), position_error=np.array([1e-05, 2.5]),
        steps=2, **scalars,
    )


def test_write_metrics_writes_fixed_text(tmp_path):
    neg0, tiny, big, nan, inf = ODD_FLOATS
    m = odd_metrics(
        rmse_position=tiny, mean_error=neg0, final_error=big, final_det_pos_cov=nan,
        mean_det_pos_cov=inf, path_length=1e20, reached_goal=True,
    )
    path = tmp_path / "metrics.csv"
    write_metrics(m, str(path), {"seed": "7", "config_hash": "abc"})
    assert path.read_text() == (
        "# magplan-metrics v1\n"
        "# config_hash: abc\n"
        "# seed: 7\n"
        "# rmse_position: 5e-324\n"
        "# mean_error: -0.0\n"
        "# final_error: 1.7976931348623157e+308\n"
        "# final_det_pos_cov: nan\n"
        "# mean_det_pos_cov: inf\n"
        "# path_length: 1e+20\n"
        "# steps: 2\n"
        "# reached_goal: 1\n"
        "step,det_pos_cov,entropy_raw,entropy_filtered,position_error\n"
        "0,-0.0,1.7976931348623157e+308,inf,1e-05\n"
        "1,5e-324,nan,0.1,2.5\n"
    )


def test_write_summary_writes_fixed_text(tmp_path):
    neg0, tiny, big, nan, inf = ODD_FLOATS
    m = odd_metrics(
        final_det_pos_cov=neg0, mean_det_pos_cov=tiny, rmse_position=big, mean_error=nan,
        final_error=inf, path_length=0.1, reached_goal=False,
    )
    cells = (
        SweepCell(neg0, 3, None, m, None),
        SweepCell(2.5, 4, None, None, "step 5: off the map, at\nx = 1e+20"),
    )
    path = tmp_path / "summary.csv"
    prov = {"magplan_version": "0.1.0", "config_hash": "abc"}
    write_summary(cells, str(path), prov)
    assert path.read_text() == (
        "# magplan-summary v1\n"
        "# config_hash: abc\n"
        "# magplan_version: 0.1.0\n"
        "w_h,seed,steps,reached_goal,final_det_pos_cov,mean_det_pos_cov,"
        "rmse_position,mean_error,final_error,path_length,error\n"
        "-0.0,3,2,0,-0.0,5e-324,1.7976931348623157e+308,nan,inf,0.1,\n"
        "2.5,4,0,0,,,,,,,step 5: off the map; at x = 1e+20\n"
    )


# --- sweep ---


def cell_at(cells, w_h, seed):
    """The sweep cell for (w_h, seed)."""
    (cell,) = [c for c in cells if (c.w_h, c.seed) == (w_h, seed)]
    return cell


def test_sweep_single_cell_equals_run_episode(base_cfg, tmp_path):
    cfg = base_cfg(step_budget=6, weights=PlannerWeights(2.0, 1.0, 0.5), seed=4)
    cells = sweep(cfg, [2.0], [4])
    assert len(cells) == 1
    cell = cell_at(cells, 2.0, 4)
    assert cell.error is None
    p1, p2 = tmp_path / "direct.csv", tmp_path / "swept.csv"
    write_trace(run_episode(cfg), str(p1), {})
    write_trace(cell.trace, str(p2), {})
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_covers_grid_and_keeps_seed_pairing(base_cfg):
    cells = sweep(base_cfg(step_budget=3), [0.0, 5.0], [0, 1, 2])
    assert len(cells) == 6
    assert [(c.w_h, c.seed) for c in cells] == [(w, s) for w in (0.0, 5.0) for s in (0, 1, 2)]
    # paired seeds share the identical true trajectory at w_h=0 vs 5 only
    # if the chosen actions coincide; the seed streams at least make the
    # priors identical, which shows as identical first-step truth.
    row0, row5 = (cell_at(cells, w_h, 1).trace.rows[0] for w_h in (0.0, 5.0))
    a, b = row0.truth, row5.truth
    if row0.action_index == row5.action_index:
        assert (a.x, a.y, a.theta) == (b.x, b.y, b.theta)


def test_sweep_records_cell_failures(base_cfg):
    cfg = base_cfg(
        start=Pose(11.5, 0.5, 0.0),
        goal=Goal((11.9, 0.5), 0.05),
        weights=PlannerWeights(0.0, 1.0, 0.5),
        step_budget=60,
    )
    (cell,) = sweep(cfg, [0.0], [3])
    assert cell.trace is None and cell.metrics is None
    assert "step" in cell.error


def test_sweep_validation(base_cfg):
    with pytest.raises(EpisodeError):
        sweep(base_cfg(), [], [0])
    with pytest.raises(EpisodeError):
        sweep(base_cfg(), [1.0], [])


def test_summary_file_lists_every_cell(base_cfg, tmp_path):
    ok = sweep(base_cfg(step_budget=3), [0.0, 5.0], [0])
    bad = sweep(
        base_cfg(
            start=Pose(11.5, 0.5, 0.0),
            goal=Goal((11.9, 0.5), 0.05),
            weights=PlannerWeights(0.0, 1.0, 0.5),
            step_budget=60,
        ),
        [0.0],
        [3],
    )
    merged = ok + bad
    path = tmp_path / "summary.csv"
    write_summary(merged, str(path), {"note": "t"})
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].startswith("w_h,seed,steps,reached_goal,")
    assert len(lines) == 1 + 3
    good_row = lines[1].split(",")
    assert float(good_row[0]) == 0.0 and good_row[-1] == ""
    fail_row = lines[3].split(",")
    assert fail_row[2] == "0" and "step" in fail_row[-1]
    assert "," not in fail_row[-1]


# --- benchmark ---


def test_benchmark_reports_per_step_times(base_cfg):
    times = benchmark_planning(base_cfg(step_budget=20), n_steps=5)
    assert len(times) == 5
    assert all(t > 0 for t in times)


def test_benchmark_clipped_by_budget(base_cfg):
    assert len(benchmark_planning(base_cfg(step_budget=3), n_steps=10)) == 3


def test_benchmark_stops_at_goal_like_run():
    # The benchmark times the episode's own loop: one plan call per step that
    # run_episode takes, so it stops where the episode reaches its goal.
    cfg = build_episode_config(load_config(str(CONFIGS / "peak_episode.cfg")), str(CONFIGS))
    trace = run_episode(cfg)
    assert trace.reached_goal and len(trace) < cfg.step_budget
    assert len(benchmark_planning(cfg, cfg.step_budget)) == len(trace) == 104


def test_benchmark_validation(base_cfg):
    with pytest.raises(EpisodeError):
        benchmark_planning(base_cfg(), n_steps=0)
