"""Action scoring and selection."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import EDGE_HEADINGS, STD_DT, STD_MOTION, STD_SENSOR, bit_equal
from magplan import infogain
from magplan.models import ControlInput, ModelSet, MotionNoise, Pose, step_motion
from magplan.pflocal import ParticleBelief, estimate, init
from magplan.planner import (
    ActionSet,
    EerParams,
    Goal,
    PlannerError,
    PlannerWeights,
    action_cost,
    expected_distance,
    expected_position,
    select_action,
)
from oracles import expected_distance_array

TURN_RATES_DEG = (-25.0, -15.0, -5.0, 5.0, 15.0, 25.0)


@pytest.fixture(scope="module")
def models() -> ModelSet:
    return ModelSet(STD_MOTION, STD_SENSOR, STD_DT)


@pytest.fixture(scope="module")
def aset() -> ActionSet:
    return ActionSet.from_turn_rates(0.2, [math.radians(d) for d in TURN_RATES_DEG])


def pinned_belief(n: int = 60) -> ParticleBelief:
    """All particles exactly at the origin facing east: the mean pose is
    exact, so distance ties between mirrored turn rates are bit-identical."""
    return ParticleBelief(
        np.tile([0.0, 0.0, 0.0], (n, 1)), np.full(n, 1.0 / n), np.random.default_rng(0)
    )


# --- kinematic preview ---


def test_expected_position_straight():
    assert expected_position(Pose(2.0, 3.0, 0.0), ControlInput(0.2, 0.0), 0.1) == pytest.approx(
        [2.02, 3.0]
    )


def test_expected_position_quarter_turn():
    # Turn completes before the translation: a quarter turn in one second
    # moves the robot straight up, not along the diagonal.
    got = expected_position(Pose(0.0, 0.0, 0.0), ControlInput(1.0, math.pi / 2), 1.0)
    assert got == pytest.approx([0.0, 1.0], abs=1e-12)


def test_expected_position_uses_post_turn_heading(models):
    # The executed step translates along the entry heading; the preview
    # deliberately uses the exit heading. Both contracts, side by side.
    p = Pose(0.0, 0.0, 0.0)
    a = ControlInput(0.2, 5.0 * math.pi)  # quarter turn over dt=0.1
    preview = expected_position(p, a, 0.1)
    executed = step_motion(p, a, 0.1, MotionNoise(0, 0, 0), np.random.default_rng(0))
    assert preview == pytest.approx([0.0, 0.02], abs=1e-12)
    assert (executed.x, executed.y) == pytest.approx((0.02, 0.0), abs=1e-12)


def test_expected_distance_collinear():
    d = expected_distance(Pose(0.0, 0.0, 0.0), ControlInput(0.2, 0.0), Goal((10.0, 0.0), 0.5), 0.1)
    assert d == pytest.approx(9.98, abs=1e-12)


def test_expected_distance_pythagorean():
    d = expected_distance(
        Pose(0.0, 0.0, math.pi / 2), ControlInput(0.1, 0.0), Goal((3.0, 4.1), 0.5), 1.0
    )
    assert d == pytest.approx(5.0, abs=1e-9)


@given(
    st.floats(-10, 10),
    st.floats(-10, 10),
    st.sampled_from(EDGE_HEADINGS) | st.floats(-4, 4),
    st.floats(0, 2),
    st.floats(-3, 3),
    st.sampled_from([0.1, 0.5]) | st.floats(1e-3, 1.0),
    st.integers(-20, 20) | st.floats(-20, 20),
    st.integers(-20, 20) | st.floats(-20, 20),
)
def test_expected_distance_matches_array_form_bitwise(x, y, theta, v, omega, dt, gx, gy):
    p, a, goal = Pose(x, y, theta), ControlInput(v, omega), Goal((gx, gy), 0.5)
    got = expected_distance(p, a, goal, dt)
    assert bit_equal(got, expected_distance_array(p, a, goal.position, dt))


# --- cost model ---


def test_cost_forms():
    w = PlannerWeights(2.0, 3.0, 0.5)
    assert action_cost(1.0, 2.0, w) == pytest.approx(7.0)  # 2*0.5 + 3*2
    assert action_cost(0.0, 2.0, w) == pytest.approx(8.0)  # alpha^0 = 1
    assert action_cost(1.0, 2.0, PlannerWeights(0.0, 3.0, 0.5)) == pytest.approx(6.0)


def test_cost_strictly_decreasing_in_information():
    w = PlannerWeights(1.0, 1.0, 0.5)
    costs = [action_cost(e, 5.0, w) for e in (0.0, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(costs, costs[1:]))


def test_cost_linear_in_distance():
    w = PlannerWeights(1.0, 4.0, 0.5)
    assert action_cost(1.0, 3.0, w) - action_cost(1.0, 1.0, w) == pytest.approx(8.0)


# --- parameter validation ---


def test_action_set_validation():
    with pytest.raises(PlannerError, match="nonempty"):
        ActionSet(())
    with pytest.raises(PlannerError, match="speed"):
        ActionSet((ControlInput(0.2, 0.0), ControlInput(0.3, 0.1)))
    s = ActionSet.from_turn_rates(0.2, [-0.1, 0.0, 0.1])
    assert len(s) == 3
    assert s.actions[1] == ControlInput(0.2, 0.0)


@pytest.mark.parametrize(
    "w_h, w_d, alpha",
    [(-1.0, 1.0, 0.5), (math.nan, 1.0, 0.5), (1.0, 0.0, 0.5), (1.0, -2.0, 0.5),
     (1.0, 1.0, 0.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.5)],
)
def test_weight_validation(w_h, w_d, alpha):
    with pytest.raises(PlannerError):
        PlannerWeights(w_h, w_d, alpha)


def test_goal_validation():
    with pytest.raises(PlannerError):
        Goal((math.inf, 0.0), 1.0)
    with pytest.raises(PlannerError):
        Goal((0.0, 0.0), 0.0)
    with pytest.raises(PlannerError):
        Goal((0.0, 0.0), -1.0)


def test_goal_distance_is_numpys_hypot():
    # math.hypot gives 3.541737608481315 here, one ulp below, which would
    # change the trace's dist_j bytes.
    assert Goal((0.0, 0.0), 1.0).distance(2.507723715533764, 2.501045192290711) == (
        3.5417376084813155
    )


def test_eer_params_validation():
    with pytest.raises(PlannerError):
        EerParams(1, 5)
    with pytest.raises(PlannerError):
        EerParams(10, 0)
    assert EerParams(2, 1).m_count == 2


# --- selection ---


def test_distance_only_drives_toward_goal(uniform_grid, models, aset):
    # Featureless map, goal due north of an eastbound robot: the sharpest
    # left turn makes the most northward progress.
    b = pinned_belief()
    r = select_action(
        b,
        estimate(b).mean,
        Goal((0.0, 10.0), 0.5),
        aset,
        PlannerWeights(0.0, 1.0, 0.5),
        uniform_grid,
        models,
        EerParams(30, 10),
        np.random.default_rng(0),
    )
    assert r.chosen_index == 5
    assert r.chosen == aset.actions[5]


def test_exact_tie_breaks_to_lowest_index(uniform_grid, models, aset):
    # Goal straight ahead: mirrored turn rates land at mirrored positions,
    # equidistant to the double. The earlier action must win.
    b = pinned_belief()
    r = select_action(
        b,
        estimate(b).mean,
        Goal((10.0, 0.0), 0.5),
        aset,
        PlannerWeights(0.0, 1.0, 0.5),
        uniform_grid,
        models,
        EerParams(30, 10),
        np.random.default_rng(0),
    )
    assert r.distances[2] == r.distances[3]
    assert r.chosen_index == 2


def test_selection_is_argmin_of_reported_costs(peak_grid, models, aset):
    b = init(
        Pose(5.0, 0.5, 0.0),
        np.diag([0.09, 0.09, math.radians(5.0) ** 2]),
        250,
        seed=1,
    )
    w = PlannerWeights(5.0, 1.0, 0.5)
    mean_pose = estimate(b).mean
    r = select_action(
        b, mean_pose, Goal((13.0, 0.5), 0.5), aset, w, peak_grid, models,
        EerParams(30, 10), np.random.default_rng(42),
    )
    columns = (r.eer_bits, r.distances, r.costs, r.errors)
    assert [len(c) for c in columns] == [len(aset)] * 4
    assert r.chosen == aset.actions[r.chosen_index]
    assert r.chosen_index == int(np.argmin(r.costs))
    for a, bits, distance, cost, error in zip(aset.actions, *columns):
        assert error is None
        assert cost == pytest.approx(action_cost(bits, distance, w), abs=1e-15)
        assert distance == pytest.approx(
            expected_distance(mean_pose, a, Goal((13.0, 0.5), 0.5), models.dt), abs=1e-12
        )


def test_selection_reproducible(peak_grid, models, aset):
    b = init(Pose(5.0, 0.5, 0.0), np.diag([0.09, 0.09, 0.01]), 200, seed=7)
    kw = dict(
        mean_pose=estimate(b).mean,
        goal=Goal((13.0, 0.5), 0.5),
        aset=aset,
        w=PlannerWeights(5.0, 1.0, 0.5),
        grid=peak_grid,
        models=models,
        eer_params=EerParams(30, 10),
    )
    r1 = select_action(b, rng=np.random.default_rng(9), **kw)
    r2 = select_action(b, rng=np.random.default_rng(9), **kw)
    assert r1.chosen_index == r2.chosen_index
    assert r1.eer_bits == r2.eer_bits


def test_information_weight_shifts_choice_toward_gradient(peak_grid, models, aset):
    # Same rng seed means both runs score identical per-action EER, so the
    # comparison isolates the weight: paying for information must never
    # select a less informative action, and here it strictly helps.
    goal = Goal((13.0, 0.5), 0.5)
    for seed in range(5):
        b = init(
            Pose(5.0, 0.5, 0.0),
            np.diag([0.09, 0.09, math.radians(5.0) ** 2]),
            250,
            seed=seed,
        )
        r0 = select_action(
            b, estimate(b).mean, goal, aset, PlannerWeights(0.0, 1.0, 0.5), peak_grid,
            models, EerParams(30, 10), np.random.default_rng(seed + 100),
        )
        r5 = select_action(
            b, estimate(b).mean, goal, aset, PlannerWeights(5.0, 1.0, 0.5), peak_grid,
            models, EerParams(30, 10), np.random.default_rng(seed + 100),
        )
        assert r0.eer_bits == r5.eer_bits
        assert r5.eer_bits[r5.chosen_index] > r0.eer_bits[r0.chosen_index]


def test_zero_info_weight_ignores_the_map(peak_grid, uniform_grid, models, aset):
    b = pinned_belief()
    kw = dict(
        mean_pose=estimate(b).mean,
        goal=Goal((8.0, 3.0), 0.5),
        aset=aset,
        w=PlannerWeights(0.0, 1.0, 0.5),
        models=models,
        eer_params=EerParams(30, 10),
    )
    on_peak = select_action(b, grid=peak_grid, rng=np.random.default_rng(1), **kw)
    on_flat = select_action(b, grid=uniform_grid, rng=np.random.default_rng(1), **kw)
    assert on_peak.chosen_index == on_flat.chosen_index


def test_all_actions_failing_raises(peak_grid, models, aset, monkeypatch):
    # Every action's map reads poisoned, as test_simloop's
    # test_failed_action_goes_through_the_step does for one.
    real_lookup = infogain.lookup

    def poisoned(grid, pts):
        values, inside = real_lookup(grid, pts)
        values[:] = np.nan
        return values, inside

    monkeypatch.setattr(infogain, "lookup", poisoned)
    b = pinned_belief()
    with pytest.raises(PlannerError, match="every action failed") as info:
        select_action(
            b, estimate(b).mean, Goal((8.0, 3.0), 0.5), aset,
            PlannerWeights(1.0, 1.0, 0.5), peak_grid, models, EerParams(30, 10),
            np.random.default_rng(0),
        )
    # Each action names its own reason.
    reason = "a predicted measurement has zero mass under the rollout"
    assert str(info.value).count(reason) == len(aset)
