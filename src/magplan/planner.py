"""Receding-horizon action selection trading goal progress against information.

Each planning step scores a small discrete action set. An action's cost is

    J(a) = w_h * alpha^EER(a) + w_d * d(a)

where EER is the expected entropy reduction of the action's rollout (bits)
and d the Euclidean distance from the action's expected next position to the
goal. alpha in (0, 1) makes the first term strictly decreasing in EER, so
w_h buys uncertainty reduction at the price of longer paths. The cheapest
action wins; ties break toward the lowest action index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .infogain import EerValue, InfoGainError, eer
from .magmap import MagMap
from .models import ControlInput, ModelSet, Pose
from .pflocal import ParticleBelief, estimate


class PlannerError(Exception):
    """Base error for action selection."""


@dataclass(frozen=True)
class ActionSet:
    """Candidate controls; one shared linear speed, one turn rate per action."""

    actions: tuple[ControlInput, ...]

    def __post_init__(self) -> None:
        if not self.actions:
            raise PlannerError("action set must be nonempty")
        speeds = {a.v for a in self.actions}
        if len(speeds) != 1:
            raise PlannerError(f"all actions must share one linear speed, got {speeds}")
        object.__setattr__(self, "actions", tuple(self.actions))

    @staticmethod
    def from_turn_rates(v: float, omegas: Sequence[float]) -> "ActionSet":
        return ActionSet(tuple(ControlInput(v, w) for w in omegas))

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class PlannerWeights:
    w_h: float
    w_d: float
    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.w_h) and self.w_h >= 0):
            raise PlannerError(f"w_h must be finite and >= 0, got {self.w_h}")
        if not (math.isfinite(self.w_d) and self.w_d > 0):
            raise PlannerError(f"w_d must be finite and > 0, got {self.w_d}")
        if not (0 < self.alpha < 1):
            raise PlannerError(f"alpha must lie strictly in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class Goal:
    """Target position with an arrival radius on the estimated position."""

    position: tuple[float, float]
    arrival_radius: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(c) for c in self.position):
            raise PlannerError(f"goal position must be finite, got {self.position}")
        if not (self.arrival_radius > 0 and math.isfinite(self.arrival_radius)):
            raise PlannerError(f"arrival_radius must be > 0, got {self.arrival_radius}")


@dataclass(frozen=True)
class EerParams:
    """Hypothesis budget and lookahead depth for EER evaluation."""

    m_count: int
    horizon_steps: int

    def __post_init__(self) -> None:
        if self.m_count < 2:
            raise PlannerError(f"m_count must be >= 2, got {self.m_count}")
        if self.horizon_steps < 1:
            raise PlannerError(f"horizon_steps must be >= 1, got {self.horizon_steps}")


@dataclass(frozen=True)
class ActionDiagnostics:
    """Per-action planning record kept for the episode trace."""

    action: ControlInput
    eer_bits: float
    distance: float
    cost: float
    error: Optional[str] = None


@dataclass(frozen=True)
class SelectionResult:
    chosen: ControlInput
    chosen_index: int
    diagnostics: tuple[ActionDiagnostics, ...]


def expected_position(p: Pose, a: ControlInput, dt: float) -> np.ndarray:
    """Next position if the action executes exactly: heading turns first,
    then the speed carries the robot for dt along the new heading."""
    heading = p.theta + a.omega * dt
    return np.array(
        [p.x + a.v * dt * math.cos(heading), p.y + a.v * dt * math.sin(heading)]
    )


def expected_distance(p: Pose, a: ControlInput, goal: Goal, dt: float) -> float:
    delta = expected_position(p, a, dt) - np.asarray(goal.position, dtype=float)
    return float(np.hypot(delta[0], delta[1]))


def expected_distance_over_particles(
    b: ParticleBelief, a: ControlInput, goal: Goal, dt: float
) -> float:
    """Belief-averaged variant of expected_distance (optional planner mode)."""
    heading = b.particles[:, 2] + a.omega * dt
    nx = b.particles[:, 0] + a.v * dt * np.cos(heading)
    ny = b.particles[:, 1] + a.v * dt * np.sin(heading)
    gx, gy = goal.position
    return float(b.weights @ np.hypot(nx - gx, ny - gy))


def action_cost(eer_bits: float, dist_m: float, w: PlannerWeights) -> float:
    return w.w_h * w.alpha**eer_bits + w.w_d * dist_m


def select_action(
    b: ParticleBelief,
    goal: Goal,
    aset: ActionSet,
    w: PlannerWeights,
    grid: MagMap,
    models: ModelSet,
    eer_params: EerParams,
    rng: np.random.Generator,
    distance_mode: str = "mean_pose",
) -> SelectionResult:
    """Evaluate every action from the belief's mean pose and take the argmin.

    A failing rollout costs +inf and carries its error in the diagnostics;
    selection fails only if every action fails. EER for the whole action
    set is one batched draw from the shared rng, in action order, so the
    choice is reproducible.
    """
    if distance_mode not in ("mean_pose", "particle_mean"):
        raise PlannerError(f"unknown distance_mode {distance_mode!r}")
    mean_pose = estimate(b).mean
    try:
        gains = eer(
            b, aset.actions, grid, models, eer_params.m_count,
            eer_params.horizon_steps, rng,
        )
    except InfoGainError as exc:
        gains = (exc,) * len(aset)
    diags: list[ActionDiagnostics] = []
    for a, gain in zip(aset.actions, gains):
        if distance_mode == "mean_pose":
            dist = expected_distance(mean_pose, a, goal, models.dt)
        else:
            dist = expected_distance_over_particles(b, a, goal, models.dt)
        if isinstance(gain, EerValue):
            diags.append(
                ActionDiagnostics(a, gain.bits, dist, action_cost(gain.bits, dist, w))
            )
        else:
            diags.append(ActionDiagnostics(a, math.nan, dist, math.inf, str(gain)))
    best = min(range(len(diags)), key=lambda i: diags[i].cost)
    if not math.isfinite(diags[best].cost):
        raise PlannerError(
            "every action failed: " + "; ".join(d.error or "?" for d in diags)
        )
    return SelectionResult(diags[best].action, best, tuple(diags))
