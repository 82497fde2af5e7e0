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
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .infogain import eer
from .magmap import MagMap
from .models import ControlInput, ModelSet, Pose
from .pflocal import ParticleBelief


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

    def distance(self, x: float, y: float) -> float:
        """numpy's hypot from (x, y) to the goal; math.hypot can differ in the last bit."""
        return float(np.hypot(x - self.position[0], y - self.position[1]))


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
class SelectionResult:
    """The chosen action and the trace's per-action columns, in action order.

    A failed action has nan bits, +inf cost and its reason in `errors`;
    every other action has None there.
    """

    chosen: ControlInput
    chosen_index: int
    eer_bits: tuple[float, ...]
    distances: tuple[float, ...]
    costs: tuple[float, ...]
    errors: tuple[Optional[str], ...]

    @property
    def diagnostics(self) -> tuple[SimpleNamespace, ...]:
        """The columns as one record per action (eer_bits, distance, cost,
        error), built on each read; the benchmark's tracer counts actions and
        failed actions through it."""
        return tuple(
            SimpleNamespace(eer_bits=b, distance=d, cost=c, error=e)
            for b, d, c, e in zip(self.eer_bits, self.distances, self.costs, self.errors)
        )


def expected_position(p: Pose, a: ControlInput, dt: float) -> tuple[float, float]:
    """Next position if the action executes exactly: heading turns first,
    then the speed carries the robot for dt along the new heading."""
    heading = p.theta + a.omega * dt
    return p.x + a.v * dt * math.cos(heading), p.y + a.v * dt * math.sin(heading)


def expected_distance(p: Pose, a: ControlInput, goal: Goal, dt: float) -> float:
    return goal.distance(*expected_position(p, a, dt))


def action_cost(eer_bits: float, dist_m: float, w: PlannerWeights) -> float:
    return w.w_h * w.alpha**eer_bits + w.w_d * dist_m


def select_action(
    b: ParticleBelief,
    mean_pose: Pose,
    goal: Goal,
    aset: ActionSet,
    w: PlannerWeights,
    grid: MagMap,
    models: ModelSet,
    eer_params: EerParams,
    rng: np.random.Generator,
) -> SelectionResult:
    """Evaluate every action from the mean pose `estimate(b).mean`; take the argmin.

    A failing rollout gets nan bits, +inf cost and its reason in `errors`;
    selection fails only if every action fails. EER for the whole action
    set is one batched draw from the shared rng, in action order, so the
    choice is reproducible. Ties go to the lowest action index.
    """
    gains, errors = eer(b, aset, grid, models, eer_params, rng)
    bits = tuple(math.nan if e is not None else float(g) for g, e in zip(gains, errors))
    dists = tuple(expected_distance(mean_pose, a, goal, models.dt) for a in aset.actions)
    costs = tuple(
        math.inf if e is not None else action_cost(g, d, w)
        for g, d, e in zip(bits, dists, errors)
    )
    best = min(range(len(costs)), key=costs.__getitem__)
    if not math.isfinite(costs[best]):
        raise PlannerError("every action failed: " + "; ".join(e or "?" for e in errors))
    return SelectionResult(aset.actions[best], best, bits, dists, costs, errors)
