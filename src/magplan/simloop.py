"""Closed-loop episode simulation with full trace logging.

Each step: the planner picks an action from the current belief, the true
state advances under that action with process noise, a measurement is
synthesized at the new true pose, and the filter step `pflocal.assimilate`
takes it in (predict, update, entropy, conditional resample) and returns one
`pflocal.Assimilation` record. The runner exposes these substeps individually; the
true state is touched only by advance_truth and measure, so the filter and
planner can be shown to see the world through measurements alone.

Randomness is split into four independent streams derived from the master
seed (truth noise, sensor noise, filter, EER hypothesis subsampling), so
e.g. changing the hypothesis budget cannot perturb the true trajectory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import pflocal, textio
from .magmap import MagMap, lookup
from .models import ControlInput, ModelSet, Pose, simulate_measurement, step_motion
from .pflocal import ParticleBelief
from .planner import (
    ActionSet,
    EerParams,
    Goal,
    PlannerWeights,
    SelectionResult,
    select_action,
)


class EpisodeError(Exception):
    """Base error for episode configuration and execution."""


class StepFailure(EpisodeError):
    """A step failed at runtime; carries the 0-based step index."""

    def __init__(self, step: int, cause: Exception):
        super().__init__(f"step {step}: {cause}")
        self.step = step
        self.cause = cause


@dataclass(frozen=True)
class EpisodeConfig:
    """Everything one episode needs, already resolved to domain objects."""

    grid: MagMap
    start: Pose
    goal: Goal
    weights: PlannerWeights
    actions: ActionSet
    models: ModelSet
    prior_cov: np.ndarray
    n_particles: int
    eer_params: EerParams
    step_budget: int
    seed: int

    def __post_init__(self) -> None:
        if self.step_budget < 1:
            raise EpisodeError(f"step_budget must be >= 1, got {self.step_budget}")
        if self.n_particles < 2:
            raise EpisodeError(f"n_particles must be >= 2, got {self.n_particles}")
        if self.eer_params.m_count > self.n_particles:
            raise EpisodeError(
                f"eer m_count {self.eer_params.m_count} exceeds "
                f"n_particles {self.n_particles}"
            )
        if self.seed < 0:
            raise EpisodeError(f"seed must be >= 0, got {self.seed}")
        try:
            cov = pflocal.check_prior_cov(self.prior_cov).copy()
        except pflocal.FilterError as exc:
            raise EpisodeError(str(exc)) from None
        cov.setflags(write=False)
        object.__setattr__(self, "prior_cov", cov)
        _, inside = lookup(self.grid, np.array([self.goal.position, self.start.position()]))
        if not inside[0]:
            raise EpisodeError(f"goal {self.goal.position} lies outside the map")
        if not inside[1]:
            raise EpisodeError(f"start ({self.start.x}, {self.start.y}) lies outside the map")


@dataclass(frozen=True)
class TraceRow:
    step: int
    time_s: float
    truth: Pose
    z: float
    action_index: int
    action: ControlInput
    est: Pose
    covariance: np.ndarray
    det_pos_cov: float
    entropy_bits: float
    ess: float
    resampled: bool
    collapsed: bool
    eer_bits: tuple[float, ...]
    distances: tuple[float, ...]
    costs: tuple[float, ...]


@dataclass(frozen=True)
class EpisodeTrace:
    rows: tuple[TraceRow, ...]
    reached_goal: bool
    n_actions: int

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class MetricsRecord:
    """Per-step series plus scalar episode summaries."""

    det_pos_cov: np.ndarray
    entropy_raw: np.ndarray
    entropy_filtered: np.ndarray
    position_error: np.ndarray
    rmse_position: float
    mean_error: float
    final_error: float
    final_det_pos_cov: float
    mean_det_pos_cov: float
    path_length: float
    steps: int
    reached_goal: bool


class EpisodeRunner:
    """One episode's mutable state, stepped substep by substep.

    The belief and planner never read `truth`; it feeds only the motion
    and measurement synthesis. Overwriting `truth` between measure() and
    assimilate() provably cannot change the belief.
    """

    def __init__(self, cfg: EpisodeConfig):
        self.cfg = cfg
        streams = np.random.SeedSequence(cfg.seed).spawn(4)
        self.truth_rng = np.random.default_rng(streams[0])
        self.sensor_rng = np.random.default_rng(streams[1])
        self.eer_rng = np.random.default_rng(streams[3])
        self.truth: Pose = cfg.start
        self.belief: ParticleBelief = pflocal.init(
            cfg.start, cfg.prior_cov, cfg.n_particles, np.random.default_rng(streams[2])
        )
        # The estimate of `self.belief`, kept in step with it by assimilate().
        self.summary = pflocal.estimate(self.belief)
        self.step_index = 0
        self.rows: list[TraceRow] = []
        self.reached_goal = False

    def plan(self) -> SelectionResult:
        cfg = self.cfg
        return select_action(
            self.belief, self.summary.mean, cfg.goal, cfg.actions, cfg.weights,
            cfg.grid, cfg.models, cfg.eer_params, self.eer_rng,
        )

    def advance_truth(self, action: ControlInput) -> Pose:
        self.truth = step_motion(
            self.truth, action, self.cfg.models.dt, self.cfg.models.motion, self.truth_rng
        )
        return self.truth

    def measure(self) -> float:
        return simulate_measurement(
            self.truth, self.cfg.grid, self.cfg.models.sensor, self.sensor_rng
        )

    def assimilate(self, action: ControlInput, z: float) -> pflocal.Assimilation:
        """`pflocal.assimilate` on the belief; keeps the new belief and the
        planner's summary, which is re-estimated only after a resample."""
        record = pflocal.assimilate(self.belief, action, z, self.cfg.grid, self.cfg.models)
        self.belief = record.belief
        self.summary = pflocal.estimate(record.belief) if record.resampled else record.summary
        return record

    def step(self) -> TraceRow:
        """Run one full closed-loop step and append its trace row."""
        k = self.step_index
        try:
            selection = self.plan()
            self.advance_truth(selection.chosen)
            z = self.measure()
            record = self.assimilate(selection.chosen, z)
        except Exception as exc:
            raise StepFailure(k, exc) from exc
        row = TraceRow(
            step=k,
            time_s=(k + 1) * self.cfg.models.dt,
            truth=self.truth,
            z=z,
            action_index=selection.chosen_index,
            action=selection.chosen,
            est=record.summary.mean,
            covariance=record.summary.covariance,
            det_pos_cov=record.summary.det_positional(),
            entropy_bits=record.entropy_bits,
            ess=record.ess,
            resampled=record.resampled,
            collapsed=record.collapsed,
            eer_bits=selection.eer_bits,
            distances=selection.distances,
            costs=selection.costs,
        )
        self.rows.append(row)
        self.step_index += 1
        goal, mean = self.cfg.goal, record.summary.mean
        if goal.distance(mean.x, mean.y) <= goal.arrival_radius:
            self.reached_goal = True
        return row

    def run(self) -> EpisodeTrace:
        while self.step_index < self.cfg.step_budget and not self.reached_goal:
            self.step()
        return EpisodeTrace(
            tuple(self.rows), self.reached_goal, len(self.cfg.actions)
        )


def run_episode(cfg: EpisodeConfig) -> EpisodeTrace:
    return EpisodeRunner(cfg).run()


def filter_entropy(entropy: np.ndarray) -> np.ndarray:
    """The 1-D entropy series with each value outside the IQR fences replaced
    by the last kept value; a series shorter than 4 values is copied unfiltered.

    Fences are Q1 - 1.5*IQR and Q3 + 1.5*IQR over the whole series, with
    linearly interpolated quartiles. The first value is always kept and seeds
    the replacement chain.
    """
    out = entropy.copy()
    if len(entropy) < 4:
        return out
    q1, q3 = np.percentile(entropy, [25.0, 75.0])
    spread = 1.5 * (q3 - q1)
    lo, hi = q1 - spread, q3 + spread
    for i in range(1, len(out)):
        if not (lo <= entropy[i] <= hi):
            out[i] = out[i - 1]
    return out


def compute_metrics(trace: EpisodeTrace) -> MetricsRecord:
    """Series and scalars behind the covariance/entropy-over-time plots."""
    if len(trace) == 0:
        raise EpisodeError("cannot compute metrics of an empty trace")
    det = np.array([r.det_pos_cov for r in trace.rows])
    entropy = np.array([r.entropy_bits for r in trace.rows])
    filtered = filter_entropy(entropy)
    truth = np.array([[r.truth.x, r.truth.y] for r in trace.rows])
    est = np.array([[r.est.x, r.est.y] for r in trace.rows])
    err = np.hypot(*(truth - est).T)
    seg = np.diff(truth, axis=0)
    return MetricsRecord(
        det_pos_cov=det,
        entropy_raw=entropy,
        entropy_filtered=filtered,
        position_error=err,
        rmse_position=float(np.sqrt(np.mean(err**2))),
        mean_error=float(err.mean()),
        final_error=float(err[-1]),
        final_det_pos_cov=float(det[-1]),
        mean_det_pos_cov=float(det.mean()),
        path_length=float(np.hypot(seg[:, 0], seg[:, 1]).sum()),
        steps=len(trace),
        reached_goal=trace.reached_goal,
    )


@dataclass(frozen=True)
class SweepCell:
    w_h: float
    seed: int
    trace: Optional[EpisodeTrace]
    metrics: Optional[MetricsRecord]
    error: Optional[str]


def sweep(
    base_cfg: EpisodeConfig, w_h_values: Sequence[float], seeds: Sequence[int]
) -> tuple[SweepCell, ...]:
    """Cross product of uncertainty weights and seeds, one cell each in grid order.

    Each cell reuses the seed entry unchanged, so cells in one seed column
    are exactly paired across w_h values. A failing cell records its error
    and the sweep continues.
    """
    if not w_h_values or not seeds:
        raise EpisodeError("sweep needs at least one w_h value and one seed")
    cells: list[SweepCell] = []
    for w_h in w_h_values:
        for seed in seeds:
            cfg = replace(
                base_cfg,
                weights=PlannerWeights(w_h, base_cfg.weights.w_d, base_cfg.weights.alpha),
                seed=int(seed),
            )
            try:
                trace = run_episode(cfg)
                cells.append(
                    SweepCell(w_h, int(seed), trace, compute_metrics(trace), None)
                )
            except EpisodeError as exc:
                cells.append(SweepCell(w_h, int(seed), None, None, str(exc)))
    return tuple(cells)


class _TimedPlans(EpisodeRunner):
    """An EpisodeRunner that records the wall time of each plan() call, in ms."""

    def __init__(self, cfg: EpisodeConfig):
        super().__init__(cfg)
        self.plan_ms: list[float] = []

    def plan(self) -> SelectionResult:
        t0 = time.perf_counter()
        selection = super().plan()
        self.plan_ms.append((time.perf_counter() - t0) * 1e3)
        return selection


def benchmark_planning(cfg: EpisodeConfig, n_steps: int) -> tuple[float, ...]:
    """The wall time in ms of each select_action call in the episode's own loop
    (`EpisodeRunner.run`) for at most n_steps steps: it stops at the goal and
    raises StepFailure as run does; an n_steps < 1 fails EpisodeConfig's check."""
    runner = _TimedPlans(replace(cfg, step_budget=min(n_steps, cfg.step_budget)))
    runner.run()
    return tuple(runner.plan_ms)


# The trace header in file order: these fixed columns, then one column per
# action j in each of eer_j, dist_j and cost_j.
_TRACE_FIXED = (
    "step", "time_s", "truth_x", "truth_y", "truth_theta", "z_nt", "action_index",
    "action_v", "action_omega", "est_x", "est_y", "est_theta",
    *(f"cov_{r}{c}" for r in "xyt" for c in "xyt"),
    "det_pos_cov", "entropy_bits", "ess", "resampled", "collapsed",
)
_TRACE_PER_ACTION = ("eer", "dist", "cost")
# The integer columns; the flags among them hold 0 or 1.
_TRACE_FLAGS = {"resampled", "collapsed"}
_TRACE_INTEGERS = {"step", "action_index", *_TRACE_FLAGS}


def trace_columns(n_actions: int) -> list[str]:
    """The trace header: the fixed columns, then eer_j, dist_j and cost_j for each action j."""
    return [*_TRACE_FIXED, *(f"{p}_{j}" for p in _TRACE_PER_ACTION for j in range(n_actions))]


def _trace_cells(r: TraceRow) -> list:
    """One row's values in `trace_columns` order."""
    return [r.step, r.time_s, r.truth.x, r.truth.y, r.truth.theta, r.z, r.action_index,
            r.action.v, r.action.omega, r.est.x, r.est.y, r.est.theta,
            *r.covariance.ravel().tolist(), r.det_pos_cov, r.entropy_bits, r.ess,
            r.resampled, r.collapsed, *r.eer_bits, *r.distances, *r.costs]


def write_trace(trace: EpisodeTrace, path: str, provenance: dict[str, str]) -> None:
    """Write the trace CSV: `#`-comment provenance, the `trace_columns` header,
    then `_trace_cells` of each row.

    Floats are written with round-trip precision so identical runs produce
    byte-identical files.
    """
    columns = trace_columns(trace.n_actions)
    ints = [c for c, name in enumerate(columns) if name in _TRACE_INTEGERS]
    head = [*textio.preamble("trace", provenance),
            f"# reached_goal: {textio.spell(trace.reached_goal, integer=True)}", ",".join(columns)]
    textio.write_table(path, head, map(_trace_cells, trace.rows), ints=ints)


def read_trace(path: str) -> dict[str, np.ndarray]:
    """Parse a trace file into its columns by `trace_columns` name, as floats
    (the integer and flag columns too). A malformed file raises EpisodeError
    naming the file and, for a bad row, its line. The header must be
    `trace_columns` of some action count; `#` comment lines are skipped."""
    lines = textio.read_lines(path)
    # Comment lines drop out of the table like blank ones, keeping their line numbers.
    body = ["" if line.startswith("#") else line for line in lines]
    start = next((n for n, line in enumerate(body) if line.strip()), None)
    if start is None:
        raise EpisodeError(f"{path}: no header row")
    header = body[start].split(",")
    ints = [c for c, name in enumerate(header) if name in _TRACE_INTEGERS]
    try:
        table, linenos = textio.read_table(body, start + 1, ",", (len(header),), ints)
    except textio.TextError as exc:
        raise EpisodeError(f"{path}: {exc}") from None
    if not linenos:
        raise EpisodeError(f"{path}: trace has no data rows")
    n_fixed = len(_TRACE_FIXED)
    expected = trace_columns((len(header) - n_fixed) // len(_TRACE_PER_ACTION))
    if header != expected:
        unknown = ", ".join(sorted(set(header) - set(expected))) or "none"
        missing = ", ".join(sorted(set(expected) - set(header))) or "none"
        raise EpisodeError(
            f"{path}: header does not match the trace schema "
            f"(unknown columns: {unknown}; missing columns: {missing})"
        )
    # Only the per-action columns may hold nan/inf: a failed action writes them.
    # The flag columns hold 0 or 1, as write_trace writes them.
    fixed = table[:, :n_fixed]
    is_flag = np.array([name in _TRACE_FLAGS for name in _TRACE_FIXED])
    nonflag = is_flag & (fixed != 0) & (fixed != 1)
    for bad, what in ((~np.isfinite(fixed), "be finite"), (nonflag, "be 0 or 1")):
        if bad.any():
            r, c = np.argwhere(bad)[0]
            cell = lines[linenos[r] - 1].split(",")[c]
            raise EpisodeError(f"{path}: line {linenos[r]}: {header[c]} must {what}, got {cell!r}")
    return dict(zip(header, table.T))


def write_metrics(metrics: MetricsRecord, path: str, provenance: dict[str, str]) -> None:
    scalars = ("rmse_position", "mean_error", "final_error",
               "final_det_pos_cov", "mean_det_pos_cov", "path_length")
    head = [
        *textio.preamble("metrics", provenance),
        *(f"# {key}: {textio.spell(getattr(metrics, key))}" for key in scalars),
        f"# steps: {textio.spell(metrics.steps, integer=True)}",
        f"# reached_goal: {textio.spell(metrics.reached_goal, integer=True)}",
        "step,det_pos_cov,entropy_raw,entropy_filtered,position_error",
    ]
    series = (metrics.det_pos_cov, metrics.entropy_raw, metrics.entropy_filtered,
              metrics.position_error)
    rows = zip(range(metrics.steps), *(s.tolist() for s in series))
    textio.write_table(path, head, rows, ints=(0,))


def write_summary(cells: Sequence[SweepCell], path: str, provenance: dict[str, str]) -> None:
    """One CSV row per (w_h, seed) sweep cell; a failed cell keeps its error in the last column."""
    head = [
        *textio.preamble("summary", provenance),
        "w_h,seed,steps,reached_goal,final_det_pos_cov,mean_det_pos_cov,"
        "rmse_position,mean_error,final_error,path_length,error",
    ]
    rows = []
    for c in cells:
        m = c.metrics
        if m is None:
            msg = (c.error or "failed").replace(",", ";").replace("\n", " ")
            rows.append([c.w_h, c.seed, 0, 0, *[""] * 6, msg])
        else:
            rows.append([c.w_h, c.seed, m.steps, m.reached_goal, m.final_det_pos_cov,
                         m.mean_det_pos_cov, m.rmse_position, m.mean_error, m.final_error,
                         m.path_length, ""])
    textio.write_table(path, head, rows, ints=(1, 2, 3))
