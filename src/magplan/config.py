"""Plain-text experiment configuration.

Files hold `key = value` lines with dotted section keys, full-line or
trailing `#` comments, and a mandatory `schema_version` key. Unknown keys
are hard errors: a typo in an experiment config must fail loudly, not
silently run a different experiment.

Angles are configured in degrees (keys carry a `_deg` suffix) and converted
to radians at build time.
"""

from __future__ import annotations

import hashlib
import math
import os
from typing import Optional

import numpy as np

from . import textio
from .magmap import (
    MagMap,
    MapError,
    SyntheticMapSpec,
    generate_synthetic,
    load_map,
)
from .models import ModelError, ModelSet, MotionNoise, Pose, SensorNoise
from .planner import ActionSet, EerParams, Goal, PlannerError, PlannerWeights
from .simloop import EpisodeConfig, EpisodeError

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """A config file is malformed, has unknown keys, or fails validation."""


# Every key the schema admits, with its value's kind; `_get` parses all but the path.
KNOWN_KEYS: dict[str, str] = {
    "schema_version": "int",
    "map.file": "path",
    "map.origin_x": "float",
    "map.origin_y": "float",
    "map.cell_size": "float",
    "map.width": "int",
    "map.height": "int",
    "map.base_field": "float",
    "map.peak_center_x": "float",
    "map.peak_center_y": "float",
    "map.peak_amplitude": "float",
    "map.peak_sigma_x": "float",
    "map.peak_sigma_y": "float",
    "start.x": "float",
    "start.y": "float",
    "start.theta_deg": "float",
    "goal.x": "float",
    "goal.y": "float",
    "goal.arrival_radius": "float",
    "planner.w_h": "float",
    "planner.w_d": "float",
    "planner.alpha": "float",
    "actions.v": "float",
    "actions.omegas_deg": "float_list",
    "eer.m_count": "int",
    "eer.horizon_steps": "int",
    "filter.n_particles": "int",
    "filter.prior_sigma_x": "float",
    "filter.prior_sigma_y": "float",
    "filter.prior_sigma_theta_deg": "float",
    "noise.motion_sigma_x": "float",
    "noise.motion_sigma_y": "float",
    "noise.motion_sigma_theta_deg": "float",
    "noise.sensor_sigma_z": "float",
    "sim.dt": "float",
    "sim.step_budget": "int",
    "sim.seed": "int",
    "sweep.w_h_values": "float_list",
    "sweep.seeds": "int_list",
}

def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value strings; syntax, duplicate, and unknown-key checks.
    Only LF ends a line here; `load_config` reads CR LF and a lone CR as LF."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    if "schema_version" not in out:
        raise ConfigError("missing required key 'schema_version'")
    if out["schema_version"] != str(SCHEMA_VERSION):
        raise ConfigError(
            f"unsupported schema_version {out['schema_version']!r}, "
            f"this build reads version {SCHEMA_VERSION}"
        )
    return out


def load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def canonical_text(cfg: dict[str, str]) -> str:
    return "".join(f"{k} = {cfg[k]}\n" for k in sorted(cfg))


def config_hash(cfg: dict[str, str]) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()[:16]


_MISSING = object()


def _get(cfg: dict[str, str], key: str, default=_MISSING):
    kind = KNOWN_KEYS[key]
    if key not in cfg:
        if default is _MISSING:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = cfg[key]
    cell_kind = int if kind.startswith("int") else float
    try:
        if kind.endswith("_list"):
            # One trailing comma is list syntax (a lone comma is the empty list);
            # any other empty entry is a bad cell.
            body = raw.rstrip().removesuffix(",")
            cells = body.split(",") if body.strip() else []
            return [textio.parse_cell(v, cell_kind) for v in cells]
        return textio.parse_cell(raw, cell_kind)
    except textio.TextError as exc:
        raise ConfigError(f"key {key!r}: bad {kind} value {raw!r}") from exc


def build_synthetic_map(cfg: dict[str, str]) -> MagMap:
    # Every map.* key but map.file is part of the synthetic spec.
    missing = [k for k in KNOWN_KEYS if k.startswith("map.") and k != "map.file" and k not in cfg]
    if missing:
        raise ConfigError(f"synthetic map needs keys: {', '.join(missing)}")
    try:
        spec = SyntheticMapSpec(
            base_field=_get(cfg, "map.base_field"),
            peak_center=(
                _get(cfg, "map.peak_center_x"),
                _get(cfg, "map.peak_center_y"),
            ),
            peak_amplitude=_get(cfg, "map.peak_amplitude"),
            peak_sigma=(
                _get(cfg, "map.peak_sigma_x"),
                _get(cfg, "map.peak_sigma_y"),
            ),
        )
        return generate_synthetic(
            spec,
            (_get(cfg, "map.origin_x"), _get(cfg, "map.origin_y")),
            _get(cfg, "map.cell_size"),
            _get(cfg, "map.width"),
            _get(cfg, "map.height"),
        )
    except MapError as exc:
        raise ConfigError(f"invalid map spec: {exc}") from exc


def build_map(cfg: dict[str, str], base_dir: str) -> MagMap:
    """map.file wins when present; otherwise the synthetic spec keys apply."""
    if "map.file" in cfg:
        path = cfg["map.file"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            return load_map(path)
        except (MapError, OSError) as exc:
            raise ConfigError(f"cannot load map.file {path}: {exc}") from exc
    return build_synthetic_map(cfg)


def build_episode_config(
    cfg: dict[str, str], base_dir: str, seed_override: Optional[int] = None
) -> EpisodeConfig:
    """Resolve a full episode configuration; --seed overrides sim.seed.

    A value the domain objects reject is a ConfigError, like a malformed one.
    """
    grid = build_map(cfg, base_dir)
    omegas = _get(cfg, "actions.omegas_deg")
    if not omegas:
        raise ConfigError("actions.omegas_deg must list at least one turn rate")
    seed = seed_override if seed_override is not None else _get(cfg, "sim.seed")
    try:
        return EpisodeConfig(
            grid=grid,
            start=Pose(
                _get(cfg, "start.x"),
                _get(cfg, "start.y"),
                math.radians(_get(cfg, "start.theta_deg")),
            ),
            goal=Goal(
                (_get(cfg, "goal.x"), _get(cfg, "goal.y")),
                _get(cfg, "goal.arrival_radius", 0.1),
            ),
            weights=PlannerWeights(
                w_h=_get(cfg, "planner.w_h"),
                w_d=_get(cfg, "planner.w_d"),
                alpha=_get(cfg, "planner.alpha"),
            ),
            actions=ActionSet.from_turn_rates(
                _get(cfg, "actions.v"), [math.radians(w) for w in omegas]
            ),
            models=ModelSet(
                MotionNoise(
                    sigma_x=_get(cfg, "noise.motion_sigma_x"),
                    sigma_y=_get(cfg, "noise.motion_sigma_y"),
                    sigma_theta=math.radians(_get(cfg, "noise.motion_sigma_theta_deg")),
                ),
                SensorNoise(_get(cfg, "noise.sensor_sigma_z")),
                _get(cfg, "sim.dt"),
            ),
            prior_cov=np.diag(
                [
                    _get(cfg, "filter.prior_sigma_x", 0.1) ** 2,
                    _get(cfg, "filter.prior_sigma_y", 0.1) ** 2,
                    math.radians(_get(cfg, "filter.prior_sigma_theta_deg", 5.0)) ** 2,
                ]
            ),
            n_particles=_get(cfg, "filter.n_particles"),
            eer_params=EerParams(
                m_count=_get(cfg, "eer.m_count"),
                horizon_steps=_get(cfg, "eer.horizon_steps"),
            ),
            step_budget=_get(cfg, "sim.step_budget"),
            seed=int(seed),
        )
    except (ModelError, PlannerError, EpisodeError) as exc:
        raise ConfigError(f"invalid episode configuration: {exc}") from exc


def sweep_params(cfg: dict[str, str]) -> tuple[list[float], list[int]]:
    """The sweep grid, each w_h checked with the config's w_d and alpha."""
    w_h_values = _get(cfg, "sweep.w_h_values")
    seeds = _get(cfg, "sweep.seeds")
    if not w_h_values or not seeds:
        raise ConfigError("sweep.w_h_values and sweep.seeds must be nonempty")
    w_d, alpha = _get(cfg, "planner.w_d"), _get(cfg, "planner.alpha")
    for w_h in w_h_values:
        try:
            PlannerWeights(w_h, w_d, alpha)
        except PlannerError as exc:
            raise ConfigError(f"sweep.w_h_values: {exc}") from exc
    if min(seeds) < 0:
        raise ConfigError(f"sweep.seeds must all be >= 0, got {min(seeds)}")
    return w_h_values, seeds
