"""Config parsing, validation, and resolution to episode objects."""

from __future__ import annotations

import ast
import itertools
import math
import pathlib

import numpy as np
import pytest

from magplan.config import (
    KNOWN_KEYS,
    ConfigError,
    build_episode_config,
    build_map,
    build_synthetic_map,
    canonical_text,
    config_hash,
    load_config,
    parse_config_text,
    sweep_params,
)
from magplan.magmap import save_map

from conftest import FULLWIDTH_42

BASE = {
    "schema_version": "1",
    "map.origin_x": "-2.0",
    "map.origin_y": "-4.0",
    "map.cell_size": "0.1",
    "map.width": "141",
    "map.height": "101",
    "map.base_field": "25000.0",
    "map.peak_center_x": "5.0",
    "map.peak_center_y": "3.0",
    "map.peak_amplitude": "1000.0",
    "map.peak_sigma_x": "1.5",
    "map.peak_sigma_y": "1.5",
    "start.x": "0.5",
    "start.y": "0.5",
    "start.theta_deg": "90.0",
    "goal.x": "10.0",
    "goal.y": "0.5",
    "goal.arrival_radius": "0.5",
    "planner.w_h": "1.0",
    "planner.w_d": "1.0",
    "planner.alpha": "0.5",
    "actions.v": "0.2",
    "actions.omegas_deg": "-25, -15, -5, 5, 15, 25",
    "eer.m_count": "20",
    "eer.horizon_steps": "5",
    "filter.n_particles": "150",
    "noise.motion_sigma_x": "0.01",
    "noise.motion_sigma_y": "0.01",
    "noise.motion_sigma_theta_deg": "0.15",
    "noise.sensor_sigma_z": "150.0",
    "sim.dt": "0.1",
    "sim.step_budget": "12",
    "sim.seed": "0",
}


def render(entries: dict[str, str]) -> str:
    return "\n".join(f"{k} = {v}" for k, v in entries.items()) + "\n"


def without(*keys: str) -> dict[str, str]:
    return {k: v for k, v in BASE.items() if k not in keys}


# --- parsing ---


def test_parse_full_text():
    cfg = parse_config_text(render(BASE))
    assert cfg == BASE


def test_parse_comments_and_blanks():
    text = (
        "# experiment configuration\n"
        "\n"
        "schema_version = 1\n"
        "sim.seed = 7   # master seed\n"
        "   \n"
    )
    assert parse_config_text(text) == {"schema_version": "1", "sim.seed": "7"}


def test_parse_value_keeps_later_equals_signs():
    cfg = parse_config_text("schema_version = 1\nmap.file = a=b\n")
    assert cfg["map.file"] == "a=b"


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("just some words", "line 2: expected 'key = value'"),
        ("= 5", "line 2: empty key"),
        ("sim.seed =", "line 2: empty key or value"),
        ("sim.seed =   # comment only", "line 2: empty key or value"),
        ("sim.speed = 3", "line 2: unknown key 'sim.speed'"),
        ("planner.distance_mode = particle_mean", "line 2: unknown key 'planner.distance_mode'"),
        ("filter.resample_threshold = 40", "line 2: unknown key 'filter.resample_threshold'"),
        ("schema_version = 1", "line 2: duplicate key"),
    ],
)
def test_parse_line_errors(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(f"schema_version = 1\n{line}\n")


def test_parse_requires_schema_version():
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config_text("sim.seed = 1\n")


@pytest.mark.parametrize("version", ["2", "0", "01"])
def test_parse_rejects_other_schema_versions(version):
    with pytest.raises(ConfigError, match="unsupported schema_version"):
        parse_config_text(f"schema_version = {version}\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "nope.cfg"))


def test_load_config_non_ascii_byte_is_config_error(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_bytes(b"schema_version = 1  # caf\xe9\n")
    with pytest.raises(ConfigError, match="cannot read config .*0xe9"):
        load_config(str(p))


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_a_newline_ends_a_config_line(tmp_path, sep):
    want = {"schema_version": "1", "sim.seed": f"3{sep}sim.dt = 0.5"}
    assert parse_config_text(f"schema_version = 1\nsim.seed = 3{sep}sim.dt = 0.5\n") == want
    p = tmp_path / "exp.cfg"
    p.write_bytes(f"schema_version = 1\r\nsim.seed = 3{sep}sim.dt = 0.5\r\n".encode("utf-8"))
    assert load_config(str(p)) == want


def test_a_lone_cr_ends_a_config_file_line(tmp_path):
    # load_config reads in Python's universal newlines; parse_config_text
    # on a string splits at LF only.
    p = tmp_path / "exp.cfg"
    p.write_bytes(b"schema_version = 1\rsim.seed = 3\r")
    assert load_config(str(p)) == {"schema_version": "1", "sim.seed": "3"}
    with pytest.raises(ConfigError, match=r"unsupported schema_version '1\\rsim\.seed = 3'"):
        parse_config_text("schema_version = 1\rsim.seed = 3\n")


def test_load_config_reads_file(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(render(BASE))
    assert load_config(str(p)) == BASE


def test_every_key_is_set_by_a_shipped_config():
    # A key that no experiment sets has one value in use and should be a
    # constant. map.file is a path, a deployment setting, so it is exempt.
    configs = sorted((pathlib.Path(__file__).parents[1] / "configs").glob("*.cfg"))
    used = {key for path in configs for key in load_config(str(path))}
    assert sorted(set(KNOWN_KEYS) - used - {"map.file"}) == []


# Public names that open ROADMAP items give a caller: save_maglog, for the
# calibrate workload's maglog (item 8), and load_coefficients, for the
# calibration front end in the closed loop (item 6).
AWAITING_A_CALLER = {"tlcal.save_maglog", "tlcal.load_coefficients"}


def parsed_sources() -> tuple[list[pathlib.Path], dict[pathlib.Path, ast.Module]]:
    """The package's source files, and the parse tree of each package and
    benchmark source file."""
    root = pathlib.Path(__file__).parents[1]
    package = sorted((root / "src" / "magplan").glob("*.py"))
    bench = sorted((root / "perfbench").glob("*.py"))
    assert package and bench
    return package, {path: ast.parse(path.read_text()) for path in package + bench}


def test_every_public_name_has_a_caller_outside_the_tests():
    # A public function or class that only tests use belongs in
    # tests/oracles.py or goes away. A Name, an Attribute or an import alias
    # anywhere in the package or the benchmark counts as a caller; a public
    # method or property of a public class needs an Attribute.
    package, trees = parsed_sources()
    used, attributes = set(), set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    public = {
        f"{path.stem}.{node.name}"
        for path in package
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert sorted(n for n in public - AWAITING_A_CALLER if n.split(".")[1] not in used) == []
    members = {
        f"{path.stem}.{cls.name}.{node.name}"
        for path in package
        for cls in trees[path].body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert sorted(n for n in members if n.split(".")[2] not in attributes) == []


def test_only_pflocal_names_private_names_of_other_modules():
    # A private name is its module's own decision. The filter step in pflocal
    # composes infogain's kernel and log-weight helpers and checks models' dt,
    # so pflocal alone may name them; anywhere else a private name of another
    # magplan module, read as an attribute or taken by a `from` import, means
    # a mechanism has no single owner.
    package, trees = parsed_sources()
    stems = {path.stem for path in package}

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    leaks = set()
    for path in package:
        if path.stem == "pflocal":
            continue
        modules = set()
        for node in ast.walk(trees[path]):
            if isinstance(node, ast.ImportFrom):
                # `from . import m` names module m; `from .m import n`, m's member n.
                source = (node.module or "magplan").rpartition(".")[2]
                for alias in node.names:
                    if source == "magplan" and alias.name in stems:
                        modules.add(alias.asname or alias.name)
                    elif source in stems and private(alias.name):
                        leaks.add(f"{path.stem}: {source}.{alias.name}")
        for node in ast.walk(trees[path]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and private(node.attr)):
                leaks.add(f"{path.stem}: {node.value.id}.{node.attr}")
    assert sorted(leaks) == []


def test_every_record_field_has_a_reader_outside_the_tests():
    # A field of a public dataclass that only tests read goes away. A read is
    # an attribute load anywhere in the package or the benchmark, except
    # inside the class's own private members (its __post_init__, say). The
    # rule goes by name, like the one above, so a field passes on the reads
    # of any attribute that shares its name: a `reached_goal` field on a
    # second record would pass on the readers of EpisodeTrace.reached_goal.
    package, trees = parsed_sources()
    loads = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unread = []
    for path in package:
        for cls in trees[path].body:
            if not (
                isinstance(cls, ast.ClassDef)
                and not cls.name.startswith("_")
                and any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list)
            ):
                continue
            private = {
                id(node)
                for member in cls.body
                if isinstance(member, ast.FunctionDef) and member.name.startswith("_")
                for node in ast.walk(member)
            }
            read = {node.attr for node in loads if id(node) not in private}
            unread += [
                f"{path.stem}.{cls.name}.{field.target.id}"
                for field in cls.body
                if isinstance(field, ast.AnnAssign) and field.target.id not in read
            ]
    assert unread == []


# --- hashing ---


def test_hash_ignores_key_order():
    ordered = dict(BASE)
    shuffled = dict(reversed(list(BASE.items())))
    assert list(ordered) != list(shuffled)
    assert config_hash(ordered) == config_hash(shuffled)


def test_hash_sensitive_to_values():
    changed = dict(BASE, **{"sim.seed": "1"})
    assert config_hash(changed) != config_hash(BASE)
    assert len(config_hash(BASE)) == 16
    assert set(config_hash(BASE)) <= set("0123456789abcdef")


def test_hash_sees_non_ascii_values():
    # Two values that differ only in non-ASCII characters hash apart.
    paths = [f"map_{c}.magmap" for c in "\u00e9\u00e8\u4e00"]
    hashes = {config_hash(dict(BASE, **{"map.file": path})) for path in paths}
    assert len(hashes) == 3


@pytest.mark.parametrize(
    "name,digest",
    [
        ("peak", "1a67891c891403d1"),
        ("peak_episode", "a76acb3aa3bb58c0"),
        ("peak_sweep", "db2499a7cc721c0d"),
        ("benchmark", "b8050726e4225529"),
    ],
)
def test_shipped_config_hashes_are_pinned(name, digest):
    # Every output's provenance records this hash, so it must not drift.
    path = pathlib.Path(__file__).parents[1] / "configs" / f"{name}.cfg"
    assert config_hash(load_config(str(path))) == digest


def test_canonical_text_is_sorted():
    lines = canonical_text({"b.k": "2", "a.k": "1"}).splitlines()
    assert lines == ["a.k = 1", "b.k = 2"]


# --- map construction ---


def test_synthetic_map_from_config():
    grid = build_synthetic_map(BASE)
    assert grid.width == 141
    assert grid.extent() == (-2.0, 12.0, -4.0, 6.0)


def test_synthetic_map_missing_keys_listed():
    with pytest.raises(ConfigError, match="map.peak_sigma_y"):
        build_synthetic_map(without("map.peak_sigma_y", "map.peak_sigma_x"))


def test_synthetic_map_invalid_spec_wrapped():
    with pytest.raises(ConfigError, match="invalid map spec"):
        build_synthetic_map(dict(BASE, **{"map.width": "1"}))


def test_map_file_overrides_synthetic_keys(tmp_path):
    grid = build_synthetic_map(dict(BASE, **{"map.width": "21", "map.height": "11"}))
    save_map(grid, str(tmp_path / "small.map"))
    cfg = dict(BASE, **{"map.file": "small.map"})
    loaded = build_map(cfg, str(tmp_path))
    assert loaded.width == 21
    assert np.array_equal(loaded.values, grid.values)


def test_map_file_absolute_path(tmp_path):
    grid = build_synthetic_map(dict(BASE, **{"map.width": "21", "map.height": "11"}))
    path = tmp_path / "abs.map"
    save_map(grid, str(path))
    loaded = build_map({"map.file": str(path)}, "/somewhere/else")
    assert loaded.width == 21


def test_map_file_missing_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot load map.file"):
        build_map({"map.file": "ghost.map"}, str(tmp_path))


# --- episode resolution ---


def test_build_episode_config_resolves_everything(tmp_path):
    cfg = build_episode_config(BASE, str(tmp_path))
    assert cfg.start.x == 0.5 and cfg.start.theta == pytest.approx(math.pi / 2)
    assert cfg.goal.position == (10.0, 0.5) and cfg.goal.arrival_radius == 0.5
    assert (cfg.weights.w_h, cfg.weights.w_d, cfg.weights.alpha) == (1.0, 1.0, 0.5)
    assert len(cfg.actions) == 6
    assert cfg.actions.actions[0].v == 0.2
    assert cfg.actions.actions[0].omega == pytest.approx(math.radians(-25.0))
    assert cfg.models.motion.sigma_theta == pytest.approx(math.radians(0.15))
    assert cfg.models.sensor.sigma_z == 150.0
    assert np.allclose(
        np.diag(cfg.prior_cov), [0.01, 0.01, math.radians(5.0) ** 2]
    )  # defaults: sigma 0.1, 0.1, 5 deg
    assert cfg.n_particles == 150
    assert (cfg.eer_params.m_count, cfg.eer_params.horizon_steps) == (20, 5)
    assert (cfg.models.dt, cfg.step_budget, cfg.seed) == (0.1, 12, 0)


def test_build_episode_optional_keys(tmp_path):
    raw = dict(
        BASE,
        **{
            "filter.prior_sigma_x": "0.3",
            "filter.prior_sigma_y": "0.2",
            "filter.prior_sigma_theta_deg": "10.0",
        },
    )
    cfg = build_episode_config(raw, str(tmp_path))
    assert np.allclose(
        np.diag(cfg.prior_cov), [0.09, 0.04, math.radians(10.0) ** 2]
    )


def test_build_episode_default_arrival_radius(tmp_path):
    cfg = build_episode_config(without("goal.arrival_radius"), str(tmp_path))
    assert cfg.goal.arrival_radius == 0.1


def test_seed_override_wins(tmp_path):
    cfg = build_episode_config(BASE, str(tmp_path), seed_override=314)
    assert cfg.seed == 314


def test_build_episode_missing_required_key(tmp_path):
    with pytest.raises(ConfigError, match="missing required key 'planner.w_h'"):
        build_episode_config(without("planner.w_h"), str(tmp_path))


def test_build_episode_bad_number(tmp_path):
    with pytest.raises(ConfigError, match="bad float value"):
        build_episode_config(dict(BASE, **{"planner.w_h": "high"}), str(tmp_path))
    with pytest.raises(ConfigError, match="bad int value"):
        build_episode_config(dict(BASE, **{"sim.seed": "0.5"}), str(tmp_path))
    # One number grammar: no digit separators, no non-ASCII digits, and an int
    # takes no decimal point or exponent. Only a list's final entry may be empty.
    cases = [("planner.w_h", "float"), ("sim.seed", "int"), ("actions.omegas_deg", "float_list")]
    bad = ["1_0", FULLWIDTH_42, "5, 1_0", "-25, , 25"]
    for (key, kind), value in itertools.product(cases, bad):
        with pytest.raises(ConfigError, match=f"key '{key}': bad {kind} value '{value}'"):
            build_episode_config(dict(BASE, **{key: value}), str(tmp_path))
    for value in ("1_0", FULLWIDTH_42, "0, 1.0", "1e0", ",1,2"):
        with pytest.raises(ConfigError, match=f"key 'sweep.seeds': bad int_list value '{value}'"):
            sweep_params(dict(BASE, **{"sweep.w_h_values": "0", "sweep.seeds": value}))
    for value in ("1.0", "1e0"):
        with pytest.raises(ConfigError, match=f"key 'sim.seed': bad int value '{value}'"):
            build_episode_config(dict(BASE, **{"sim.seed": value}), str(tmp_path))


def test_build_episode_empty_action_list(tmp_path):
    with pytest.raises(ConfigError, match="omegas_deg"):
        build_episode_config(dict(BASE, **{"actions.omegas_deg": ","}), str(tmp_path))


def test_build_episode_domain_violation_wrapped(tmp_path):
    with pytest.raises(ConfigError, match="invalid episode configuration"):
        build_episode_config(dict(BASE, **{"sim.step_budget": "0"}), str(tmp_path))
    for dt in ("0", "inf"):
        with pytest.raises(ConfigError, match="invalid episode configuration: dt must be"):
            build_episode_config(dict(BASE, **{"sim.dt": dt}), str(tmp_path))
    for key, value, fragment in (
        ("planner.alpha", "2", "alpha"),
        ("start.x", "nan", "pose"),
        ("goal.arrival_radius", "0", "arrival_radius"),
        ("actions.v", "nan", "control"),
        ("noise.motion_sigma_x", "-1", "motion sigmas"),
        ("noise.sensor_sigma_z", "0", "sigma_z"),
    ):
        with pytest.raises(ConfigError, match=f"invalid episode configuration: {fragment}"):
            build_episode_config(dict(BASE, **{key: value}), str(tmp_path))


def test_float_list_tolerates_spacing_and_trailing_comma(tmp_path):
    cfg = build_episode_config(
        dict(BASE, **{"actions.omegas_deg": " -10 ,0,  10 , "}), str(tmp_path)
    )
    assert [a.omega for a in cfg.actions.actions] == pytest.approx(
        [math.radians(-10.0), 0.0, math.radians(10.0)]
    )


# --- sweep parameters ---


def test_sweep_params_parsed():
    raw = dict(BASE, **{"sweep.w_h_values": "0, 0.5, 1, 5, 10", "sweep.seeds": "0,1,2"})
    w_h, seeds = sweep_params(raw)
    assert w_h == [0.0, 0.5, 1.0, 5.0, 10.0]
    assert seeds == [0, 1, 2]


def test_sweep_params_missing_or_empty():
    with pytest.raises(ConfigError, match="missing required key"):
        sweep_params(BASE)
    with pytest.raises(ConfigError, match="nonempty"):
        sweep_params(dict(BASE, **{"sweep.w_h_values": ",", "sweep.seeds": "1"}))
    for w_h in ("-1, 0", "0, nan", "inf"):
        with pytest.raises(ConfigError, match="sweep.w_h_values: w_h must be"):
            sweep_params(dict(BASE, **{"sweep.w_h_values": w_h, "sweep.seeds": "0"}))
    with pytest.raises(ConfigError, match="sweep.seeds must all be >= 0, got -2"):
        sweep_params(dict(BASE, **{"sweep.w_h_values": "0", "sweep.seeds": "0, -2"}))
