"""Command-line entry point.

Subcommands: genmap, calibrate, run, sweep, export, benchmark. Every
subcommand accepts --config/--seed/--out/--quiet where meaningful; exit
codes are 0 on success, 1 on runtime failure, 2 on usage or configuration
errors. All outputs are deterministic given identical inputs.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import Optional, Sequence

from . import __version__, simloop, textio, tlcal
from .config import (
    ConfigError,
    build_episode_config,
    build_synthetic_map,
    config_hash,
    load_config,
    sweep_params,
)
from .magmap import MapError, save_map
from .simloop import EpisodeError, StepFailure
from .tlcal import CalibrationError

# Mean planning-step time `magplan benchmark` must stay under.
PLANNING_BUDGET_MS = 100.0


def _say(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message)


def _out_dir(args: argparse.Namespace) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _load_episode(
    args: argparse.Namespace, seed: Optional[int] = None
) -> tuple[dict[str, str], simloop.EpisodeConfig]:
    """The --config file and the episode it describes, with seed (if any) applied."""
    cfg = load_config(args.config)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    return cfg, build_episode_config(cfg, base_dir, seed)


def _provenance(cfg: dict[str, str], seed: Optional[int] = None) -> dict[str, str]:
    """Preamble keys of an output file; `seed` only for a file of one episode."""
    prov = {"config_hash": config_hash(cfg), "magplan_version": __version__}
    if seed is not None:
        prov["seed"] = str(seed)
    return prov


def cmd_genmap(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    grid = build_synthetic_map(cfg)
    path = os.path.join(_out_dir(args), "map.magmap")
    save_map(grid, path)
    _say(args, f"wrote {grid.width}x{grid.height} map to {path}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    log, be_truth = tlcal.load_maglog(args.log)
    if be_truth is None:
        raise CalibrationError(
            "calibration needs the be_truth column on every log row"
        )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", tlcal.ExcitationWarning)
        coeffs = tlcal.fit(log, be_truth)
    rms = tlcal.residual_rms(log, be_truth, coeffs)
    out = _out_dir(args)
    coef_path = os.path.join(out, "coefficients.tlcoef")
    tlcal.save_coefficients(coeffs, coef_path)
    excitation = [str(w.message) for w in caught]
    report_path = os.path.join(out, "calibration_report.txt")
    textio.write_table(report_path, [
        "magplan calibration report",
        f"log: {args.log}",
        f"samples: {textio.spell(len(log), integer=True)}",
        f"usable_rows: {textio.spell(len(log) - 1, integer=True)}",
        f"residual_rms_nt: {textio.spell(rms)}",
        f"coefficients: {coef_path}",
        *([f"warning: {msg}" for msg in excitation] or ["warnings: none"]),
    ])
    _say(args, f"fit {len(log) - 1} rows, residual RMS {rms:.6g} nT")
    for msg in excitation:
        _say(args, f"warning: {msg}")
    _say(args, f"wrote {coef_path} and {report_path}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg, episode = _load_episode(args, args.seed)
    trace = simloop.run_episode(episode)
    metrics = simloop.compute_metrics(trace)
    out = _out_dir(args)
    prov = _provenance(cfg, episode.seed)
    trace_path = os.path.join(out, "trace.csv")
    metrics_path = os.path.join(out, "metrics.csv")
    simloop.write_trace(trace, trace_path, prov)
    simloop.write_metrics(metrics, metrics_path, prov)
    goal_note = "reached goal" if trace.reached_goal else "budget exhausted"
    _say(
        args,
        f"{len(trace)} steps ({goal_note}), final error "
        f"{metrics.final_error:.4g} m, final det(cov) {metrics.final_det_pos_cov:.4g}",
    )
    _say(args, f"wrote {trace_path} and {metrics_path}")
    return 0


def _trace_name(w_h: float, seed: int) -> str:
    """The trace file of one sweep cell."""
    return f"trace_wh{w_h:g}_seed{seed}.csv"


def _check_trace_names(w_h_values: Sequence[float], seeds: Sequence[int]) -> None:
    """Reject a sweep grid in which two cells would write the same trace file."""
    seen: dict[str, str] = {}
    for w_h in w_h_values:
        for seed in seeds:
            name, cell = _trace_name(w_h, seed), f"w_h={textio.spell(w_h)} seed={seed}"
            if name in seen:
                raise ConfigError(f"sweep cells {seen[name]} and {cell} would both write {name}")
            seen[name] = cell


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg, base = _load_episode(args)
    w_h_values, seeds = sweep_params(cfg)
    _check_trace_names(w_h_values, seeds)
    cells = simloop.sweep(base, w_h_values, seeds)
    out = _out_dir(args)
    for cell in cells:
        if cell.trace is None:
            _say(args, f"w_h={cell.w_h:g} seed={cell.seed}: FAILED ({cell.error})")
            continue
        prov = _provenance(cfg, cell.seed)
        prov["w_h"] = textio.spell(cell.w_h)
        path = os.path.join(out, _trace_name(cell.w_h, cell.seed))
        simloop.write_trace(cell.trace, path, prov)
        note = "goal" if cell.trace.reached_goal else "budget"
        _say(
            args,
            f"w_h={cell.w_h:g} seed={cell.seed}: {len(cell.trace)} steps ({note})",
        )
    summary_path = os.path.join(out, "summary.csv")
    simloop.write_summary(cells, summary_path, _provenance(cfg))
    _say(args, f"wrote {summary_path}")
    failures = sum(1 for c in cells if c.trace is None)
    return 1 if failures else 0


def cmd_export(args: argparse.Namespace) -> int:
    trace = simloop.read_trace(args.trace)
    out = _out_dir(args)
    path = os.path.join(out, f"export_{args.kind}.csv")
    columns = {"time_s": trace["time_s"]}
    if args.kind == "trajectory":
        for name in ("truth_x", "truth_y", "est_x", "est_y"):
            columns[name] = trace[name]
    elif args.kind == "detcov":
        columns["detcov"] = trace["det_pos_cov"]
    else:
        columns["entropy_raw"] = trace["entropy_bits"]
        columns["entropy_filtered"] = simloop.filter_entropy(trace["entropy_bits"])
    prov = {"source": os.path.basename(args.trace), "magplan_version": __version__}
    head = [*textio.preamble(f"export {args.kind}", prov), ",".join(["step", *columns])]
    rows = zip(trace["step"].tolist(), *(c.tolist() for c in columns.values()))
    textio.write_table(path, head, rows, ints=(0,))
    _say(args, f"wrote {path}")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    _, episode = _load_episode(args, args.seed)
    times = simloop.benchmark_planning(episode, args.steps)
    mean_ms = sum(times) / len(times)
    out = _out_dir(args)
    path = os.path.join(out, "benchmark.txt")
    lines = [
        "magplan planning benchmark",
        f"steps_timed: {textio.spell(len(times), integer=True)}",
        f"n_particles: {textio.spell(episode.n_particles, integer=True)}",
        f"eer_hypotheses: {textio.spell(episode.eer_params.m_count, integer=True)}",
        f"horizon_steps: {textio.spell(episode.eer_params.horizon_steps, integer=True)}",
        f"n_actions: {textio.spell(len(episode.actions), integer=True)}",
        # Times to the microsecond: finer digits are timer noise.
        f"mean_ms: {textio.spell(round(mean_ms, 3))}",
        f"max_ms: {textio.spell(round(max(times), 3))}",
        f"budget_ms: {textio.spell(PLANNING_BUDGET_MS)}",
        f"within_budget: {'yes' if mean_ms < PLANNING_BUDGET_MS else 'no'}",
    ]
    textio.write_table(path, lines)
    for line in lines[1:]:
        _say(args, line)
    _say(args, f"wrote {path}")
    return 0


def _int(text: str) -> int:
    """An integer option, in the textio grammar of every integer magplan reads."""
    try:
        return textio.parse_cell(text, int)
    except textio.TextError as exc:
        raise argparse.ArgumentTypeError(exc.reason) from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magplan",
        description=(
            "Particle-filter localization and uncertainty-aware planning "
            "on magnetic anomaly maps"
        ),
    )
    parser.add_argument("--version", action="version", version=f"magplan {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory (default: .)")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--seed", type=_int, default=None, help="override the config's sim.seed"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genmap", parents=[common], help="generate a synthetic map file")
    p.add_argument("--config", required=True, help="config with the map.* spec keys")
    p.set_defaults(func=cmd_genmap)

    p = sub.add_parser(
        "calibrate", parents=[common], help="fit compensation coefficients from a log"
    )
    p.add_argument("log", help="maglog v1 file with the be_truth column")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser(
        "run", parents=[common, seeded], help="run one closed-loop episode"
    )
    p.add_argument("--config", required=True, help="episode config file")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", parents=[common], help="run the w_h x seed episode grid")
    p.add_argument("--config", required=True, help="episode config with sweep.* keys")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "export", parents=[common], help="convert a trace into plot-ready CSV"
    )
    p.add_argument("trace", help="trace.csv produced by run or sweep")
    p.add_argument(
        "--kind",
        required=True,
        choices=("trajectory", "detcov", "entropy"),
        help="which plot data to emit",
    )
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "benchmark",
        parents=[common, seeded],
        help="time the planning step against the 100 ms budget",
    )
    p.add_argument("--config", required=True, help="episode config file")
    p.add_argument(
        "--steps", type=_positive_int, default=50, help="planning steps to time"
    )
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StepFailure as exc:
        print(f"error: episode failed at {exc}", file=sys.stderr)
        return 1
    except (EpisodeError, MapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
