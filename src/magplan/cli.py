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

from . import __version__, simloop, tlcal
from .config import (
    ConfigError,
    build_episode_config,
    build_synthetic_map,
    config_hash,
    load_config,
    sweep_params,
)
from .infogain import iqr_reject
from .magmap import MapError, save_map
from .simloop import EpisodeError, StepFailure
from .tlcal import CalibrationError

# Mean planning-step time `magplan benchmark` must stay under.
PLANNING_BUDGET_MS = 100.0


def _say(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message)


def _fmt(v: float) -> str:
    return repr(float(v))


def _out_dir(args: argparse.Namespace) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _provenance(cfg: dict[str, str], seed: int) -> dict[str, str]:
    return {
        "config_hash": config_hash(cfg),
        "seed": str(seed),
        "magplan_version": __version__,
    }


def cmd_genmap(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    grid = build_synthetic_map(cfg)
    path = os.path.join(_out_dir(args), "map.magmap")
    save_map(grid, path)
    _say(args, f"wrote {grid.width}x{grid.height} map to {path}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    samples, be_truth = tlcal.load_maglog(args.log)
    if be_truth is None:
        raise CalibrationError(
            "calibration needs the be_truth column on every log row"
        )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", tlcal.ExcitationWarning)
        coeffs = tlcal.fit(samples, be_truth)
    rms = tlcal.residual_rms(samples, be_truth, coeffs)
    out = _out_dir(args)
    coef_path = os.path.join(out, "coefficients.tlcoef")
    tlcal.save_coefficients(coeffs, coef_path)
    excitation = [str(w.message) for w in caught]
    report_path = os.path.join(out, "calibration_report.txt")
    with open(report_path, "w", encoding="ascii") as fh:
        fh.write("magplan calibration report\n")
        fh.write(f"log: {args.log}\n")
        fh.write(f"samples: {len(samples)}\n")
        fh.write(f"usable_rows: {len(samples) - 1}\n")
        fh.write(f"residual_rms_nt: {_fmt(rms)}\n")
        fh.write(f"coefficients: {coef_path}\n")
        if excitation:
            for msg in excitation:
                fh.write(f"warning: {msg}\n")
        else:
            fh.write("warnings: none\n")
    _say(args, f"fit {len(samples) - 1} rows, residual RMS {rms:.6g} nT")
    for msg in excitation:
        _say(args, f"warning: {msg}")
    _say(args, f"wrote {coef_path} and {report_path}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    episode = build_episode_config(
        cfg, os.path.dirname(os.path.abspath(args.config)), args.seed
    )
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


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    base = build_episode_config(
        cfg, os.path.dirname(os.path.abspath(args.config)), args.seed
    )
    w_h_values, seeds = sweep_params(cfg)
    result = simloop.sweep(base, w_h_values, seeds)
    out = _out_dir(args)
    for cell in result.cells:
        if cell.trace is None:
            _say(args, f"w_h={cell.w_h:g} seed={cell.seed}: FAILED ({cell.error})")
            continue
        prov = _provenance(cfg, cell.seed)
        prov["w_h"] = _fmt(cell.w_h)
        name = f"trace_wh{cell.w_h:g}_seed{cell.seed}.csv"
        simloop.write_trace(cell.trace, os.path.join(out, name), prov)
        note = "goal" if cell.trace.reached_goal else "budget"
        _say(
            args,
            f"w_h={cell.w_h:g} seed={cell.seed}: {len(cell.trace)} steps ({note})",
        )
    summary_path = os.path.join(out, "summary.csv")
    simloop.write_summary(result, summary_path, _provenance(cfg, base.seed))
    _say(args, f"wrote {summary_path}")
    failures = sum(1 for c in result.cells if c.trace is None)
    return 1 if failures else 0


def cmd_export(args: argparse.Namespace) -> int:
    data = simloop.read_trace(args.trace)
    out = _out_dir(args)
    path = os.path.join(out, f"export_{args.kind}.csv")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# magplan-export {args.kind} v1\n")
        fh.write(f"# source: {os.path.basename(args.trace)}\n")
        fh.write(f"# magplan_version: {__version__}\n")
        n = data.step.shape[0]
        if args.kind == "trajectory":
            fh.write("step,time_s,truth_x,truth_y,est_x,est_y\n")
            for i in range(n):
                fh.write(
                    f"{data.step[i]},{_fmt(data.time_s[i])},"
                    f"{_fmt(data.truth[i, 0])},{_fmt(data.truth[i, 1])},"
                    f"{_fmt(data.est[i, 0])},{_fmt(data.est[i, 1])}\n"
                )
        elif args.kind == "detcov":
            fh.write("step,time_s,detcov\n")
            for i in range(n):
                fh.write(
                    f"{data.step[i]},{_fmt(data.time_s[i])},"
                    f"{_fmt(data.det_pos_cov[i])}\n"
                )
        else:
            filtered = (
                iqr_reject(data.entropy_bits) if n >= 4 else data.entropy_bits
            )
            fh.write("step,time_s,entropy_raw,entropy_filtered\n")
            for i in range(n):
                fh.write(
                    f"{data.step[i]},{_fmt(data.time_s[i])},"
                    f"{_fmt(data.entropy_bits[i])},{_fmt(filtered[i])}\n"
                )
    _say(args, f"wrote {path}")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    episode = build_episode_config(
        cfg, os.path.dirname(os.path.abspath(args.config)), args.seed
    )
    result = simloop.benchmark_planning(episode, args.steps)
    out = _out_dir(args)
    path = os.path.join(out, "benchmark.txt")
    lines = [
        "magplan planning benchmark",
        f"steps_timed: {len(result.times_ms)}",
        f"n_particles: {result.n_particles}",
        f"eer_hypotheses: {result.m_count}",
        f"horizon_steps: {result.horizon_steps}",
        f"n_actions: {result.n_actions}",
        f"mean_ms: {result.mean_ms:.3f}",
        f"max_ms: {result.max_ms:.3f}",
        f"budget_ms: {PLANNING_BUDGET_MS}",
        f"within_budget: {'yes' if result.mean_ms < PLANNING_BUDGET_MS else 'no'}",
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines[1:]:
        _say(args, line)
    _say(args, f"wrote {path}")
    return 0


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
        "--seed", type=int, default=None, help="override the config's sim.seed"
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

    p = sub.add_parser(
        "sweep", parents=[common, seeded], help="run the w_h x seed episode grid"
    )
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
    p.add_argument("--steps", type=int, default=50, help="planning steps to time")
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
