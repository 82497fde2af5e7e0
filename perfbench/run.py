"""Layered benchmark of magplan: three closed-loop workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; magplan is imported from `src/`
there and nowhere else, so a directory without the sources fails with a
non-zero exit and no result. Workloads (see each module's docstring):

  sweep_cells   closed-loop episodes of the peak_sweep.cfg grid (planner-bound)
  dense_filter  the particle filter alone at N=2000 (N x N entropy-bound)
  calibrate     load, fit and compensate a 10,000-row maglog (tlcal-bound)

Each workload runs in this one process, with BLAS threads capped at the
number of CPUs the process may use. Every step waits for the one before it
(closed loop, one client). Inputs are derived from --seed only.

With --trace 0 the run measures for --seconds and reports the end-to-end
metrics. The unit operation `op` is one closed-loop step (sweep_cells), one
assimilation (dense_filter) or one load+fit+compensate pass (calibrate); an
`item` is one episode with its output files, one three-step filter run, or
one log row. Before each op the run times its workload's reference kernel
(see reference.py); `ref` is that time, so costs follow the program rather
than the shared host's momentary speed:

  setup_s         median of 5 set-ups: this process's and 4 fresh processes'
                  import + config/map build + pflocal.init, up to the first
                  timed operation (input synthesis excluded); wall seconds
  peak_rss_mb     ru_maxrss of this process
  op_cost_p50/p75 op wall time / reference time, median and 75th percentile
                  (calibrate has about 85 ops in a run, too few for a p90)
  items_per_kref  items completed per 1000 reference times

Raw wall-clock figures under the names the workloads use (step_ms_p50,
plan_ms_p90, episodes_per_s, assimilate_ms_p50, calib_rows_per_s, ...) and
failed_ratio are printed above the result line.

With --trace 1 the run repeats a fixed, seed-derived amount of work
untraced and then traced (see tracer.py) until --seconds have passed, and
reports per-layer calls, total and self time (medians over traced passes;
counts must repeat exactly across passes), counters, and the tracing
overhead. Spans of the first traced pass go to
`.bench_out/spans-<workload>-seed<N>.csv`.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Each run also writes its result and provenance to
`.bench_out/result-<workload>-seed<N>-trace<T>.json`.

`python3 perfbench/run.py --record-fingerprint` rewrites the sweep_cells
reference (perfbench/fingerprint.json) from the current sources.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_cells", "dense_filter", "calibrate")
SETUP_PROBES = 4
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
MAX_NOTES = 20
TOP_SELF = 8  # traced runs print the functions with the most self time


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or inputs)."""


class Ctx:
    """What a workload needs from the harness: paths, seed, op marks, notes."""

    def __init__(self, seed: int, out_dir: str):
        self.root = ROOT
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = None
        self.reference = None
        self.ops = 0
        self.notes: list[str] = []
        self.provenance: dict = {"config_hash": {}}

    def op(self) -> None:
        """Mark the start of one unit operation; its spans share this id.

        In a measured run this also times one reference-kernel call, so a
        workload records exactly one op time per op() call.
        """
        self.ops += 1
        if self.tracer is not None:
            self.tracer.group = self.ops
        if self.reference is not None:
            self.reference.measure()

    def clock(self) -> float:
        """perf_counter() less the time spent in reference calls."""
        spent = self.reference.spent_s if self.reference is not None else 0.0
        return time.perf_counter() - spent

    def ref_units(self, seconds: float) -> float:
        """A duration in units of the latest reference time (0 when unmeasured)."""
        if self.reference is None or not self.reference.ms:
            return 0.0
        return seconds * 1e3 / self.reference.ms[-1]

    def note(self, message: str) -> None:
        self.notes.append(message)

    @staticmethod
    def pct(values, q: int) -> float:
        if not values:
            return 0.0
        if len(values) == 1:
            return float(values[0])
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cap_blas_threads() -> int:
    cap = len(os.sched_getaffinity(0))
    for name in BLAS_ENV:
        os.environ[name] = str(cap)
    return cap


def import_workload(name: str):
    """Import the workload (and with it magplan) from this checkout's src/."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "magplan", "__init__.py")):
        raise BenchError(f"no magplan sources under {src}")
    sys.path.insert(0, src)
    module = importlib.import_module(name)
    import magplan

    if not os.path.abspath(magplan.__file__).startswith(src + os.sep):
        raise BenchError(f"magplan imported from {magplan.__file__}, not {src}")
    return module


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256() -> str:
    pkg = os.path.join(ROOT, "src", "magplan")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(ctx: Ctx, args, blas_cap: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_cap,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        **ctx.provenance,
    }


def timed_setup(module_name: str, ctx: Ctx):
    """Import and set up; returns (module, state, seconds of set-up)."""
    t0 = time.perf_counter()
    module = import_workload(module_name)
    state = module.setup(ctx)
    return module, state, time.perf_counter() - t0


def prepared_setup(module_name: str, ctx: Ctx):
    """timed_setup, then the workload's untimed input synthesis, if any."""
    module, state, setup_s = timed_setup(module_name, ctx)
    if hasattr(module, "prepare"):
        module.prepare(ctx)
    return module, state, setup_s


def probe_setup(args) -> float:
    """Set-up time of a fresh process, which runs this file with --setup-probe."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_untraced(args, ctx: Ctx):
    from reference import Reference

    module, state, setup_s = prepared_setup(args.workload, ctx)
    ctx.reference = Reference(module.REFERENCE)
    deadline = time.perf_counter() + args.seconds
    res = module.measure(state, ctx, deadline)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    ref_ms = ctx.reference.ms
    if len(ref_ms) != len(res["op_ms"]):
        raise BenchError(f"{len(res['op_ms'])} op times for {len(ref_ms)} op() calls")
    cost = [op / ref for op, ref in zip(res["op_ms"], ref_ms)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_cost_p50": (ctx.pct(cost, 50), "ref"),
        "op_cost_p75": (ctx.pct(cost, 75), "ref"),
        "items_per_kref": (
            1e3 * res["items"] / res["items_refs"] if res["items_refs"] else 0.0, "1/kref"
        ),
    }
    attempted, failed = res["attempted"], res["failed"]
    report = {
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "failed_ratio": (failed / attempted, "ratio"),
        **res["report"],
        "op_samples": (len(res["op_ms"]), "count"),
        f"reference_{ctx.reference.kind}_ms_p50": (ctx.pct(ref_ms, 50), "ms"),
    }
    return attempted, failed, metrics, report


def _traced_pass(module, ctx, keep_spans: bool):
    from tracer import Tracer

    tracer = Tracer(keep_spans=keep_spans)
    ctx.tracer = tracer
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = tracer.count_warning
        tracer.install()
        t0 = time.perf_counter()
        try:
            attempted, failed = module.fixed_pass(ctx)
        finally:
            elapsed = time.perf_counter() - t0
            tracer.uninstall()
            ctx.tracer = None
    return tracer, elapsed, attempted, failed


def run_traced(args, ctx: Ctx):
    module, _, _ = prepared_setup(args.workload, ctx)
    deadline = time.perf_counter() + args.seconds
    attempted = failed = 0
    untraced, traced, passes = [], [], []
    first = None
    # Pairs of one untraced and one traced pass, alternating which runs
    # first, while another pair still fits before the deadline.
    while not passes or time.perf_counter() + untraced[-1] + traced[-1] < deadline:
        for is_traced in (bool(len(passes) % 2), not len(passes) % 2):
            if is_traced:
                tracer, elapsed, a, f = _traced_pass(module, ctx, keep_spans=not passes)
                traced.append(elapsed)
            else:
                t0 = time.perf_counter()
                a, f = module.fixed_pass(ctx)
                untraced.append(time.perf_counter() - t0)
            attempted += a
            failed += f
        values = tracer.metrics()
        if first is None:
            first = tracer
        else:
            attempted += 1
            # Everything but times is a count of work and must repeat exactly.
            changed = [k for k, (v, unit) in values.items()
                       if unit != "ms" and v != passes[0][k][0]]
            if changed:
                failed += 1
                ctx.note(f"counts changed between traced passes: {changed[:5]}")
        passes.append(values)
    first.write_spans(
        os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.csv")
    )
    metrics = {
        key: (statistics.median(p[key][0] for p in passes), unit)
        if unit == "ms" else (value, unit)
        for key, (value, unit) in passes[0].items()
    }
    overhead = [t - u for t, u in zip(traced, untraced)]
    metrics["trace.untraced_s"] = (statistics.median(untraced), "s")
    metrics["trace.traced_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    report = {
        "trace.passes": (len(passes), "count"),
        "trace.untraced_s": metrics["trace.untraced_s"],
        "trace.overhead_s": metrics["trace.overhead_s"],
        "trace.absent": (len(first.absent), "count"),
    }
    self_ms = sorted(
        (k for k in metrics if k.endswith(".self_ms")), key=lambda k: -metrics[k][0]
    )
    report.update((k, metrics[k]) for k in self_ms[:TOP_SELF])
    for label in first.absent:
        ctx.note(f"traced function absent: {label}")
    return attempted, failed, metrics, report


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-fingerprint", action="store_true",
                   help="rewrite perfbench/fingerprint.json from the current sources")
    args = p.parse_args(argv)
    if args.workload is None and not args.record_fingerprint:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_cap = cap_blas_threads()
    out_dir = os.path.join(ROOT, ".bench_out", f"work-{os.getpid()}")
    try:
        os.makedirs(out_dir, exist_ok=True)
        ctx = Ctx(args.seed, out_dir)
        if args.record_fingerprint:
            print(import_workload("sweep_cells").record_fingerprint(ctx))
            return 0
        if args.setup_probe:
            _, _, setup_s = timed_setup(args.workload, ctx)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        run = run_traced if args.trace else run_untraced
        attempted, failed, metrics, report = run(args, ctx)
        prov = provenance(ctx, args, blas_cap)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for note in ctx.notes[:MAX_NOTES]:
        print(f"note: {note}")
    for name, (value, unit) in report.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(
        os.path.join(ROOT, ".bench_out",
                     f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        "w", encoding="ascii",
    ) as fh:
        json.dump({**result, "report": report, "provenance": prov}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
