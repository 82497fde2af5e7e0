"""Per-layer tracing of magplan from outside the package.

`Tracer.install` wraps each function in `TARGETS` by rebinding the name at
every import site inside the loaded `magplan.*` modules (for example both
`magplan.infogain.eer` and `magplan.planner.eer`), or on the class for a
method. Each wrapped call records a span (id, parent id, group id, name,
start, end) in memory and adds to the function's call count, total time and
self time, where self time is the call's duration minus the time of the
wrapped calls made inside it. `Tracer.uninstall` restores every original
binding, so the same process can run the same work untraced and traced.

A target that no longer exists in the package is reported as absent with
zero calls rather than failing the run.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time

# (metric prefix, module, attribute or Class.method)
TARGETS = (
    ("config.load_config", "magplan.config", "load_config"),
    ("config.build_episode_config", "magplan.config", "build_episode_config"),
    ("magmap.sample_points", "magplan.magmap", "sample_points"),
    ("models.motion_mean_array", "magplan.models", "motion_mean_array"),
    ("models.step_motion_array", "magplan.models", "step_motion_array"),
    ("models.transition_log_density_matrix", "magplan.models",
     "transition_log_density_matrix"),
    ("models.measurement_log_likelihood_array", "magplan.models",
     "measurement_log_likelihood_array"),
    ("pflocal.init", "magplan.pflocal", "init"),
    ("pflocal.predict", "magplan.pflocal", "predict"),
    ("pflocal.update", "magplan.pflocal", "update"),
    ("pflocal.estimate", "magplan.pflocal", "estimate"),
    ("pflocal.effective_sample_size", "magplan.pflocal", "effective_sample_size"),
    ("pflocal.resample_if_needed", "magplan.pflocal", "resample_if_needed"),
    ("pflocal.ParticleBelief.post_init", "magplan.pflocal",
     "ParticleBelief.__post_init__"),
    ("pflocal.GaussianSummary.post_init", "magplan.pflocal",
     "GaussianSummary.__post_init__"),
    ("infogain.logsumexp", "magplan.infogain", "logsumexp"),
    ("infogain.entropy_posterior", "magplan.infogain", "entropy_posterior"),
    ("infogain.entropy_predicted", "magplan.infogain", "entropy_predicted"),
    ("infogain.build_hypotheses", "magplan.infogain", "build_hypotheses"),
    ("infogain.eer", "magplan.infogain", "eer"),
    ("planner.select_action", "magplan.planner", "select_action"),
    ("simloop.EpisodeRunner.plan", "magplan.simloop", "EpisodeRunner.plan"),
    ("simloop.EpisodeRunner.advance_truth", "magplan.simloop",
     "EpisodeRunner.advance_truth"),
    ("simloop.EpisodeRunner.measure", "magplan.simloop", "EpisodeRunner.measure"),
    ("simloop.EpisodeRunner.assimilate", "magplan.simloop",
     "EpisodeRunner.assimilate"),
    ("simloop.compute_metrics", "magplan.simloop", "compute_metrics"),
    ("simloop.write_trace", "magplan.simloop", "write_trace"),
    ("simloop.write_metrics", "magplan.simloop", "write_metrics"),
    ("tlcal.load_maglog", "magplan.tlcal", "load_maglog"),
    ("tlcal.build_regressor_matrix", "magplan.tlcal", "build_regressor_matrix"),
    ("tlcal.fit", "magplan.tlcal", "fit"),
    ("tlcal.compensate_log", "magplan.tlcal", "compensate_log"),
)

# Counters read off the arguments, result or exception of one call.
COUNTS = (
    "planner.actions",
    "planner.failed_actions",
    "models.transition_log_density_matrix.elements",
    "magmap.sample_points.points",
    "pflocal.resamples",
    "pflocal.collapses",
    "simloop.write_trace.bytes",
    "tlcal.build_regressor_matrix.rows",
    "warnings",
)


def _count_select_action(counts, args, kwargs, result, exc):
    if result is not None:
        counts["planner.actions"] += len(result.diagnostics)
        counts["planner.failed_actions"] += sum(
            1 for d in result.diagnostics if math.isnan(d.eer_bits)
        )


def _count_elements(counts, args, kwargs, result, exc):
    if result is not None:
        counts["models.transition_log_density_matrix.elements"] += int(result.size)


def _count_points(counts, args, kwargs, result, exc):
    if result is not None:
        counts["magmap.sample_points.points"] += int(result.size)


def _count_resample(counts, args, kwargs, result, exc):
    if result is not None and args and result is not args[0]:
        counts["pflocal.resamples"] += 1


def _count_collapse(counts, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "WeightCollapseError":
        counts["pflocal.collapses"] += 1


def _count_trace_bytes(counts, args, kwargs, result, exc):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if exc is None and path is not None:
        counts["simloop.write_trace.bytes"] += os.path.getsize(path)


def _count_rows(counts, args, kwargs, result, exc):
    if result is not None:
        counts["tlcal.build_regressor_matrix.rows"] += int(result.shape[0])


HOOKS = {
    "planner.select_action": _count_select_action,
    "models.transition_log_density_matrix": _count_elements,
    "magmap.sample_points": _count_points,
    "pflocal.resample_if_needed": _count_resample,
    "pflocal.update": _count_collapse,
    "simloop.write_trace": _count_trace_bytes,
    "tlcal.build_regressor_matrix": _count_rows,
}


class Tracer:
    """In-memory spans and per-function aggregates for one traced pass."""

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.group = 0
        self.spans: list[tuple] = []
        self.stats = {label: [0, 0.0, 0.0] for label, _, _ in TARGETS}
        self.counts = {name: 0 for name in COUNTS}
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self.t0 = time.perf_counter()

    def _wrap(self, label, fn):
        stat = self.stats[label]
        hook = HOOKS.get(label)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if tracer.keep_spans:
                    tracer.spans.append(
                        (span_id, parent, tracer.group, label, start, end)
                    )
                if hook is not None:
                    hook(tracer.counts, args, kwargs, result, exc)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        traced.__qualname__ = getattr(fn, "__qualname__", label)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        modules = {}
        for _, module_name, _ in TARGETS:
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                pass
        sites = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "magplan" or name.startswith("magplan."))
        ]
        for label, module_name, attr in TARGETS:
            class_name, _, name = attr.rpartition(".")
            owner = modules.get(module_name)
            if owner is not None and class_name:
                owner = getattr(owner, class_name, None)
            orig = None if owner is None else vars(owner).get(name)
            if orig is None:
                self.absent.append(label)
                continue
            traced = self._wrap(label, orig)
            for site in [owner] if class_name else sites:
                for key, value in list(vars(site).items()):
                    if value is orig:
                        setattr(site, key, traced)
                        self._patches.append((site, key, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    def count_warning(self, *args, **kwargs) -> None:
        """`warnings.showwarning` replacement: count, do not print."""
        self.counts["warnings"] += 1

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer (value, unit): calls/total_ms/self_ms per target, counters."""
        out: dict[str, tuple[float, str]] = {}
        for label, (calls, total, self_time) in self.stats.items():
            out[f"{label}.calls"] = (calls, "count")
            out[f"{label}.total_ms"] = (total * 1e3, "ms")
            out[f"{label}.self_ms"] = (self_time * 1e3, "ms")
        c = self.counts
        actions = c["planner.actions"]
        out["planner.failed_action_ratio"] = (
            c["planner.failed_actions"] / actions if actions else 0.0, "ratio"
        )
        elements = c["models.transition_log_density_matrix.elements"]
        out["models.transition_log_density_matrix.elements"] = (elements, "count")
        out["models.transition_log_density_matrix.bytes_computed"] = (elements * 8, "bytes")
        out["magmap.sample_points.points"] = (c["magmap.sample_points.points"], "count")
        assimilations = self.stats["pflocal.update"][0]
        out["pflocal.resample_ratio"] = (
            c["pflocal.resamples"] / assimilations if assimilations else 0.0, "ratio"
        )
        out["pflocal.collapses"] = (c["pflocal.collapses"], "count")
        out["simloop.write_trace.bytes"] = (c["simloop.write_trace.bytes"], "bytes")
        out["tlcal.build_regressor_matrix.rows"] = (
            c["tlcal.build_regressor_matrix.rows"], "count"
        )
        out["warnings"] = (c["warnings"], "count")
        return out

    def write_spans(self, path: str) -> None:
        """One CSV row per span, times in microseconds from tracer start."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,group,name,start_us,end_us\n")
            for span_id, parent, group, label, start, end in sorted(self.spans):
                fh.write(
                    f"{span_id},{parent},{group},{label},"
                    f"{(start - self.t0) * 1e6:.1f},{(end - self.t0) * 1e6:.1f}\n"
                )
