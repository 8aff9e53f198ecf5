"""Tracing fixiter from outside the package, for the benchmark's traced run.

``Tracer.install()`` wraps every public function in every fixiter module
namespace that holds it (``schemes``, ``analysis`` and ``cli`` import
``apply_power``, ``run_scheme`` and others by name, so each binding is
replaced), plus a few methods.  Each wrapped call inside an op records a span
(name, start, end, parent span, op) in memory; hot leaf helpers are only
counted.  Two counts need more than a wrapper on a public name:

* evaluator applications: the ``apply`` and ``power`` callables handed to
  ``build_mapping`` are wrapped, and each application is filed as a
  build probe, a scheme update (charged) or a ``run_scheme`` diagnostic;
* ball draws: ``unit_ball_points`` receives a counting proxy of its
  ``Generator``, which forwards every call, so the seeded stream is unchanged.

Counts are kept per op and dropped for an op that misses its deadline, so
every reported count repeats exactly from run to run.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import linecache
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import fixiter

MODULES = ("space", "schedules", "mappings", "schemes", "analysis", "cli")
# Hot leaf helpers: counted, no span.  Their time stays in the caller's self time.
COUNT_ONLY = {
    "space.combine", "space.domain_membership", "space.norm",
    "mappings.distance_to_fixed_set", "mappings.nearly_nonexpansive_violation",
    "mappings.uniform_lipschitz_violation", "mappings.asymptotically_nonexpansive_violation",
}
SPAN_METHODS = (("space", "NormedSpace", "unit_ball_points"), ("schedules", "Schedule", "at"))
COUNT_METHODS = (("space", "Vector", "__post_init__"), ("space", "NormedSpace", "norm"),
                 ("space", "Box", "contains"), ("space", "Ball", "contains"))

# Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = [
    ("space.vector_constructions", "count", "lower"),
    ("space.norm_calls", "count", "lower"),
    ("space.contains_calls", "count", "lower"),
    ("space.ball_draws", "count", "lower"),
    ("space.ball_kept", "count", "higher"),
    ("space.ball_accept_ratio", "ratio", "higher"),
    ("space.unit_ball_points_self_s", "s", "lower"),
    ("space.modulus_self_s", "s", "lower"),
    ("space.modulus_pairs", "count", "higher"),
    ("schedules.at_calls", "count", "lower"),
    ("schedules.at_self_s", "s", "lower"),
    ("mappings.build_calls", "count", "lower"),
    ("mappings.build_self_s", "s", "lower"),
    ("mappings.build_probe_applications", "count", "lower"),
    ("mappings.apply_power_calls", "count", "lower"),
    ("mappings.apply_power_self_s", "s", "lower"),
    ("mappings.evaluator_applications", "count", "lower"),
    ("mappings.certify_calls", "count", "lower"),
    ("mappings.certify_pairs", "count", "higher"),
    ("mappings.certify_self_s", "s", "lower"),
    ("mappings.certify_us_per_pair", "us", "lower"),
    ("schemes.run_calls", "count", "lower"),
    ("schemes.run_self_s", "s", "lower"),
    ("schemes.steps", "count", "higher"),
    ("schemes.us_per_step", "us", "lower"),
    ("schemes.charged_applications", "count", "lower"),
    ("schemes.diagnostic_applications", "count", "lower"),
    ("schemes.diagnostic_share", "ratio", "lower"),
    ("schemes.validate_schedule_self_s", "s", "lower"),
    ("schemes.csv_write_self_s", "s", "lower"),
    ("schemes.csv_bytes", "bytes", "lower"),
    ("analysis.condition_I_calls", "count", "lower"),
    ("analysis.condition_I_points", "count", "higher"),
    ("analysis.condition_I_self_s", "s", "lower"),
    ("analysis.condition_I_repeat_ratio", "ratio", "lower"),
    ("analysis.verify_self_s", "s", "lower"),
    ("analysis.compare_self_s", "s", "lower"),
    ("cli.parse_self_s", "s", "lower"),
    ("cli.build_self_s", "s", "lower"),
    ("cli.run_checks_self_s", "s", "lower"),
    ("cli.cmd_self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.reconcile_mismatches", "count", "lower"),
]

# Self-time metrics: the span names (fnmatch patterns) whose self times they sum.
SELF_TIMES = {
    "space.unit_ball_points_self_s": ["space.NormedSpace.unit_ball_points"],
    "space.modulus_self_s": ["space.modulus_of_convexity_estimate"],
    "schedules.at_self_s": ["schedules.Schedule.at"],
    "mappings.build_self_s": ["mappings.build_mapping", "mappings.get_mapping", "mappings.make_*"],
    "mappings.apply_power_self_s": ["mappings.apply_power"],
    "mappings.certify_self_s": ["mappings.certify_*"],
    "schemes.run_self_s": ["schemes.run_scheme"],
    "schemes.validate_schedule_self_s": ["schemes.validate_schedule"],
    "schemes.csv_write_self_s": ["schemes.write_trajectory_csv", "schemes.trajectory_csv_rows"],
    "analysis.condition_I_self_s": ["analysis.certify_condition_I"],
    "analysis.verify_self_s": ["analysis.verify_theorem3*", "analysis.check_lemma21"],
    "analysis.compare_self_s": ["analysis.compare_schemes"],
    "cli.parse_self_s": ["cli.main", "cli.build_parser", "cli.parse_scenario", "cli.*_from_dict"],
    "cli.build_self_s": ["cli.build_mapping_for", "cli.build_run_config", "cli.preflight_checks"],
    "cli.run_checks_self_s": ["cli.run_checks"],
    "cli.cmd_self_s": ["cli.cmd_*"],
}
# Count metrics: the counter keys they sum.
COUNTS = {
    "space.vector_constructions": ["space.Vector.__post_init__"],
    "space.norm_calls": ["space.NormedSpace.norm"],
    "space.contains_calls": ["space.Box.contains", "space.Ball.contains"],
    "space.ball_draws": ["space.ball_draws"],
    "space.ball_kept": ["space.ball_kept"],
    "space.modulus_pairs": ["space.modulus_pairs"],
    "schedules.at_calls": ["schedules.Schedule.at"],
    "mappings.build_calls": ["mappings.build_mapping"],
    "mappings.build_probe_applications": ["mappings.build_probe_applications"],
    "mappings.apply_power_calls": ["mappings.apply_power"],
    "mappings.evaluator_applications": ["mappings.evaluator_applications"],
    "mappings.certify_calls": ["mappings.certify_nonexpansive", "mappings.certify_uniform_lipschitz",
                               "mappings.certify_asymptotically_nonexpansive",
                               "mappings.certify_nearly_nonexpansive"],
    "mappings.certify_pairs": ["mappings.nearly_nonexpansive_violation",
                               "mappings.uniform_lipschitz_violation",
                               "mappings.asymptotically_nonexpansive_violation"],
    "schemes.run_calls": ["schemes.run_scheme"],
    "schemes.steps": ["schemes.steps"],
    "schemes.charged_applications": ["schemes.charged_applications"],
    "schemes.diagnostic_applications": ["schemes.diagnostic_applications"],
    "analysis.condition_I_calls": ["analysis.certify_condition_I"],
    "analysis.condition_I_points": ["analysis.condition_I_points"],
}


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap and
    their durations add up; a grandchild is already inside its parent.
    """
    dur = end - start
    inner = parent >= 0
    covered = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
    return dur - covered


class _CountingRng:
    """Forwards to a numpy Generator, counting the rows of every 2-D draw."""

    def __init__(self, rng, counts: Counter):
        self._rng = rng
        self._counts = counts

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def draw(*args, **kwargs):
            out = attr(*args, **kwargs)
            if isinstance(out, np.ndarray) and out.ndim == 2:
                self._counts["space.ball_draws"] += out.shape[0]
            return out

        return draw


class Tracer:
    """Spans and per-op counts for one traced round."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name, self.span_parent, self.span_op = array("i"), array("i"), array("i")
        self.span_start, self.span_end = array("d"), array("d")
        self.stack: list[int] = []
        self.op = -1  # index into op_names while an op runs, else -1 (not recording)
        self.op_names: list[str] = []
        self.counts: Counter = Counter()
        self.totals: Counter = Counter()
        self._in_build = self._in_run = 0
        self._diagnostic = False
        self._condition_keys: set = set()
        self._residual_lines: dict = {}
        self._patches: list = []

    # -- op bookkeeping -----------------------------------------------------

    def begin_op(self, name: str) -> None:
        self.op = len(self.op_names)
        self.op_names.append(name)
        self.counts = Counter()
        self._condition_keys = set()

    def end_op(self, completed: bool) -> None:
        if completed:
            self.totals.update(self.counts)
        self.op = -1

    # -- spans --------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, span: bool = True, enter=None, leave=None):
        tracer, nid = self, self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            tracer.counts[name] += 1
            undo = None
            if enter is not None:
                args, kwargs, undo = enter(args, kwargs)
            if not span:
                return fn(*args, **kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0.0)
            tracer.stack.append(idx)
            tracer.span_start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = time.perf_counter()
                tracer.stack.pop()
                if undo is not None:
                    undo()
            if leave is not None:
                leave(result)
            return result

        return wrapper

    # -- hooks for the calls that need more than a span ---------------------

    def _evaluator(self, fn):
        tracer = self

        def counted(*args):
            if tracer.op >= 0:
                c = tracer.counts
                c["mappings.evaluator_applications"] += 1
                if tracer._in_build:
                    c["mappings.build_probe_applications"] += 1
                elif tracer._in_run:
                    c["schemes.diagnostic_applications" if tracer._diagnostic
                      else "schemes.charged_applications"] += 1
            return fn(*args)

        return counted

    def _hooks(self, name: str, fn) -> dict:
        if name == "mappings.build_mapping":
            sig = inspect.signature(fn)

            def enter(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                for key in ("apply", "power"):
                    if bound.arguments.get(key) is not None:
                        bound.arguments[key] = self._evaluator(bound.arguments[key])
                self._in_build += 1
                return bound.args, bound.kwargs, self._leave_build

            return {"enter": enter}
        if name == "schemes.run_scheme":
            def enter(args, kwargs):
                self._in_run += 1
                return args, kwargs, self._leave_run

            def leave(traj):
                self.counts["schemes.steps"] += traj.steps
                self.counts["schemes.trajectory_applications"] += traj.total_applications

            return {"enter": enter, "leave": leave}
        if name == "mappings.apply_power":
            condition_id = self._id("analysis.certify_condition_I")

            def enter(args, kwargs):
                if self.stack and self.span_name[self.stack[-1]] == condition_id:
                    self.counts["analysis.condition_I_points"] += 1
                if self._in_run and self._is_diagnostic(sys._getframe(2)):
                    self._diagnostic = True
                    return args, kwargs, self._leave_diagnostic
                return args, kwargs, None

            return {"enter": enter}
        if name == "analysis.certify_condition_I":
            sig = inspect.signature(fn)

            def enter(args, kwargs):
                a = sig.bind(*args, **kwargs).arguments
                m, w = a["m"], a["w"]
                key = (m.mapping_id, m.parameters, m.space, getattr(w, "phi", w), a["sample_count"], a["seed"])
                if key in self._condition_keys:
                    self.counts["analysis.condition_I_repeats"] += 1
                self._condition_keys.add(key)
                return args, kwargs, None

            return {"enter": enter}
        if name == "space.modulus_of_convexity_estimate":
            def leave(est):
                self.counts["space.modulus_pairs"] += est.sample_count

            return {"leave": leave}
        if name == "space.NormedSpace.unit_ball_points":
            def enter(args, kwargs):
                space, rng, *rest = args
                return (space, _CountingRng(rng, self.counts), *rest), kwargs, None

            def leave(points):
                self.counts["space.ball_kept"] += len(points)

            return {"enter": enter, "leave": leave}
        return {}

    def _leave_build(self):
        self._in_build -= 1

    def _leave_run(self):
        self._in_run -= 1

    def _leave_diagnostic(self):
        self._diagnostic = False

    def _is_diagnostic(self, frame) -> bool:
        """Whether ``run_scheme`` calls apply_power for a residual column, not the update."""
        if frame.f_code.co_name != "run_scheme":
            return False
        key = (frame.f_code, frame.f_lineno)
        if key not in self._residual_lines:
            line = linecache.getline(frame.f_code.co_filename, frame.f_lineno)
            self._residual_lines[key] = "residual" in line
        return self._residual_lines[key]

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        modules = {short: importlib.import_module(f"fixiter.{short}") for short in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or id(obj) in wrappers):
                    continue
                name = f"{short}.{obj.__name__}"
                wrappers[id(obj)] = self._wrap(name, obj, span=name not in COUNT_ONLY,
                                               **self._hooks(name, obj))
        for ns in [fixiter, *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if not attr.startswith("_") and id(obj) in wrappers:
                    self._patch(ns, attr, wrappers[id(obj)])
        for methods, span in ((SPAN_METHODS, True), (COUNT_METHODS, False)):
            for short, cls_name, meth in methods:
                cls = getattr(modules[short], cls_name, None)
                fn = vars(cls).get(meth) if cls is not None else None
                if fn is None:
                    continue
                name = f"{short}.{cls_name}.{meth}"
                self._patch(cls, meth, self._wrap(name, fn, span=span, **self._hooks(name, fn)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.span_name, dtype=np.int32), np.frombuffer(self.span_parent, dtype=np.int32),
                np.frombuffer(self.span_start), np.frombuffer(self.span_end))

    def write(self, path: Path) -> None:
        """Write the spans out, one column per field."""
        names, parents, starts, ends = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=names, parent=parents,
                            op=np.frombuffer(self.span_op, dtype=np.int32), start=starts, end=ends,
                            ops=np.array(self.op_names))

    def _matching(self, patterns: list[str]) -> np.ndarray:
        hit = [i for i, n in enumerate(self.names) if any(fnmatch.fnmatchcase(n, p) for p in patterns)]
        mask = np.zeros(len(self.names), dtype=bool)
        mask[hit] = True
        return mask

    def layer_metrics(self, cert_pairs_out: int, steps_out: int, csv_bytes: int, output_bytes: int,
                      overhead: float) -> tuple[dict, list[str]]:
        """Per-layer metrics by name, and the reconciliation problems found."""
        names, parents, starts, ends = self._arrays()
        own = self_times(starts, ends, parents) if len(starts) else np.zeros(0)
        per_name = np.bincount(names, weights=own, minlength=len(self.names)) if len(own) else \
            np.zeros(len(self.names))
        values = {m: float(per_name[self._matching(p)].sum()) for m, p in SELF_TIMES.items()}
        t = self.totals
        values.update({m: float(sum(t[k] for k in keys)) for m, keys in COUNTS.items()})

        def inclusive(patterns):
            group = self._matching(patterns)
            if not len(starts):
                return 0.0
            top = group[names] & ~((parents >= 0) & group[names[np.maximum(parents, 0)]])
            return float((ends - starts)[top].sum())

        def ratio(a, b, empty):
            return a / b if b else empty

        values["space.ball_accept_ratio"] = ratio(values["space.ball_kept"], values["space.ball_draws"], 1.0)
        values["mappings.certify_us_per_pair"] = 1e6 * ratio(
            inclusive(SELF_TIMES["mappings.certify_self_s"]), values["mappings.certify_pairs"], 0.0)
        values["schemes.us_per_step"] = 1e6 * ratio(inclusive(["schemes.run_scheme"]), values["schemes.steps"], 0.0)
        charged, diagnostic = values["schemes.charged_applications"], values["schemes.diagnostic_applications"]
        values["schemes.diagnostic_share"] = ratio(diagnostic, charged + diagnostic, 0.0)
        values["analysis.condition_I_repeat_ratio"] = ratio(
            t["analysis.condition_I_repeats"], values["analysis.condition_I_calls"], 0.0)
        values["schemes.csv_bytes"] = float(csv_bytes)
        values["cli.output_bytes"] = float(output_bytes)
        values["trace.overhead"] = overhead
        values["trace.spans"] = float(len(starts))

        problems = []
        pairs = values["mappings.certify_pairs"] + values["analysis.condition_I_points"]
        if pairs != cert_pairs_out:
            problems.append(f"certify_pairs + condition_I_points = {pairs:.0f}, "
                            f"but the certificates report {cert_pairs_out} samples")
        if charged != t["schemes.trajectory_applications"]:
            problems.append(f"charged_applications = {charged:.0f}, but the trajectories report "
                            f"{t['schemes.trajectory_applications']} applications")
        if values["schemes.steps"] != steps_out:
            problems.append(f"schemes.steps = {values['schemes.steps']:.0f}, but the outputs hold {steps_out} steps")
        values["trace.reconcile_mismatches"] = float(len(problems))
        return values, problems
