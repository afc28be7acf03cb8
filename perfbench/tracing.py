"""Spans recorded around cforge's public functions, from outside the package.

The tracer replaces a function in every cforge module namespace that binds
it (``pipelines.solve_reparam``, ``reparam_solver.assemble_system``,
``geometry_checks.evaluate_composed`` ...), so each call is recorded under
the name its caller resolves at call time.  Nothing under ``src/`` changes.
Spans stay in memory (name, start, end, parent, job id, attributes) and are
written out once the run ends; self times and the per-layer metrics are
computed from them afterwards.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Span recorder plus the monkey-patches that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[Span] = []
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), 0.0, parent, self.job)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, **attrs) -> None:
        span.end = self.clock()
        span.attrs.update(attrs)
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, fn, name: str, measure=None):
        """``fn`` recorded as span ``name``; ``measure(args, kwargs, result)``
        returns extra attributes.  An exception is recorded by type and
        re-raised unchanged."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, error=type(exc).__name__)
                raise
            attrs = measure(args, kwargs, result) if measure else {}
            tracer.close(span, **attrs)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def install(self, modules, targets) -> None:
        """Patch every binding of each target function in ``modules``.

        ``targets`` holds ``(home_module, attribute, span_name, measure,
        around)``; the function is looked up on its home module and replaced
        wherever a module global is that same object.  ``around``, when
        given, maps the function to the one that is recorded instead (to
        trace what it returns as well).
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        for home, attr, name, measure, around in targets:
            fn = getattr(home, attr)
            wrapper = self.wrap(around(fn) if around else fn, name, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# arithmetic on recorded spans


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children_of(spans):
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def self_time(span: Span, kids, hi: float | None = None) -> float:
    """Duration of ``span`` up to ``hi`` minus the part its children cover."""
    end = span.end if hi is None else min(span.end, hi)
    inside = [(c.start, c.end) for c in kids.get(span.id, ())]
    return max(0.0, (end - span.start) - covered(inside, span.start, end))


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> unit; the order is the order printed
PER_LAYER = {
    "reparam_solver.assemble_s": "s",
    "reparam_solver.curve_terms": "count",
    "reparam_solver.grid_P": "count",
    "reparam_solver.lu_s": "s",
    "reparam_solver.inverse_s": "s",
    "reparam_solver.inverse_queries": "count",
    "reparam_solver.taylor_s": "s",
    "reparam_solver.taylor_calls": "count",
    "pipelines.build_self_s": "s",
    "pipelines.anchor_search_s": "s",
    "pipelines.anchor_candidates": "count",
    "pipelines.anchor_rejected": "count",
    "pipelines.evaluate_s": "s",
    "pipelines.evaluate_points": "count",
    "root_cf.eval_s": "s",
    "root_cf.points": "count",
    "root_cf.domain_errors": "count",
    "geometry_checks.deviation_s": "s",
    "geometry_checks.nearest_s": "s",
    "geometry_checks.deviation_points": "count",
    "geometry_checks.univalence_s": "s",
    "geometry_checks.render_s": "s",
    "fourier_boundary.fit_s": "s",
    "fourier_boundary.eval_s": "s",
    "fourier_boundary.eval_points": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.nonzero_exits": "count",
    "suites.run_s": "s",
    "suites.checks": "count",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# self-time metrics: metric -> span names whose self time it sums
_SELF = {
    "reparam_solver.assemble_s": ("reparam_solver.assemble_system",),
    "reparam_solver.lu_s": ("reparam_solver.solve_reparam",),
    "reparam_solver.inverse_s": (
        "reparam_solver.correspondence_inverse",
        "reparam_solver.inverse",
    ),
    "reparam_solver.taylor_s": (
        "reparam_solver.taylor_from_correspondence",
        "reparam_solver.taylor_coeffs",
    ),
    "pipelines.evaluate_s": ("pipelines.evaluate_composed",),
    "root_cf.eval_s": ("root_cf.root_cf", "root_cf.sqrt_cf"),
    "geometry_checks.nearest_s": ("geometry_checks.boundary_deviation",),
    "geometry_checks.univalence_s": ("geometry_checks.univalence_check",),
    "geometry_checks.render_s": ("geometry_checks.render_polar_net",),
    "fourier_boundary.fit_s": ("fourier_boundary.fit_from_samples",),
    "fourier_boundary.eval_s": ("fourier_boundary.eval_curve",),
    "cli.self_s": ("cli.main",),
}

# summed attributes: metric -> (span name, attribute)
_SUM = {
    "reparam_solver.inverse_queries": ("reparam_solver.inverse", "points"),
    "pipelines.anchor_candidates": ("pipelines.slender_map", "anchor_candidates"),
    "pipelines.anchor_rejected": ("pipelines.slender_map", "anchor_rejected"),
    "pipelines.evaluate_points": ("pipelines.evaluate_composed", "points"),
    "root_cf.points": ("root_cf.root_cf", "points"),
    "geometry_checks.deviation_points": ("geometry_checks.boundary_deviation", "points"),
    "fourier_boundary.eval_points": ("fourier_boundary.eval_curve", "points"),
    "suites.checks": ("suites.run_suite", "checks"),
}

BUILD_SPANS = ("pipelines.smooth_map", "pipelines.corner_map", "pipelines.slender_map")
SUITE_METRICS = ("suites.run_s", "suites.checks")


def job_layer_values(spans) -> dict:
    """Per-layer values of one job's spans (seconds are self times unless
    the metric says otherwise)."""
    kids = children_of(spans)
    out = dict.fromkeys(PER_LAYER, 0.0)
    for metric, names in _SELF.items():
        out[metric] = sum(self_time(s, kids) for s in spans if s.name in names)
    for metric, (name, attr) in _SUM.items():
        out[metric] = float(sum(s.attrs.get(attr, 0) for s in spans if s.name == name))
    out["reparam_solver.taylor_calls"] = float(
        sum(s.name == "reparam_solver.taylor_from_correspondence" for s in spans)
    )
    out["root_cf.points"] += sum(
        s.attrs.get("points", 0) for s in spans if s.name == "root_cf.sqrt_cf"
    )
    out["root_cf.domain_errors"] = float(
        sum(
            s.attrs.get("error") == "DomainError"
            for s in spans
            if s.name in ("root_cf.root_cf", "root_cf.sqrt_cf")
        )
    )
    assemblies = [s for s in spans if s.name == "reparam_solver.assemble_system"]
    if assemblies:
        largest = max(assemblies, key=lambda s: s.attrs["curve_terms"] * s.attrs["P"] ** 2)
        out["reparam_solver.curve_terms"] = float(largest.attrs["curve_terms"])
        out["reparam_solver.grid_P"] = float(largest.attrs["P"])
    # inclusive: the check layer as a whole, and the suites with the
    # approximant and solver calls they make
    out["geometry_checks.deviation_s"] = sum(
        s.end - s.start for s in spans if s.name == "geometry_checks.boundary_deviation"
    )
    out["suites.run_s"] = sum(s.end - s.start for s in spans if s.name == "suites.run_suite")
    # the anchor search is the part of slender_map after its solve returns;
    # it is reported inclusive, and kept out of the pipeline's own self time
    build_self = anchor = 0.0
    for s in spans:
        if s.name not in BUILD_SPANS:
            continue
        solves = [c for c in kids.get(s.id, ()) if c.name == "reparam_solver.solve_reparam"]
        if s.attrs.get("anchor_candidates") and solves:
            cut = max(c.end for c in solves)
            anchor += s.end - cut
            build_self += self_time(s, kids, hi=cut)
        else:
            build_self += self_time(s, kids)
    out["pipelines.build_self_s"] = build_self
    out["pipelines.anchor_search_s"] = anchor
    out["cli.nonzero_exits"] = float(
        sum(s.name == "cli.main" and s.attrs.get("rc", 0) != 0 for s in spans)
    )
    out["trace.spans"] = float(len(spans))
    return out


def layer_metrics(spans, jobs: list[str]) -> dict:
    """Mean over ``jobs`` of each job's per-layer values; the suite metrics
    are totals over the run's ``verify`` spans (one ``verify all`` a run)."""
    by_job = defaultdict(list)
    for s in spans:
        by_job[s.job].append(s)
    per_job = [job_layer_values(by_job.get(j, [])) for j in jobs]
    out = {
        m: (statistics.fmean(v[m] for v in per_job) if per_job else 0.0)
        for m in PER_LAYER
    }
    verify = job_layer_values(by_job.get("verify", []))
    for m in SUITE_METRICS:
        out[m] = verify[m]
    return out
