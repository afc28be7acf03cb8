"""Tests of the benchmark's own logic: span arithmetic, failure counting,
seed determinism and agreement with ``BENCHMARK.json``.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cforge.errors import SolverError  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


# ---------------------------------------------------------------------------
# self time on nested spans


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert tracing.covered([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == pytest.approx(2.0)
    assert tracing.covered([], 0, 1) == 0.0


def test_self_time_of_nested_spans():
    # outer [0, 10] > mid [1, 6] > leaf [2, 3]; sibling [7, 9]
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 6, 7, 9, 10]))
    outer = tracer.open("outer")
    mid = tracer.open("mid")
    leaf = tracer.open("leaf")
    tracer.close(leaf)
    tracer.close(mid)
    sibling = tracer.open("sibling")
    tracer.close(sibling)
    tracer.close(outer)
    kids = tracing.children_of(tracer.spans)
    assert mid.parent == outer.id and leaf.parent == mid.id
    assert tracing.self_time(outer, kids) == pytest.approx(10 - 5 - 2)
    assert tracing.self_time(mid, kids) == pytest.approx(5 - 1)
    assert tracing.self_time(leaf, kids) == pytest.approx(1)
    assert tracing.self_time(outer, kids, hi=6) == pytest.approx(1)
    total_self = sum(tracing.self_time(s, kids) for s in tracer.spans)
    assert total_self == pytest.approx(outer.end - outer.start)


def test_layer_values_split_solver_and_anchor_search():
    S = tracing.Span
    spans = [
        S(0, "pipelines.slender_map", 0.0, 10.0, None, "j", {"anchor_candidates": 5,
                                                            "anchor_rejected": 1}),
        S(1, "reparam_solver.solve_reparam", 1.0, 4.0, 0, "j"),
        S(2, "reparam_solver.assemble_system", 1.5, 3.5, 1, "j",
          {"curve_terms": 49, "P": 2400}),
        S(3, "geometry_checks.boundary_deviation", 5.0, 8.0, 0, "j", {"points": 1024}),
        S(4, "pipelines.evaluate_composed", 5.0, 5.5, 3, "j", {"points": 1024}),
        S(5, "root_cf.root_cf", 5.2, 5.4, 4, "j", {"points": 1024, "error": "DomainError"}),
    ]
    v = tracing.job_layer_values(spans)
    assert v["reparam_solver.assemble_s"] == pytest.approx(2.0)
    assert v["reparam_solver.lu_s"] == pytest.approx(1.0)
    assert v["reparam_solver.curve_terms"] == 49
    assert v["reparam_solver.grid_P"] == 2400
    assert v["pipelines.build_self_s"] == pytest.approx(1.0)  # [0, 1] before the solve
    assert v["pipelines.anchor_search_s"] == pytest.approx(6.0)  # [4, 10], inclusive
    assert v["pipelines.anchor_candidates"] == 5
    assert v["pipelines.anchor_rejected"] == 1
    assert v["geometry_checks.deviation_s"] == pytest.approx(3.0)
    assert v["geometry_checks.nearest_s"] == pytest.approx(2.5)
    assert v["pipelines.evaluate_s"] == pytest.approx(0.3)
    assert v["root_cf.domain_errors"] == 1
    assert v["trace.spans"] == 6


def test_installed_tracer_records_real_calls_and_uninstalls():
    from cforge import pipelines, reparam_solver

    original = reparam_solver.assemble_system
    tracer = tracing.Tracer()
    tracer.job = "j0"
    tracer.install(workloads.MODULES, workloads.trace_targets(tracer))
    try:
        curve = workloads.moved_ellipse(np.random.default_rng(0))
        pipelines.smooth_map(pipelines.PipelineConfig(boundary=curve, M=32))
    finally:
        tracer.uninstall()
    assert reparam_solver.assemble_system is original
    names = {s.name for s in tracer.spans}
    assert {"pipelines.smooth_map", "reparam_solver.solve_reparam",
            "reparam_solver.assemble_system", "reparam_solver.inverse",
            "reparam_solver.taylor_coeffs"} <= names
    solve = next(s for s in tracer.spans if s.name == "reparam_solver.solve_reparam")
    smooth = next(s for s in tracer.spans if s.name == "pipelines.smooth_map")
    assert solve.parent == smooth.id and solve.job == "j0"


# ---------------------------------------------------------------------------
# failure counting


def _summary(jobs, batch=()):
    return run.summarize("smooth", [(r, False, r.kind) for r in batch],
                         [(r, False, "j") for r in jobs], 1.0, 0.5)


def test_raised_cforge_error_counts_as_failed(monkeypatch):
    wl = workloads.PipelineWorkload("smooth", 1)

    def broken(cfg):
        raise SolverError("synthetic")

    good = workloads.JobResult("smooth", seconds=1.0, attempted=1,
                               sup_deviation=0.03, neg_residual=1e-4)
    monkeypatch.setattr(workloads.pipelines, "smooth_map", broken)
    bad = wl.job()
    assert (bad.attempted, bad.failed, bad.wrong) == (1, 1, 0)
    s = _summary([good, bad])
    assert s["failed_frac"] == pytest.approx(0.5)
    assert s["ok_frac"] == pytest.approx(0.5)
    assert s["wrong"] == 0 and s["job_s"] == pytest.approx(1.0)


def test_nonzero_cli_exit_counts_and_ends_the_job(monkeypatch, tmp_path):
    calls = []

    def main(argv):
        calls.append(argv[0])
        return 4

    monkeypatch.setattr(workloads.cli, "main", main)
    wl = workloads.CliWorkload(1, str(tmp_path))
    res = wl.job("corner", 0)
    assert calls == ["map"]
    assert (res.attempted, res.failed) == (1, 1)
    verify = wl.verify()
    assert (verify.attempted, verify.failed) == (1, 1)
    ok = workloads.JobResult("smooth", seconds=1.0, attempted=4,
                             sup_deviation=0.09, neg_residual=1e-3)
    s = _summary([ok, res], batch=[verify])
    assert s["failed_frac"] == pytest.approx(2 / 6)
    assert s["wrong"] == 0


def test_cli_corner_jobs_run_once_a_run(monkeypatch, tmp_path):
    configs = []

    def main(argv):
        if argv[0] == "map":
            with open(argv[argv.index("--config") + 1], encoding="utf-8") as fh:
                corner = json.load(fh).get("corner")
            configs.append(corner and (corner["k"], corner["N"]))
        return 4

    monkeypatch.setattr(workloads.cli, "main", main)
    wl = workloads.CliWorkload(1, str(tmp_path))
    batch = wl.batch()
    assert [job_id for job_id, _ in batch] == ["verify", "corner0", "corner1", "corner2"]
    for _, op in batch[1:]:
        op()
    for index in range(3):
        for job in wl.round(index):
            job()
    assert configs[:3] == [(k, N) for k, N, _ in workloads.CORNER_CONFIGS]
    assert configs[3:] == [None] * 6


def test_failed_output_check_is_a_wrong_answer():
    res = workloads.JobResult("smooth", attempted=1)
    workloads.check_map(res, True, 1, sup_deviation=0.03, neg_residual=1e-4)
    assert (res.failed, res.wrong) == (1, 1)
    corner = workloads.JobResult("corner", attempted=1)
    workloads.check_map(corner, True, 0, neg_residual=1e-4, angle_err=0.06)
    assert corner.wrong == 1
    fine = workloads.JobResult("corner", attempted=1)
    workloads.check_map(fine, True, 0, neg_residual=1e-4, angle_err=1e-4)
    assert fine.ok


# ---------------------------------------------------------------------------
# seed -> inputs


def test_seed_determines_pipeline_inputs():
    a, b, c = (workloads.PipelineWorkload("smooth", s) for s in (7, 7, 8))
    assert a.curve == b.curve and a.curve != c.curve
    x, y = (workloads.PipelineWorkload("corner", s) for s in (7, 7))
    np.testing.assert_array_equal(x.samples, y.samples)


def test_seed_determines_cli_jobs(tmp_path):
    def payloads(seed):
        wl = workloads.CliWorkload(seed, str(tmp_path))
        return json.dumps([wl._payload(kind, i) for i in range(2)
                           for kind in ("smooth", "slender", "corner")])

    assert payloads(3) == payloads(3)
    assert payloads(3) != payloads(4)


def test_rigid_motion_keeps_the_deviation_grid():
    rot, shift = workloads.rigid_motion(np.random.default_rng(5))
    steps = np.angle(rot) / (2 * np.pi / 1024)
    assert steps == pytest.approx(round(steps), abs=1e-9)
    assert 2.0 <= abs(shift) <= 3.0


# ---------------------------------------------------------------------------
# the contract file


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS
