"""Inputs, jobs and output checks of the four benchmark workloads.

Sizes are pinned (see ``BENCHMARK.json`` for why each workload exists).
The seed only picks rigid motions of the pinned contours: a rotation and a
translation that leave every accuracy figure unchanged up to rounding, so
runs with different seeds measure the same work on different inputs.

* ``corner``  -- the k/N = 1/2 corner contour, ``corner_map`` at M=128,
  P=1024, D=50, n_iter=11, refit_degree=64, checked by
  ``measure_corner_angle``;
* ``smooth``  -- the ellipse x^2 + 16 y^2 = 1, ``smooth_map`` at M=300,
  P=2400, D=1200, checked by ``boundary_deviation`` at grid 4096;
* ``slender`` -- the same ellipse, ``slender_map`` at M=300, P=2400,
  D=1000, n_iter=20 with the default anchor search, checked at grid 4096;
* ``cli``     -- small jobs (M=64) of all three kinds through
  ``cforge.cli.main``: one ``verify all`` and one corner job per
  criterion-7 configuration per run, then a closed loop of smooth and
  slender jobs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import cforge
from cforge import cli, fourier_boundary, geometry_checks, pipelines
from cforge import reparam_solver, suites
from cforge.errors import CforgeError

# the package re-exports the function root_cf under the submodule's name
root_cf = importlib.import_module("cforge.root_cf")

MODULES = (
    cforge,
    cli,
    fourier_boundary,
    geometry_checks,
    pipelines,
    reparam_solver,
    root_cf,
    suites,
)

CORNER_ANGLE_TOL = 0.05  # rad, criterion 7
# the three criterion-7 corner configurations (k, N, n_iter)
CORNER_CONFIGS = ((1, 2, 11), (1, 3, 6), (2, 3, 4))


# ---------------------------------------------------------------------------
# contours (formulas from docs/CONTOURS.md)


def _smoothstep(x):
    x = np.clip(x, 0.0, 1.0)
    return x**3 * (10.0 - 15.0 * x + 6.0 * x * x)


def corner_contour(t, k: int, N: int):
    """Fold ``w^(k/N)`` of the straight-sided blob: one corner of interior
    angle ``k pi/N`` at ``t = 0``."""
    tw = np.asarray(t, dtype=float) % (2.0 * np.pi)
    tw = np.minimum(tw, 2.0 * np.pi - tw)
    ramp = _smoothstep((tw - 0.45) / (1.40 - 0.45))
    w = -1j * np.sin(t) + 0.35 * (1.0 - np.cos(t)) ** 3 * ramp
    z = np.zeros_like(w)
    nz = w != 0
    z[nz] = np.exp((k / N) * np.log(w[nz]))
    return z


def rigid_motion(rng: np.random.Generator):
    """Rotation by a multiple of 2 pi/1024 and a translation of modulus 2 to 3.

    The rotation maps the deviation grids (1024 and 4096 points of the
    circle) onto themselves, so the sup deviation repeats to rounding; a
    general angle samples the oscillating boundary error at other points
    and moves it by up to a factor 2 at M=64.  The translation puts the
    origin outside the ellipse, so the smooth pipeline normalizes by the
    curve mean for every seed, as it does for the centred ellipse.
    """
    rot = np.exp(2j * np.pi * int(rng.integers(1024)) / 1024)
    shift = rng.uniform(2.0, 3.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return complex(rot), complex(shift)


def moved_ellipse(rng: np.random.Generator) -> cforge.FourierCurve:
    rot, shift = rigid_motion(rng)
    return cforge.FourierCurve((-1, 0, 1), (0.375 * rot, shift, 0.625 * rot))


def moved_corner_samples(rng: np.random.Generator, k: int, N: int, count: int):
    rot, shift = rigid_motion(rng)
    t = 2.0 * np.pi * np.arange(count) / count
    return rot * corner_contour(t, k, N) + shift


# ---------------------------------------------------------------------------
# one job's outcome


@dataclass
class JobResult:
    """Outcome of one job.

    ``attempted``/``failed`` count operations: one per pipeline job, one
    per CLI call.  A raised ``CforgeError``, a nonzero exit and a failed
    output check each fail the operation; ``wrong`` counts the failed
    output checks alone (an answer returned but not correct).
    """

    kind: str
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: list = field(default_factory=list)
    sup_deviation: float | None = None
    neg_residual: float | None = None
    corner_angle_err: float | None = None
    bytes_written: int = 0

    @property
    def ok(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def fail(self, message: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += int(wrong)
        self.errors.append(message)


def _finite(x) -> bool:
    return x is not None and bool(np.isfinite(x))


def check_map(res: JobResult, monotone, winding, sup_deviation=None,
              neg_residual=None, angle_err=None) -> None:
    """Output checks shared by every job kind; a failure fails the op."""
    problems = []
    if monotone is not True:
        problems.append("theta not monotone")
    if winding != 0:
        problems.append(f"univalence winding {winding}")
    if not _finite(neg_residual):
        problems.append("neg_residual not recorded")
    if res.kind != "corner" and not _finite(sup_deviation):
        problems.append("sup_deviation not recorded")
    if res.kind == "corner" and not (_finite(angle_err) and angle_err < CORNER_ANGLE_TOL):
        problems.append(f"corner angle error {angle_err} >= {CORNER_ANGLE_TOL}")
    res.sup_deviation = sup_deviation
    res.neg_residual = neg_residual
    res.corner_angle_err = angle_err
    if problems:
        res.fail("; ".join(problems), wrong=True)


# ---------------------------------------------------------------------------
# pipeline workloads: one op = build + quality check


class PipelineWorkload:
    """One pinned pipeline job a round, on a seeded rigid motion."""

    def __init__(self, name: str, seed: int):
        self.name = name
        rng = np.random.default_rng(seed)
        if name == "corner":
            self.samples = moved_corner_samples(rng, 1, 2, 4096)
            self.curve = None
        else:
            self.curve = moved_ellipse(rng)

    def batch(self):
        """``(job id, operation)`` pairs run once before the rounds."""
        return []

    def round(self, index: int):
        return [self.job]

    def warmup(self) -> JobResult:
        """A small build of the same kind (imports, BLAS and LAPACK set-up)."""
        return self._run(small=True)

    def job(self) -> JobResult:
        return self._run(small=False)

    def _config(self, small: bool):
        P = pipelines.PipelineConfig
        if self.name == "corner":
            samples = self.samples[::4] if small else self.samples
            size = dict(M=16, P=128, D=16, refit_degree=24) if small else dict(
                M=128, P=1024, D=50, refit_degree=64
            )
            return P(samples=samples, corner={"t0": 0.0, "k": 1, "N": 2},
                     n_iter=11, **size)
        if self.name == "smooth":
            size = dict(M=32, P=256, D=128) if small else dict(M=300, P=2400, D=1200)
            return P(boundary=self.curve, **size)
        size = dict(M=32, P=256, D=128) if small else dict(M=300, P=2400, D=1000)
        return P(boundary=self.curve, slender={"a": None}, n_iter=20, **size)

    def _run(self, small: bool) -> JobResult:
        res = JobResult(self.name, attempted=1)
        cfg = self._config(small)
        grid = 256 if small else 4096
        t0 = time.perf_counter()
        try:
            if self.name == "corner":
                cmap = pipelines.corner_map(cfg)
                angle = pipelines.measure_corner_angle(cmap)
                core = cmap.core
                winding = geometry_checks.univalence_check(
                    core, max(8 * core.degree, 256)
                )
                res.seconds = time.perf_counter() - t0
                check_map(
                    res,
                    cmap.provenance["solver"]["monotone"],
                    winding,
                    neg_residual=core.neg_residual,
                    angle_err=abs(angle - np.pi / 2),
                )
            else:
                build = (
                    pipelines.smooth_map if self.name == "smooth" else pipelines.slender_map
                )
                cmap = build(cfg)
                rep = geometry_checks.boundary_deviation(cmap, self.curve, grid=grid)
                res.seconds = time.perf_counter() - t0
                check_map(
                    res,
                    rep.monotone_theta,
                    rep.univalence_winding,
                    sup_deviation=rep.sup_deviation,
                    neg_residual=rep.neg_residual,
                )
        except CforgeError as exc:
            res.seconds = time.perf_counter() - t0
            res.fail(f"{type(exc).__name__}: {exc}")
        return res


# ---------------------------------------------------------------------------
# cli workload: one op = one call of cforge.cli.main


def run_cli(argv) -> tuple[int, str]:
    """``cforge.cli.main(argv)`` with its output captured: (exit, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue().strip()


def _tree_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


class CliWorkload:
    """Rounds of one smooth and one slender job (M=64), after a batch of
    ``verify all`` and one corner job (M=64) per criterion-7 configuration.

    Each job runs ``map --render``, then ``render`` and ``report`` on the
    manifest, then ``map`` again from the manifest, whose ``core.csv`` must
    be byte-identical (criterion 10).  A failed call ends its job: the
    calls after it have no manifest to read.
    """

    name = "cli"

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.count = 0

    def _payload(self, kind: str, index: int) -> dict:
        if kind == "corner":
            k, N, n_iter = CORNER_CONFIGS[index % len(CORNER_CONFIGS)]
            z = moved_corner_samples(self.rng, k, N, 1024)
            return {
                "boundary": {"samples": [[v.real, v.imag] for v in z]},
                "corner": {"t0": 0.0, "k": k, "N": N},
                "M": 64, "P": 512, "D": 50, "n_iter": n_iter, "refit_degree": 32,
            }
        curve = moved_ellipse(self.rng)
        payload = {
            "boundary": {
                "coeffs": [
                    {"k": k, "re": c.real, "im": c.imag}
                    for k, c in zip(curve.ks, curve.cs)
                ]
            },
            "M": 64,
        }
        if kind == "slender":
            payload.update(slender={}, n_iter=12)
        return payload

    def batch(self):
        """Once a run: ``verify all`` and one corner job per criterion-7
        configuration.  Every corner job fails today, so running them a
        fixed number of times keeps the failure count of a run independent
        of how many rounds fit in it."""
        corner = [
            (f"corner{i}", lambda i=i: self.job("corner", i))
            for i in range(len(CORNER_CONFIGS))
        ]
        return [("verify", self.verify)] + corner

    def round(self, index: int):
        return [
            lambda: self.job("smooth", index),
            lambda: self.job("slender", index),
        ]

    def warmup(self) -> JobResult:
        return self.job("smooth", 0, size={"M": 32})

    def verify(self) -> JobResult:
        res = JobResult("verify", attempted=1)
        out = os.path.join(self.workdir, "verify.json")
        t0 = time.perf_counter()
        rc, err = run_cli(["verify", "all", "--out", out])
        res.seconds = time.perf_counter() - t0
        if rc != 0:
            res.fail(f"verify all exited {rc}: {err}")
        res.bytes_written = _tree_bytes(out) if os.path.exists(out) else 0
        return res

    def job(self, kind: str, index: int, size: dict | None = None) -> JobResult:
        self.count += 1
        res = JobResult(kind)
        base = os.path.join(self.workdir, f"job{self.count:05d}")
        os.makedirs(base)
        payload = self._payload(kind, index)
        payload.update(size or {})
        cfg = os.path.join(base, "config.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        first, second = os.path.join(base, "map"), os.path.join(base, "rerun")
        manifest = os.path.join(first, "manifest.json")
        calls = (
            ["map", "--config", cfg, "--out", first, "--render"],
            ["render", "--manifest", manifest, "--out", os.path.join(base, "net.svg")],
            ["report", "--manifest", manifest],
            ["map", "--config", manifest, "--out", second, "--render"],
        )
        t0 = time.perf_counter()
        for argv in calls:
            res.attempted += 1
            rc, err = run_cli(argv)
            if rc != 0:
                res.fail(f"cforge {argv[0]} exited {rc}: {err}")
                break
        else:
            self._check(res, first, second)
        res.seconds = time.perf_counter() - t0
        res.bytes_written = _tree_bytes(base)
        shutil.rmtree(base)
        return res

    def _check(self, res: JobResult, first: str, second: str) -> None:
        with open(os.path.join(first, "deviation.json"), encoding="utf-8") as fh:
            dev = json.load(fh)
        angle = dev.get("corner_angle_measured")
        if res.kind == "corner":
            with open(os.path.join(first, "manifest.json"), encoding="utf-8") as fh:
                corner = json.load(fh)["config"]["corner"]
            k, N = corner["k"], corner["N"]
            angle = abs(angle - k * np.pi / N) if angle is not None else None
        check_map(
            res,
            dev.get("monotone_theta"),
            dev.get("univalence_winding"),
            sup_deviation=dev.get("sup_deviation"),
            neg_residual=dev.get("neg_residual"),
            angle_err=angle,
        )
        with open(os.path.join(first, "core.csv"), "rb") as a, open(
            os.path.join(second, "core.csv"), "rb"
        ) as b:
            if a.read() != b.read():
                res.fail("core.csv differs after the manifest re-run", wrong=True)


def make_workload(name: str, seed: int, workdir: str):
    if name == "cli":
        return CliWorkload(seed, workdir)
    return PipelineWorkload(name, seed)


WORKLOADS = ("corner", "smooth", "slender", "cli")


# ---------------------------------------------------------------------------
# trace targets


def _points(i: int):
    def measure(args, kwargs, result):
        return {"points": int(np.size(args[i]))}

    return measure


def _assemble(args, kwargs, result):
    curve, _, P = args
    terms = sum(1 for k, c in zip(curve.ks, curve.cs) if k != 0 and c != 0)
    return {"curve_terms": terms, "P": int(P)}


def _deviation(args, kwargs, result):
    return {"points": int(kwargs.get("grid", args[2] if len(args) > 2 else 256))}


def _anchor_search(args, kwargs, result):
    log = result.provenance.get("slender", {}).get("anchor_search", [])
    return {
        "anchor_candidates": len(log),
        "anchor_rejected": sum("rejected" in entry for entry in log),
    }


def trace_targets(tracer):
    """``(home module, attribute, span name, measure, around)`` for the
    public functions of each cforge module.

    ``correspondence_inverse`` returns the query callable; ``around`` wraps
    that callable too, so construction and queries are separate spans.
    """

    def queries(build):
        def correspondence_inverse(theta_grid):
            return tracer.wrap(build(theta_grid), "reparam_solver.inverse", _points(0))

        return correspondence_inverse

    return [
        (reparam_solver, "assemble_system", "reparam_solver.assemble_system",
         _assemble, None),
        (reparam_solver, "solve_reparam", "reparam_solver.solve_reparam", None, None),
        (reparam_solver, "correspondence_inverse",
         "reparam_solver.correspondence_inverse", None, queries),
        (reparam_solver, "taylor_from_correspondence",
         "reparam_solver.taylor_from_correspondence", None, None),
        (reparam_solver, "taylor_coeffs", "reparam_solver.taylor_coeffs", None, None),
        (pipelines, "smooth_map", "pipelines.smooth_map", None, None),
        (pipelines, "corner_map", "pipelines.corner_map", None, None),
        (pipelines, "slender_map", "pipelines.slender_map", _anchor_search, None),
        (pipelines, "evaluate_composed", "pipelines.evaluate_composed",
         _points(1), None),
        (pipelines, "measure_corner_angle", "pipelines.measure_corner_angle",
         None, None),
        (root_cf, "root_cf", "root_cf.root_cf", _points(0), None),
        (root_cf, "sqrt_cf", "root_cf.sqrt_cf", _points(0), None),
        (geometry_checks, "boundary_deviation", "geometry_checks.boundary_deviation",
         _deviation, None),
        (geometry_checks, "univalence_check", "geometry_checks.univalence_check",
         None, None),
        (geometry_checks, "render_polar_net", "geometry_checks.render_polar_net",
         None, None),
        (fourier_boundary, "fit_from_samples", "fourier_boundary.fit_from_samples",
         None, None),
        (fourier_boundary, "eval_curve", "fourier_boundary.eval_curve",
         _points(1), None),
        (cli, "main", "cli.main", lambda a, k, r: {"rc": int(r)}, None),
        (suites, "run_suite", "suites.run_suite",
         lambda a, k, r: {"checks": int(r["checked"])}, None),
    ]
