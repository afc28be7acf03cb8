"""Command-line front end.

Subcommands: ``fit`` (samples -> curve file), ``map`` (config -> composed
map artifacts), ``verify`` (named property suites), ``render`` (manifest ->
SVG), ``report`` (manifest summary).  Exit codes are a stable contract:
0 ok, 1 verify failure, 2 malformed input, 3 underdetermined fit,
4 solver failure, 5 pipeline precondition failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from . import __version__, io
from .errors import (
    CforgeError,
    DomainError,
    FitError,
    InputError,
    PipelineError,
    SolverError,
    WindingError,
)
from .fourier_boundary import fit_from_samples, save_curve
from .geometry_checks import DeviationReport, boundary_deviation, render_polar_net
from .pipelines import (
    ComposedMap,
    PipelineConfig,
    PlaneTransform,
    corner_map,
    slender_map,
    smooth_map,
)
from .reparam_solver import load_polynomial_map, save_polynomial_map
from .suites import DEFAULT_SEED, SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_FIT = 3
EXIT_SOLVER = 4
EXIT_PIPELINE = 5


def cmd_fit(args) -> int:
    samples = io.read_samples(args.samples)
    curve = fit_from_samples(samples, args.m, args.n)
    os.makedirs(args.out, exist_ok=True)
    curve_path = os.path.join(args.out, args.name + ".csv")
    save_curve(curve, curve_path)
    t = 2.0 * np.pi * np.arange(len(samples)) / len(samples)
    resid = np.abs(curve(t) - samples)
    report = {
        "samples": os.path.abspath(args.samples),
        "count": len(samples),
        "support": [-args.m, args.n],
        "curve": os.path.abspath(curve_path),
        "max_deviation": float(np.max(resid)),
        "mean_deviation": float(np.mean(resid)),
    }
    report_path = os.path.join(args.out, args.name + ".fit.json")
    io.write_json(report_path, report)
    print(f"wrote {curve_path} (max fit deviation {report['max_deviation']:.3e})")
    return EXIT_OK


def _sample_target(samples: np.ndarray):
    """Parametric target interpolating boundary samples linearly in t."""
    S = len(samples)

    def target(s):
        s = np.asarray(s, dtype=float) % (2.0 * np.pi)
        x = s / (2.0 * np.pi) * S
        j = np.floor(x).astype(int) % S
        frac = x - np.floor(x)
        return samples[j] * (1.0 - frac) + samples[(j + 1) % S] * frac

    return target


def _build_map(cfg: PipelineConfig) -> ComposedMap:
    if cfg.corner is not None:
        return corner_map(cfg)
    if cfg.slender is not None:
        return slender_map(cfg)
    return smooth_map(cfg)


def cmd_map(args) -> int:
    payload = io.read_json(args.config, "config")
    if "config" in payload and "tool" in payload:
        payload = payload["config"]  # accept a previous run's manifest
    cfg = PipelineConfig.from_json(payload, base_dir=os.path.dirname(args.config) or ".")

    os.makedirs(args.out, exist_ok=True)
    t0 = time.perf_counter()
    cmap = _build_map(cfg)
    t_build = time.perf_counter() - t0

    core_path = os.path.join(args.out, "core.csv")
    save_polynomial_map(cmap.core, core_path)

    target = cfg.boundary if cfg.boundary is not None else _sample_target(cfg.samples)
    t0 = time.perf_counter()
    report = boundary_deviation(cmap, target, grid=max(args.grid, 256))
    t_check = time.perf_counter() - t0

    deviation = asdict(report)
    deviation_path = os.path.join(args.out, "deviation.json")
    io.write_json(deviation_path, deviation)

    svg_path = None
    if args.render:
        svg_path = os.path.join(args.out, "net.svg")
        io.write_text(svg_path, render_polar_net(cmap))

    manifest = {
        "tool": "cforge",
        "version": __version__,
        "config": cfg.snapshot(),
        "stages": [s.describe() for s in cmap.stages],
        "provenance": cmap.provenance,
        "outputs": {
            "core": os.path.abspath(core_path),
            "core_meta": os.path.abspath(core_path) + ".meta.json",
            "deviation": os.path.abspath(deviation_path),
            "svg": os.path.abspath(svg_path) if svg_path else None,
        },
        "diagnostics": {
            **deviation,
            "solver_condition": cmap.provenance.get("solver", {}).get("condition"),
        },
        "timings": {"build_s": t_build, "check_s": t_check},
    }
    manifest_path = os.path.join(args.out, "manifest.json")
    io.write_json(manifest_path, manifest)
    print(
        f"wrote {manifest_path} (sup deviation {report.sup_deviation:.3e}, "
        f"winding {report.univalence_winding})"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    ok = True
    for name in names:
        rep = run_suite(name, seed=args.seed)
        reports.append(rep)
        ok &= rep["passed"]
        status = "pass" if rep["passed"] else "FAIL"
        print(
            f"{rep['suite']}: {status} ({rep['checked']} checks, "
            f"{rep['failures']} failures, worst margin {rep['worst_margin']:.3e})"
        )
    if args.out:
        io.write_json(args.out, {"seed": args.seed, "suites": reports})
    return EXIT_OK if ok else EXIT_VERIFY


def _load_manifest_map(manifest_path: str) -> ComposedMap:
    manifest = io.read_json(manifest_path, "manifest")
    try:
        core_path = manifest["outputs"]["core"]
        stages = tuple(PlaneTransform.from_dict(d) for d in manifest["stages"])
    except KeyError as exc:
        raise InputError(f"manifest {manifest_path} is missing the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed manifest {manifest_path}: {exc}") from exc
    return ComposedMap(
        stages=stages,
        core=load_polynomial_map(core_path),
        provenance=manifest.get("provenance", {}),
    )


def cmd_render(args) -> int:
    cmap = _load_manifest_map(args.manifest)
    svg = render_polar_net(
        cmap, spokes=args.spokes, circles=args.circles, samples=args.samples
    )
    io.write_text(args.out, svg)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    manifest = io.read_json(args.manifest, "manifest")
    diag = manifest.get("diagnostics", {})
    print(f"tool            : {manifest.get('tool')} {manifest.get('version')}")
    provenance = manifest.get("provenance", {})
    print(f"pipeline        : {provenance.get('kind', 'smooth')}")
    cfgs = manifest.get("config", {})
    print(
        "resolutions     : "
        f"M={cfgs.get('M')} P={cfgs.get('P')} D={cfgs.get('D')} "
        f"n_iter={cfgs.get('n_iter')}"
    )
    solver = provenance.get("solver", {})
    print(
        f"quadrature      : assembly_P={solver.get('assembly_P')} "
        f"kernel_tail={solver.get('kernel_tail')}"
    )
    for key in [f.name for f in fields(DeviationReport)] + ["solver_condition"]:
        print(f"{key:16}: {diag.get(key)}")
    for name, path in manifest.get("outputs", {}).items():
        print(f"output {name:9}: {path}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cforge",
        description="polynomial and fraction-polynomial conformal maps "
        "of the unit disk",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a Fourier curve to boundary samples")
    p_fit.add_argument("samples", help="CSV with header t,re,im or re,im")
    p_fit.add_argument("-m", type=int, required=True, help="max negative degree")
    p_fit.add_argument("-n", type=int, required=True, help="max positive degree")
    p_fit.add_argument("--out", default=".", help="output directory")
    p_fit.add_argument("--name", default="curve", help="output base name")
    p_fit.set_defaults(fn=cmd_fit)

    p_map = sub.add_parser("map", help="build a disk-to-domain map from a config")
    p_map.add_argument("--config", required=True, help="pipeline config JSON "
                       "(or a previous manifest)")
    p_map.add_argument("--out", required=True, help="output directory")
    p_map.add_argument("--render", action="store_true", help="also write net.svg")
    p_map.add_argument("--grid", type=int, default=1024,
                       help="deviation grid size (default 1024)")
    p_map.set_defaults(fn=cmd_map)

    p_verify = sub.add_parser("verify", help="run a named property suite")
    p_verify.add_argument(
        "suite", choices=sorted(SUITES) + ["all"], help="suite name"
    )
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--out", default=None, help="write JSON report here")
    p_verify.set_defaults(fn=cmd_verify)

    p_render = sub.add_parser("render", help="render the polar net of a built map")
    p_render.add_argument("--manifest", required=True)
    p_render.add_argument("--out", required=True)
    p_render.add_argument("--spokes", type=int, default=8)
    p_render.add_argument("--circles", type=int, default=4)
    p_render.add_argument("--samples", type=int, default=256)
    p_render.set_defaults(fn=cmd_render)

    p_report = sub.add_parser("report", help="summarize a run manifest")
    p_report.add_argument("--manifest", required=True)
    p_report.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (SolverError, DomainError, WindingError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
