"""Imports: every exported name exists, the package's modules import one
another without a cycle, and scipy is imported only inside the functions
that use it (and nothing else is imported inside a function).

Each cold-start check runs in a fresh interpreter, because this test
process has long since imported scipy.  No timing is asserted.
"""

import ast
import graphlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import cforge
from cforge.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cforge.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))

PRELUDE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def run_fresh(code, cwd):
    """Run ``code`` in a new interpreter and return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]))
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + code],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


MODULES = ["cforge"] + [
    f"cforge.{m.name}" for m in pkgutil.iter_modules(cforge.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(set(exports)) == len(exports)
    assert [e for e in exports if not hasattr(module, e)] == []


def _parsed_modules():
    """``{module name: parsed source}`` of every module of the package."""
    package = os.path.dirname(os.path.abspath(cforge.__file__))
    out = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                out[name[:-3]] = ast.parse(fh.read(), name)
    return out


def test_package_imports_form_no_cycle():
    modules = _parsed_modules()
    graph = {}
    for name, tree in modules.items():
        graph[name] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    graph[name].add(node.module.split(".")[0])
                else:  # "from . import x": a module, or a name of the package
                    graph[name] |= {
                        a.name if a.name in modules else "__init__" for a in node.names
                    }
    assert "pipelines" not in graph["geometry_checks"]
    # raises graphlib.CycleError naming the cycle
    list(graphlib.TopologicalSorter(graph).static_order())


def test_functions_import_only_scipy():
    inside = []
    for name, tree in _parsed_modules().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    roots = [a.name.split(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    roots = ["." * node.level + (node.module or "").split(".")[0]]
                else:
                    continue
                inside += [f"{name}.{fn.name}: {r}" for r in roots if r != "scipy"]
    assert inside == []


def test_cli_import_report_and_render_load_no_scipy(tmp_path):
    cfg = tmp_path / "circle.json"
    cfg.write_text(json.dumps(
        {"boundary": {"coeffs": [{"k": 1, "re": 1.0, "im": 0.0}]}, "M": 16}
    ))
    out = tmp_path / "run"
    assert main(["map", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = str(out / "manifest.json")
    svg = str(tmp_path / "net.svg")
    seen = run_fresh(
        f"""
import cforge, cforge.cli
seen = {{"import": loaded()}}
seen["report_exit"] = cforge.cli.main(["report", "--manifest", {manifest!r}])
seen["report"] = loaded()
seen["render_exit"] = cforge.cli.main(
    ["render", "--manifest", {manifest!r}, "--out", {svg!r}])
seen["render"] = loaded()
print(json.dumps(seen))
""",
        tmp_path,
    )
    assert seen == {
        "import": [], "report_exit": 0, "report": [], "render_exit": 0, "render": []
    }


def test_corner_job_loads_neither_spatial_nor_integrate(tmp_path):
    seen = run_fresh(
        """
import numpy as np
from cforge import PipelineConfig, corner_map, measure_corner_angle
from cforge import univalence_check
from contours import corner_contour
t = 2 * np.pi * np.arange(1024) / 1024
cfg = PipelineConfig(samples=corner_contour(t, 1, 2),
                     corner={"t0": 0.0, "k": 1, "N": 2},
                     M=32, P=256, D=16, n_iter=8, refit_degree=24)
cm = corner_map(cfg)
angle = measure_corner_angle(cm)
winding = univalence_check(cm.core, max(8 * cm.core.degree, 256))
print(json.dumps({"winding": winding, "finite": bool(np.isfinite(angle)),
                  "loaded": loaded()}))
""",
        tmp_path,
    )
    assert seen["winding"] == 0 and seen["finite"]
    assert not [m for m in seen["loaded"]
                if m.startswith(("scipy.spatial", "scipy.integrate"))]
    assert "scipy.linalg" in seen["loaded"]  # the solve itself still uses it


def test_map_loads_no_spatial(tmp_path):
    # the deviation check and the slender self-intersection check are numpy
    ellipse = {"coeffs": [{"k": -1, "re": 0.375, "im": 0.0},
                          {"k": 1, "re": 0.625, "im": 0.0}]}
    runs = {}
    for kind, extra in (("smooth", {}), ("slender", {"slender": {}, "n_iter": 20})):
        cfg = tmp_path / f"{kind}.json"
        cfg.write_text(json.dumps({"boundary": ellipse, "M": 32, "P": 256, "D": 64,
                                   **extra}))
        runs[kind] = (str(cfg), str(tmp_path / kind))
    seen = run_fresh(
        f"""
import cforge.cli
seen = {{}}
for kind, (cfg, out) in {runs!r}.items():
    seen[kind] = cforge.cli.main(["map", "--config", cfg, "--out", out])
seen["loaded"] = loaded()
print(json.dumps(seen))
""",
        tmp_path,
    )
    assert seen["smooth"] == 0 and seen["slender"] == 0
    assert [m for m in seen["loaded"] if m.startswith("scipy.spatial")] == []
    assert "scipy.linalg" in seen["loaded"]
