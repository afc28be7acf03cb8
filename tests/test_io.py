"""Round trips through the file formats and the stage and config codecs."""

import importlib
import json
import pkgutil

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cforge
from cforge import (
    FourierCurve,
    PipelineConfig,
    PlaneTransform,
    PolynomialMap,
    load_curve,
    load_polynomial_map,
    save_curve,
    save_polynomial_map,
)

ROUND_TRIP = settings(max_examples=60, deadline=None, derandomize=True)

finite = st.floats(allow_nan=False, allow_infinity=False)
moderate = st.floats(-1e6, 1e6, allow_nan=False)
complexes = st.builds(complex, finite, finite)
points = st.builds(complex, moderate, moderate)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("io")


@st.composite
def curves(draw, values=complexes):
    coeffs = draw(st.dictionaries(st.integers(-12, 12), values, min_size=1,
                                  max_size=8))
    assume(any(k != 0 and c != 0 for k, c in coeffs.items()))
    return FourierCurve.from_coeffs(coeffs)


stages = st.one_of(
    st.builds(
        lambda a, b: PlaneTransform("affine", (a, b)),
        complexes.filter(lambda a: a != 0),
        complexes,
    ),
    st.builds(
        lambda N, k: PlaneTransform("power", (N, k)),
        st.integers(1, 12),
        st.integers(1, 12),
    ),
    st.integers(2, 12).flatmap(
        lambda N: st.builds(
            lambda k, n: PlaneTransform("cf_root", (k, N, n)),
            st.integers(1, N - 1),
            st.integers(1, 40),
        )
    ),
)


@ROUND_TRIP
@given(stages)
def test_stage_from_dict_inverts_describe(stage):
    desc = json.loads(json.dumps(stage.describe()))
    assert PlaneTransform.from_dict(desc) == stage


@ROUND_TRIP
@given(curves())
def test_curve_csv_round_trip_is_exact(scratch, curve):
    path = scratch / "curve.csv"
    save_curve(curve, str(path))
    assert load_curve(str(path)) == curve


@ROUND_TRIP
@given(
    st.lists(complexes, min_size=2, max_size=40),
    finite,
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_polynomial_map_csv_round_trip_is_exact(scratch, coeffs, residual, M, P):
    pmap = PolynomialMap(coeffs=coeffs, neg_residual=residual, solver_M=M, solver_P=P)
    path = scratch / "core.csv"
    save_polynomial_map(pmap, str(path))
    again = load_polynomial_map(str(path))
    assert np.array_equal(again.coeffs, pmap.coeffs)
    assert (again.neg_residual, again.solver_M, again.solver_P) == (residual, M, P)


@st.composite
def configs(draw, boundary):
    kwargs = {
        "M": draw(st.integers(1, 300)),
        "n_iter": draw(st.integers(1, 40)),
        "refit_degree": draw(st.integers(1, 64)),
        "refit_tol": draw(st.floats(1e-12, 1.0)),
        "sample_grid": draw(st.integers(256, 8192)),
        "anchor": draw(st.one_of(st.none(), points)),
    }
    for key in ("P", "D"):
        kwargs[key] = draw(st.one_of(st.none(), st.integers(4, 4096)))
    extra = draw(st.sampled_from(["smooth", "corner", "slender", "slender-auto"]))
    if extra == "corner":
        # the config refuses an approximant without 1 <= k <= N - 1
        N = draw(st.integers(2, 6))
        kwargs["corner"] = {"t0": draw(moderate), "k": draw(st.integers(1, N - 1)),
                            "N": N}
    elif extra.startswith("slender"):
        kwargs["slender"] = {"a": None if extra == "slender-auto" else draw(points)}
    if boundary == "coeffs":
        kwargs["boundary"] = draw(curves(points))
    else:
        kwargs["samples"] = draw(st.lists(complexes, min_size=1, max_size=64))
    return PipelineConfig(**kwargs)


@pytest.mark.parametrize("boundary", ["coeffs", "samples"])
@ROUND_TRIP
@given(data=st.data())
def test_config_snapshot_round_trip(boundary, data):
    cfg = data.draw(configs(boundary))
    again = PipelineConfig.from_json(json.dumps(cfg.snapshot()))
    for name in ("M", "P", "D", "n_iter", "refit_degree", "refit_tol",
                 "sample_grid", "anchor", "corner", "slender", "boundary"):
        assert getattr(again, name) == getattr(cfg, name), name
    if cfg.samples is None:
        assert again.samples is None
    else:
        assert np.array_equal(again.samples, cfg.samples)


def test_public_names_resolve():
    modules = [cforge] + [
        importlib.import_module(f"cforge.{info.name}")
        for info in pkgutil.iter_modules(cforge.__path__)
    ]
    assert "__all__" in vars(cforge)
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert not missing
