import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cforge import (
    FourierCurve,
    PipelineConfig,
    PlaneTransform,
    boundary_deviation,
    render_polar_net,
    smooth_map,
    univalence_check,
)
from cforge.errors import DomainError, InputError
from cforge import geometry_checks
from cforge.fourier_boundary import derivative_curve, eval_curve, horner, unwrap_closed
from cforge.geometry_checks import _nearest_distance
from cforge.pipelines import ComposedMap, evaluate_composed
from cforge.reparam_solver import PolynomialMap, load_polynomial_map
from cforge.reparam_solver import save_polynomial_map
from cforge.suites import jordan_positive_curve


def identity_map():
    return ComposedMap(
        stages=(), core=PolynomialMap(coeffs=[0.0, 1.0], neg_residual=0.0)
    )


class TestBoundaryDeviation:
    def test_identity_on_circle(self, unit_circle):
        rep = boundary_deviation(identity_map(), unit_circle, grid=256)
        assert rep.sup_deviation < 1e-12
        assert rep.mean_deviation <= rep.sup_deviation
        assert rep.univalence_winding == 0

    def test_quadratic_self_consistency(self, quadratic_curve):
        cm = smooth_map(PipelineConfig(boundary=quadratic_curve, M=32, P=256, D=8))
        rep = boundary_deviation(cm, quadratic_curve, grid=512)
        assert rep.sup_deviation < 1e-8
        assert rep.monotone_theta

    def test_callable_target(self, unit_circle):
        rep = boundary_deviation(
            identity_map(), lambda s: np.exp(1j * np.asarray(s)), grid=256
        )
        assert rep.sup_deviation < 1e-3  # parametric target: grid-limited only

    def test_known_offset(self):
        # map = circle of radius 1.1 vs unit circle target: deviation 0.1
        cm = ComposedMap(
            stages=(), core=PolynomialMap(coeffs=[0.0, 1.1], neg_residual=0.0)
        )
        rep = boundary_deviation(cm, FourierCurve((1,), (1.0,)), grid=256)
        assert rep.sup_deviation == pytest.approx(0.1, abs=1e-10)
        assert rep.mean_deviation == pytest.approx(0.1, abs=1e-10)

    def test_grid_minimum(self, unit_circle):
        with pytest.raises(InputError):
            boundary_deviation(identity_map(), unit_circle, grid=128)

    @pytest.mark.parametrize("parametric", [False, True])
    def test_grid_above_memory_cap_rejected(self, unit_circle, monkeypatch, parametric):
        # the check runs before any table is allocated
        def no_table(*args):
            raise AssertionError("target table allocated")

        monkeypatch.setattr(geometry_checks, "_nearest_distance", no_table)
        target = (lambda s: np.exp(1j * s)) if parametric else unit_circle
        with pytest.raises(InputError, match="GiB cap"):
            geometry_checks.boundary_distances(target, 10**8)

    def test_winding_counted_once_per_core(self, quadratic_curve, monkeypatch, tmp_path):
        calls = []
        real = geometry_checks.univalence_check

        def counted(core, grid):
            calls.append(grid)
            return real(core, grid)

        monkeypatch.setattr(geometry_checks, "univalence_check", counted)
        cm = smooth_map(PipelineConfig(boundary=quadratic_curve, M=32, P=256, D=8))
        assert boundary_deviation(cm, quadratic_curve, grid=512).univalence_winding == 0
        assert calls == [256]  # the build gate's count, reused by the report
        # a core read back from a file is counted anew
        save_polynomial_map(cm.core, str(tmp_path / "core.csv"))
        loaded = ComposedMap(cm.stages, load_polynomial_map(str(tmp_path / "core.csv")))
        boundary_deviation(loaded, quadratic_curve, grid=512)
        assert calls == [256, 256]



def _dense_nearest(points, target, grid):
    """Reference for ``_nearest_distance``'s callable: argmin over the full distance
    matrix to the 16x fine samples, then, on a Fourier curve, 50 Newton steps
    from the nearest sample: converged far below the 1e-11 compared."""
    fine = 16 * grid
    s = 2.0 * np.pi * np.arange(fine) / fine
    fourier = isinstance(target, FourierCurve)
    tgt = eval_curve(target, s) if fourier else np.asarray(target(s), dtype=complex)
    d = np.abs(points[:, None] - tgt[None, :])
    j = np.argmin(d, axis=1)
    best = d[np.arange(len(points)), j]
    if not fourier:
        return best
    sj = s[j]
    for _ in range(50):
        diff = eval_curve(target, sj) - points
        zp = eval_curve(derivative_curve(target, 1), sj)
        zpp = eval_curve(derivative_curve(target, 2), sj)
        g = (diff * np.conj(zp)).real
        gp = np.abs(zp) ** 2 + (diff * np.conj(zpp)).real
        step = np.clip(g / gp, -2.0 * np.pi / fine, 2.0 * np.pi / fine)
        sj = sj - step
    refined = np.abs(eval_curve(target, sj) - points)
    return np.minimum(best, refined)


def _point_set(curve, layout, rng, n):
    """Points near the curve in its order, reversed or shuffled; far away;
    or near its centres of curvature (the ends of the medial axis, where
    two arcs are nearly as close)."""
    t = 2 * np.pi * (np.arange(n) + rng.uniform()) / n
    z = eval_curve(curve, t)
    d1 = eval_curve(derivative_curve(curve, 1), t)
    normal = 1j * d1 / np.abs(d1)
    scale = np.max(np.abs(z - z.mean()))
    jitter = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if layout == "far":
        return z.mean() + scale * rng.uniform(5.0, 50.0, n) * np.exp(
            2j * np.pi * rng.uniform(size=n)
        )
    if layout == "centre":
        d2 = eval_curve(derivative_curve(curve, 2), t)
        kappa = (np.conj(d1) * d2).imag / np.abs(d1) ** 3
        return z + normal / kappa + 1e-3 * scale * jitter
    points = z + 0.05 * scale * rng.standard_normal(n) * normal
    if layout == "reversed":
        return points[::-1]
    if layout == "shuffled":
        return rng.permutation(points)
    return points


def _peanut(w):
    """x = cos t, y = sin t (w + (1 - w) cos^2 t): two lobes joined by a
    neck of width 2w at x = 0."""
    a, b = w + (1 - w) / 4, (1 - w) / 4
    return FourierCurve((-3, -1, 1, 3), (-b / 2, (1 - a) / 2, (1 + a) / 2, b / 2))


class TestNearestDistance:
    # the ellipse x^2 + 16 y^2 = 1
    ellipse = FourierCurve((-1, 1), (0.375, 0.625))
    peanut = _peanut(0.05)

    def off_curve_points(self, rng, n=600):
        t = rng.uniform(0.0, 2.0 * np.pi, n)
        scale = rng.uniform(0.7, 1.3, n)
        jitter = 0.02 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        return scale * eval_curve(self.ellipse, t) + jitter

    def test_fourier_target_matches_dense_reference(self, rng):
        points = self.off_curve_points(rng)
        got = _nearest_distance(self.ellipse, 256)(points)
        ref = _dense_nearest(points, self.ellipse, 256)
        assert np.allclose(got, ref, rtol=1e-11, atol=0.0)
        assert np.min(got) < 1e-2 and np.max(got) > 0.1

    def test_parametric_target_matches_dense_reference(self, rng):
        def target(s):
            return np.cos(s) + 0.25j * np.sin(s)

        points = self.off_curve_points(rng)
        got = _nearest_distance(target, 256)(points)
        assert np.array_equal(got, _dense_nearest(points, target, 256))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        top=st.integers(2, 12),
        neck=st.booleans(),
        layout=st.sampled_from(["ordered", "reversed", "shuffled", "far", "centre"]),
    )
    def test_matches_brute_force(self, seed, top, neck, layout):
        """Random univalent curves (and a peanut whose neck is 0.1 wide):
        the parametric distance equals the dense argmin bit for bit, and the
        refined Fourier distance matches the dense reference to rounding."""
        rng = np.random.default_rng(seed)
        curve = self.peanut if neck else jordan_positive_curve(rng, top)
        points = _point_set(curve, layout, rng, 120)
        got = _nearest_distance(curve, 256)(points)
        ref = _dense_nearest(points, curve, 256)
        assert np.all(np.abs(got - ref) <= 1e-11 * ref + 1e-14)

        def sampled(s):
            return eval_curve(curve, s)

        got = _nearest_distance(sampled, 256)(points)
        assert np.array_equal(got, _dense_nearest(points, sampled, 256))

    def test_far_off_points_complete(self):
        # every point needs every one of the 8192 samples: 3.4e7 candidate
        # pairs, expanded a chunk at a time
        points = 100.0 * np.exp(2j * np.pi * np.arange(4096) / 4096)
        got = _nearest_distance(self.ellipse, 4096)(points)
        some = points[::64]
        ref = _dense_nearest(some, self.ellipse, 4096)
        assert np.all(np.abs(got[::64] - ref) <= 1e-13 * ref)
        assert np.min(got) == pytest.approx(99.0) and np.max(got) == pytest.approx(99.75)

    def test_non_finite_point_keeps_non_finite_distance(self):
        points = np.array([1.1 + 0.0j, complex(np.nan, 0.0), complex(np.inf, 1.0)])
        with np.errstate(invalid="ignore"):
            got = _nearest_distance(self.ellipse, 256)(points)
        assert got[0] == pytest.approx(0.1, abs=1e-12)
        assert np.isnan(got[1]) and not np.isfinite(got[2])

    def test_non_finite_target_rejected(self):
        with pytest.raises(InputError):
            _nearest_distance(lambda s: np.full(s.shape, np.nan), 256)


class TestUnivalence:
    def test_identity(self):
        core = PolynomialMap(coeffs=[0.0, 1.0], neg_residual=0.0)
        assert univalence_check(core, 256) == 0

    def test_zero_inside(self):
        core = PolynomialMap(coeffs=[0.0, 1.0, 0.6], neg_residual=0.0)
        assert univalence_check(core, 256) == 1

    def test_zero_outside(self):
        core = PolynomialMap(coeffs=[0.0, 1.0, 0.3], neg_residual=0.0)
        assert univalence_check(core, 256) == 0

    def test_zero_on_circle_inconclusive(self):
        # Z' = 1 + 2 zeta + zeta^2 vanishes at zeta = -1 exactly
        core = PolynomialMap(
            coeffs=[0.0, 1.0, 1.0, 1.0 / 3.0], neg_residual=0.0
        )
        with pytest.raises(InputError):
            univalence_check(core, 256)

    def test_grid_guard(self):
        core = PolynomialMap(coeffs=[0.0, 1.0, 0.0, 0.0, 0.5], neg_residual=0.0)
        with pytest.raises(InputError):
            univalence_check(core, 16)

    @pytest.mark.parametrize("degree, grid", [(1, 256), (37, 300), (1000, 8000)])
    def test_fft_nodes_match_kernel(self, monkeypatch, rng, degree, grid):
        # the values the check unwraps are Z' at the grid-th roots of
        # unity: the Horner kernel's values there
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        # Z'(0) outweighs the rest on the circle: no zero of Z' in the disk
        coeffs[1] = 2.0 * np.sum(np.arange(2, degree + 1) * np.abs(coeffs[2:])) + 1.0
        core = PolynomialMap(coeffs=coeffs, neg_residual=0.0)
        seen = []

        def record(values):
            seen.append(values)
            return unwrap_closed(values)

        monkeypatch.setattr(geometry_checks, "unwrap_closed", record)
        assert univalence_check(core, grid) == 0
        d = core.derivative_coeffs()
        nodes = np.exp(2j * np.pi * np.arange(grid) / grid)
        err = np.max(np.abs(seen[0] - horner(d, nodes)))
        assert err <= 1e-13 * np.sum(np.abs(d))


class TestRenderer:
    def test_path_count(self):
        svg = render_polar_net(identity_map(), spokes=8, circles=4, samples=64)
        assert svg.count("<polyline") == 8 + 4 + 1

    def test_path_bytes_match_per_point_format(self):
        # the one-format path writes what formatting each coordinate alone
        # with format(x, ".12g") wrote, signed zeros and non-finite values too
        def per_point(points):
            fmt = lambda x: format(float(x), ".12g")
            coords = " ".join(f"{fmt(p.real)},{fmt(-p.imag)}" for p in points)
            return f'<polyline fill="none" points="{coords}"/>'

        rng = np.random.default_rng(5)
        scale = 10.0 ** rng.integers(-300, 300, (2, 200))
        points = np.empty(200, dtype=complex)
        points.real = rng.standard_normal(200) * scale[0]
        points.imag = rng.standard_normal(200) * scale[1]
        # every pair of +-0, nan, +-inf and the smallest subnormal
        special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324])
        pairs = np.empty(special.size**2, dtype=complex)
        pairs.real = np.repeat(special, special.size)
        pairs.imag = np.tile(special, special.size)
        for pts in (points, pairs):
            assert geometry_checks._path(pts) == per_point(pts)
        assert geometry_checks._path(points[:0]) == per_point(points[:0])

    def test_deterministic(self, quadratic_curve):
        cm = smooth_map(PipelineConfig(boundary=quadratic_curve, M=16, P=128, D=8))
        a = render_polar_net(cm, spokes=6, circles=3, samples=128)
        b = render_polar_net(cm, spokes=6, circles=3, samples=128)
        assert a == b

    def test_viewbox_covers_image(self):
        svg = render_polar_net(identity_map(), spokes=4, circles=2, samples=64)
        header = svg.split('viewBox="')[1].split('"')[0]
        x0, y0, w, h = (float(v) for v in header.split())
        assert x0 <= -1.0 and x0 + w >= 1.0
        assert y0 <= -1.0 and y0 + h >= 1.0

    def test_truncated_path_annotation(self):
        # second stage rejects points left of Re=4, so most paths truncate
        cm = ComposedMap(
            stages=(
                PlaneTransform("affine", (1.0, -4.0)),
                PlaneTransform("cf_root", (1, 2, 3)),
            ),
            core=PolynomialMap(coeffs=[0.0, 1.0], neg_residual=0.0),
        )
        svg = render_polar_net(cm, spokes=4, circles=2, samples=32)
        assert "data-warning" in svg

    @staticmethod
    def per_sample_runs(cmap, zeta_arr):
        """The reference of :func:`geometry_checks._evaluated` split by
        :func:`geometry_checks._runs`: one evaluation per sample, a run
        ended at each rejected one."""
        runs, run, skipped = [], [], []
        for i, zv in enumerate(zeta_arr):
            try:
                run.append(evaluate_composed(cmap, zv))
            except DomainError:
                skipped.append(i)
                if run:
                    runs.append(np.asarray(run, dtype=complex))
                run = []
        if run:
            runs.append(np.asarray(run, dtype=complex))
        return runs, skipped

    def assert_runs_match_per_sample(self, cmap, zeta_arr):
        runs, skipped = geometry_checks._runs(*geometry_checks._evaluated(cmap, zeta_arr))
        expect, expect_skipped = self.per_sample_runs(cmap, zeta_arr)
        assert skipped == expect_skipped
        assert [len(r) for r in runs] == [len(r) for r in expect]
        # the core's matrix product rounds by batch size, and a root stage
        # near its branch point magnifies that: measured 1.6e-15 of 1.05
        for run, ref in zip(runs, expect):
            assert np.max(np.abs(run - ref)) <= 1e-14 * np.max(np.abs(ref))
        return skipped

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 300),
        on_cut=st.lists(st.integers(0, 299), max_size=40),
        seed=st.integers(0, 2**16),
    )
    def test_runs_bisect_to_the_rejected_samples(self, n, on_cut, seed):
        # the cf_root stage rejects its cut, here every real zeta
        cm = ComposedMap(
            stages=(
                PlaneTransform("affine", (1.0, -4.0)),
                PlaneTransform("cf_root", (1, 2, 3)),
            ),
            core=PolynomialMap(coeffs=[0.0, 1.0], neg_residual=0.0),
        )
        rng = np.random.default_rng(seed)
        zeta = 0.9 * rng.uniform(-1, 1, n) * np.exp(1j * rng.uniform(0.1, 3.0, n))
        cut = [i for i in on_cut if i < n]
        zeta[cut] = zeta[cut].real
        assert self.assert_runs_match_per_sample(cm, zeta) == sorted(set(cut))

    def test_corner_map_runs_match_per_sample(self):
        from cforge import corner_map

        from contours import corner_contour

        # a criterion-7 corner at cli sizes: zeta = -1 lands on the root's cut
        t = 2 * np.pi * np.arange(1024) / 1024
        cm = corner_map(PipelineConfig(
            samples=corner_contour(t, 1, 3), corner={"t0": 0.0, "k": 1, "N": 3},
            M=64, P=512, D=50, n_iter=6, refit_degree=32,
        ))
        ring = np.exp(2j * np.pi * np.arange(257) / 256)
        spoke = np.linspace(0.0, 1.0, 256) * -1.0
        arc = np.exp(1j * (np.pi + np.linspace(-0.1, 0.1, 101)))
        for zeta, skipped in ((ring, [128]), (spoke, [255]), (arc, [50])):
            assert self.assert_runs_match_per_sample(cm, zeta) == skipped

    def test_validation(self):
        with pytest.raises(InputError):
            render_polar_net(identity_map(), spokes=0, circles=4)
        for samples in (-3, 0, 1):
            with pytest.raises(InputError, match="at least 2 samples"):
                render_polar_net(identity_map(), samples=samples)
        assert "<polyline" in render_polar_net(identity_map(), samples=2)


FIGURES = Path(__file__).parent / "data" / "figures"

# attributes whose values are lists of renderer-formatted floats
_NUMERIC_ATTR = re.compile(r'\b(viewBox|stroke-width|points)="([^"]*)"')
_TOKEN = re.compile(r"[^ ,]+")


def _split_svg(svg):
    """Split an SVG into its non-numeric skeleton and its numeric tokens.

    Every float in a numeric attribute becomes ``#`` in the skeleton, so the
    skeleton still fixes path count and order, point counts, separators,
    attributes and ``data-warning`` text.
    """
    tokens = []

    def stash(m):
        tokens.extend(_TOKEN.findall(m.group(2)))
        return f'{m.group(1)}="{_TOKEN.sub("#", m.group(2))}"'

    return _NUMERIC_ATTR.sub(stash, svg), tokens


def _assert_matches_fixture(svg, name):
    skeleton, tokens = _split_svg(svg)
    ref_skeleton, ref_tokens = _split_svg((FIGURES / name).read_text())
    assert skeleton == ref_skeleton
    bad = [tok for tok in tokens if format(float(tok), ".12g") != tok]
    assert not bad, f"non-canonical float tokens: {bad[:5]}"
    drift = np.max(np.abs(np.array(tokens, float) - np.array(ref_tokens, float)))
    assert drift <= 1e-9, f"max coordinate drift {drift:.3e} from {name}"


def _drawn_boundary(svg):
    """Points of the boundary image, the last curve drawn (a polyline, or a
    group of polylines split at skipped samples), y flipped back."""
    curves = re.findall(r'<g data-warning="[^"]*">.*?</g>|<polyline[^>]*/>', svg, re.S)
    runs = re.findall(r'points="([^"]*)"', curves[-1])
    xy = np.array([p.split(",") for run in runs for p in run.split()], dtype=float)
    return xy[:, 0] - 1j * xy[:, 1]


def _distance_to_contour(points, contour):
    """Distance from each point to the nearest of 2^16 contour samples."""
    from scipy.spatial import cKDTree

    ref = contour(2.0 * np.pi * np.arange(2**16) / 2**16)
    dist, _ = cKDTree(np.c_[ref.real, ref.imag]).query(
        np.c_[points.real, points.imag]
    )
    return dist


class TestFigureRegressions:
    """Pinned-config polar nets, each checked two ways.

    Fixture check: the rendered SVG is compared with a committed fixture in
    ``tests/data/figures``.  The non-numeric skeleton (path count and order,
    point counts, attributes, ``data-warning`` text) must match exactly,
    every float must be in the renderer's canonical ``.12g`` form, and every
    number must agree within an absolute 1e-9.  That tolerance sits far
    above last-bit drift between numpy/BLAS builds (about 1e-12 on figures
    of extent about 2) and far below the solver's own accuracy, so a real
    change to solver, renderer or float formatting still fails here.

    Geometric check: independent of the fixture, the drawn boundary must lie
    near the analytic target contour and the map must pass its own quality
    checks, which shows the fixture itself is right.

    A fixture changes only together with a CHANGES.md entry that says why.
    """

    def test_piecewise_circular_smooth_figure(self):
        from cforge import PipelineConfig, fit_from_samples, smooth_map

        from contours import three_semicircle_contour

        t = 2 * np.pi * np.arange(8192) / 8192
        samples = three_semicircle_contour(t)[::32]
        curve = fit_from_samples(samples, 10, 10)
        cm = smooth_map(PipelineConfig(boundary=curve, M=64, P=512, D=50))
        svg = render_polar_net(cm, spokes=8, circles=4, samples=256)
        _assert_matches_fixture(svg, "piecewise_circular_smooth.svg")

        # the degree-10 fit rounds the three junctions: measured 0.0097
        boundary = _drawn_boundary(svg)
        assert len(boundary) == 257
        assert np.max(_distance_to_contour(boundary, three_semicircle_contour)) < 0.015
        # the map itself tracks the fitted curve much closer: measured 1.66e-3
        rep = boundary_deviation(cm, curve, grid=1024)
        assert rep.sup_deviation < 2.5e-3
        assert rep.univalence_winding == 0
        assert rep.monotone_theta

    def test_sector_fraction_figure(self):
        from cforge import PipelineConfig, corner_map
        from cforge.pipelines import measure_corner_angle

        from contours import corner_contour

        t = 2 * np.pi * np.arange(4096) / 4096
        cfg = PipelineConfig(
            samples=corner_contour(t, 1, 3),
            corner={"t0": 0.0, "k": 1, "N": 3},
            M=96,
            P=768,
            D=50,
            n_iter=6,
            refit_degree=48,
        )
        cm = corner_map(cfg)
        svg = render_polar_net(cm, spokes=8, circles=4, samples=256)
        # zeta = -1, the corner preimage, has its image on the cf_root
        # branch cut: the renderer skips that one sample (spoke at angle pi,
        # boundary sample 128) and the skeleton pins the data-warnings.
        _assert_matches_fixture(svg, "sector_fraction.svg")
        assert 'data-warning="stage-domain-error at samples 128"' in svg

        # every boundary sample but zeta = -1 is drawn: measured 0.0064
        boundary = _drawn_boundary(svg)
        assert len(boundary) == 256
        dist = _distance_to_contour(boundary, lambda s: corner_contour(s, 1, 3))
        assert np.max(dist) < 0.01
        # criterion 7's angle tolerance: measured error 4.9e-4
        assert abs(measure_corner_angle(cm) - np.pi / 3) < 0.05


def test_deviation_decreases_with_resolution():
    from cforge import PipelineConfig, smooth_map
    from cforge.suites import planted_oracle_curve

    # planted oracle sits at the distance-measurement floor from M=16 on:
    # doubling resolution never degrades it beyond factor-2 noise
    curve = planted_oracle_curve()
    devs = []
    for M, D in ((16, 8), (32, 16), (64, 32)):
        cm = smooth_map(PipelineConfig(boundary=curve, M=M, P=8 * M, D=D))
        devs.append(boundary_deviation(cm, curve, grid=512).sup_deviation)
    for d0, d1 in zip(devs, devs[1:]):
        assert d1 <= 2.0 * d0

    # the slender ellipse is resolution-limited, so there the decrease
    # is strict
    from contours import ellipse_curve

    ell = ellipse_curve()
    devs = []
    for M in (32, 64, 128):
        cm = smooth_map(PipelineConfig(boundary=ell, M=M, P=8 * M, D=4 * M))
        devs.append(boundary_deviation(cm, ell, grid=512).sup_deviation)
    assert devs[2] < devs[1] < devs[0]
