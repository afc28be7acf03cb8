import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cforge import (
    CFApproximant,
    FourierCurve,
    PipelineConfig,
    PlaneTransform,
    corner_map,
    evaluate_composed,
    measure_corner_angle,
    rate_estimate,
    slender_map,
    smooth_map,
)
from cforge.errors import (
    DomainError,
    InputError,
    PipelineError,
    RefitQualityError,
    SectorViolationError,
    SelfIntersectionError,
)
from cforge import geometry_checks, pipelines, reparam_solver
from cforge.fourier_boundary import eval_curve, horner
from cforge.pipelines import _check_simple, area_centroid, winding_number
from cforge.suites import planted_oracle_curve

from contours import corner_contour, ellipse_curve


def fold_config(k, N, n_iter, D=50, M=96, refit=48, samples=4096):
    t = 2 * np.pi * np.arange(samples) / samples
    return PipelineConfig(
        samples=corner_contour(t, k, N),
        corner={"t0": 0.0, "k": k, "N": N},
        M=M,
        P=8 * M,
        D=D,
        n_iter=n_iter,
        refit_degree=refit,
    )


class TestTransforms:
    def test_affine(self):
        tr = PlaneTransform("affine", (2.0, 1j))
        assert tr(1.0 + 0j) == pytest.approx(2.0 + 1j)

    def test_power_principal(self):
        tr = PlaneTransform("power", (2, 1))
        assert tr(1j) == pytest.approx(-1.0, abs=1e-12)
        assert tr(0.0 + 0j) == 0.0

    def test_power_integer_pair(self):
        with pytest.raises(InputError):
            PlaneTransform("power", (1.5, 1))

    def test_cf_root_stage(self):
        tr = PlaneTransform("cf_root", (1, 2, 3))
        assert tr(4.0 + 0j) == pytest.approx(80 / 41, abs=1e-14)

    def test_power_cf_roundtrip_bound(self, rng):
        # approximant fold followed by the recorded power inverse returns
        # the input within the contraction bound rho^n (factor-10 slack)
        n_iter = 12
        for (k, N) in [(1, 2), (1, 3), (2, 3), (3, 5)]:
            power = PlaneTransform("power", (N, k))
            fold = PlaneTransform("cf_root", (k, N, n_iter))
            w = np.exp(rng.uniform(np.log(0.3), np.log(3.0), 100)) * np.exp(
                1j * rng.uniform(-1.2, 1.2, 100)
            )
            back = power(fold(w))
            rho = rate_estimate(w, CFApproximant(k, N, 1))
            bound = 10.0 * np.maximum(rho, 1e-16) ** n_iter * (np.abs(w) + 1.0)
            assert np.all(np.abs(back - w) <= bound + 1e-12)


class TestGeometryHelpers:
    def test_area_centroid_circle(self):
        t = 2 * np.pi * np.arange(4096) / 4096
        A, c = area_centroid(2.0 * np.exp(1j * t) + (1.0 + 1j))
        assert A == pytest.approx(4 * np.pi, rel=1e-5)
        assert c == pytest.approx(1.0 + 1j, abs=1e-6)

    def test_winding(self):
        t = 2 * np.pi * np.arange(512) / 512
        circle = np.exp(1j * t)
        assert winding_number(circle, 0.0) == 1
        assert winding_number(circle, 2.0) == 0


class TestSmooth:
    def test_unit_circle_identity(self, unit_circle):
        cm = smooth_map(PipelineConfig(boundary=unit_circle, M=8, P=64, D=4))
        assert np.allclose(cm.core.coeffs, [0, 1, 0, 0, 0], atol=1e-12)
        assert cm.stages == ()
        assert evaluate_composed(cm, 0.5j) == pytest.approx(0.5j, abs=1e-12)

    def test_known_quadratic(self, quadratic_curve):
        cm = smooth_map(PipelineConfig(boundary=quadratic_curve, M=32, P=256, D=8))
        expect = np.zeros(9, dtype=complex)
        expect[1], expect[2] = 1.0, 0.3
        assert np.max(np.abs(cm.core.coeffs - expect)) < 1e-10

    def test_planted_oracle(self):
        curve = planted_oracle_curve()
        cm = smooth_map(PipelineConfig(boundary=curve, M=64, P=512, D=16))
        expect = np.zeros(17, dtype=complex)
        expect[1], expect[2] = 1.0, 0.1
        assert np.max(np.abs(cm.core.coeffs - expect)) < 5e-3

    def test_offset_boundary_gets_affine_stage(self):
        curve = FourierCurve((0, 1), (2.0 + 1j, 1.0))
        cm = smooth_map(PipelineConfig(boundary=curve, M=8, P=64, D=4))
        assert len(cm.stages) == 1 and cm.stages[0].kind == "affine"
        assert evaluate_composed(cm, 0.0) == pytest.approx(2.0 + 1j, abs=1e-12)


class TestCorner:
    @pytest.mark.parametrize("k,N,n_iter", [(1, 2, 11), (1, 3, 6), (2, 3, 4)])
    def test_paper_resolution_angles(self, k, N, n_iter):
        cm = corner_map(fold_config(k, N, n_iter))
        angle = measure_corner_angle(cm)
        assert abs(angle - k * np.pi / N) < 0.05
        assert cm.core.neg_residual < 1e-3

    def test_offset_rotated_contour(self):
        # same contour shifted and rotated: stages restore the placement
        t = 2 * np.pi * np.arange(4096) / 4096
        shift, spin = 2.0 - 1.0j, np.exp(0.6j)
        samples = spin * corner_contour(t, 1, 2) + shift
        cfg = PipelineConfig(
            samples=samples,
            corner={"t0": 0.0, "k": 1, "N": 2},
            M=96,
            P=768,
            D=50,
            n_iter=11,
            refit_degree=48,
        )
        cm = corner_map(cfg)
        angle = measure_corner_angle(cm)
        assert abs(angle - np.pi / 2) < 0.05
        corner_pos = complex(*cm.provenance["corner"]["position"])
        assert corner_pos == pytest.approx(shift, abs=1e-12)

    def test_angle_error_decreases_with_iterations(self):
        errs = []
        for n_iter in (2, 4, 8):
            cm = corner_map(fold_config(1, 2, n_iter))
            errs.append(abs(measure_corner_angle(cm) - np.pi / 2))
        assert errs[1] <= 2 * errs[0]
        assert errs[2] <= 2 * errs[1]
        assert errs[2] < errs[0]

    def test_sector_violation(self):
        # declaring a much narrower opening than the contour has must fail
        t = 2 * np.pi * np.arange(2048) / 2048
        cfg = PipelineConfig(
            samples=corner_contour(t, 1, 2),
            corner={"t0": 0.0, "k": 1, "N": 4},
            M=16,
            D=8,
        )
        with pytest.raises(SectorViolationError):
            corner_map(cfg)

    def test_corner_requires_declaration(self, unit_circle):
        with pytest.raises(InputError):
            corner_map(PipelineConfig(boundary=unit_circle, M=8, D=4))


class TestSlender:
    def test_circle_treated_as_slender(self, unit_circle):
        cfg = PipelineConfig(
            boundary=unit_circle,
            slender={"a": -2.0},
            M=48,
            P=384,
            D=48,
            n_iter=20,
        )
        cm = slender_map(cfg)
        zeta = np.exp(2j * np.pi * np.arange(64) / 64) * 0.9
        assert np.max(np.abs(evaluate_composed(cm, zeta) - zeta)) < 1e-4

    def test_anchor_search_prepares_the_target_once(self, monkeypatch):
        grids = []
        build = geometry_checks._nearest_distance

        def counted(target, grid):
            grids.append(grid)
            return build(target, grid)

        monkeypatch.setattr(geometry_checks, "_nearest_distance", counted)
        cfg = PipelineConfig(
            boundary=ellipse_curve(), slender={"a": None}, M=32, P=256, D=64, n_iter=20
        )
        cm = slender_map(cfg)
        log = cm.provenance["slender"]["anchor_search"]
        assert len(log) == len(pipelines.ANCHOR_FRACTIONS)
        assert grids == [pipelines.ANCHOR_SEARCH_GRID]
        # the chosen candidate's score is its distance measured afresh
        chosen = [e for e in log if e["anchor"] == cm.provenance["slender"]["anchor"]]
        fresh = geometry_checks.boundary_distances(
            ellipse_curve(), pipelines.ANCHOR_SEARCH_GRID
        )(cm)
        assert chosen[0]["sup_deviation"] == float(np.max(fresh))

    def test_anchor_search_skips_cores_not_locally_injective(self):
        # at this size the cores re-anchored at fractions 0 and 0.125 wind 28
        # and 14 times (their derivatives vanish in the disk); the search
        # ranks only the others
        cfg = PipelineConfig(
            boundary=ellipse_curve(), slender={"a": None}, M=32, P=256, D=64, n_iter=20
        )
        cm = slender_map(cfg)
        log = cm.provenance["slender"]["anchor_search"]
        rejected = [e for e in log if "rejected" in e]
        assert [e["frac"] for e in rejected] == [0.0, 0.125]
        assert [e["rejected"] for e in rejected] == [
            "core winding 28: not locally injective",
            "core winding 14: not locally injective",
        ]
        assert all("sup_deviation" not in e for e in rejected)
        assert cm.provenance["slender"]["anchor"] == log[2]["anchor"]
        assert geometry_checks.univalence_check(cm.core, 8 * cm.core.degree) == 0

    def test_anchor_search_without_injective_core_fails(self, monkeypatch):
        monkeypatch.setattr(geometry_checks, "univalence_check", lambda core, grid: 1)
        cfg = PipelineConfig(
            boundary=ellipse_curve(), slender={"a": None}, M=32, P=256, D=64, n_iter=20
        )
        with pytest.raises(PipelineError, match="locally injective"):
            slender_map(cfg)

    def test_default_a_at_a_cusp_is_input_error(self):
        # the cardioid e^{it} + e^{2it}/2 has z'(pi) = 0 at a grid node:
        # its tangent there is round-off, so no outward normal exists
        cfg = PipelineConfig(
            boundary=FourierCurve((1, 2), (1.0, 0.5)), slender={"a": None}, M=16, D=16
        )
        with pytest.raises(InputError, match="cusp"):
            slender_map(cfg)

    def test_a_inside_rejected(self):
        cfg = PipelineConfig(
            boundary=ellipse_curve(), slender={"a": 0.2 + 0.05j}, M=16, D=8
        )
        with pytest.raises(PipelineError):
            slender_map(cfg)

    def test_op_example_builds_and_certifies(self):
        # a = -1.02 sits closer than the half-plane-insertion margin, so the
        # squared boundary hooks around the origin; the build must still
        # produce a monotone, locally injective map with a small residual
        cfg = PipelineConfig(
            boundary=ellipse_curve(),
            slender={"a": -1.02},
            M=200,
            P=1600,
            D=400,
            n_iter=20,
            sample_grid=8192,
        )
        cm = slender_map(cfg)
        assert cm.provenance["solver"]["monotone"]
        assert cm.core.neg_residual < 1e-2
        from cforge import univalence_check

        assert univalence_check(cm.core, 8 * cm.core.degree) == 0

    def test_anchor_can_be_pinned(self, unit_circle):
        cfg = PipelineConfig(
            boundary=unit_circle,
            slender={"a": -2.0},
            M=32,
            P=256,
            D=24,
            n_iter=16,
            anchor=4.0 + 0.0j,
        )
        cm = slender_map(cfg)
        assert cm.provenance["slender"]["anchor"] == [4.0, 0.0]
        zeta = 0.7 * np.exp(2j * np.pi * np.arange(32) / 32)
        assert np.max(np.abs(evaluate_composed(cm, zeta) - zeta)) < 1e-3


    def test_anchor_search_extracts_base_core_once(self, monkeypatch):
        from cforge import pipelines, reparam_solver

        calls = []
        extract = reparam_solver.taylor_from_correspondence

        def counted(*args, **kwargs):
            calls.append(1)
            return extract(*args, **kwargs)

        # every core is made by taylor_coeffs, which resolves this name
        monkeypatch.setattr(reparam_solver, "taylor_from_correspondence", counted)
        cfg = PipelineConfig(
            boundary=ellipse_curve(), slender={"a": None}, M=32, P=256, D=128,
            n_iter=20,
        )
        cm = slender_map(cfg)
        # the base core plus one per re-anchored candidate
        assert len(calls) == len(pipelines.ANCHOR_FRACTIONS)
        assert len(cm.provenance["slender"]["anchor_search"]) == len(calls)

    def test_reanchor_newton_must_converge(self):
        from cforge.pipelines import _reanchor
        from cforge.reparam_solver import PolynomialMap

        # Newton on beta^3 - 2 beta + 2 from 0 cycles 0 -> 1 -> 0 exactly
        core = PolynomialMap(coeffs=[0.0, -2.0, 0.0, 1.0], neg_residual=0.0)
        theta = 2 * np.pi * np.arange(64) / 64
        with pytest.raises(PipelineError, match=r"residual 2\.000e\+00 after 80 steps"):
            _reanchor(theta, core, 0.0, -2.0)
        # a reachable target converges and re-anchors
        again = _reanchor(theta, core, 0.0, -0.5)
        assert np.all(np.diff(again) > 0)

    def test_reanchor_stops_when_newton_leaves_the_disk(self, monkeypatch):
        from cforge.pipelines import _reanchor
        from cforge.reparam_solver import PolynomialMap

        calls = []

        def counted(coeffs, z):
            calls.append(np.shape(coeffs))
            return horner(coeffs, z)

        monkeypatch.setattr(pipelines, "horner", counted)
        # Newton on 2 beta - 3 from 0 lands on the preimage 3/2 at once
        core = PolynomialMap(coeffs=[0.0, 2.0], neg_residual=0.0)
        theta = 2 * np.pi * np.arange(64) / 64
        with pytest.raises(PipelineError, match="left the unit disk at step 1"):
            _reanchor(theta, core, 0.0, 3.0)
        # value and slope come from one two-row evaluation per step
        assert calls == [(2, 2)]

    @pytest.mark.parametrize("M, P, D", [(150, 600, 2000), (300, 1200, 4000)])
    def test_slender_8_to_1_rejects_anchors_outside_the_solve(self, M, P, D, monkeypatch):
        import warnings

        reanchor, outcomes = pipelines._reanchor, []

        def recorded(*args):
            try:
                return reanchor(*args)
            except PipelineError as exc:
                outcomes.append(str(exc))
                raise

        monkeypatch.setattr(pipelines, "_reanchor", recorded)
        cfg = PipelineConfig(
            boundary=FourierCurve((-1, 1), (0.4375, 0.5625)), slender={"a": None},
            M=M, P=P, D=D, n_iter=60,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PipelineError, match="no anchor candidate gave a locally"):
                slender_map(cfg)
        # the two candidates nearest the area centroid lie outside the
        # solved disk: Newton leaves it at once, with no overflow
        assert len(outcomes) == 2
        assert all("left the unit disk at step 1" in text for text in outcomes)


# small ellipse-like curves z = a e^{it} + b e^{-it} + c e^{2it}, Jordan
# because |b| + 2|c| < |a|
_unit = st.floats(-1.0, 1.0)
_small = st.builds(complex, _unit, _unit)
_shapes = st.tuples(
    st.floats(0.5, 2.0), _small.map(lambda v: 0.2 * v), _small.map(lambda v: 0.05 * v)
)


def _shape_curve(shape, offset=0j, phase=0.0):
    a, b, c = shape
    rot = np.exp(1j * phase)
    cs = (offset, rot * a, rot * b, rot * c)
    return FourierCurve((0, 1, -1, 2), cs)


def _backbone_config(curve):
    return PipelineConfig(boundary=curve, M=16, P=128, D=32)


BACKBONE = settings(max_examples=12, deadline=None, derandomize=True)
BACKBONE_CASES = {
    "smooth": (
        smooth_map, lambda: _backbone_config(_shape_curve((1.0, 0.2, 0.05j), 3.0))
    ),
    "corner": (corner_map, lambda: fold_config(1, 2, 8, D=24, M=48, refit=24)),
    "slender": (slender_map, lambda: PipelineConfig(
        boundary=ellipse_curve(), slender={"a": None}, M=32, P=256, D=64, n_iter=20,
    )),
}


class TestRefitCut:
    """FFT refits end each side of the support at the round-off floor."""

    def test_slender_squared_ellipse_solves_at_its_support(self):
        cfg = PipelineConfig(
            boundary=ellipse_curve(), slender={"a": None}, M=32, P=256, D=64, n_iter=20
        )
        solver = slender_map(cfg).provenance["solver"]
        # the squared ellipse has support [-2, 2]; the degree-24 refit
        # carried a round-off tail out to |k| = 24
        assert cfg.refit_degree == 24
        assert (solver["n"], solver["m"]) == (2, 2)

    def test_genuine_tail_is_kept(self):
        t = 2 * np.pi * np.arange(4096) / 4096
        tail = 1e-12 * (np.exp(9j * t) + np.exp(-11j * t))
        samples = np.exp(1j * t) + 0.2 * np.exp(-1j * t) + tail
        curve, _ = pipelines._refit(PipelineConfig(samples=samples, refit_degree=24))
        assert (curve.n, curve.m) == (9, 11)
        assert abs(curve.coeff(9) - 1e-12) < 1e-15
        assert abs(curve.coeff(-11) - 1e-12) < 1e-15

    def test_pinned_corner_refit_keeps_every_term(self):
        # the benchmark's corner job: its smallest end coefficient is
        # about 8.6e-8, far above the floor
        cm = corner_map(fold_config(1, 2, 11, D=50, M=128, refit=64))
        solver = cm.provenance["solver"]
        assert (solver["n"], solver["m"], solver["P"]) == (64, 64, 1024)

    def test_refit_of_samples_is_cut(self):
        t = 2 * np.pi * np.arange(1024) / 1024
        samples = np.exp(1j * t) + 0.2 * np.exp(-1j * t)
        cfg = PipelineConfig(samples=samples, M=16, D=16)
        solver = smooth_map(cfg).provenance["solver"]
        assert (solver["n"], solver["m"]) == (1, 1)

    @pytest.mark.parametrize("slender", [None, {"a": None}], ids=["smooth", "slender"])
    def test_sampled_boundary_refit_is_checked(self, slender):
        # the centred k/N = 1/2 corner contour is 0.264 away from its
        # degree-4 fit, against a radius of 0.937
        t = 2 * np.pi * np.arange(1024) / 1024
        z = corner_contour(t, 1, 2)
        cfg = PipelineConfig(
            samples=z - z.mean(), slender=slender, refit_degree=4, M=16, D=16
        )
        build = smooth_map if slender is None else slender_map
        with pytest.raises(RefitQualityError, match="sampled boundary refit"):
            build(cfg)

    def test_sampled_boundary_records_its_refit(self):
        t = 2 * np.pi * np.arange(1024) / 1024
        samples = 0.625 * np.exp(1j * t) + 0.375 * np.exp(-1j * t)
        size = dict(M=32, P=256, D=64, n_iter=20)
        smooth = smooth_map(PipelineConfig(samples=samples, **size)).provenance
        assert smooth["refit_deviation"] < 1e-14
        cfg = PipelineConfig(samples=samples, slender={"a": None}, **size)
        slender = slender_map(cfg).provenance
        assert slender["boundary_refit_deviation"] < 1e-14
        assert slender["refit_deviation"] < 1e-13  # the squared boundary's
        given = smooth_map(PipelineConfig(boundary=ellipse_curve(), **size))
        assert "refit_deviation" not in given.provenance


# (n, m) of each backbone case's solved curve: the smooth curve as given,
# the refits of the straightened corner and the squared ellipse after the cut
SOLVED_SUPPORT = {"smooth": (2, 1), "corner": (24, 24), "slender": (2, 2)}
# the quadrature grid per M: the squared ellipse's kernel has not reached
# round-off by mode 2M at M=32, so its solve falls back to P
ASSEMBLY_PER_M = {"smooth": 4, "corner": 4, "slender": 8}


class TestBackbone:
    @BACKBONE
    @given(
        shape=_shapes,
        offset=st.builds(complex, st.floats(4.0, 8.0), st.floats(-8.0, 8.0)),
        shift=st.builds(complex, st.floats(0.0, 8.0), st.floats(-8.0, 8.0)),
    )
    def test_translation_moves_into_affine_stage(self, shape, offset, shift):
        # both curves leave the origin outside, so each is solved about its mean
        a = smooth_map(_backbone_config(_shape_curve(shape, offset)))
        b = smooth_map(_backbone_config(_shape_curve(shape, offset + shift)))
        assert np.array_equal(a.core.coeffs, b.core.coeffs)
        assert [t.kind for t in b.stages] == ["affine"]
        assert b.stages[0].params == (1.0, offset + shift)

    @BACKBONE
    @given(shape=_shapes, phi=st.floats(-np.pi, np.pi))
    def test_rotation_turns_the_coefficients(self, shape, phi):
        base = smooth_map(_backbone_config(_shape_curve(shape))).core.coeffs
        turned = smooth_map(_backbone_config(_shape_curve(shape, phase=phi))).core
        k = np.arange(len(base))
        # Z(zeta) -> e^{i phi} Z(e^{-i phi} zeta) keeps c_1 real positive
        expect = base * np.exp(1j * phi * (1 - k))
        assert np.max(np.abs(turned.coeffs - expect)) <= 1e-14 * np.max(np.abs(base))

    @pytest.mark.parametrize("kind", sorted(BACKBONE_CASES))
    def test_provenance_records_the_backbone(self, kind):
        build, make_config = BACKBONE_CASES[kind]
        cfg = make_config()
        cm = build(cfg)
        prov = cm.provenance
        assert prov["kind"] == kind
        assert prov["config"] == cfg.snapshot()
        assert prov["construction"]
        for desc in prov["construction"]:
            assert PlaneTransform.from_dict(desc).describe() == desc
        assert prov["solver"] == {
            "M": cfg.M,
            "P": cfg.P,
            "n": SOLVED_SUPPORT[kind][0],
            "m": SOLVED_SUPPORT[kind][1],
            "condition": prov["solver"]["condition"],
            "assembly_P": ASSEMBLY_PER_M[kind] * cfg.M,
            "kernel_tail": prov["solver"]["kernel_tail"],
            "monotone": True,
            "neg_residual": cm.core.neg_residual,
        }
        assert prov["solver"]["kernel_tail"] <= reparam_solver.KERNEL_TAIL_TOL
        assert (cm.core.solver_M, cm.core.solver_P) == (cfg.M, cfg.P)


SPIN, SHIFT = np.exp(0.6j), 2.0 - 1.0j


class TestConstruction:
    """The recorded construction is the computation: boundary samples
    mapped through ``provenance["construction"]`` land on the boundary image
    of the core.  Both domains are turned by SPIN and moved by SHIFT, so a
    wrongly recorded pivot or direction throws the samples off by O(1)."""

    # measured sup distances: corner 1.08e-3, slender 0.100 (the Taylor
    # core's truncation error at the slender tip); each bound is about 10x
    @pytest.mark.parametrize("kind, bound", [("corner", 1e-2), ("slender", 1.0)])
    def test_samples_land_on_the_core_image(self, kind, bound):
        if kind == "corner":
            cfg = fold_config(1, 2, 11, D=200)
            cfg = replace(cfg, samples=SPIN * cfg.samples + SHIFT)
            cm, z = corner_map(cfg), cfg.samples
        else:
            curve = ellipse_curve()
            moved = FourierCurve.from_coeffs(
                {0: SHIFT, **{k: SPIN * c for k, c in curve.coeffs.items()}}
            )
            cfg = PipelineConfig(
                boundary=moved, slender={"a": None}, M=300, P=2400, D=1000, n_iter=20
            )
            cm = slender_map(cfg)
            z = eval_curve(moved, 2 * np.pi * np.arange(4096) / 4096)
        construction = cm.provenance["construction"]
        assert [d["kind"] for d in construction] == ["affine", "affine", "power", "affine"]
        for desc in construction:
            z = PlaneTransform.from_dict(desc)(z)
        c = cm.core.coeffs
        image = FourierCurve(tuple(range(len(c))), tuple(c))
        dist = geometry_checks._nearest_distance(image, len(z))(z)
        assert np.max(dist) < bound


class TestEvaluate:
    def test_outside_disk_rejected(self, unit_circle):
        cm = smooth_map(PipelineConfig(boundary=unit_circle, M=8, P=64, D=4))
        with pytest.raises(InputError):
            evaluate_composed(cm, 1.5 + 0j)

    def test_domain_error_reports_stage(self):
        core = __import__("cforge").reparam_solver.PolynomialMap(
            coeffs=[0.0, 1.0], neg_residual=0.0
        )
        cm = __import__("cforge").pipelines.ComposedMap(
            stages=(
                PlaneTransform("affine", (1.0, -5.0)),
                PlaneTransform("cf_root", (1, 2, 4)),
            ),
            core=core,
        )
        with pytest.raises(DomainError, match="stage 1"):
            evaluate_composed(cm, 0.5 + 0j)

    def test_interior_point_winding(self):
        cm = corner_map(fold_config(1, 2, 8, D=40, M=64, refit=32))
        center = evaluate_composed(cm, 0.0)
        t = 2 * np.pi * np.arange(4096) / 4096
        boundary = corner_contour(t, 1, 2)
        assert winding_number(boundary, center) == 1


class TestConfigJson:
    def test_snapshot_samples_keep_every_bit(self):
        t = 2 * np.pi * np.arange(257) / 257
        samples = corner_contour(t, 1, 3) * (0.3 - 1.7j) + (1e-17 + 2j)
        cfg = PipelineConfig(samples=samples, corner={"t0": 0.0, "k": 1, "N": 3})
        snap = cfg.snapshot()["boundary"]["samples"]
        assert json.dumps(snap) == json.dumps([[z.real, z.imag] for z in samples])
        again = PipelineConfig.from_json(json.dumps(cfg.snapshot()))
        assert np.array_equal(again.samples, cfg.samples)

    def test_roundtrip_inline_curve(self, quadratic_curve):
        cfg = PipelineConfig(boundary=quadratic_curve, M=16, D=8)
        payload = cfg.snapshot()
        again = PipelineConfig.from_json(json.dumps(payload))
        assert again.boundary.coeffs == quadratic_curve.coeffs
        assert again.M == 16 and again.D == 8

    def test_exclusive_corner_slender(self, unit_circle):
        with pytest.raises(InputError):
            PipelineConfig(
                boundary=unit_circle,
                corner={"t0": 0, "k": 1, "N": 2},
                slender={"a": -2.0},
            )

    def test_defaults(self, unit_circle):
        cfg = PipelineConfig(boundary=unit_circle)
        assert cfg.M == 64 and cfg.P == 512 and cfg.D == 256 and cfg.n_iter == 8

    @pytest.mark.parametrize("anchor", ["pinned", True, [4.0, 0.0]])
    def test_anchor_must_be_a_point(self, unit_circle, anchor):
        with pytest.raises(InputError, match="anchor must be a point"):
            PipelineConfig(boundary=unit_circle, slender={"a": -2.0}, anchor=anchor)
        # a real number is a point on the real axis
        cfg = PipelineConfig(boundary=unit_circle, slender={"a": -2.0}, anchor=4)
        assert cfg.anchor == 4.0 + 0.0j and isinstance(cfg.anchor, complex)

    @pytest.mark.parametrize(
        "block, match",
        [
            ({"corner": {"k": 1, "N": 2}}, "corner is missing the key 't0'"),
            ({"corner": {"t0": 0, "k": "one", "N": 2}}, "malformed corner"),
            ({"corner": [0.0, 1, 2]}, "malformed corner"),
            ({"slender": {"a": "x"}}, "slender a must be a point"),
            ({"slender": {"a": True}}, "slender a must be a point"),
            ({"slender": {"a_re": -1.3}}, "slender must be"),
            ({"slender": -1.3}, "slender must be"),
            ({"corner": {"t0": 0, "k": 1.5, "N": 2}}, "must be integers"),
            ({"corner": {"t0": 0, "k": 1, "N": 2.9}}, "must be integers"),
        ],
    )
    def test_python_blocks_checked(self, block, match):
        with pytest.raises(InputError, match=match):
            PipelineConfig(boundary=ellipse_curve(), **block)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("M", 16.9),
            ("M", "4"),
            ("M", True),
            ("P", 128.5),
            ("D", np.nan),
            ("n_iter", 2.5),
            ("refit_degree", 1j),
            ("sample_grid", np.inf),
        ],
    )
    def test_integer_fields_must_be_integral(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be an integer"):
            PipelineConfig(boundary=ellipse_curve(), **{field: value})

    def test_integral_numbers_are_stored_as_ints(self):
        cfg = PipelineConfig(
            boundary=ellipse_curve(), M=np.int64(16), D=8.0, n_iter=np.float64(4)
        )
        assert (cfg.M, cfg.P, cfg.D, cfg.n_iter) == (16, 128, 8, 4)
        assert all(type(v) is int for v in (cfg.M, cfg.P, cfg.D, cfg.n_iter))

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-3, "1e-3", True])
    def test_refit_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(InputError, match="refit_tol must be finite and positive"):
            PipelineConfig(boundary=ellipse_curve(), refit_tol=tol)

    def test_python_blocks_normalized(self):
        curve = ellipse_curve()
        cfg = PipelineConfig(boundary=curve, corner={"t0": 0, "k": 1.0, "N": 2})
        assert cfg.corner == {"t0": 0.0, "k": 1, "N": 2}
        assert isinstance(cfg.corner["t0"], float) and isinstance(cfg.corner["k"], int)
        assert PipelineConfig(boundary=curve, slender={}).slender == {"a": None}
        a = PipelineConfig(boundary=curve, slender={"a": -2}).slender["a"]
        assert a == -2.0 + 0.0j and isinstance(a, complex)

    def test_slender_json_default_a(self, tmp_path):
        payload = {
            "boundary": {
                "coeffs": [
                    {"k": -1, "re": 0.375, "im": 0.0},
                    {"k": 1, "re": 0.625, "im": 0.0},
                ]
            },
            "slender": {},
            "M": 16,
        }
        cfg = PipelineConfig.from_json(json.dumps(payload))
        assert cfg.slender == {"a": None}

    def test_slender_json_partial_point(self):
        payload = {"boundary": {"coeffs": [{"k": 1, "re": 1.0, "im": 0.0}]}}
        with pytest.raises(InputError, match="a_im needs a_re"):
            PipelineConfig.from_json(json.dumps({**payload, "slender": {"a_im": 1.5}}))
        # a_re alone is a point on the real axis
        cfg = PipelineConfig.from_json(json.dumps({**payload, "slender": {"a_re": -2.0}}))
        assert cfg.slender == {"a": -2.0 + 0.0j}
        assert cfg.snapshot()["slender"] == {"a_re": -2.0, "a_im": 0.0}


class TestGuardPaths:
    def test_refit_quality_error(self):
        from cforge.errors import RefitQualityError

        t = 2 * np.pi * np.arange(2048) / 2048
        cfg = PipelineConfig(
            samples=corner_contour(t, 1, 2),
            corner={"t0": 0.0, "k": 1, "N": 2},
            M=16,
            D=8,
            refit_degree=2,  # far too coarse for the straightened blob
        )
        with pytest.raises(RefitQualityError):
            corner_map(cfg)

    def test_slender_side_point_rejected(self):
        # a outside but beside the long edge: the domain is not contained
        # in any half-plane seen from a, so the square would fold over
        cfg = PipelineConfig(
            boundary=ellipse_curve(),
            slender={"a": 0.5 + 0.3j},
            M=16,
            D=8,
        )
        with pytest.raises(SectorViolationError):
            slender_map(cfg)


class TestExactFoldOracle:
    """The fold of the unit circle through 1 has a closed-form disk map:
    boundary (1 - e^{it})^(k/N) is the image of (1 + zeta)^(k/N), so the
    whole corner pipeline can be checked pointwise against the exact map,
    with the root-approximant contraction factor as the error budget."""

    @pytest.mark.parametrize("k,N", [(1, 2), (1, 3), (2, 3)])
    def test_pipeline_matches_closed_form(self, k, N):
        n_iter = 10
        t = 2 * np.pi * np.arange(4096) / 4096
        w = 1.0 - np.exp(1j * t)
        z = np.zeros_like(w)
        nz = w != 0
        z[nz] = np.exp((k / N) * np.log(w[nz]))
        cfg = PipelineConfig(
            samples=z,
            corner={"t0": 0.0, "k": k, "N": N},
            M=32,
            P=256,
            D=16,
            n_iter=n_iter,
            refit_degree=8,
        )
        cm = corner_map(cfg)
        rng = np.random.default_rng(5)
        zeta = rng.uniform(0.1, 0.9, 60) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, 60)
        )
        got = evaluate_composed(cm, zeta)
        exact = np.exp((k / N) * np.log(1.0 + zeta))
        rho = rate_estimate(1.0 + zeta, CFApproximant(k, N, 1))
        budget = 10.0 * rho**n_iter * (np.abs(1.0 + zeta) + 1.0) + 1e-9
        assert np.all(np.abs(got - exact) <= budget)

    def test_error_shrinks_with_iterations(self):
        t = 2 * np.pi * np.arange(4096) / 4096
        w = 1.0 - np.exp(1j * t)
        z = np.zeros_like(w)
        z[w != 0] = np.sqrt(w[w != 0])
        zeta = 0.6 * np.exp(2j * np.pi * np.arange(32) / 32)
        exact = np.sqrt(1.0 + zeta)
        errs = []
        for n_iter in (2, 5, 9):
            cfg = PipelineConfig(
                samples=z,
                corner={"t0": 0.0, "k": 1, "N": 2},
                M=32,
                P=256,
                D=16,
                n_iter=n_iter,
                refit_degree=8,
            )
            cm = corner_map(cfg)
            errs.append(np.max(np.abs(evaluate_composed(cm, zeta) - exact)))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-5


def dense_check_simple(points, label, max_check=1024):
    """All-pairs reference for ``_check_simple``: every segment pair is
    tested at once and the first hit of ``argwhere`` is reported."""
    n = len(points)
    step = max(1, n // max_check)
    a = points[::step]
    m = len(a)
    b = np.roll(a, -1)
    d = b - a
    denom = d.real[:, None] * d.imag[None, :] - d.imag[:, None] * d.real[None, :]
    dq = a[None, :] - a[:, None]
    t = dq.real * d.imag[None, :] - dq.imag * d.real[None, :]
    s = dq.real * d.imag[:, None] - dq.imag * d.real[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = t / denom
        s = s / denom
    eps = 1e-12
    hit = (t > eps) & (t < 1 - eps) & (s > eps) & (s < 1 - eps)
    hit &= np.abs(denom) > 1e-300
    gap = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    hit &= (gap > 1) & (gap < m - 1)
    if np.any(hit):
        i, j = np.argwhere(hit)[0]
        raise SelfIntersectionError(
            f"{label} self-intersects near samples {i * step} and {j * step}"
        )


def _verdict(check, points, max_check):
    try:
        check(points, "polyline", max_check)
    except SelfIntersectionError as exc:
        return str(exc)
    return None


# lattice points make collinear, touching and repeated vertices likely;
# the float range gives generic crossings
_coord = st.one_of(st.integers(-3, 3).map(float), st.floats(-3.0, 3.0))
_vertex = st.builds(complex, _coord, _coord)


class TestSelfIntersection:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        vertices=st.lists(_vertex, min_size=3, max_size=40),
        repeats=st.lists(st.integers(0, 39), max_size=6),
        max_check=st.sampled_from([4, 7, 16, 1024]),
    )
    def test_matches_all_pairs(self, vertices, repeats, max_check):
        pts = list(vertices)
        for r in repeats:
            pts.insert(r % len(pts), pts[r % len(pts)])
        pts = np.array(pts, dtype=complex)
        assert _verdict(_check_simple, pts, max_check) == _verdict(
            dense_check_simple, pts, max_check
        )

    @pytest.mark.parametrize(
        "pts,expect",
        [
            ([0, 1, 1 + 1j], None),  # m = 3: every pair is adjacent
            ([0, 1, 1 + 1j, 1j], None),
            ([0, 1 + 1j, 1, 1j], "samples 0 and 2"),  # bow tie, m = 4
            ([0, 0, 1 + 1j, 1, 1j], "samples 1 and 3"),  # repeated vertex
        ],
    )
    def test_small_polylines(self, pts, expect):
        got = _verdict(_check_simple, np.array(pts, dtype=complex), 1024)
        if expect is None:
            assert got is None
        else:
            assert got.endswith(expect)

    def test_figure_eight_rejected(self):
        t = 2 * np.pi * (np.arange(4096) + 0.5) / 4096
        pts = np.sin(t) + 1j * np.sin(2 * t)
        with pytest.raises(SelfIntersectionError, match="near samples 2044 and 4092"):
            _check_simple(pts, "figure eight")

    def test_non_finite_points_rejected(self):
        pts = np.exp(2j * np.pi * np.arange(16) / 16)
        pts[3] = np.inf
        with pytest.raises(InputError, match="non-finite"):
            _check_simple(pts, "polyline")
