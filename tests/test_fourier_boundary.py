import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cforge import (
    CornerGapQuery,
    FourierCurve,
    corner_gap_F,
    curvature,
    derivative_curve,
    eval_curve,
    fit_from_samples,
    load_curve,
    save_curve,
    unwrap_arg,
)
from cforge.errors import FitError, InputError, WindingError
from cforge.fourier_boundary import eval_grid, horner

from contours import three_semicircle_contour


class TestEvalCurve:
    def test_unit_circle(self, unit_circle):
        assert eval_curve(unit_circle, np.pi / 2) == pytest.approx(1j, abs=1e-15)

    def test_sum_at_zero(self):
        curve = FourierCurve((-1, 1), (0.5, 1.0))
        assert eval_curve(curve, 0.0) == pytest.approx(1.5)

    def test_ellipse_quarter_turn(self):
        a, b = 1.0, 0.25
        curve = FourierCurve((-1, 1), ((a - b) / 2, (a + b) / 2))
        expect = a * math.cos(np.pi / 4) + 1j * b * math.sin(np.pi / 4)
        assert eval_curve(curve, np.pi / 4) == pytest.approx(expect, abs=1e-15)

    def test_periodic(self, quadratic_curve):
        t = 1.234
        assert eval_curve(quadratic_curve, t) == pytest.approx(
            eval_curve(quadratic_curve, t + 2 * np.pi), abs=1e-12
        )

    def test_array_input(self, quadratic_curve):
        t = np.linspace(0, 2 * np.pi, 7)
        vals = eval_curve(quadratic_curve, t)
        assert vals.shape == (7,)
        assert vals[0] == pytest.approx(eval_curve(quadratic_curve, 0.0))


KERNEL = settings(max_examples=25, deadline=None, derandomize=True)
U = np.finfo(float).eps / 2


def _horner_reference(coeffs, z):
    """``sum c_k z^k`` in 40-digit arithmetic, rounded to complex."""
    with mpmath.workdps(40):
        poly = [mpmath.mpc(c) for c in coeffs[::-1]]
        return np.array([complex(mpmath.polyval(poly, mpmath.mpc(v))) for v in z])


def _per_term_sum(curve, t):
    """``sum c_k e^{ikt}`` term by term, one ``exp`` per coefficient."""
    t = np.asarray(t, dtype=float)
    return sum(c * np.exp(1j * k * t) for k, c in zip(curve.ks, curve.cs))


class TestHorner:
    @KERNEL
    @given(
        n=st.sampled_from([0, 1, 2, 3, 7, 10, 17, 1200]),
        region=st.sampled_from(["inside", "circle", "outside"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_extended_precision(self, n, region, seed):
        # |error| <= 4 n u sum_k |c_k| |z|^k, from the kernel's
        # O((A + B) u) backward error; 1200 is the slender interpolant size
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        radius = {"inside": rng.uniform(0.0, 0.99, 6), "circle": np.ones(6),
                  "outside": rng.uniform(1.01, 1.5, 6)}[region]
        z = radius * np.exp(2j * np.pi * rng.uniform(size=6))
        got = horner(coeffs, z)
        assert got.shape == z.shape and got.dtype == complex
        scale = np.abs(z)[:, None] ** np.arange(n) @ np.abs(coeffs)
        err = np.abs(got - _horner_reference(coeffs, z))
        assert np.all(err <= 4 * max(n, 1) * U * scale)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10])
    def test_shapes(self, n):
        coeffs = np.arange(1, n + 1) * (1 - 0.5j)
        z = 0.5 + 0.25j
        expect = _horner_reference(coeffs, [z])[0]
        for arg in (z, np.asarray(z)):
            out = horner(coeffs, arg)
            assert np.shape(out) == () and complex(out) == pytest.approx(expect)
        grid = np.full((3, 4), z)
        out = horner(list(coeffs), grid)
        assert out.shape == (3, 4) and out == pytest.approx(np.full((3, 4), expect))
        assert horner(coeffs, np.empty((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize("n", [0, 1, 5, 1200])
    def test_rows_share_one_table(self, n):
        # one polynomial per row: each row as if evaluated alone
        rng = np.random.default_rng(n)
        coeffs = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        z = np.exp(2j * np.pi * rng.uniform(size=(4, 3)))
        out = horner(coeffs, z)
        assert out.shape == (2, 4, 3)
        for row, alone in zip(out, coeffs):
            assert np.allclose(row, horner(alone, z), rtol=1e-15, atol=1e-15 * n)
        assert horner(coeffs, 0.5).shape == (2,)

    def test_empty_is_zero(self):
        assert complex(horner((), 2.0)) == 0.0
        assert np.array_equal(horner([], np.ones((2, 3))), np.zeros((2, 3)))


class TestEvalCurveKernel:
    @KERNEL
    @given(
        support=st.sampled_from(["dense", "sparse", "negative"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_term_sum(self, support, seed):
        # both sums commit errors of about (span + max|k|) u sum|c_k| on
        # [0, 2 pi): the kernel in w^j and e^{i kmin t}, the reference in k t
        rng = np.random.default_rng(seed)
        ks = {"dense": np.arange(-40, 61),
              "sparse": np.unique(rng.integers(-300, 300, 12)),
              "negative": np.arange(-25, -2, 3)}[support]
        cs = (rng.standard_normal(len(ks)) + 1j * rng.standard_normal(len(ks))) / (
            1.0 + np.abs(ks)
        )
        curve = FourierCurve(tuple(ks), tuple(cs))
        t = 2 * np.pi * rng.uniform(size=64)
        bound = 16 * (ks[-1] - ks[0] + 1 + np.max(np.abs(ks))) * U * np.sum(np.abs(cs))
        assert np.max(np.abs(eval_curve(curve, t) - _per_term_sum(curve, t))) <= bound
        scalar = eval_curve(curve, float(t[0]))
        assert isinstance(scalar, complex)
        assert abs(scalar - _per_term_sum(curve, t[0])) <= bound


class TestEvalGrid:
    """One inverse FFT of the folded coefficients against Horner at the
    nodes, within ``1e-13 sum |c|``, including the folds."""

    @pytest.mark.parametrize("n", [7, 37, 38, 300])
    def test_polynomial_matches_horner(self, rng, n):
        # degree 37: n below it and at it fold, n = 38 and above do not
        c = rng.standard_normal(38) + 1j * rng.standard_normal(38)
        nodes = np.exp(2j * np.pi * np.arange(n) / n)
        err = np.max(np.abs(eval_grid(np.arange(38), c, n) - horner(c, nodes)))
        assert err <= 1e-13 * np.sum(np.abs(c))

    @pytest.mark.parametrize("n", [5, 24, 25, 256])
    def test_curve_matches_eval_curve(self, rng, n):
        # support [-12, 12] has 25 terms: negative k fold onto n - |k|
        ks = np.arange(-12, 13)
        cs = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        t = 2.0 * np.pi * np.arange(n) / n
        want = eval_curve(FourierCurve(tuple(ks), tuple(cs)), t)
        assert np.max(np.abs(eval_grid(ks, cs, n) - want)) <= 1e-13 * np.sum(np.abs(cs))

    @pytest.mark.parametrize("n", [3, 16])
    def test_rows(self, rng, n):
        # a stack of coefficient rows with negative and aliasing indices
        ks = np.array([-9, -2, 0, 1, 5, 11])
        cs = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        got = eval_grid(ks, cs, n)
        assert got.shape == (4, n)
        t = 2.0 * np.pi * np.arange(n) / n
        for row, c in zip(got, cs):
            want = eval_curve(FourierCurve(tuple(ks), tuple(c)), t)
            assert np.max(np.abs(row - want)) <= 1e-13 * np.sum(np.abs(c))

    def test_fold_is_exact(self):
        # zeta^n = zeta^-n = 1 on the n-th roots of unity
        assert np.array_equal(eval_grid([0, 8, -8], [1.0, 2.0, 4.0], 8), np.full(8, 7.0))


class TestDerivative:
    def test_first_order(self, unit_circle):
        d = derivative_curve(unit_circle, 1)
        assert d.coeffs == {1: 1j}

    def test_second_order(self):
        d = derivative_curve(FourierCurve((2,), (1.0,)), 2)
        assert d.coeffs == {2: -4.0 + 0j}

    def test_negative_index(self):
        d = derivative_curve(FourierCurve((-1, 1), (1.0, 0.5)), 1)
        assert d.coeff(-1) == pytest.approx(-1j)

    def test_constant_dropped(self):
        d = derivative_curve(FourierCurve((0, 1), (3.0, 1.0)), 1)
        assert 0 not in d.coeffs

    def test_matches_finite_differences(self, rng):
        ks = tuple(range(-5, 9))
        cs = tuple(rng.normal(size=len(ks)) + 1j * rng.normal(size=len(ks)))
        curve = FourierCurve(ks, cs)
        d = derivative_curve(curve, 1)
        t = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
        h = 1e-6
        fd = (eval_curve(curve, t + h) - eval_curve(curve, t - h)) / (2 * h)
        assert np.max(np.abs(fd - eval_curve(d, t))) < 1e-7


    def test_eval_curve_rows_of_derivatives(self, rng):
        ks = (-3, -1, 0, 2, 5)
        cs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        curve = FourierCurve(ks, cs)
        t = rng.uniform(0.0, 2 * np.pi, 50)
        rows = eval_curve(curve, t, 2)
        assert rows.shape == (3, 50)
        for order, row in enumerate(rows):
            want = eval_curve(derivative_curve(curve, order) if order else curve, t)
            assert np.max(np.abs(row - want)) < 1e-12 * np.sum(np.abs(cs)) * 25
        assert np.allclose(eval_curve(curve, t[0], 2), rows[:, 0], rtol=0, atol=1e-14)


class TestFit:
    def test_circle_recovery(self):
        t = 2 * np.pi * np.arange(16) / 16
        curve = fit_from_samples(np.exp(1j * t), 0, 1)
        assert curve.coeff(1) == pytest.approx(1.0, abs=1e-14)
        assert curve.coeff(0) == pytest.approx(0.0, abs=1e-14)

    def test_band_limited_exact(self):
        t = 2 * np.pi * np.arange(32) / 32
        z = 1.5 * np.exp(1j * t) + 0.25 * np.exp(-1j * t)
        curve = fit_from_samples(z, 1, 1)
        assert curve.coeff(1) == pytest.approx(1.5, abs=1e-14)
        assert curve.coeff(-1) == pytest.approx(0.25, abs=1e-14)

    def test_random_band_limited_roundtrip(self, rng):
        m, n = 3, 5
        ks = tuple(range(-m, n + 1))
        cs = tuple(rng.normal(size=len(ks)) + 1j * rng.normal(size=len(ks)))
        curve = FourierCurve(ks, cs)
        t = 2 * np.pi * np.arange(m + n + 1) / (m + n + 1)
        refit = fit_from_samples(eval_curve(curve, t), m, n)
        for k in ks:
            assert refit.coeff(k) == pytest.approx(curve.coeff(k), abs=1e-12)

    def test_three_semicircle_deviation_reported(self):
        t = 2 * np.pi * np.arange(256) / 256
        samples = three_semicircle_contour(t)
        curve = fit_from_samples(samples, 10, 10)
        dev = np.max(np.abs(eval_curve(curve, t) - samples))
        # tangent-junction contour: degree-10 fit is decent but not exact
        assert 1e-6 < dev < 0.1

    def test_underdetermined(self):
        with pytest.raises(FitError):
            fit_from_samples(np.array([1.0, 1j, -1.0]), 4, 4)


class TestUnwrapArg:
    def test_unit_circle_grid8(self, unit_circle):
        got = unwrap_arg(unit_circle, 8)
        assert np.allclose(got, np.pi / 4 * np.arange(8), atol=1e-12)

    def test_total_increase(self):
        curve = FourierCurve((1, 2), (2.0, 0.3))
        a = np.asarray(unwrap_arg(curve, 64))
        assert np.all(np.abs(np.diff(a)) < np.pi)
        closing = (np.angle(eval_curve(curve, 0.0)) - a[-1] + np.pi) % (
            2 * np.pi
        ) - np.pi
        assert a[-1] + closing - a[0] == pytest.approx(2 * np.pi, abs=1e-9)

    def test_not_enclosing_origin(self):
        curve = FourierCurve((0, 1), (3.0, 0.5))
        with pytest.raises(WindingError):
            unwrap_arg(curve, 64)

    def test_origin_on_curve(self):
        curve = FourierCurve((0, 1), (1.0, 1.0))  # passes through 0 at t=pi
        with pytest.raises(WindingError):
            unwrap_arg(curve, 64)


def _gap_oracle(n, eps, alpha):
    """Independent quadrature of the corner-gap integrand after u = n t."""

    def g(u):
        if u == 0.0:
            return 0.0
        return (
            math.sin(u / (2 * n)) ** alpha
            * math.cos(alpha * (u / n - math.pi) / 2)
            * math.sin(u)
            / u
        )

    val, _ = quad(g, 0.0, n * eps, epsrel=1e-13, limit=800)
    return 2.0 ** (alpha + 1) * val


class TestCornerGap:
    def test_vanishing_interval(self):
        assert corner_gap_F(CornerGapQuery(5, 1e-9, 1.5)) == pytest.approx(
            0.0, abs=1e-12
        )

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_bound_above_one(self, n):
        F = corner_gap_F(CornerGapQuery(n, np.pi / (2 * n), 1.5))
        assert F <= np.pi**2 / (4 * n)

    @pytest.mark.parametrize(
        "n,expected",
        [
            (10**3, 0.9042239295145061),
            (10**6, 0.9589182850903566),
            (10**9, 0.9760360921394123),
        ],
    )
    def test_log_exponent_values(self, n, expected):
        # frozen from a 30-digit tanh-sinh quadrature of the same integral
        alpha = 1.0 / math.log(n)
        F = corner_gap_F(CornerGapQuery(n, np.pi / (2 * n), alpha))
        assert F == pytest.approx(expected, abs=1e-10)
        assert F == pytest.approx(_gap_oracle(n, np.pi / (2 * n), alpha), abs=1e-8)

    def test_log_exponent_stays_large(self):
        for n in (10**3, 10**4, 10**6):
            F = corner_gap_F(
                CornerGapQuery(n, np.pi / (2 * n), 1.0 / math.log(n))
            )
            assert F >= 0.5

    def test_decay_for_exponent_above_one(self):
        vals = [
            abs(corner_gap_F(CornerGapQuery(n, np.pi / (2 * n), 1.5)))
            for n in (4, 16, 64, 256)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_query_validation(self):
        with pytest.raises(InputError):
            CornerGapQuery(0, 0.1, 1.5)
        with pytest.raises(InputError):
            CornerGapQuery(4, 0.0, 1.5)
        with pytest.raises(InputError):
            CornerGapQuery(4, 0.1, 2.0)


class TestCurvature:
    def test_unit_circle(self, unit_circle):
        assert curvature(unit_circle, 0.7) == pytest.approx(1.0)

    def test_circle_radius(self):
        assert curvature(FourierCurve((1,), (5.0,)), 1.3) == pytest.approx(0.2)

    def test_ellipse_end(self):
        a, b = 1.0, 0.25
        curve = FourierCurve((-1, 1), ((a - b) / 2, (a + b) / 2))
        assert curvature(curve, 0.0) == pytest.approx(a / b**2)

    def test_cusp_rejected(self):
        # z = e^{it} + e^{-it} = 2 cos t has z' = 0 at t = 0
        curve = FourierCurve((-1, 1), (1.0, 1.0))
        with pytest.raises(InputError):
            curvature(curve, 0.0)


class TestInvariants:
    def test_parseval(self, rng):
        m, n = 4, 7
        ks = tuple(range(-m, n + 1))
        cs = tuple(rng.normal(size=len(ks)) + 1j * rng.normal(size=len(ks)))
        curve = FourierCurve(ks, cs)
        grid = 2 * (m + n) + 1
        t = 2 * np.pi * np.arange(grid) / grid
        mean_sq = np.mean(np.abs(eval_curve(curve, t)) ** 2)
        assert mean_sq == pytest.approx(sum(abs(c) ** 2 for c in cs), abs=1e-12)

    def test_point_curve_rejected(self):
        with pytest.raises(InputError):
            FourierCurve((0,), (2.0,))

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf)])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(InputError, match="curve coefficients must be finite"):
            FourierCurve((-1, 1), (0.25, bad))

    def test_support_from_keys(self):
        curve = FourierCurve((-3, 0, 2), (1.0, 0.5, 0.25))
        assert curve.m == 3 and curve.n == 2

    def test_zero_inside_support_allowed(self):
        curve = FourierCurve((-2, 1), (0.0, 1.0))
        assert curve.m == 2  # stored key defines the support


class TestPersistence:
    def test_csv_roundtrip(self, tmp_path, quadratic_curve):
        path = tmp_path / "curve.csv"
        save_curve(quadratic_curve, str(path))
        again = load_curve(str(path))
        assert again.coeffs == quadratic_curve.coeffs

    def test_json_roundtrip(self, tmp_path):
        curve = FourierCurve((-2, 1, 5), (0.5j, 1.0, 0.125 - 0.25j))
        path = tmp_path / "curve.json"
        save_curve(curve, str(path))
        again = load_curve(str(path))
        for k in curve.ks:
            assert again.coeff(k) == pytest.approx(curve.coeff(k), abs=1e-16)

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InputError):
            load_curve(str(path))


def test_derivative_high_degree_grid_bound(rng):
    # degree-32 curve with decaying coefficients: coefficient-wise derivative
    # matches central differences to 1e-8 on a 1024-point grid
    ks = tuple(range(-32, 33))
    cs = tuple(
        (0.5 ** abs(k)) * np.exp(2j * np.pi * rng.uniform()) for k in ks
    )
    curve = FourierCurve(ks, cs)
    d = derivative_curve(curve, 1)
    t = 2 * np.pi * np.arange(1024) / 1024
    h = 1e-5
    fd = (eval_curve(curve, t + h) - eval_curve(curve, t - h)) / (2 * h)
    assert np.max(np.abs(fd - eval_curve(d, t))) <= 1e-8
