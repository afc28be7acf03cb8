from fractions import Fraction

import numpy as np
import pytest

from cforge import (
    CFApproximant,
    RationalMap,
    cf_rational_form,
    rate_estimate,
    root_cf,
    sqrt_cf,
)
from cforge.errors import DegreeOverflowError, DomainError, InputError
from cforge.suites import half_plane_samples, rate_test_points


def exact_sqrt_cf(z, n: int):
    """The square-root recursion written out: exact on Fractions, and in
    numpy's complex arithmetic on arrays."""
    f = 1 + (z - 1) / (1 + z)
    for _ in range(n - 1):
        f = 1 + (z - 1) / (1 + f)
    return f


class TestSqrtValues:
    def test_fixed_point(self):
        for n in (1, 5, 17):
            assert sqrt_cf(1.0, n) == pytest.approx(1.0, abs=1e-15)

    def test_first_step(self):
        assert sqrt_cf(4.0, 1) == pytest.approx(8 / 5, abs=1e-15)

    def test_third_step(self):
        assert sqrt_cf(4.0, 3) == pytest.approx(80 / 41, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_matches_exact_rationals(self, n):
        got = sqrt_cf(4.0, n)
        want = exact_sqrt_cf(Fraction(4), n)
        assert got == pytest.approx(float(want), abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 11, 20])
    def test_is_the_recursion_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        # slit-plane points over ten decades of |z|, plus one next to 0
        z = np.exp(rng.uniform(-14, 9, 2000) + 1j * rng.uniform(-3.1, 3.1, 2000))
        z = np.append(z, 1e-14)
        assert np.array_equal(sqrt_cf(z, n, "slit"), exact_sqrt_cf(z, n))

    def test_no_pole_guard_near_zero(self):
        # the recursion never divides by f, so |f| ~ 4e-14 is no pole
        assert sqrt_cf(1e-14, 3) == pytest.approx(4e-14, rel=1e-3)
        assert root_cf(1e-14, CFApproximant(1, 2, 3)) == sqrt_cf(1e-14, 3)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sqrt_cf(-1.0 + 0.5j, 3)
        with pytest.raises(DomainError):
            sqrt_cf(0.0, 3)


class TestRootValues:
    def test_cube_root_g2(self):
        got = root_cf(8.0, CFApproximant(1, 3, 2))
        assert got == pytest.approx(257 / 131, abs=1e-14)

    def test_power_two_thirds_h2(self):
        got = root_cf(8.0, CFApproximant(2, 3, 2))
        assert got == pytest.approx(1048 / 257, abs=1e-14)

    def test_h_is_z_over_g(self, rng):
        z = half_plane_samples(50, 3)
        for n in (1, 2, 5, 9):
            g = root_cf(z, CFApproximant(1, 3, n))
            h = root_cf(z, CFApproximant(2, 3, n))
            assert np.max(np.abs(h - z / g)) < 1e-12

    def test_reduces_to_sqrt(self):
        # sqrt_cf is this very call, so compare with the recursion itself
        z = half_plane_samples(100, 5)
        for n in (1, 3, 7):
            assert np.max(
                np.abs(root_cf(z, CFApproximant(1, 2, n)) - exact_sqrt_cf(z, n))
            ) < 1e-12

    def test_division_guard_above_N_2(self):
        # N >= 3 divides by r, and |r| ~ 2e-14 sits on a pole
        with pytest.raises(DomainError, match="pole"):
            root_cf(1e-14, CFApproximant(1, 3, 3))

    def test_first_approximant_shared(self):
        # every (k=1, N) recursion starts from 1 + (z-1)/(z+1)
        z = 2.0 + 0.7j
        first = 1 + (z - 1) / (z + 1)
        for N in (2, 3, 5, 9):
            assert root_cf(z, CFApproximant(1, N, 1)) == pytest.approx(first)

    def test_parameters_validated(self):
        with pytest.raises(InputError):
            CFApproximant(0, 3, 2)
        with pytest.raises(InputError):
            CFApproximant(3, 3, 2)
        with pytest.raises(InputError):
            CFApproximant(1, 1, 2)

    def test_no_gcd_reduction(self):
        # (2, 4) runs the N=4 recursion, not the square root
        z = 3.0 + 1.0j
        v24 = root_cf(z, CFApproximant(2, 4, 2))
        v12 = root_cf(z, CFApproximant(1, 2, 2))
        assert abs(v24 - v12) > 1e-6
        # both still converge to sqrt(z)
        v24n = root_cf(z, CFApproximant(2, 4, 40))
        assert abs(v24n - np.sqrt(z)) < 1e-10


class TestRate:
    def test_sqrt_rate_at_4(self):
        assert rate_estimate(4.0, CFApproximant(1, 2, 1)) == pytest.approx(1 / 3)

    def test_cube_rate_at_8(self):
        assert rate_estimate(8.0, CFApproximant(1, 3, 1)) == pytest.approx(1 / 7)

    def test_continuity_at_one(self):
        assert rate_estimate(1.0, CFApproximant(1, 2, 1)) == 0.0
        assert rate_estimate(1.0 + 1e-9j, CFApproximant(1, 5, 1)) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_matches_moebius_form_for_sqrt(self):
        z = half_plane_samples(200, 11)
        w = np.sqrt(z)
        expect = np.abs((1 - w) / (1 + w))
        got = rate_estimate(z, CFApproximant(1, 2, 1))
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_measured_ratio_sqrt(self):
        zs = rate_test_points(50, 77)
        rho = rate_estimate(zs, CFApproximant(1, 2, 1))
        e8 = np.abs(sqrt_cf(zs, 8) - np.sqrt(zs))
        e9 = np.abs(sqrt_cf(zs, 9) - np.sqrt(zs))
        ok = np.minimum(e8, e9) > 1e-12
        assert np.max(np.abs(e9[ok] / e8[ok] - rho[ok]) / rho[ok]) < 0.05

    def test_measured_ratio_roots(self):
        zs = rate_test_points(40, 99)
        for N in (3, 4, 5, 8):
            rho = rate_estimate(zs, CFApproximant(1, N, 1))
            band = (rho > 0.05) & (rho < 0.6)
            z = zs[band]
            tgt = z ** (1.0 / N)
            e10 = np.abs(root_cf(z, CFApproximant(1, N, 10)) - tgt)
            e11 = np.abs(root_cf(z, CFApproximant(1, N, 11)) - tgt)
            ok = np.minimum(e10, e11) > 1e-12
            rel = np.abs(e11[ok] / e10[ok] - rho[band][ok]) / rho[band][ok]
            assert np.max(rel) < 0.10


class TestHalfPlaneProperties:
    def test_real_part_positive(self):
        z = half_plane_samples(2000, 1)
        for n in range(1, 21):
            assert np.all(sqrt_cf(z, n).real > 0)

    def test_imag_sign_preserved(self):
        z = half_plane_samples(2000, 2, min_arg=1e-3)
        for n in range(1, 21):
            f = sqrt_cf(z, n)
            assert np.all(np.sign(f.imag) == np.sign(z.imag))

    def test_slope_contraction(self):
        z = half_plane_samples(2000, 3, min_arg=1e-3)
        for n in range(1, 21):
            f = sqrt_cf(z, n)
            assert np.all(
                np.abs(f.imag / f.real) < np.abs(z.imag / z.real)
            )

    def test_derivative_positive_combination(self):
        x = np.linspace(0.01, 100.0, 2000)
        h = 1e-6
        for n in range(1, 13):
            fx = sqrt_cf(x, n).real
            dfx = ((sqrt_cf(x + h, n) - sqrt_cf(x - h, n)) / (2 * h)).real
            assert np.all(np.abs(dfx) > 0)
            assert np.all(fx - x * dfx > 0)

    def test_rate_numerator_below_denominator(self):
        z = half_plane_samples(2000, 4)
        for N in range(2, 13):
            x = z ** (1.0 / N)
            den = sum(x**j for j in range(N))
            num = den - N * x ** (N // 2)
            assert np.all(np.abs(num) < np.abs(den))


class TestSlitDomain:
    def test_off_cut_evaluation(self):
        # converges (slowly) even left of the imaginary axis, off the cut
        z = -0.5 + 1.0j
        v = sqrt_cf(z, 200, domain="slit")
        assert v == pytest.approx(np.sqrt(z), abs=1e-8)

    def test_cut_rejected(self):
        with pytest.raises(DomainError):
            sqrt_cf(-0.25, 5, domain="slit")
        with pytest.raises(DomainError):
            root_cf(0.0, CFApproximant(1, 3, 4), domain="slit")

    def test_half_plane_still_default(self):
        with pytest.raises(DomainError):
            root_cf(-0.5 + 1.0j, CFApproximant(1, 2, 4))


class TestRationalForm:
    def test_sqrt_first(self):
        r = cf_rational_form(CFApproximant(1, 2, 1))
        assert np.allclose(r.num, [0.0, 2.0])
        assert np.allclose(r.den, [1.0, 1.0])

    def test_sqrt_second(self):
        r = cf_rational_form(CFApproximant(1, 2, 2))
        assert np.allclose(r.num, [0.0, 3.0, 1.0])
        assert np.allclose(r.den, [1.0, 3.0])
        assert r(4.0) == pytest.approx(28 / 13, abs=1e-14)

    def test_cube_first(self):
        r = cf_rational_form(CFApproximant(1, 3, 1))
        assert np.allclose(r.num, [0.0, 2.0])
        assert np.allclose(r.den, [1.0, 1.0])

    @pytest.mark.parametrize(
        "k,N,n", [(1, 2, 5), (1, 3, 3), (2, 3, 3), (3, 4, 3), (1, 5, 2), (5, 8, 2)]
    )
    def test_matches_recursion_pointwise(self, k, N, n):
        r = cf_rational_form(CFApproximant(k, N, n))
        z = half_plane_samples(100, 17)
        direct = root_cf(z, CFApproximant(k, N, n))
        assert np.max(np.abs(r(z) - direct)) < 1e-10

    def test_denominator_not_zero(self):
        with pytest.raises(InputError):
            RationalMap(num=(1.0,), den=(0.0,))

    def test_degree_guard(self):
        with pytest.raises(DegreeOverflowError):
            cf_rational_form(CFApproximant(1, 12, 32))
        with pytest.raises(DegreeOverflowError):
            cf_rational_form(CFApproximant(1, 3, 33))

