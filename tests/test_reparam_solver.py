import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cforge import (
    FourierCurve,
    assemble_system,
    eval_curve,
    kernel_K,
    kernel_L,
    load_polynomial_map,
    save_polynomial_map,
    solve_reparam,
    taylor_coeffs,
)
from cforge import reparam_solver
from cforge.errors import InputError, NonMonotoneThetaError, SolverError
from cforge.reparam_solver import INVERSE_TOL, PolynomialMap, correspondence_inverse
from cforge.fourier_boundary import unwrap_arg
from cforge.suites import jordan_positive_curve, planted_oracle_curve


@pytest.fixture(scope="module")
def wavy_curve():
    return FourierCurve((1, 2), (1.0, 0.2))


class TestKernels:
    def test_unit_circle_K_zero(self, unit_circle):
        for tau, t in [(0.3, 1.7), (1.0, 1.0), (5.5, 0.1)]:
            assert kernel_K(unit_circle, tau, t) == pytest.approx(0.0, abs=1e-14)

    def test_scaled_circle_L_zero(self):
        circle2 = FourierCurve((1,), (2.0,))
        for tau, t in [(0.3, 1.7), (2.0, 2.0)]:
            assert kernel_L(circle2, tau, t) == pytest.approx(0.0, abs=1e-14)

    def test_K_off_diagonal_identity(self, wavy_curve):
        # K = Im[z'(tau)/(z(tau)-z(t))] - 1/2 away from the diagonal
        dcurve = FourierCurve((1, 2), (1j, 0.4j))
        for tau, t in [(0.7, 2.1), (4.0, 0.9), (3.3, 3.8)]:
            direct = (
                eval_curve(dcurve, tau)
                / (eval_curve(wavy_curve, tau) - eval_curve(wavy_curve, t))
            ).imag - 0.5
            assert kernel_K(wavy_curve, tau, t) == pytest.approx(direct, abs=1e-12)

    def test_K_diagonal_finite_difference(self, wavy_curve):
        t = 0.0
        h = 1e-5
        fd = (
            np.angle(eval_curve(wavy_curve, t + h) - eval_curve(wavy_curve, t))
            - np.angle(np.exp(1j * (t + h)) - np.exp(1j * t))
        ) / h
        # centred difference of arg quotient approximates the tau-derivative
        assert kernel_K(wavy_curve, t, t) == pytest.approx(fd, abs=1e-3)

    def test_L_finite_difference(self, wavy_curve, rng):
        h = 1e-6
        for _ in range(5):
            tau, t = rng.uniform(0, 2 * np.pi, 2)
            if abs(tau - t) < 0.2:
                continue
            num = lambda x: np.log(
                np.abs(eval_curve(wavy_curve, x) - eval_curve(wavy_curve, t))
            ) - np.log(np.abs(np.exp(1j * x) - np.exp(1j * t)))
            fd = (num(tau + h) - num(tau - h)) / (2 * h)
            assert kernel_L(wavy_curve, tau, t) == pytest.approx(fd, abs=1e-6)

    def test_K_diagonal_curvature_formula(self, wavy_curve):
        # K(t, t) = kappa(t) |z'(t)| / 2 - 1/2
        from cforge import curvature, derivative_curve

        for t in (0.0, 1.1, 4.4):
            speed = abs(eval_curve(derivative_curve(wavy_curve, 1), t))
            expect = curvature(wavy_curve, t) * speed / 2.0 - 0.5
            assert kernel_K(wavy_curve, t, t) == pytest.approx(expect, abs=1e-12)


def _random_curve(ks, seed):
    rng = np.random.default_rng(seed)
    ks = np.asarray(ks)
    cs = (rng.normal(size=ks.size) + 1j * rng.normal(size=ks.size)) / (
        1.0 + np.abs(ks)
    ) ** 2
    return FourierCurve(tuple(ks), tuple(cs))


def _grid_kernel(curve, P):
    """The regular kernel part ``G`` of every grid entry, streamed block by
    block (the yielded blocks are views of reused buffers: keep copies)."""
    blocks = [
        (r0, re.copy(), im.copy())
        for r0, re, im in reparam_solver._kernel_blocks(curve, P)
    ]
    return [r0 for r0, _, _ in blocks], np.vstack([re + 1j * im for _, re, im in blocks])


def _ellipse():
    # x^2 + 16 y^2 = 1
    return FourierCurve((-1, 1), (0.375, 0.625))


class TestChordGrid:
    """The closed-form grid ``G = z'(tau)/(z(tau) - z(t))`` (``z''/(2z')`` on
    the diagonal) against the kernel written out directly."""

    @pytest.mark.parametrize(
        "curve",
        [
            _random_curve(np.arange(-64, 65), 3),  # both signs, 129 terms
            _random_curve(np.arange(1, 9), 4),  # positive ks only
            _random_curve(np.arange(-9, 0), 5),  # negative ks only
            FourierCurve((-2, 0, 1, 3), (0.2, 0.0, 1.0, 0.1j)),  # zero c_0
        ],
        ids=["both", "positive", "negative", "zero_c0"],
    )
    def test_matches_direct_quotient(self, curve, monkeypatch):
        from cforge import derivative_curve

        # a budget of 100 rows: two full blocks and a partial one of 56
        P = 256
        monkeypatch.setattr(reparam_solver, "ASSEMBLY_BLOCK_BYTES", 16 * P * 100)
        rows = reparam_solver._block_rows(P)
        assert rows == 100
        starts, G = _grid_kernel(curve, P)
        assert starts == list(range(0, P, rows))
        x = 2 * np.pi * np.arange(P) / P
        z = eval_curve(curve, x)
        dz = eval_curve(derivative_curve(curve, 1), x)
        d2z = eval_curve(derivative_curve(curve, 2), x)
        # the direct form cancels near tau = t, so it is compared where
        # |sin((tau - t)/2)| >= 0.1
        far = np.abs(np.sin((x[:, None] - x[None, :]) / 2)) >= 0.1
        chord = np.where(far, z[:, None] - z[None, :], 1.0)
        direct = dz[:, None] / chord
        scale = np.max(np.abs(G))
        assert np.max(np.abs(G - direct)[far]) < 1e-12 * scale
        # the diagonal limit of W_tau/W + i/2
        assert np.max(np.abs(np.diag(G) - d2z / (2 * dz))) < 1e-12 * scale

    @pytest.mark.parametrize(
        "curve, P",
        [(_random_curve(np.arange(-64, 65), 3), 1024), (_ellipse(), 2400)],
        ids=["terms129", "ellipse"],
    )
    def test_matches_mpmath(self, curve, P):
        # sampled entries on the diagonal, next to it, at the edge of the
        # near-diagonal band (offsets 31..33) and far from it, against the
        # closed form at 40 digits on the exact nodes
        import mpmath

        _, G = _grid_kernel(curve, P)
        rng = np.random.default_rng(7)
        offsets = [0, 1, -1, 2, -2, 31, -31, 32, -32, 33, -33, P // 2]
        pairs = [(int(i), int(i - d) % P) for i in rng.integers(0, P, 5) for d in offsets]
        with mpmath.workdps(40):
            ks = [mpmath.mpf(k) for k in curve.ks]
            cs = [mpmath.mpc(c) for c in curve.cs]

            def z(t, order=0):
                return mpmath.fsum(
                    c * (1j * k) ** order * mpmath.expj(k * t) for k, c in zip(ks, cs)
                )

            for i, j in pairs:
                tau, t = 2 * mpmath.pi * i / P, 2 * mpmath.pi * j / P
                if i == j:
                    exact = z(tau, 2) / (2 * z(tau, 1))
                else:
                    exact = z(tau, 1) / (z(tau) - z(t))
                assert abs(G[i, j] - complex(exact)) < 1e-12, (i, j)


def _traced_peak(fn, *args):
    import tracemalloc

    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAssemblyMemoryGuard:
    def test_estimate(self):
        est = reparam_solver._assembly_peak_bytes
        cap = reparam_solver.ASSEMBLY_MAX_BYTES
        # the slender solve (M = 300, P = 2400) stays below 0.1 GB;
        # M = 2000 at P = 16000 fits under the cap, M = 8000 at P = 32000 not
        assert est(2400, 300) < 0.1e9
        assert est(16000, 2000) < cap < est(32000, 8000)

    @pytest.mark.parametrize(
        "curve, M, P",
        [
            (_ellipse(), 300, 2400),
            (_random_curve(np.arange(-64, 65), 3), 128, 1024),
            # the band and the block buffers outweigh the row spectra
            (_random_curve(np.arange(-64, 65), 3), 8, 1024),
        ],
        ids=["ellipse", "terms129", "terms129_M8"],
    )
    def test_estimate_bounds_measured_peak(self, curve, M, P):
        peak = _traced_peak(assemble_system, curve, M, P)
        est = reparam_solver._assembly_peak_bytes(P, M)
        assert peak <= est <= 4 * peak

    def test_peak_independent_of_support(self):
        many = _traced_peak(assemble_system, _random_curve(np.arange(-64, 65), 3), 128, 1024)
        assert many <= 1.5 * _traced_peak(assemble_system, _ellipse(), 128, 1024)

    def test_no_grid_sized_allocation(self):
        # one real P x P array alone would take 8 P^2 bytes
        P = 4096
        assert _traced_peak(assemble_system, _ellipse(), 64, P) < 8 * P * P / 2

    def test_rejects_before_allocating(self, unit_circle, monkeypatch):
        def no_blocks(curve, P):
            raise AssertionError("grid blocks allocated")

        monkeypatch.setattr(reparam_solver, "_kernel_blocks", no_blocks)
        with pytest.raises(InputError, match="GiB"):
            assemble_system(unit_circle, 8000, 32000)


class TestAssemble:
    def test_unit_circle_blocks(self, unit_circle):
        sys_ = assemble_system(unit_circle, 8, 64)
        assert sys_.A.shape == (16, 16)
        assert np.allclose(sys_.A, np.eye(16), atol=1e-12)
        assert np.allclose(sys_.F, 0.0, atol=1e-12)
        assert np.allclose(sys_.G, 0.0, atol=1e-12)

    def test_scaled_circle_rhs_vanishes(self):
        sys_ = assemble_system(FourierCurve((1,), (2.0,)), 8, 64)
        assert np.allclose(sys_.F, 0.0, atol=1e-12)
        assert np.allclose(sys_.G, 0.0, atol=1e-12)
        assert np.allclose(sys_.A[:8, :8], np.eye(8), atol=1e-12)

    def test_condition_finite_and_residual(self, wavy_curve):
        sys_ = assemble_system(wavy_curve, 16, 128)
        A = sys_.A
        cond = np.linalg.cond(A)
        assert np.isfinite(cond)
        x = np.linalg.solve(A, sys_.rhs())
        assert np.max(np.abs(A @ x - sys_.rhs())) < 1e-10

    def test_requires_grid_margin(self, unit_circle):
        with pytest.raises(InputError):
            assemble_system(unit_circle, 16, 32)


def _dense_projection(curve, M, P):
    """The system built from the whole P x P kernel grid by dense GEMMs."""
    x = 2 * np.pi * np.arange(P) / P
    _, G = _grid_kernel(curve, P)
    # cot((tau - t)/2)/2 from arguments up to pi/2, mirrored: odd mod P
    d = np.arange(1, (P + 1) // 2)
    cot = np.zeros(P)
    cot[d] = 0.5 / np.tan(np.pi * d / P)
    cot[P - d] = -cot[d]
    K = G.imag - 0.5
    L = G.real - cot[np.subtract.outer(np.arange(P), np.arange(P)) % P]
    p = np.arange(1, M + 1)
    C = np.cos(np.multiply.outer(p, x))
    S = np.sin(np.multiply.outer(p, x))
    w = 4.0 / P**2
    CK, SK = C @ K.T, S @ K.T
    I = np.eye(M)
    matrix = np.block(
        [[I - w * (CK @ C.T), -w * (CK @ S.T)], [-w * (SK @ C.T), I - w * (SK @ S.T)]]
    )
    u = np.log(np.abs(eval_curve(curve, x)))
    a, b = (2.0 / P) * (C @ u), (2.0 / P) * (S @ u)
    rl = (2.0 / P) * (u @ L)
    rhs = np.concatenate([b + (2.0 / P) * (C @ rl), -a + (2.0 / P) * (S @ rl)])
    return matrix, rhs, rl


class TestStreamedAssembly:
    """Row-block FFT assembly against the dense trapezoid projection."""

    @pytest.mark.parametrize(
        "curve, M, P",
        [
            (_random_curve(np.arange(-64, 65), 3), 128, 1024),
            (_ellipse(), 300, 2400),
            # neither is a multiple of the block rows; 1001 is odd
            (_random_curve(np.arange(-5, 6), 7), 200, 1000),
            (_random_curve(np.arange(-5, 6), 7), 200, 1001),
        ],
        ids=["terms129", "ellipse", "P1000", "P1001"],
    )
    def test_matches_dense_projection(self, curve, M, P):
        matrix, rhs, rl = _dense_projection(curve, M, P)
        sys_ = assemble_system(curve, M, P)
        assert np.max(np.abs(sys_.A - matrix)) <= 1e-13 * np.max(np.abs(matrix))
        # the right-hand side is a difference of terms as large as rl
        scale = max(np.max(np.abs(rhs)), np.max(np.abs(rl)))
        assert np.max(np.abs(sys_.rhs() - rhs)) <= 1e-13 * scale

    def test_vanishing_quotient_in_last_partial_block(self):
        # the cardioid e^{it} + c e^{2it}, c = -e^{-i t0}/2, has a cusp
        # (z' = 0, so W(t0, t0) = -i z'(t0) = 0) at t0 = t_990 of P = 1000,
        # which lies in the last, partial block of rows (975..999 with
        # blocks of 65 rows)
        P, j = 1000, 990
        rows = reparam_solver._block_rows(P)
        assert P % rows and j >= P - P % rows
        t0 = 2 * np.pi * j / P
        curve = FourierCurve((1, 2), (1.0, -0.5 * np.exp(-1j * t0)))
        starts = []
        with pytest.raises(SolverError, match="vanished"):
            for r0, _, _ in reparam_solver._kernel_blocks(curve, P):
                starts.append(r0)
        assert starts == list(range(0, P - P % rows, rows))
        with pytest.raises(SolverError, match="vanished"):
            assemble_system(curve, 100, P)

    def test_vanishing_chord_off_the_diagonal(self):
        # e^{2it} passes every point twice: z(t + pi) = z(t) at every node
        with pytest.raises(SolverError, match="vanished"):
            assemble_system(FourierCurve((2,), (1.0,)), 16, 128)

    def test_deterministic(self):
        curve = _random_curve(np.arange(-8, 9), 11)
        first = assemble_system(curve, 64, 1000)
        again = assemble_system(curve, 64, 1000)
        assert first.A.tobytes() == again.A.tobytes()
        assert first.rhs().tobytes() == again.rhs().tobytes()


class TestPeriodicInterpolator:
    """The interpolant ``_series_at(_half_spectrum(values), t)``."""

    @pytest.mark.parametrize("P", [5, 7, 8])
    def test_interpolates_nodes(self, P):
        # P // 2 is the top mode the grid resolves: (P-1)/2 for odd P,
        # the Nyquist mode for even P
        t = 2 * np.pi * np.arange(P) / P
        v = 0.3 + np.cos(2 * t) + 0.5 * np.cos(P // 2 * t + 0.4)
        c = reparam_solver._half_spectrum(v)
        assert np.max(np.abs(reparam_solver._series_at(c, t) - v)) < 1e-13

    @pytest.mark.parametrize("P", [5, 7, 9])
    def test_odd_grid_band_limited_off_nodes(self, P):
        k = (P - 1) // 2
        t = 2 * np.pi * np.arange(P) / P
        s = np.linspace(0.05, 2 * np.pi, 37)
        c = reparam_solver._half_spectrum(np.cos(2 * t) + 0.5 * np.sin(k * t))
        ev = reparam_solver._series_at(c, s)
        assert np.max(np.abs(ev - np.cos(2 * s) - 0.5 * np.sin(k * s))) < 1e-13
        # the derivative's half spectrum, as the correspondence inverse uses it
        ev_prime = reparam_solver._series_at(1j * np.arange(len(c)) * c, s)
        d = -2 * np.sin(2 * s) + 0.5 * k * np.cos(k * s)
        assert np.max(np.abs(ev_prime - d)) < 1e-12


class TestHalfSpectrum:
    @pytest.mark.parametrize("P", [1, 2, 5, 7, 8, 2400])
    @pytest.mark.parametrize("seed", range(4))
    def test_both_evaluators_reproduce_white_noise(self, P, seed):
        v = np.random.default_rng(seed).standard_normal(P)
        c = reparam_solver._half_spectrum(v)
        assert len(c) == P // 2 + 1
        tol = 2e-13 * np.sum(np.abs(c))
        t = 2 * np.pi * np.arange(P) / P
        assert np.max(np.abs(reparam_solver._series_at(c, t) - v)) <= tol
        # the FFT evaluator needs n > 2 max p: on the P grid itself an
        # even P's Nyquist mode would count once, not twice
        fine = 2 * np.pi * np.arange(16 * P) / (16 * P)
        on_grid = reparam_solver._series_on_grid(c, 16 * P)
        assert np.max(np.abs(on_grid - reparam_solver._series_at(c, fine))) <= tol

    def test_scalar_parameter(self):
        c = reparam_solver._half_spectrum([1.0, 2.0, 4.0, 3.0])
        out = reparam_solver._series_at(c, 0.5 * np.pi)
        assert isinstance(out, float) and out == pytest.approx(2.0, abs=1e-14)


def _q_reference(alpha, beta, t):
    """``sum_p alpha_p cos(pt) + beta_p sin(pt)`` by explicit cos/sin tables."""
    pt = np.multiply.outer(np.asarray(t, dtype=float), np.arange(1, len(alpha) + 1))
    return np.cos(pt) @ alpha + np.sin(pt) @ beta


class TestCorrectionSeries:
    @pytest.fixture(scope="class")
    def solved(self):
        curve = FourierCurve((-1, 1, 3), (0.2, 1.0, 0.1 + 0.05j))
        return curve, solve_reparam(curve, 24, 192)

    def _tol(self, sol):
        return 1e-13 * np.sum(np.abs(sol.alpha) + np.abs(sol.beta))

    def test_q_matches_cos_sin_reference(self, solved, rng):
        _, sol = solved
        assert np.max(np.abs(sol.alpha)) > 1e-3 and np.max(np.abs(sol.beta)) > 1e-3
        t = np.concatenate([rng.uniform(-7.0, 7.0, 500), [0.0, np.pi]])
        ref = _q_reference(sol.alpha, sol.beta, t)
        assert np.max(np.abs(sol.q(t) - ref)) <= self._tol(sol)
        assert sol.q(1.25) == pytest.approx(
            float(_q_reference(sol.alpha, sol.beta, 1.25)), abs=self._tol(sol)
        )

    def test_theta_grid_is_arg_plus_q(self, solved):
        curve, sol = solved
        grid = 2 * np.pi * np.arange(sol.grid_size) / sol.grid_size
        expect = unwrap_arg(curve, sol.grid_size) + sol.q(grid)
        assert np.max(np.abs(sol.theta_grid - expect)) <= self._tol(sol)


class TestSolve:
    def test_unit_circle_trivial(self, unit_circle):
        sol = solve_reparam(unit_circle, 8, 64)
        assert sol.monotone
        assert np.max(np.abs(sol.alpha)) < 1e-13
        assert np.max(np.abs(sol.beta)) < 1e-13
        t = 2 * np.pi * np.arange(sol.grid_size) / sol.grid_size
        assert np.allclose(sol.theta_grid, t, atol=1e-12)

    def test_positive_support_identity(self, quadratic_curve):
        sol = solve_reparam(quadratic_curve, 32, 256)
        t = 2 * np.pi * np.arange(sol.grid_size) / sol.grid_size
        dev = sol.theta_grid - t
        dev -= dev.mean()
        assert np.max(np.abs(dev)) < 1e-6

    def test_analytic_correction_coefficients(self):
        # boundary e^{it} + 0.3 e^{2it}: q(t) = -arg(1 + 0.3 e^{it}) exactly,
        # with sine coefficients (-0.3)^p / p and no cosine part
        curve = FourierCurve((1, 2), (1.0, 0.3))
        sol = solve_reparam(curve, 32, 256)
        p = np.arange(1, 33)
        expect_beta = (-0.3) ** p / p
        assert np.max(np.abs(sol.alpha)) < 1e-12
        assert np.max(np.abs(sol.beta - expect_beta)) < 1e-12

    def test_planted_oracle_theta(self):
        curve = planted_oracle_curve()
        sol = solve_reparam(curve, 64, 512)
        t = 2 * np.pi * np.arange(sol.grid_size) / sol.grid_size
        dev = sol.theta_grid - (t + 0.3 * np.sin(t))
        dev -= dev.mean()
        assert np.max(np.abs(dev)) < 2e-3

    @pytest.mark.parametrize("M, P", [(16, 128), (128, 512)], ids=["grid", "rung"])
    def test_singular_system_raises_with_its_condition(self, monkeypatch, M, P):
        from dataclasses import replace

        from cforge.errors import SingularSystemError

        assemble = reparam_solver.assemble_system

        def singular(*args, **kwargs):
            system = assemble(*args, **kwargs)
            return replace(system, A=np.zeros_like(system.A))

        monkeypatch.setattr(reparam_solver, "assemble_system", singular)
        with pytest.raises(SingularSystemError, match="numerically singular") as caught:
            solve_reparam(FourierCurve((-1, 1), (0.375, 0.625)), M, P)
        assert caught.value.condition == np.inf

    def test_mean_of_q_is_zero(self, wavy_curve):
        sol = solve_reparam(wavy_curve, 24, 192)
        t = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        assert np.mean(sol.q(t)) == pytest.approx(0.0, abs=1e-12)


def _peanut(b):
    """``e^{it} + (b/2)(e^{3it} + e^{-it})``: its waist pinches as b -> 1."""
    return FourierCurve((-1, 1, 3), (b / 2, 1.0, b / 2))


def _coefficients(sol):
    return np.concatenate([sol.alpha, sol.beta])


def _relative_gap(sol, reference):
    ref = _coefficients(reference)
    return np.max(np.abs(_coefficients(sol) - ref)) / np.max(np.abs(ref))


@pytest.fixture
def forced_P(monkeypatch):
    """``solve_reparam`` with no tail accepted: assembled on P itself."""

    def solve(curve, M, P):
        with monkeypatch.context() as m:
            m.setattr(reparam_solver, "KERNEL_TAIL_TOL", -1.0)
            sol = solve_reparam(curve, M, P)
        assert sol.assembly_P == P
        return sol

    return solve


class _Captured(Exception):
    pass


def _captured(build, cfg, monkeypatch):
    """``(curve, M, P)`` that ``build(cfg)`` hands to its solve."""
    from cforge import pipelines

    def capture(curve, M, P):
        raise _Captured(curve, M, P)

    with monkeypatch.context() as m:
        m.setattr(pipelines, "solve_reparam", capture)
        with pytest.raises(_Captured) as info:
            build(cfg)
    return info.value.args


def _pinned_case(name):
    """The pipeline and config of a benchmark job, on the benchmark's
    contours moved by a fixed rigid motion."""
    import contours
    from cforge import PipelineConfig, corner_map, slender_map, smooth_map

    rot, shift = np.exp(2j * np.pi * 137 / 1024), 2.5 * np.exp(1.1j)
    ellipse = FourierCurve((-1, 0, 1), (0.375 * rot, shift, 0.625 * rot))
    if name == "corner":
        t = 2 * np.pi * np.arange(4096) / 4096
        samples = rot * contours.corner_contour(t, 1, 2) + shift
        return corner_map, PipelineConfig(
            samples=samples, corner={"t0": 0.0, "k": 1, "N": 2}, M=128, P=1024,
            D=50, n_iter=11, refit_degree=64,
        )
    if name == "smooth":
        return smooth_map, PipelineConfig(boundary=ellipse, M=300, P=2400, D=1200)
    if name == "slender":
        return slender_map, PipelineConfig(
            boundary=ellipse, slender={"a": None}, M=300, P=2400, D=1000, n_iter=20
        )
    if name == "cli smooth":
        return smooth_map, PipelineConfig(boundary=ellipse, M=64)
    return slender_map, PipelineConfig(
        boundary=ellipse, slender={"a": None}, M=64, n_iter=12
    )


class TestQuadratureGrid:
    """The system is assembled on a rung of the kernel's own resolution or
    on 4M when its kernel tail is at round-off."""

    @pytest.mark.parametrize(
        "name", ["smooth", "slender", "corner", "cli smooth", "cli slender"]
    )
    def test_benchmark_curves_solve_on_4M(self, name, forced_P, monkeypatch):
        # smooth and slender keep a rung of L < M modes on 4L nodes; the
        # others are too small for the probe and solve on 4M
        curve, M, P = _captured(*_pinned_case(name), monkeypatch)
        sol = solve_reparam(curve, M, P)
        if name in ("smooth", "slender"):
            assert sol.assembly_P < 4 * M and sol.assembly_P % 32 == 0
        else:
            assert sol.assembly_P == 4 * M
        assert sol.grid_size == P
        assert sol.kernel_tail <= reparam_solver.KERNEL_TAIL_TOL
        assert _relative_gap(sol, forced_P(curve, M, P)) <= 1e-13

    @pytest.mark.parametrize("b", [0.7, 0.85, 0.95])
    @pytest.mark.parametrize("M", [32, 64, 128])
    def test_peanuts_agree_wherever_4M_is_kept(self, b, M, forced_P):
        # every accepted coarse grid, a rung or 4M
        curve = _peanut(b)
        sol = solve_reparam(curve, M, 8 * M)
        if sol.assembly_P < 8 * M:
            assert _relative_gap(sol, forced_P(curve, M, 8 * M)) <= 1e-13

    @pytest.mark.parametrize("M, err", [(32, 1.9e-2), (64, 4.0e-4)])
    def test_pinched_peanut_falls_back(self, M, err, forced_P, monkeypatch):
        curve = _peanut(0.95)
        # on 4M the solve would be far off the 16M reference
        coarse = assemble_system(curve, M, 4 * M)
        assert coarse.tail > reparam_solver.KERNEL_TAIL_TOL
        reference = forced_P(curve, M, 16 * M)
        with monkeypatch.context() as m:
            m.setattr(reparam_solver, "KERNEL_TAIL_TOL", 1.0)
            kept = solve_reparam(curve, M, 8 * M)
        assert kept.assembly_P == 4 * M
        assert _relative_gap(kept, reference) == pytest.approx(err, rel=0.05)

        systems = []
        assemble = reparam_solver.assemble_system

        def record(*args):
            systems.append(assemble(*args))
            return systems[-1]

        monkeypatch.setattr(reparam_solver, "assemble_system", record)
        sol = solve_reparam(curve, M, 8 * M)
        assert sol.assembly_P == 8 * M
        assert sol.kernel_tail == systems[-1].tail
        direct = assemble(curve, M, 8 * M)
        for name in ("A", "F", "G"):
            assert getattr(systems[-1], name).tobytes() == getattr(direct, name).tobytes()

    def test_tail_above_tolerance_on_P_is_logged(self, caplog):
        with caplog.at_level("WARNING", logger="cforge"):
            sol = solve_reparam(_peanut(0.95), 64, 512)
        assert sol.assembly_P == 512
        assert sol.kernel_tail > reparam_solver.KERNEL_TAIL_TOL
        [record] = caplog.records
        assert record.name == "cforge" and "kernel tail" in record.getMessage()

    def test_accepted_solve_logs_nothing(self, caplog):
        with caplog.at_level("DEBUG", logger="cforge"):
            solve_reparam(_peanut(0.7), 64, 512)
        assert not caplog.records

    def test_curve_mode_past_the_4M_grid_shows_in_the_tail(self):
        # e^{65it} folds onto e^{it} on 64 nodes, but z' keeps its factor 65
        curve = FourierCurve((1, 65), (1.0, 1e-3))
        assert assemble_system(curve, 16, 64).tail > 1e-3
        assert solve_reparam(curve, 16, 128).assembly_P == 128

    def test_size_checked_at_P_first(self, unit_circle, monkeypatch):
        M, P = 64, 8192
        est = reparam_solver._assembly_peak_bytes
        # 4M fits under the cap, P does not
        monkeypatch.setattr(reparam_solver, "ASSEMBLY_MAX_BYTES", est(P, M) - 1)
        assert est(4 * M, M) < est(P, M) - 1

        def no_blocks(curve, P):
            raise AssertionError("grid blocks allocated")

        monkeypatch.setattr(reparam_solver, "_kernel_blocks", no_blocks)
        with pytest.raises(InputError, match="GiB"):
            solve_reparam(unit_circle, M, P)

    @pytest.mark.parametrize(
        "curve",
        [FourierCurve((2,), (1.0,)), FourierCurve((1, 2), (1.0, -0.5 * np.exp(-1.98j * np.pi)))],
        ids=["double-cover", "cusp"],
    )
    def test_degenerate_curve_raises(self, curve):
        with pytest.raises(SolverError, match="vanished"):
            solve_reparam(curve, 100, 1000)

    def test_tail_carries_the_decay_to_the_first_aliased_mode(self):
        M, P, rho = 40, 320, 0.8
        h = M + M // 2
        # a geometric envelope rho^k, read at the first mode of each half band
        discarded = np.array([rho ** (M + 1), rho ** (h + 1)])
        tail = reparam_solver._tail(1.0, discarded, M, P)
        assert tail == pytest.approx(rho ** (P - M + 1), rel=1e-9)
        # a flat envelope is a plateau: carried on flat, relative to the kept peak
        assert reparam_solver._tail(4.0, np.array([1e-14, 1e-14]), M, P) == 2.5e-15
        assert reparam_solver._tail(0.5, np.array([0.0, 0.0]), M, P) == 0.0


def _recorded(monkeypatch):
    """``(M, P, system)`` of every ``assemble_system`` call, in order."""
    calls = []
    assemble = reparam_solver.assemble_system

    def record(curve, M, P, **kwargs):
        calls.append((M, P, assemble(curve, M, P, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(reparam_solver, "assemble_system", record)
    return calls


def _assert_solves_directly_on_4M(sol, curve, calls):
    """``sol`` and the last call are today's solve on ``4M``, bit for bit."""
    from scipy.linalg import lu_factor, lu_solve

    M = sol.M
    direct = reparam_solver.assemble_system(curve, M, 4 * M)
    assert calls[-1][:2] == (M, 4 * M) and sol.assembly_P == 4 * M
    for name in ("A", "F", "G"):
        assert getattr(calls[-1][2], name).tobytes() == getattr(direct, name).tobytes()
    x = lu_solve(lu_factor(direct.A), direct.rhs())
    assert sol.alpha.tobytes() == x[:M].tobytes()
    assert sol.beta.tobytes() == x[M:].tobytes()
    assert sol.kernel_tail == direct.tail


class TestRung:
    """A probe on ``max(32, max|k|)`` modes finds the kernel's own resolution
    L; a certified rung of ``L < M`` modes is solved as ``blockdiag(A_L, I)``."""

    @pytest.mark.parametrize("name", ["corner", "cli smooth", "cli slender"])
    def test_small_configs_assemble_once_on_4M(self, name, monkeypatch):
        curve, M, P = _captured(*_pinned_case(name), monkeypatch)
        calls = _recorded(monkeypatch)
        sol = solve_reparam(curve, M, P)
        assert len(calls) == 1
        monkeypatch.undo()
        _assert_solves_directly_on_4M(sol, curve, calls)

    @pytest.mark.parametrize("name", ["smooth", "slender"])
    def test_failed_certificate_falls_back_to_4M(self, name, monkeypatch):
        curve, M, P = _captured(*_pinned_case(name), monkeypatch)
        calls = _recorded(monkeypatch)
        monkeypatch.setattr(reparam_solver, "_cut", lambda bands: np.inf)
        sol = solve_reparam(curve, M, P)
        # the probe, the rung, then today's system
        assert [call[:2] for call in calls][0] == (32, 128)
        assert len(calls) == 3 and calls[1][0] < M
        monkeypatch.undo()
        _assert_solves_directly_on_4M(sol, curve, calls)

    @pytest.mark.parametrize("name", ["smooth", "slender"])
    def test_condition_is_that_of_the_full_system(self, name, monkeypatch):
        curve, M, P = _captured(*_pinned_case(name), monkeypatch)
        sol = solve_reparam(curve, M, P)
        assert sol.assembly_P < 4 * M
        full = np.linalg.cond(assemble_system(curve, M, 4 * M).A, 1)
        assert full / 2 <= sol.condition <= 2 * full

    def test_perturbed_ellipse_agrees_with_P(self, forced_P, monkeypatch):
        curve, M, P = _captured(*_pinned_case("smooth"), monkeypatch)
        curve = FourierCurve.from_coeffs({**curve.coeffs, 100: 1e-12})
        sol = solve_reparam(curve, M, P)
        assert _relative_gap(sol, forced_P(curve, M, P)) <= 1e-13

    def test_origin_near_the_boundary_does_not_alias(self, forced_P, monkeypatch):
        # the kernel does not see a translation, but ln|z| decays slowly
        # when the origin nears the boundary: sampled on the rung's 4L
        # nodes instead of low-passed, it puts the solve 1e-7 off
        curve, M, P = _captured(*_pinned_case("smooth"), monkeypatch)
        tip = curve.coeff(1) + curve.coeff(-1)
        curve = FourierCurve.from_coeffs({**curve.coeffs, 0: -0.99 * tip})
        sol = solve_reparam(curve, M, P)
        assert sol.assembly_P < 4 * M
        assert _relative_gap(sol, forced_P(curve, M, P)) <= 1e-13

    @pytest.mark.parametrize(
        "curve",
        [FourierCurve((2,), (1.0,)), FourierCurve((1, 2), (1.0, -0.5 * np.exp(-1.98j * np.pi)))],
        ids=["double-cover", "cusp"],
    )
    def test_degenerate_curve_raises_past_the_probe(self, curve):
        with pytest.raises(SolverError, match="vanished"):
            solve_reparam(curve, 300, 2400)

    def test_resolution_carries_the_envelope_to_the_tolerance(self):
        L, rho = 32, 0.5
        h = L + L // 2
        tol = reparam_solver.KERNEL_TAIL_TOL
        bands = np.array([[1.0, rho ** (L + 1), rho ** (h + 1)]])
        # the envelope rho^(m + 1) reaches the tolerance at this mode
        mode = np.log(tol) / np.log(rho) - 1.0
        assert reparam_solver._resolution(bands, L) == pytest.approx(mode, rel=1e-12)
        assert reparam_solver._resolution(np.array([[4.0, 1e-9, 1e-9]]), L) == np.inf
        assert reparam_solver._resolution(np.array([[4.0, 1e-12, 0.0]]), L) == h
        assert reparam_solver._resolution(np.array([[0.5, 1e-14, 1e-14]]), L) == 0.0
        assert reparam_solver._cut(np.array([[4.0, 1e-12, 2e-12], [0.5, 1e-14, 0]])) == 5e-13


class TestInvertTheta:
    """``correspondence_inverse`` of solved correspondences."""

    def test_identity(self, unit_circle):
        inv = correspondence_inverse(solve_reparam(unit_circle, 8, 64).theta_grid)
        for th in (0.0, 1.0, 4.5):
            assert inv(th) == pytest.approx(th, abs=1e-10)

    def test_planted_residual(self, rng):
        curve = planted_oracle_curve()
        sol = solve_reparam(curve, 64, 512)
        inv = correspondence_inverse(sol.theta_grid)
        thetas = rng.uniform(0, 2 * np.pi, 100)
        t = inv(thetas)
        resid = t + 0.3 * np.sin(t) + (sol.theta_grid[0] - 0.0) * 0 - thetas
        # theta(t) = t + 0.3 sin t up to solver error; invert to 1e-9
        assert np.max(np.abs(sol.theta(t) - thetas)) < 1e-10
        assert np.max(np.abs(resid)) < 2e-3

    def test_grid_node_roundtrip(self, quadratic_curve):
        sol = solve_reparam(quadratic_curve, 24, 192)
        inv = correspondence_inverse(sol.theta_grid)
        t = 2 * np.pi * np.arange(sol.grid_size) / sol.grid_size
        assert np.max(np.abs(inv(sol.theta_grid) - t)) < 1e-10

    def test_shift_by_full_turn(self, quadratic_curve, rng):
        inv = correspondence_inverse(solve_reparam(quadratic_curve, 16, 128).theta_grid)
        th = rng.uniform(0, 2 * np.pi, 16)
        assert np.allclose(inv(th + 2 * np.pi), inv(th) + 2 * np.pi, atol=1e-10)

    def test_rejected_solution(self, unit_circle):
        # the correspondence inverse takes any grid; the guard against a
        # rejected solve sits in the Taylor extraction
        from cforge.reparam_solver import ReparamSolution

        bad = ReparamSolution(
            M=2,
            alpha=np.zeros(2),
            beta=np.zeros(2),
            theta_grid=np.array([0.0, 2.0, 1.0, 4.0]),
            grid_size=4,
            monotone=False,
        )
        with pytest.raises(NonMonotoneThetaError):
            taylor_coeffs(unit_circle, bad, 4)


class TestReanchoredExtraction:
    """``taylor_from_correspondence`` with a ``center``: the map composed
    with the disk automorphism sending 0 to ``center``."""

    P, D = 128, 128

    def planted(self):
        t = 2 * np.pi * np.arange(self.P) / self.P
        return planted_oracle_curve(), t + 0.3 * np.sin(t)

    @pytest.mark.parametrize("center", [0.7, 0.3 + 0.2j, -0.5j])
    def test_planted_map_exact(self, center):
        # F(w) = w + 0.1 w^2 traversed with theta = t + 0.3 sin t; the
        # re-anchored map is F((zeta + c)/(1 + conj(c) zeta)) - F(c)
        curve, theta = self.planted()
        F = lambda w: w + 0.1 * w * w
        shift = curve.coeff(0) - F(center)
        moved = FourierCurve.from_coeffs({**curve.coeffs, 0: shift})
        got = reparam_solver.taylor_from_correspondence(moved, theta, self.D, center)
        zeta = np.exp(2j * np.pi * np.arange(4096) / 4096)
        image = F((zeta + center) / (1 + np.conj(center) * zeta)) - F(center)
        exact = np.fft.fft(image)[: self.D + 1] / 4096
        exact *= np.exp(-1j * np.arange(self.D + 1) * np.angle(exact[1]))
        assert np.max(np.abs(got.coeffs - exact)) < 1e-14

    def test_zero_center_is_the_plain_extraction(self):
        curve, theta = self.planted()
        plain = reparam_solver.taylor_from_correspondence(curve, theta, self.D)
        zero = reparam_solver.taylor_from_correspondence(curve, theta, self.D, 0j)
        assert plain.coeffs.tobytes() == zero.coeffs.tobytes()
        assert plain.neg_residual == zero.neg_residual

    @pytest.mark.parametrize("solved", ["planted", "slender"])
    def test_array_center_equals_row_by_row(self, solved):
        # one stacked extraction per array of centers and offsets, against
        # one scalar call per row on the curve translated by its offset
        if solved == "planted":
            curve, theta = self.planted()
            D = self.D
        else:  # a squared slender ellipse, solved as the slender pipeline does
            from cforge import pipelines

            cfg = pipelines.PipelineConfig(
                boundary=_ellipse(), slender={"a": None}, M=32, P=256, D=64,
                n_iter=20,
            )
            samples = pipelines._boundary_samples(cfg)
            a = pipelines._default_a(cfg.boundary, samples)
            direction, squared = pipelines._straighten(samples, a, 1, 2, np.pi / 2)
            squared_curve, _ = pipelines._refit(cfg, squared)
            anchor = ((cfg.boundary.coeff(0) - a) / direction) ** 2
            curve = pipelines._translate(squared_curve, -anchor)
            theta, D = reparam_solver.solve_reparam(curve, 32, 256).theta_grid, 64
        inverse = correspondence_inverse(theta)
        centers = np.array([0.0, 0.7, 0.3 + 0.2j, -0.5j, 1e-17])
        offsets = np.array([0.0, -0.5 + 0.25j, 0.3, -0.5j, 0.25])
        rows = reparam_solver.taylor_from_correspondence(
            curve, theta, D, centers, inverse, offsets
        )
        assert len(rows) == len(centers)
        for row, center, offset in zip(rows, centers, offsets):
            moved = FourierCurve.from_coeffs(
                {**curve.coeffs, 0: curve.coeff(0) + offset}
            )
            one = reparam_solver.taylor_from_correspondence(
                moved, theta, D, complex(center), inverse
            )
            assert isinstance(one, PolynomialMap)
            assert np.max(np.abs(row.coeffs - one.coeffs)) <= 1e-15
            # the planted map is exact: its residual (about 4e-15) is
            # round-off, compared as closely as the coefficients
            assert row.neg_residual == pytest.approx(
                one.neg_residual, rel=1e-14, abs=1e-15
            )

    def test_array_center_without_offset(self):
        curve, theta = self.planted()
        rows = reparam_solver.taylor_from_correspondence(curve, theta, self.D, [0.0])
        plain = reparam_solver.taylor_from_correspondence(curve, theta, self.D)
        assert isinstance(rows, list)
        assert rows[0].coeffs.tobytes() == plain.coeffs.tobytes()
        assert rows[0].neg_residual == plain.neg_residual


class TestOneTablePerSolve:
    """Every Taylor extraction of one solve shares its inverse table."""

    def test_slender_build_constructs_one_table(self, monkeypatch):
        from cforge import pipelines

        calls = {"table": 0, "extract": 0}
        build = reparam_solver.correspondence_inverse
        extract = reparam_solver.taylor_from_correspondence

        def counted_build(*args, **kwargs):
            calls["table"] += 1
            return build(*args, **kwargs)

        def counted_extract(curve, theta_grid, D, center=0j, *args, **kwargs):
            calls["extract"] += np.size(center)
            return extract(curve, theta_grid, D, center, *args, **kwargs)

        monkeypatch.setattr(reparam_solver, "correspondence_inverse", counted_build)
        monkeypatch.setattr(reparam_solver, "taylor_from_correspondence", counted_extract)
        cfg = pipelines.PipelineConfig(
            boundary=_ellipse(), slender={"a": None}, M=32, P=256, D=128, n_iter=20
        )
        pipelines.slender_map(cfg)
        # the base core plus one row per re-anchored candidate, from one table
        assert calls == {"table": 1, "extract": len(pipelines.ANCHOR_FRACTIONS)}


class TestCorrespondenceInverse:
    @staticmethod
    def band_limited_theta(shift, amps, phases):
        """``theta(t) = shift + t + sum_k a_k sin(k t + phi_k)``; monotone when
        ``sum_k k |a_k| < 1``."""
        ks = np.arange(1, len(amps) + 1)

        def theta(t):
            t = np.asarray(t, dtype=float)
            wave = np.sin(np.multiply.outer(t, ks) + phases) @ np.asarray(amps)
            return shift + t + wave

        return theta

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        shift=st.floats(-np.pi, np.pi),
        weights=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
        slack=st.floats(0.02, 0.9),
        phase=st.floats(0.0, 2 * np.pi),
        P=st.sampled_from([32, 64, 128, 256]),
        queries=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=40),
    )
    def test_round_trip(self, shift, weights, slack, phase, P, queries):
        # scale the modes so that min theta' >= slack
        ks = np.arange(1, len(weights) + 1)
        mass = float(np.sum(ks * np.abs(weights)))
        # weights over mass first: (1 - slack)/mass overflows for a subnormal mass
        amps = np.asarray(weights) / (mass if mass > 0 else 1.0) * (1.0 - slack)
        theta = self.band_limited_theta(shift, amps, phase * ks)
        inv = correspondence_inverse(theta(2 * np.pi * np.arange(P) / P))
        th = np.asarray(queries)
        t = inv(th)
        assert np.max(np.abs(theta(t) - th)) <= INVERSE_TOL
        t0 = inv(float(th[0]))
        assert isinstance(t0, float)
        assert abs(float(theta(t0)) - th[0]) <= INVERSE_TOL

    def test_tolerance_zero_raises(self, monkeypatch):
        # the certificate is strict: no table reaches a residual below 0
        theta = self.band_limited_theta(0.0, [0.3], [0.0])
        monkeypatch.setattr(reparam_solver, "INVERSE_TOL", 0.0)
        with pytest.raises(SolverError, match="residual"):
            correspondence_inverse(theta(2 * np.pi * np.arange(64) / 64))

    @pytest.mark.parametrize(
        "grid",
        [
            # a step back, and a closing step theta_0 + 2 pi - theta_{P-1} < 0
            [0.0, 2.0, 1.0, 4.0],
            [0.0, 1.5, 3.0, 4.5, 6.0, 7.0],
            # increasing nodes whose interpolant turns back in between
            np.arange(8) * np.pi / 4 + 1.02 * np.sin((np.arange(8) + 0.5) * np.pi / 4),
        ],
    )
    def test_non_increasing_grid_raises(self, grid):
        with pytest.raises(SolverError, match="not strictly increasing"):
            correspondence_inverse(np.asarray(grid))

    def test_steep_monotone_theta(self):
        # theta' = 1 + 0.999 cos t drops to 1e-3 at t = pi
        theta = self.band_limited_theta(0.0, [0.999], [0.0])
        inv = correspondence_inverse(theta(2 * np.pi * np.arange(64) / 64))
        th = np.concatenate(
            [np.pi + np.linspace(-1e-2, 1e-2, 401), np.linspace(-10.0, 10.0, 401)]
        )
        t = inv(th)
        assert np.max(np.abs(theta(t) - th)) <= INVERSE_TOL
        assert np.all(np.diff(t[401:]) > 0.0)
        # the first table, 2P, misses the certificate: the ladder climbs
        assert inv.nodes > 2 * 64 and inv.nodes % (2 * 64) == 0
        assert inv.residual < INVERSE_TOL

    def test_ellipse_certifies_on_2P(self):
        sol = solve_reparam(_ellipse(), 75, 300)
        assert sol.inverse.nodes == 2 * 300
        assert sol.inverse.residual < INVERSE_TOL

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        shift=st.floats(-np.pi, np.pi),
        weights=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
        slack=st.floats(0.1, 0.9),
        phase=st.floats(0.0, 2 * np.pi),
        P=st.sampled_from([32, 64, 128, 256]),
    )
    def test_agrees_with_a_16P_table(self, shift, weights, slack, phase, P):
        ks = np.arange(1, len(weights) + 1)
        mass = float(np.sum(ks * np.abs(weights)))
        amps = np.asarray(weights) / (mass if mass > 0 else 1.0) * (1.0 - slack)
        theta = self.band_limited_theta(shift, amps, phase * ks)
        grid = theta(2 * np.pi * np.arange(P) / P)
        # the reference: one table on 16P nodes, queried at its own midpoints
        n = 16 * P
        c = reparam_solver._half_spectrum(grid - 2 * np.pi * np.arange(P) / P)
        table, mid = reparam_solver._inverse_table(c, n)
        assume(reparam_solver._inverse_residual(table, mid) < INVERSE_TOL)
        j = np.arange(n)
        h = 2 * np.pi / n
        x = (j + 0.5) * h + mid
        reference = reparam_solver._hermite(table[:, j], table[:, j + 1], x, j, h)
        t = correspondence_inverse(grid)(x)
        # in the certificate's measure theta' |t - t_ref|, slope at t_ref
        waves = np.multiply.outer(ks, reference) + (phase * ks)[:, None]
        slope = 1.0 + (ks * amps) @ np.cos(waves)
        assert np.max(slope * np.abs(t - reference)) <= 2 * INVERSE_TOL


class TestEllipseOracle:
    """The 4:1 ellipse ``x^2/a^2 + y^2/b^2 = 1`` is ``z(t) = c cos(t - i mu)``
    with ``tanh mu = b/a``; its disk map's boundary correspondence is
    ``theta(t) = arg sn(K (1 - 2t/pi) + i K'/2 | k)`` with ``K'/K = 4 mu/pi``,
    that is nome ``e^{-4 mu}`` (Kober, *Dictionary of Conformal
    Representations*, 1957)."""

    M, P, D = 75, 300, 1200

    @pytest.fixture(scope="class")
    def exact(self):
        import mpmath

        a, b = 1.0, 0.25
        t = 2 * np.pi * np.arange(self.P) / self.P
        with mpmath.workdps(20):
            mu = mpmath.atanh(mpmath.mpf(b) / a)
            m = mpmath.kfrom(q=mpmath.exp(-4 * mu)) ** 2
            K, Kp = mpmath.ellipk(m), mpmath.ellipk(1 - m)
            theta = [
                float(mpmath.arg(mpmath.ellipfun(
                    "sn", K * (1 - 2 * mpmath.mpf(float(v)) / mpmath.pi) + 0.5j * Kp, m=m
                )))
                for v in t
            ]
        return t, np.asarray(theta), a * np.cos(t) + 1j * b * np.sin(t)

    @pytest.fixture(scope="class")
    def solved(self):
        return solve_reparam(_ellipse(), self.M, self.P)

    def test_theta_matches_the_exact_correspondence(self, exact, solved):
        _, theta, _ = exact
        gap = np.angle(np.exp(1j * (solved.theta_grid - theta)))
        # measured 2.3e-10 at M = 75: the truncation of q, not the solve
        assert np.max(np.abs(gap)) <= 5e-10

    def test_true_error_is_the_sup_deviation(self, exact, solved):
        from cforge import ComposedMap
        from cforge.geometry_checks import boundary_deviation

        _, theta, z = exact
        core = taylor_coeffs(_ellipse(), solved, self.D)
        # the core from the 2P table against the exact boundary correspondence
        assert solved.inverse.nodes == 2 * self.P
        true = float(np.max(np.abs(core(np.exp(1j * theta)) - z)))
        sup = boundary_deviation(ComposedMap((), core), _ellipse()).sup_deviation
        assert true == pytest.approx(sup, rel=1e-3)
        assert true == pytest.approx(3.049e-2, rel=1e-3)


class TestTaylor:
    def test_unit_circle(self, unit_circle):
        sol = solve_reparam(unit_circle, 8, 64)
        pmap = taylor_coeffs(unit_circle, sol, 4)
        assert np.allclose(pmap.coeffs, [0, 1, 0, 0, 0], atol=1e-12)
        assert pmap.neg_residual < 1e-12

    def test_exact_quadratic(self, quadratic_curve):
        sol = solve_reparam(quadratic_curve, 32, 256)
        pmap = taylor_coeffs(quadratic_curve, sol, 8)
        expect = np.zeros(9, dtype=complex)
        expect[1], expect[2] = 1.0, 0.3
        assert np.max(np.abs(pmap.coeffs - expect)) < 1e-8
        assert pmap.neg_residual < 1e-8
        assert pmap.coeffs[1].imag == pytest.approx(0.0, abs=1e-14)
        assert pmap.coeffs[1].real > 0

    def test_planted_oracle_coeffs(self):
        curve = planted_oracle_curve()
        sol = solve_reparam(curve, 64, 512)
        pmap = taylor_coeffs(curve, sol, 16)
        expect = np.zeros(17, dtype=complex)
        expect[1], expect[2] = 1.0, 0.1
        assert np.max(np.abs(pmap.coeffs - expect)) < 5e-3

    def test_gauge_rotation_invariance(self):
        # rotating the boundary parametrization must not change the gauged map
        curve = planted_oracle_curve()
        rot = np.exp(0.7j)
        rotated = FourierCurve(curve.ks, tuple(rot * c for c in curve.cs))
        pm1 = taylor_coeffs(curve, solve_reparam(curve, 48, 384), 8)
        pm2 = taylor_coeffs(rotated, solve_reparam(rotated, 48, 384), 8)
        # same domain up to rotation: gauged coefficient magnitudes agree
        assert np.allclose(np.abs(pm1.coeffs), np.abs(pm2.coeffs), atol=1e-8)


class TestProperties:
    def test_identity_family(self, rng):
        for _ in range(5):
            curve = jordan_positive_curve(rng)
            sol = solve_reparam(curve, 48, 384)
            t = 2 * np.pi * np.arange(sol.grid_size) / sol.grid_size
            dev = sol.theta_grid - t
            dev -= dev.mean()
            assert sol.monotone
            assert np.max(np.abs(dev)) < 1e-5

    def test_planted_neg_residual_at_round_off(self):
        # the planted curve is solved exactly at every M: its residual is
        # round-off (about 1.5e-15), not a sequence that falls with M
        curve = planted_oracle_curve()
        for M in (16, 32, 64, 128):
            sol = solve_reparam(curve, M, 8 * M)
            assert taylor_coeffs(curve, sol, 16).neg_residual < 1e-14

    def test_neg_residual_decreases_with_M(self):
        # the 2:1 ellipse is resolved only as M grows: 4.8e-3, 2.8e-4,
        # 1.5e-6 and 1.7e-8 at M = 4, 8, 16, 32
        curve = FourierCurve.from_coeffs({1: 0.75, -1: 0.25})
        residuals = []
        for M in (4, 8, 16, 32):
            sol = solve_reparam(curve, M, 8 * M)
            residuals.append(taylor_coeffs(curve, sol, 16).neg_residual)
        for r0, r1 in zip(residuals, residuals[1:]):
            assert r1 <= 2.0 * r0
        assert residuals[-1] < residuals[0]

    def test_system_nonsingular_across_curves(self, rng):
        curves = [
            FourierCurve((1,), (1.0,)),
            FourierCurve((1, 2), (1.0, 0.3)),
            FourierCurve((-1, 1), (0.375, 0.625)),
            planted_oracle_curve(degree=12, grid=512),
            jordan_positive_curve(rng),
        ]
        for curve in curves:
            sol = solve_reparam(curve, 16, 128)
            assert np.isfinite(sol.condition)
            assert sol.condition < 1e6


class TestPersistence:
    def test_roundtrip_with_sidecar(self, tmp_path, quadratic_curve):
        sol = solve_reparam(quadratic_curve, 16, 128)
        pmap = taylor_coeffs(quadratic_curve, sol, 6)
        path = tmp_path / "core.csv"
        save_polynomial_map(pmap, str(path))
        again = load_polynomial_map(str(path))
        assert np.allclose(again.coeffs, pmap.coeffs, atol=0)
        assert again.neg_residual == pytest.approx(pmap.neg_residual)
        assert again.solver_M == 16 and again.solver_P == 128

    def test_horner_eval(self):
        pmap = PolynomialMap(coeffs=[1.0, 2.0, 3.0], neg_residual=0.0)
        z = 0.5 + 0.25j
        assert pmap(z) == pytest.approx(1 + 2 * z + 3 * z * z)


class TestDegenerateCurves:
    def test_doubly_traversed_circle_rejected(self):
        # z = e^{2it} covers the circle twice; opposite parameters collide
        curve = FourierCurve((2,), (1.0,))
        from cforge.errors import SolverError

        with pytest.raises(SolverError):
            kernel_K(curve, 0.5 + np.pi, 0.5)

    def test_correspondence_closes_one_turn(self, quadratic_curve):
        sol = solve_reparam(quadratic_curve, 16, 128)
        assert sol.theta(2 * np.pi) - sol.theta(0.0) == pytest.approx(
            2 * np.pi, abs=1e-12
        )
