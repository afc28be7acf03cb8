"""Named verification suites behind ``cforge verify``.

Each suite draws its samples from a seeded generator, checks one family of
properties of the root approximants or of the reparametrization solver,
and reports counts plus the worst margin seen.  All suites are pure
functions of the seed, so reports are reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .fourier_boundary import CornerGapQuery, FourierCurve, corner_gap_F, fit_from_samples
from .reparam_solver import solve_reparam, taylor_coeffs
from .root_cf import CFApproximant, rate_estimate, root_cf, sqrt_cf

__all__ = ["run_suite", "SUITES", "rate_test_points", "planted_oracle_curve"]

DEFAULT_SEED = 20260808


def rate_test_points(
    count: int, seed: int, lo: float = 0.12, hi: float = 0.5
) -> np.ndarray:
    """Pinned right-half-plane cloud with square-root contraction factor
    in ``[lo, hi]``.

    The factor band keeps the measured error ratios in the regime where a
    handful of iterations already tracks the asymptotic rate and errors
    stay clear of double-precision rounding.
    """
    rng = np.random.default_rng(seed)
    pts = []
    guard = 0
    while len(pts) < count and guard < 100 * count:
        guard += 1
        z = np.exp(rng.uniform(np.log(0.4), np.log(5.0))) * np.exp(
            1j * rng.uniform(-1.1, 1.1)
        )
        if lo <= rate_estimate(z, CFApproximant(1, 2, 1)) <= hi:
            pts.append(z)
    return np.asarray(pts, dtype=complex)


def half_plane_samples(count: int, seed: int, min_arg: float = 0.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(np.log(0.05), np.log(20.0), count))
    sign = np.where(rng.uniform(size=count) < 0.5, -1.0, 1.0)
    phi = sign * rng.uniform(min_arg, np.pi / 2 - 1e-3, count)
    return r * np.exp(1j * phi)


def planted_oracle_curve(degree: int = 24, grid: int = 4096) -> FourierCurve:
    """Boundary of ``F(w) = w + 0.1 w^2`` traversed with the known
    reparametrization ``theta = t + 0.3 sin t``, truncated at ``degree``."""
    t = 2.0 * np.pi * np.arange(grid) / grid
    theta = t + 0.3 * np.sin(t)
    w = np.exp(1j * theta)
    return fit_from_samples(w + 0.1 * w * w, degree, degree)


def _report(name, seed, checked, failures, worst, detail=None):
    out = {
        "suite": name,
        "seed": seed,
        "checked": int(checked),
        "failures": int(failures),
        "passed": failures == 0,
        "worst_margin": worst,
    }
    if detail:
        out.update(detail)
    return out


def suite_lemma1(seed: int = DEFAULT_SEED) -> dict:
    """Half-plane invariance of the square-root recursion: positive real
    part, imaginary sign preserved, slope ratio strictly contracted."""
    z = half_plane_samples(10_000, seed, min_arg=1e-3)
    failures = 0
    worst = np.inf
    for n in range(1, 21):
        f = sqrt_cf(z, n)
        ok1 = f.real > 0
        ok2 = np.sign(f.imag) == np.sign(z.imag)
        ratio_gap = np.abs(z.imag / z.real) - np.abs(f.imag / f.real)
        ok3 = ratio_gap > 0
        failures += int(np.sum(~(ok1 & ok2 & ok3)))
        worst = min(worst, float(np.min(f.real)), float(np.min(ratio_gap)))
    return _report("lemma1", seed, 10_000 * 20, failures, worst)


def suite_statement1(seed: int = DEFAULT_SEED) -> dict:
    """Nonvanishing derivative on the half-plane (central differences) and
    positivity of ``f_n(x) - x f_n'(x)`` on the positive axis."""
    z = half_plane_samples(10_000, seed)
    h = 1e-6
    failures = 0
    worst = np.inf
    for n in range(1, 13):
        d = (sqrt_cf(z + h, n) - sqrt_cf(z - h, n)) / (2 * h)
        worst = min(worst, float(np.min(np.abs(d))))
        failures += int(np.sum(np.abs(d) == 0.0))
    rng = np.random.default_rng(seed + 1)
    x = np.exp(rng.uniform(np.log(1e-3), np.log(100.0), 10_000))
    for n in range(1, 13):
        fx = sqrt_cf(x, n).real
        dfx = ((sqrt_cf(x + h, n) - sqrt_cf(x - h, n)) / (2 * h)).real
        gap = fx - x * dfx
        failures += int(np.sum(gap <= 0))
        worst = min(worst, float(np.min(gap)))
    return _report("statement1", seed, 10_000 * 24, failures, worst)


def _ratio_deviation(errs, rho, tol):
    """Worst relative gap between measured consecutive-error ratios and the
    predicted factor, skipping pairs at the rounding floor."""
    worst = 0.0
    checked = 0
    failures = 0
    for e0, e1 in zip(errs[:-1], errs[1:]):
        mask = np.minimum(e0, e1) >= 1e-12
        if not np.any(mask):
            continue
        rel = np.abs(e1[mask] / e0[mask] - rho[mask]) / rho[mask]
        worst = max(worst, float(np.max(rel)))
        checked += int(mask.sum())
        failures += int(np.sum(rel > tol))
    return worst, checked, failures


def suite_theorem1(seed: int = DEFAULT_SEED) -> dict:
    """Measured square-root error ratios track the contraction factor
    within 5% for n >= 8."""
    zs = rate_test_points(200, seed)
    rho = np.asarray(rate_estimate(zs, CFApproximant(1, 2, 1)))
    errs = [np.abs(sqrt_cf(zs, n) - np.sqrt(zs)) for n in range(8, 14)]
    worst, checked, failures = _ratio_deviation(errs, rho, 0.05)
    return _report("theorem1", seed, checked, failures, worst)


def suite_theorem2(seed: int = DEFAULT_SEED) -> dict:
    """Measured ``z^(k/N)`` error ratios track the contraction factor
    within 10% for n >= 10, for N in {3,4,5,8} and k in {1, N//2, N-1}."""
    zs = rate_test_points(200, seed)
    failures = 0
    worst = 0.0
    checked = 0
    for N in (3, 4, 5, 8):
        for k in sorted({1, N // 2, N - 1}):
            rho = np.asarray(rate_estimate(zs, CFApproximant(k, N, 1)))
            band = (rho >= 0.05) & (rho <= 0.6)
            if not np.any(band):
                continue
            z = zs[band]
            tgt = z ** (k / N)
            errs = [
                np.abs(root_cf(z, CFApproximant(k, N, n)) - tgt)
                for n in range(10, 15)
            ]
            w, c, f = _ratio_deviation(errs, rho[band], 0.10)
            worst = max(worst, w)
            checked += c
            failures += f
    return _report("theorem2", seed, checked, failures, worst)


def suite_lemma2(seed: int = DEFAULT_SEED) -> dict:
    """The rate numerator stays strictly below the root-sum denominator on
    the right half-plane for N up to 12."""
    z = half_plane_samples(10_000, seed)
    failures = 0
    worst = 0.0
    for N in range(2, 13):
        x = z ** (1.0 / N)
        h = N // 2
        den = np.zeros_like(z)
        for j in range(N):
            den = den + x**j
        num = den - N * x**h
        ratio = np.abs(num) / np.abs(den)
        worst = max(worst, float(np.max(ratio)))
        failures += int(np.sum(ratio >= 1.0))
    return _report("lemma2", seed, 10_000 * 11, failures, worst)


def jordan_positive_curve(rng: np.random.Generator, top: int = 12) -> FourierCurve:
    """Random curve with support in [0, top], kept Jordan by bounding the
    derivative perturbation of the leading circle."""
    ks = [1]
    cs = [1.0 + 0.0j]
    budget = 0.9
    weights = rng.uniform(0.2, 1.0, top - 1)
    weights /= weights.sum()
    for i, k in enumerate(range(2, top + 1)):
        mag = budget * weights[i] / k
        phase = rng.uniform(0.0, 2.0 * np.pi)
        ks.append(k)
        cs.append(mag * np.exp(1j * phase))
    return FourierCurve(tuple(ks), tuple(cs))


def suite_identity(seed: int = DEFAULT_SEED, count: int = 20) -> dict:
    """Curves without negative frequencies must reparametrize trivially:
    theta(t) = t + const."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    for _ in range(count):
        curve = jordan_positive_curve(rng)
        sol = solve_reparam(curve, 48, 384)
        t = 2.0 * np.pi * np.arange(sol.grid_size) / sol.grid_size
        dev = sol.theta_grid - t
        dev = dev - dev.mean()
        worst = max(worst, float(np.max(np.abs(dev))))
        failures += int(np.max(np.abs(dev)) >= 1e-5 or not sol.monotone)
    return _report("identity", seed, count, failures, worst)


def suite_oracle(seed: int = DEFAULT_SEED) -> dict:
    """Recovery of the planted reparametrization and of the generating
    quadratic map."""
    curve = planted_oracle_curve()
    sol = solve_reparam(curve, 64, 512)
    t = 2.0 * np.pi * np.arange(sol.grid_size) / sol.grid_size
    theta_true = t + 0.3 * np.sin(t)
    dev = sol.theta_grid - theta_true
    dev = dev - dev.mean()
    theta_err = float(np.max(np.abs(dev)))
    pmap = taylor_coeffs(curve, sol, 16)
    expected = np.zeros(17, dtype=complex)
    expected[1] = 1.0
    expected[2] = 0.1
    coeff_err = float(np.max(np.abs(pmap.coeffs - expected)))
    failures = int(theta_err >= 2e-3) + int(coeff_err >= 5e-3)
    return _report(
        "oracle",
        seed,
        2,
        failures,
        max(theta_err, coeff_err),
        detail={
            "theta_sup_error": theta_err,
            "coeff_max_error": coeff_err,
            "neg_residual": pmap.neg_residual,
        },
    )


def suite_cornergap(seed: int = DEFAULT_SEED) -> dict:
    """Corner-gap integral stays under ``pi^2/(4n)`` for exponents above 1."""
    failures = 0
    worst = -np.inf
    checked = 0
    n = 4
    while n <= 1024:
        for alpha in (1.1, 1.5, 1.9):
            F = corner_gap_F(CornerGapQuery(n=n, eps=np.pi / (2 * n), alpha=alpha))
            bound = np.pi**2 / (4 * n)
            margin = F - bound
            worst = max(worst, margin)
            failures += int(margin > 0)
            checked += 1
        n *= 2
    return _report("cornergap", seed, checked, failures, worst)


SUITES = {
    "lemma1": suite_lemma1,
    "statement1": suite_statement1,
    "theorem1": suite_theorem1,
    "theorem2": suite_theorem2,
    "lemma2": suite_lemma2,
    "identity": suite_identity,
    "oracle": suite_oracle,
    "cornergap": suite_cornergap,
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> dict:
    try:
        fn = SUITES[name]
    except KeyError:
        raise InputError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}"
        ) from None
    return fn(seed)
