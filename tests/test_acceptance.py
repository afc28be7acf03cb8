"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines inline.  Tolerances and resolutions are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

from cforge import (
    CFApproximant,
    CornerGapQuery,
    PipelineConfig,
    boundary_deviation,
    corner_gap_F,
    corner_map,
    measure_corner_angle,
    root_cf,
    slender_map,
    smooth_map,
    sqrt_cf,
)
from cforge.cli import main
from cforge.suites import (
    suite_identity,
    suite_lemma1,
    suite_lemma2,
    suite_oracle,
    suite_statement1,
    suite_theorem1,
    suite_theorem2,
)

from contours import corner_contour, ellipse_curve

SEED = 20260808


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} ({detail})", flush=True)


def test_criterion_01_sqrt_rate():
    t0 = time.perf_counter()
    report = suite_theorem1(SEED)
    worst = report["worst_margin"]
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.05 and elapsed < 1.0
    _line(1, "sqrt-rate", ok, f"worst rel dev {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 0.05
    assert elapsed < 1.0


def test_criterion_02_root_rate():
    t0 = time.perf_counter()
    report = suite_theorem2(SEED)
    worst = report["worst_margin"]
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.10 and elapsed < 5.0
    _line(2, "root-rate", ok, f"worst rel dev {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 0.10
    assert elapsed < 5.0


def test_criterion_03_half_plane_properties():
    t0 = time.perf_counter()
    reports = [suite_lemma1(SEED), suite_statement1(SEED), suite_lemma2(SEED)]
    elapsed = time.perf_counter() - t0
    failures = sum(r["failures"] for r in reports)
    ok = failures == 0 and elapsed < 10.0
    _line(
        3,
        "half-plane-properties",
        ok,
        f"{failures} violations in "
        f"{sum(r['checked'] for r in reports)} checks, {elapsed:.2f}s",
    )
    assert failures == 0
    assert elapsed < 10.0


def test_criterion_04_exact_cf_values():
    checks = [
        (sqrt_cf(4.0, 1), 8 / 5),
        (sqrt_cf(4.0, 2), 28 / 13),
        (sqrt_cf(4.0, 3), 80 / 41),
        (root_cf(8.0, CFApproximant(1, 3, 2)), 257 / 131),
        (root_cf(8.0, CFApproximant(2, 3, 2)), 1048 / 257),
    ]
    worst = max(abs(got - want) for got, want in checks)
    ok = worst <= 1e-14
    _line(4, "exact-cf-values", ok, f"worst abs error {worst:.2e}")
    assert worst <= 1e-14


def test_criterion_05_identity_reparametrization():
    t0 = time.perf_counter()
    report = suite_identity(SEED)
    worst = report["worst_margin"]
    elapsed = time.perf_counter() - t0
    ok = report["passed"] and worst < 1e-5 and elapsed < 30.0
    _line(5, "identity-reparam", ok, f"worst dev {worst:.2e}, {elapsed:.1f}s")
    # a failure also counts a non-monotone solve
    assert report["passed"] and worst < 1e-5
    assert elapsed < 30.0


def test_criterion_06_planted_oracle():
    t0 = time.perf_counter()
    report = suite_oracle(SEED)
    theta_err = report["theta_sup_error"]
    coeff_err = report["coeff_max_error"]
    elapsed = time.perf_counter() - t0
    ok = theta_err < 2e-3 and coeff_err < 5e-3 and elapsed < 60.0
    _line(
        6,
        "planted-oracle",
        ok,
        f"theta {theta_err:.2e}, coeffs {coeff_err:.2e}, {elapsed:.1f}s",
    )
    assert theta_err < 2e-3
    assert coeff_err < 5e-3
    assert elapsed < 60.0


def _corner_angle(k, N, n_iter):
    t = 2 * np.pi * np.arange(4096) / 4096
    cfg = PipelineConfig(
        samples=corner_contour(t, k, N),
        corner={"t0": 0.0, "k": k, "N": N},
        M=128,
        P=1024,
        D=50,
        n_iter=n_iter,
        refit_degree=64,
    )
    return measure_corner_angle(corner_map(cfg))


def test_criterion_07_corner_scenarios():
    t0 = time.perf_counter()
    scenarios = [(1, 2, 11), (1, 3, 6), (2, 3, 4)]
    angle_errs = {}
    for k, N, n_iter in scenarios:
        angle = _corner_angle(k, N, n_iter)
        angle_errs[(k, N)] = abs(angle - k * np.pi / N)
    within = all(err < 0.05 for err in angle_errs.values())

    monotone = True
    seqs = {}
    for k, N, _ in scenarios:
        errs = [abs(_corner_angle(k, N, ni) - k * np.pi / N) for ni in (2, 4, 8, 16)]
        seqs[(k, N)] = errs
        monotone &= all(b <= 2.0 * a for a, b in zip(errs, errs[1:]))
    elapsed = time.perf_counter() - t0
    ok = within and monotone and elapsed < 300.0
    detail = ", ".join(
        f"{k}pi/{N}: {angle_errs[(k, N)]:.1e}" for k, N, _ in scenarios
    )
    _line(7, "corner-scenarios", ok, f"{detail}; monotone={monotone}, {elapsed:.0f}s")
    assert within, angle_errs
    assert monotone, seqs
    assert elapsed < 300.0


def test_criterion_08_slender_comparison():
    t0 = time.perf_counter()
    ell = ellipse_curve()
    slender = slender_map(
        PipelineConfig(
            boundary=ell,
            slender={"a": None},
            M=300,
            P=2400,
            D=1000,
            n_iter=20,
            sample_grid=8192,
        )
    )
    dev_slender = boundary_deviation(slender, ell, grid=4096).sup_deviation
    pure = smooth_map(PipelineConfig(boundary=ell, M=300, P=2400, D=1200))
    dev_pure = boundary_deviation(pure, ell, grid=4096).sup_deviation
    elapsed = time.perf_counter() - t0
    ok = dev_slender < dev_pure and elapsed < 600.0
    _line(
        8,
        "slender-comparison",
        ok,
        f"fraction(n=20,D=1000) {dev_slender:.5f} vs pure(D=1200) "
        f"{dev_pure:.5f}, {elapsed:.0f}s",
    )
    assert dev_slender < dev_pure, (dev_slender, dev_pure)
    assert elapsed < 600.0


def test_criterion_09a_corner_gap_bound():
    t0 = time.perf_counter()
    worst = -np.inf
    n = 4
    while n <= 1024:
        for alpha in (1.1, 1.5, 1.9):
            F = corner_gap_F(CornerGapQuery(n, np.pi / (2 * n), alpha))
            worst = max(worst, F - np.pi**2 / (4 * n))
        n *= 2
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.0 and elapsed < 10.0
    _line(9, "corner-gap-bound", ok, f"worst margin {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 0.0
    assert elapsed < 10.0


def test_criterion_09b_corner_gap_log_limit():
    # With u = n t the prefactor 2^(alpha+1) (2n)^(-alpha) is exactly 2/e
    # at alpha = 1/ln n, and what remains tends to Si(pi/2), so
    #   F(n, pi/(2n), 1/ln n) = L + (2/e) I1 alpha + O(alpha^2),
    #   L = 2 Si(pi/2)/e,  I1 = int_0^{pi/2} ln(u) sin(u)/u du.
    # 2/e itself is only the prefactor and a lower bound.  The quadrature
    # is cross-checked against a 30-digit oracle in test_fourier_boundary;
    # the second-order coefficient is about -0.50, inside the alpha^2 band.
    from scipy.special import sici

    L = 2.0 * sici(np.pi / 2)[0] / math.e
    I1 = -0.883104160373259  # int_0^{pi/2} ln(u) sin(u)/u du, 30-digit mpmath
    t0 = time.perf_counter()
    seq = [
        corner_gap_F(CornerGapQuery(n, np.pi / (2 * n), 1.0 / math.log(n)))
        for n in (10**3, 10**6, 10**9)
    ]
    elapsed = time.perf_counter() - t0
    F, alpha = seq[-1], 1.0 / math.log(10**9)
    residual = F - (L + (2.0 / math.e) * I1 * alpha)
    increasing = all(a < b for a, b in zip(seq, seq[1:]))
    ok = (
        abs(residual) <= alpha**2
        and F >= 2.0 / math.e
        and increasing
        and elapsed < 10.0
    )
    _line(
        9,
        "corner-gap-log-limit",
        ok,
        f"F(1e9) = {F:.5f}, L = {L:.5f}, residual after first order "
        f"{residual:.2e} (bound {alpha**2:.1e}), {elapsed:.1f}s",
    )
    assert elapsed < 10.0
    assert abs(residual) <= alpha**2, (
        f"F(1e9) = {F:.10f} is {residual:.3e} from L + (2/e) I1/ln n"
    )
    assert F >= 2.0 / math.e
    assert increasing, f"F over n = 1e3, 1e6, 1e9: {seq}"


def test_criterion_10_determinism(tmp_path):
    payload = {
        "boundary": {"coeffs": [{"k": 1, "re": 1.0, "im": 0.0},
                                {"k": 2, "re": 0.2, "im": 0.1}]},
        "M": 24,
        "P": 192,
        "D": 12,
        "n_iter": 8,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["map", "--config", str(cfg), "--out", str(out1), "--render"]) == 0
    assert (
        main(
            ["map", "--config", str(out1 / "manifest.json"),
             "--out", str(out2), "--render"]
        )
        == 0
    )
    core_same = (out1 / "core.csv").read_bytes() == (out2 / "core.csv").read_bytes()
    svg_same = (out1 / "net.svg").read_bytes() == (out2 / "net.svg").read_bytes()
    ok = core_same and svg_same
    _line(10, "determinism", ok, f"core identical={core_same}, svg identical={svg_same}")
    assert core_same and svg_same
