"""Closed boundary curves as trigonometric polynomials.

A boundary is stored as a sparse set of complex coefficients ``c_k`` for
``k`` in ``[-m, n]``, representing ``z(t) = sum_k c_k e^{ikt}`` on
``[0, 2*pi)``.  This module evaluates such curves and every complex
polynomial of the package (on uniform grids of the circle by folding and
one inverse FFT, at scattered points by Horner), differentiates and fits
them, provides the continuous argument along the curve, the signed
curvature, and the corner-gap integral used to quantify how fast Fourier
partial sums converge at a corner point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import io
from .errors import FitError, InputError, QuadratureError, WindingError

__all__ = [
    "FourierCurve",
    "CornerGapQuery",
    "eval_curve",
    "eval_grid",
    "derivative_curve",
    "fit_from_samples",
    "unwrap_arg",
    "corner_gap_F",
    "curvature",
    "horner",
    "unwrap_closed",
    "load_curve",
    "save_curve",
]

# |z| below this at a grid node counts as "curve passes through the origin"
ORIGIN_TOL = 1e-12


@dataclass(frozen=True)
class FourierCurve:
    """Closed curve ``z(t) = sum c_k e^{ikt}``, ``k`` in ``[-m, n]``.

    Coefficients are stored sparsely: ``ks`` holds the integer indices in
    increasing order and ``cs`` the matching complex values.  Zero values
    inside the support are allowed; the stored extremes define ``m`` and
    ``n``, so there is never a silent zero-padding mismatch.
    """

    ks: tuple
    cs: tuple

    def __post_init__(self):
        ks = tuple(int(k) for k in self.ks)
        cs = tuple(complex(c) for c in self.cs)
        if len(ks) != len(cs):
            raise InputError("index/coefficient length mismatch")
        if len(ks) == 0:
            raise InputError("curve needs at least one coefficient")
        if len(set(ks)) != len(ks):
            raise InputError("duplicate coefficient index")
        order = np.argsort(ks)
        ks = tuple(ks[i] for i in order)
        cs = tuple(cs[i] for i in order)
        if not any(k != 0 and c != 0 for k, c in zip(ks, cs)):
            raise InputError("curve is a single point (no oscillating term)")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "cs", cs)

    @property
    def m(self) -> int:
        """Largest negative degree present (0 if none)."""
        return max(0, -min(self.ks))

    @property
    def n(self) -> int:
        """Largest positive degree present (0 if none)."""
        return max(0, max(self.ks))

    @property
    def coeffs(self) -> dict:
        return {k: c for k, c in zip(self.ks, self.cs)}

    def coeff(self, k: int) -> complex:
        """Coefficient ``c_k`` (0 outside the stored support)."""
        try:
            return self.cs[self.ks.index(int(k))]
        except ValueError:
            return 0.0

    def __call__(self, t):
        return eval_curve(self, t)

    @staticmethod
    def from_coeffs(coeffs: dict) -> "FourierCurve":
        items = sorted(coeffs.items())
        return FourierCurve(tuple(k for k, _ in items), tuple(v for _, v in items))


@dataclass(frozen=True)
class CornerGapQuery:
    """Arguments of the corner-gap integral: partial-sum index ``n``,
    integration limit ``eps`` in ``(0, pi]``, corner exponent ``alpha``
    in ``(0, 2)``."""

    n: int
    eps: float
    alpha: float

    def __post_init__(self):
        if self.n < 1:
            raise InputError("n must be a positive integer")
        if not 0.0 < self.eps <= math.pi:
            raise InputError("eps must lie in (0, pi]")
        if not 0.0 < self.alpha < 2.0:
            raise InputError("alpha must lie in (0, 2)")


def eval_curve(curve: FourierCurve, t, order: int = 0):
    """Evaluate ``z(t) = sum c_k e^{ikt}``; ``t`` may be a scalar or array.

    The coefficients are laid out densely over ``[min k, max k]`` and
    summed by :func:`horner` in ``w = e^{it}``, then shifted by
    ``e^{i min(k) t}``: at most two ``exp`` per point, whatever the support.
    With ``order > 0`` the result gains a leading axis of ``order + 1``
    rows, ``z`` and its derivatives in ``t`` up to ``order``, all from the
    one power table.
    """
    t_arr = np.asarray(t, dtype=float)
    kmin = curve.ks[0]
    dense = np.zeros(curve.ks[-1] - kmin + 1, dtype=complex)
    dense[np.subtract(curve.ks, kmin)] = curve.cs
    if order:
        k = np.arange(kmin, curve.ks[-1] + 1)
        dense = (1j * k) ** np.arange(order + 1)[:, None] * dense
    out = horner(dense, np.exp(1j * t_arr))
    if kmin:
        out = out * np.exp(1j * kmin * t_arr)
    if t_arr.ndim == 0 and not order:
        return complex(out)
    return out


def derivative_curve(curve: FourierCurve, order: int = 1) -> FourierCurve:
    """Coefficient-wise derivative: ``c_k -> (ik)^order c_k``, constant dropped."""
    if order < 1:
        raise InputError("order must be >= 1")
    ks, cs = [], []
    for k, c in zip(curve.ks, curve.cs):
        if k == 0:
            continue
        ks.append(k)
        cs.append((1j * k) ** order * c)
    return FourierCurve(tuple(ks), tuple(cs))


def fit_from_samples(points, m: int, n: int) -> FourierCurve:
    """Least-squares trigonometric fit of support ``[-m, n]``.

    ``points`` are samples of the curve at uniformly spaced parameters
    ``t_i = 2*pi*i/len(points)``.  With at least ``m + n + 1`` samples the
    uniform-grid least-squares solution equals the discrete Fourier
    projection; with exactly ``m + n + 1`` samples it interpolates.

    Raises ``FitError`` when the fit is underdetermined.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    count = len(pts)
    if m < 0 or n < 0:
        raise InputError("m and n must be non-negative")
    if count < m + n + 1:
        raise FitError(
            f"need at least {m + n + 1} samples for support [-{m}, {n}], got {count}"
        )
    dft = np.fft.fft(pts) / count
    ks = tuple(range(-m, n + 1))
    cs = tuple(dft[k % count] for k in ks)
    return FourierCurve(ks, cs)


def eval_grid(ks, cs, n: int) -> np.ndarray:
    """``sum_k cs[..., k] e^{i ks[k] t_j}`` at ``t_j = 2 pi j/n``, ``j < n``:
    with ``ks = 0, 1, ...``, a polynomial on the ``n``-th roots of unity.

    ``e^{i k t_j}`` depends on ``k mod n`` only, so this is one inverse FFT
    of the coefficients folded mod ``n``, exact for integer ``ks`` of any
    sign and size.  Leading axes of ``cs`` are rows, transformed together.
    """
    cs = np.asarray(cs, dtype=complex)
    folded = np.zeros(cs.shape[:-1] + (n,), dtype=complex)
    np.add.at(folded, (..., np.asarray(ks) % n), cs)
    return np.fft.ifft(folded, norm="forward", out=folded)


def horner(coeffs, z):
    """``sum_k coeffs[k] z^k`` for scalar or array ``z``, in about
    ``2 sqrt(n)`` array operations for ``n`` coefficients.

    The split of Paterson and Stockmeyer (SIAM J. Comput. 2, 1973): with
    ``B = ceil(sqrt(n))`` and ``A = ceil(n / B)``, the powers ``z^b`` for
    ``b < B`` form the rows of a table ``W`` (``B - 1`` products), one
    matrix product ``S = C W`` with ``C[a, b] = coeffs[a B + b]`` (zero past
    ``n``) gives the ``A`` inner polynomials, and Horner in ``z^B`` sums
    them.  Every coefficient is perturbed by a relative backward error of
    ``O((A + B) u)`` (``u`` the unit roundoff), against ``O(n u)`` for
    plain Horner, so ``|error| = O((A + B) u sum_k |c_k| |z|^k)``.

    A 2-D ``coeffs`` holds one polynomial per row: all rows share the power
    table and the matrix product, and the result gains a leading axis, one
    entry per row.  Otherwise the result is complex and shaped like ``z``:
    a numpy scalar for a Python scalar or a 0-d array, an array of ``z``'s
    shape otherwise, zeros when ``coeffs`` is empty.
    """
    c = np.asarray(coeffs, dtype=complex)
    lead = c.shape[:1] if c.ndim == 2 else ()
    if not lead:
        c = c.reshape(1, -1)
    z = np.asarray(z, dtype=complex)
    n = c.shape[1]
    if n == 0:
        return np.zeros(lead + z.shape, dtype=complex)[()]
    B = math.isqrt(n - 1) + 1
    A = -(-n // B)
    x = z.reshape(-1)
    W = np.empty((B, len(x)), dtype=complex)
    W[0] = 1.0
    for b in range(1, B):
        np.multiply(W[b - 1], x, out=W[b])
    C = np.zeros((len(c), A * B), dtype=complex)
    C[:, :n] = c
    S = (C.reshape(-1, B) @ W).reshape(len(c), A, len(x))
    zB = W[B - 1] * x
    del W  # the sweep below needs only S and z^B: keep the peak low
    out = S[:, A - 1].copy()
    for a in range(A - 2, -1, -1):
        out *= zB
        out += S[:, a]
    return out.reshape(lead + z.shape)[()]


def unwrap_closed(values):
    """Continuous argument of a sampled closed curve and its turn count.

    Returns ``(arg, turns)``: ``np.unwrap`` of the arguments, and the
    total change of argument around the curve, closed by the wrapped jump
    from the last sample back to the first, in units of ``2 pi``.  The
    turn count is not rounded, so callers can check that it is integral.
    """
    arg = np.angle(values)
    a = np.unwrap(arg)
    closing = (arg[0] - arg[-1] + np.pi) % (2.0 * np.pi) - np.pi
    return a, (a[-1] - a[0] + closing) / (2.0 * np.pi)


def unwrap_arg(curve: FourierCurve, grid_size: int):
    """Continuous branch of ``arg z(t)`` on the uniform grid of ``grid_size``.

    The branch is chosen per node by the smallest jump (threshold pi between
    neighbours), so an under-resolved grid fails loudly through the final
    winding check instead of slipping a branch silently.  Fails when the
    curve passes within ``ORIGIN_TOL`` of the origin or when the total
    winding about the origin is not exactly one turn.
    """
    if grid_size < 2:
        raise InputError("grid_size must be >= 2")
    z = eval_grid(curve.ks, curve.cs, grid_size)
    scale = max(abs(c) for c in curve.cs)
    if np.min(np.abs(z)) < ORIGIN_TOL * max(1.0, scale):
        raise WindingError("curve passes through (or too close to) the origin")
    a, winding = unwrap_closed(z)
    if abs(winding - round(winding)) > 1e-9:
        raise WindingError(f"winding about origin did not close: {winding}")
    if round(winding) != 1:
        raise WindingError(
            f"winding about origin is {int(round(winding))}, expected 1 "
            "(counterclockwise Jordan curve enclosing the origin)"
        )
    return a


def corner_gap_F(query: CornerGapQuery) -> float:
    """Corner-gap integral measuring the Fourier partial-sum defect at a corner.

    Computes ``2^(alpha+1) * int_0^eps sin(t/2)^alpha *
    cos(alpha*(t-pi)/2) * sin(n*t)/t dt`` by adaptive quadrature with
    relative tolerance 1e-10.  The integrand is extended by its limit value
    0 at ``t = 0``, so the removable singularity never enters the rule.
    """
    from scipy.integrate import quad

    n, eps, alpha = query.n, query.eps, query.alpha

    def integrand(t):
        if t == 0.0:
            return 0.0
        return (
            math.sin(0.5 * t) ** alpha
            * math.cos(0.5 * alpha * (t - math.pi))
            * math.sin(n * t)
            / t
        )

    val, err = quad(integrand, 0.0, eps, epsabs=0.0, epsrel=1e-12, limit=800)
    scale = 2.0 ** (alpha + 1.0)
    if err > 1e-10 * max(abs(val), 1e-300):
        raise QuadratureError(
            f"corner-gap quadrature did not converge (error estimate {err:.3e})",
            estimate=scale * val,
        )
    return scale * val


def curvature(curve: FourierCurve, t: float) -> float:
    """Signed curvature ``Im[conj(z') z''] / |z'|^3`` at parameter ``t``."""
    d1 = eval_curve(derivative_curve(curve, 1), t)
    d2 = eval_curve(derivative_curve(curve, 2), t)
    d1 = np.asarray(d1, dtype=complex)
    d2 = np.asarray(d2, dtype=complex)
    speed = np.abs(d1)
    if np.any(speed < 1e-12):
        raise InputError("curvature undefined: |z'(t)| vanishes (cusp)")
    kappa = (np.conj(d1) * d2).imag / speed**3
    if kappa.ndim == 0:
        return float(kappa)
    return kappa


# ---------------------------------------------------------------------------
# persistence: coefficient CSV or JSON; the formats live in cforge.io


def save_curve(curve: FourierCurve, path: str) -> None:
    """Write the curve to ``path`` (.csv or .json decides the format)."""
    if str(path).endswith(".json"):
        payload = {"coeffs": io.coeffs_to_json(curve.ks, curve.cs)}
        io.write_json(path, payload, sort_keys=False)
    else:
        io.write_kri(path, curve.ks, curve.cs)


def load_curve(path: str) -> FourierCurve:
    """Read a curve written by :func:`save_curve` (format sniffed from content)."""
    return FourierCurve(*zip(*io.read_curve(path)))
