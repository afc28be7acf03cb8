"""Recursive fraction-polynomial approximants of n-th roots.

The square root satisfies ``sqrt(z) = 1 + (z-1)/(1+sqrt(z))``; iterating the
right-hand side from the first approximant ``1 + (z-1)/(1+z)`` produces a
sequence of rational functions converging to ``sqrt(z)`` on the right
half-plane.  The same idea extends to ``z^(k/N)``: the update divides
``z-1`` by a sum approximating ``1 + z^(1/N) + ... + z^((N-1)/N)``, in which
low powers are built from the previous approximant ``r`` directly and high
powers from ``z / r^(N-j)``, and the k-th power is read off at the end.

All approximants are exact at ``z = 1`` and have their poles on the
negative real axis, so they converge everywhere off that cut; the classical
guarantees (and the contraction-factor formula in :func:`rate_estimate`)
are stated for ``Re z > 0``, which is what the default domain check
enforces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegreeOverflowError, DomainError, InputError
from .fourier_boundary import horner

__all__ = [
    "CFApproximant",
    "RationalMap",
    "sqrt_cf",
    "root_cf",
    "rate_estimate",
    "cf_rational_form",
]

# relative width of the rejection band around the branch cut (-inf, 0]
CUT_TOL = 1e-12
# |r| below this inside the recursion means we are sitting on a pole
DIVISION_GUARD = 1e-13
# densified rational normal forms are cut off at this coefficient count
MAX_COEFFS = 4096


@dataclass(frozen=True)
class CFApproximant:
    """Recursion parameters for the ``z^(k/N)`` approximant.

    ``k`` and ``N`` are stored exactly as given: (2, 4) and (1, 2) drive
    different recursions and must match the straightening power they
    invert, so no gcd reduction is applied.
    """

    k: int
    N: int
    n_iter: int

    def __post_init__(self):
        if self.N < 2:
            raise InputError("N must be >= 2")
        if not 1 <= self.k <= self.N - 1:
            raise InputError("k must satisfy 1 <= k <= N-1")
        if self.n_iter < 1:
            raise InputError("n_iter must be >= 1")


@dataclass(frozen=True)
class RationalMap:
    """Rational normal form ``num(z)/den(z)``, coefficients in ascending order."""

    num: tuple
    den: tuple

    def __post_init__(self):
        num = _trim(np.asarray(self.num, dtype=complex))
        den = _trim(np.asarray(self.den, dtype=complex))
        if len(den) == 0 or not np.any(den):
            raise InputError("denominator is identically zero")
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))

    def __call__(self, z):
        out = horner(self.num, z) / horner(self.den, z)
        return complex(out) if out.ndim == 0 else out


def _check_domain(z, domain):
    """Reject points where the approximants are not trusted.

    ``half-plane`` requires ``Re z > 0`` (the proven region); ``slit``
    only rejects the branch cut ``(-inf, 0]`` itself, where the
    approximants have their poles and the limit function is discontinuous.
    """
    if domain not in ("half-plane", "slit"):
        raise InputError(f"unknown domain {domain!r}")
    if domain == "half-plane":
        bad = np.real(z) <= 0.0
        label = "Re z <= 0"
    else:
        bad = (np.real(z) <= 0.0) & (np.abs(np.imag(z)) <= CUT_TOL * (1.0 + np.abs(z)))
        label = "z on the branch cut (-inf, 0]"
    if np.any(bad):
        flat = np.atleast_1d(bad)
        idx = int(np.argmax(flat))
        zv = np.atleast_1d(np.asarray(z, dtype=complex))[idx]
        raise DomainError(f"{label} at z = {zv} (index {idx})")


def sqrt_cf(z, n: int, domain: str = "half-plane"):
    """n-th recursive approximant of ``sqrt(z)``: the ``(k, N) = (1, 2)``
    case of :func:`root_cf`.

    Starts from ``1 + (z-1)/(1+z)`` and applies
    ``f <- 1 + (z-1)/(1+f)`` a further ``n-1`` times.  Accepts scalars or
    arrays.
    """
    return root_cf(z, CFApproximant(1, 2, n), domain)


def root_cf(z, approx: CFApproximant, domain: str = "half-plane"):
    """n-th fraction-polynomial approximant of ``z^(k/N)``.

    The recursion tracks the ``1/N``-th root ``r``; each step divides
    ``z-1`` by ``1 + sum_j s_j`` with ``s_j = r^j`` for ``j <= N//2`` and
    ``s_j = z / r^(N-j)`` above, then the output is ``r^k`` for
    ``k <= N//2`` and ``z / r^(N-k)`` otherwise.  For ``(k, N) = (1, 2)``
    the step is ``r <- 1 + (z-1)/(1+r)``, the square-root recursion.  Only
    ``N > 2`` divides by ``r``, so only then does ``|r| < DIVISION_GUARD``
    raise :class:`DomainError`.
    """
    k, N, n = approx.k, approx.N, approx.n_iter
    z = np.asarray(z, dtype=complex)
    _check_domain(z, domain)
    h = N // 2
    r = 1.0 + (z - 1.0) / (z + 1.0)
    for _ in range(n - 1):
        if N > 2 and np.any(np.abs(r) < DIVISION_GUARD):
            raise DomainError("recursion hit a pole (|r| underflow)")
        den = 1.0 + r
        rp = r
        for _j in range(2, h + 1):
            rp = rp * r
            den += rp
        inv = 1.0
        for _j in range(h + 1, N):
            inv = inv * r  # builds r^(N-j) incrementally from j = N-1 down
            den += z / inv
        r = 1.0 + (z - 1.0) / den
    if k > h and np.any(np.abs(r) < DIVISION_GUARD):
        raise DomainError("recursion hit a pole (|r| underflow)")
    out = r**k if k <= h else z / r ** (N - k)
    if out.ndim == 0:
        return complex(out)
    return out


def rate_estimate(z, approx: CFApproximant):
    """Per-iteration contraction factor of the root recursion at ``z``.

    Returns ``|(z - N (z^(1/N) - 1) z^(floor(N/2)/N) - 1) / (z - 1)|`` with
    the principal branch of ``z^(1/N)``; for ``N = 2`` this simplifies to
    ``|(1 - sqrt(z)) / (1 + sqrt(z))|``.  The value 0 is returned at
    ``z = 1`` by continuity (the approximants are exact there).
    """
    N = approx.N
    z = np.asarray(z, dtype=complex)
    _check_domain(z, "half-plane")
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.zeros(z.shape, dtype=float)
    regular = np.abs(z - 1.0) > 1e-14
    zr = z[regular]
    x = zr ** (1.0 / N)
    h = N // 2
    out[regular] = np.abs((zr - N * (x - 1.0) * x**h - 1.0) / (zr - 1.0))
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# rational normal forms

def _trim(c: np.ndarray) -> np.ndarray:
    """Drop trailing coefficients below 1e-13 of the largest magnitude."""
    if len(c) == 0:
        return c
    tol = 1e-13 * np.max(np.abs(c))
    nz = np.nonzero(np.abs(c) > tol)[0]
    if len(nz) == 0:
        return c[:1] * 0.0
    return c[: nz[-1] + 1]


def _pmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.convolve(a, b)
    if len(out) > MAX_COEFFS:
        raise DegreeOverflowError(
            f"normal form exceeds {MAX_COEFFS} coefficients; "
            "reduce n_iter or N"
        )
    return out


def _padd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] += b
    return out


def cf_rational_form(approx: CFApproximant) -> RationalMap:
    """Clear denominators through the recursion into a single ``num/den``.

    Guarded by ``n_iter <= 32`` and ``N <= 12`` on top of the coefficient
    cap, since the degree grows like ``(N-1)^n``.  Coefficients are kept in
    double precision and trimmed at 1e-13 relative magnitude.
    """
    if approx.n_iter > 32 or approx.N > 12:
        raise DegreeOverflowError("normal form guard: need n_iter <= 32 and N <= 12")
    k, N, n = approx.k, approx.N, approx.n_iter
    h = N // 2
    zpoly = np.array([0.0, 1.0], dtype=complex)
    zm1 = np.array([-1.0, 1.0], dtype=complex)
    # r = p/q, starting from 1 + (z-1)/(z+1) = 2z/(z+1)
    p = np.array([0.0, 2.0], dtype=complex)
    q = np.array([1.0, 1.0], dtype=complex)
    for _ in range(n - 1):
        # denominator sum over the common denominator q^h * p^(N-1-h)
        ppow = [np.array([1.0], dtype=complex)]
        qpow = [np.array([1.0], dtype=complex)]
        for _i in range(max(h, N - 1 - h)):
            ppow.append(_pmul(ppow[-1], p))
            qpow.append(_pmul(qpow[-1], q))
        acc = np.array([0.0], dtype=complex)
        for j in range(0, h + 1):
            term = _pmul(ppow[j], qpow[h - j])
            term = _pmul(term, ppow[N - 1 - h])
            acc = _padd(acc, term)
        for j in range(h + 1, N):
            term = _pmul(zpoly, qpow[h])
            term = _pmul(term, _pmul(qpow[N - j], ppow[j - 1 - h]))
            acc = _padd(acc, term)
        common = _pmul(qpow[h], ppow[N - 1 - h])
        p_new = _padd(acc, _pmul(zm1, common))
        q_new = acc
        p, q = _trim(p_new), _trim(q_new)
        scale = max(np.max(np.abs(p)), np.max(np.abs(q)))
        if not np.isfinite(scale) or scale == 0.0:
            raise DegreeOverflowError(
                "normal-form coefficients overflowed; reduce n_iter or N"
            )
        # the next update raises the pair to powers up to N-1; keep headroom
        if scale > 1e20:
            p = p / scale
            q = q / scale
    if k <= h:
        num, den = p, q
        for _ in range(k - 1):
            num = _pmul(num, p)
            den = _pmul(den, q)
    else:
        num = _pmul(zpoly, np.array([1.0], dtype=complex))
        den = np.array([1.0], dtype=complex)
        for _ in range(N - k):
            num = _pmul(num, q)
            den = _pmul(den, p)
    return RationalMap(num=tuple(_trim(num)), den=tuple(_trim(den)))

