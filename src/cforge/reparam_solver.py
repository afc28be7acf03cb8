"""Boundary reparametrization solver.

Given a closed Fourier-polynomial boundary enclosing the origin, solve for
the correction ``q(t)`` that turns the curve parameter into the boundary
argument ``theta(t)`` of the conformal map of the unit disk onto the
enclosed domain, then extract the Taylor coefficients of that map by
quadrature of ``z(t(theta)) e^{-ik theta}``.

The correction solves a second-kind integral equation whose kernel is the
parameter derivative of the argument of the chord quotient
``(z(tau)-z(t)) / (e^{i tau}-e^{i t})``, the Neumann kernel
``Im[z'(tau)/(z(tau)-z(t))] - 1/2`` (Henrici, Applied and Computational
Complex Analysis vol. 3, 1986); its real part is
``Re[z'(tau)/(z(tau)-z(t))] - cot((tau-t)/2)/2``.  On the diagonal both
take their limit, ``z''/(2z') - i/2``.  Truncating ``q`` at ``M`` modes
and projecting yields a dense ``2M x 2M`` block system; the right-hand
side combines the conjugate function of ``ln|z|`` (the separated cotangent
part) with the remaining continuous-kernel integral.

The grid is sampled from this closed form at a cost per entry that does
not depend on the curve's support: ``z``, ``z'`` and ``z''`` at the nodes
come from one inverse FFT each, and a block of ``(z(tau)-z(t))/z'(tau)``
from one real matrix product of rank 3.  Within ``NEAR_DIAGONALS`` grid
steps of the diagonal, where that difference cancels, the chords
``z(t + dh) - z(t)`` come from their own spectra by one batched inverse
FFT.  The cotangent part is real, so it reaches only the right-hand side,
where it is a circular correlation whose DFT is known exactly.  The scalar
kernels :func:`kernel_K` and :func:`kernel_L` use the geometric-sum form
of the quotient, regular on the diagonal, in ``O(n + m)`` work.

The trapezoid projection of the sampled kernel onto ``cos(lt), sin(lt)``
is a discrete Fourier transform, so assembly streams over blocks of tau
rows sized in bytes (``ASSEMBLY_BLOCK_BYTES`` per block of complex rows,
so that the working set stays in cache) through reused buffers, each
transformed along t by one real FFT per row.  Real FFTs along tau of the
``2M x P`` row spectra, a few rows at a time, then give the blocks.  No
``P x P`` array and no full tau spectrum is ever allocated, and assembly
costs ``O(P^2 log P)`` whatever the support.

The same transforms bound the quadrature error: the spectra along t and
along tau, and those of the right-hand side, decay geometrically for an
analytic curve, and their envelope carried on to the first mode that
aliases into the kept band is the assembly's ``tail``.  :func:`solve_reparam`
assembles on ``4M``, the smallest grid the projection allows, and keeps
that system when its tail is at round-off; otherwise it assembles on the
given ``P``, which is also the grid of the correspondence ``theta``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import io
from .errors import (
    InputError,
    NonMonotoneThetaError,
    SingularSystemError,
    SolverError,
)
from .fourier_boundary import FourierCurve, eval_curve, horner, unwrap_arg

__all__ = [
    "BlockSystem",
    "ReparamSolution",
    "PolynomialMap",
    "kernel_K",
    "kernel_L",
    "assemble_system",
    "solve_reparam",
    "correspondence_inverse",
    "taylor_from_correspondence",
    "taylor_coeffs",
    "save_polynomial_map",
    "load_polynomial_map",
]

log = logging.getLogger("cforge")

# chord quotient magnitudes below this mean a degenerate / self-crossing curve
QUOTIENT_TOL = 1e-13
# largest peak memory assemble_system and the solve may take
ASSEMBLY_MAX_BYTES = 4 * 2**30
# bytes of one block of complex kernel rows streamed by assembly: the
# block's four real buffers stay in the L2 cache
ASSEMBLY_BLOCK_BYTES = 2**20
# chords within this many grid steps of the diagonal come from their own
# spectrum: the difference of node values cancels there
NEAR_DIAGONALS = 32
# a system assembled on 4M is kept when its kernel tail, the spectra's
# envelope at the first aliased mode relative to their kept band, is at
# most this (see assemble_system)
KERNEL_TAIL_TOL = 1e-13
# largest |theta(t) - theta*| the correspondence inverse may leave
INVERSE_TOL = 1e-10
# samples per grid interval in the inverse's seed table
INVERSE_UPSAMPLE = 16


@dataclass(frozen=True)
class BlockSystem:
    """The truncated ``2M x 2M`` system ``A x = [F; G]``: rows and columns
    ``0..M-1`` belong to the cosine coefficients, ``M..2M-1`` to the sine
    coefficients.  ``tail`` estimates the quadrature error of the grid the
    system was assembled on (see :func:`assemble_system`)."""

    A: np.ndarray
    F: np.ndarray
    G: np.ndarray
    tail: float = float("nan")

    def rhs(self) -> np.ndarray:
        return np.concatenate([self.F, self.G])


@dataclass(frozen=True)
class ReparamSolution:
    """Truncated correction ``q`` and the sampled boundary correspondence.

    ``alpha``/``beta`` hold the cosine/sine coefficients of ``q`` (mean
    zero by construction), ``theta_grid`` the values of
    ``theta(t) = arg z(t) + q(t)`` at ``grid_size`` uniform parameters.
    ``monotone`` records whether ``theta`` is strictly increasing; only
    monotone solutions are accepted downstream.  ``assembly_P`` is the
    quadrature grid the system was assembled on and ``kernel_tail`` its
    :attr:`BlockSystem.tail`.
    """

    M: int
    alpha: np.ndarray
    beta: np.ndarray
    theta_grid: np.ndarray
    grid_size: int
    monotone: bool
    condition: float = float("nan")
    assembly_P: int = 0
    kernel_tail: float = float("nan")

    def q(self, t):
        """Evaluate the correction ``q(t)`` from its coefficients."""
        return _series_at(np.append(0.0, self.alpha - 1j * self.beta), t)

    def theta(self, t):
        """Trigonometric interpolant of ``theta`` at arbitrary parameters."""
        c = _half_spectrum(self.theta_grid - _grid(self.grid_size))
        return np.asarray(t, dtype=float) + _series_at(c, t)


@dataclass(frozen=True)
class PolynomialMap:
    """Taylor polynomial ``Z(zeta) = sum_{k<=D} c_k zeta^k`` of the disk map.

    ``neg_residual`` is the l2 mass found in the negative-frequency
    coefficients of the mapped boundary, computed by the same quadrature
    as the Taylor coefficients.  A small residual certifies that the
    boundary values extend analytically into the disk; it is always
    populated.
    """

    coeffs: np.ndarray
    neg_residual: float
    solver_M: int = 0
    solver_P: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", np.asarray(self.coeffs, dtype=complex).copy()
        )
        if len(self.coeffs) < 2:
            raise InputError("polynomial map needs degree >= 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, zeta):
        """Horner evaluation at ``zeta`` (scalar or array)."""
        out = horner(self.coeffs, zeta)
        return complex(out) if out.ndim == 0 else out

    def derivative_coeffs(self) -> np.ndarray:
        k = np.arange(1, len(self.coeffs))
        return self.coeffs[1:] * k


def _grid(P: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(P) / P


def _half_spectrum(values) -> np.ndarray:
    """Half spectrum ``c`` of the trigonometric interpolant of real samples
    on the uniform grid: ``f(t) = Re sum_p c_p e^{ipt}``, ``p = 0..P//2``.

    ``c_p = (2/P) rfft(values)[p]``, with the mean ``c_0`` and, for even
    ``P``, the Nyquist mode ``c_{P/2}`` halved: each stands for one
    frequency, not a pair.  The cosine and sine coefficients ``a_p, b_p``
    of any other mode are ``c_p = a_p - i b_p``.
    """
    values = np.asarray(values, dtype=float)
    P = len(values)
    c = np.fft.rfft(values) * (2.0 / P)
    c[0] *= 0.5
    if P % 2 == 0:
        c[-1] *= 0.5
    return c


def _series_at(c: np.ndarray, t):
    """``Re sum_p c_p e^{ipt}`` at arbitrary ``t`` (scalar or array), by
    :func:`horner` in ``e^{it}``.  A 2-D ``c`` holds one series per row,
    evaluated from one power table: the result gains a leading axis."""
    t = np.asarray(t, dtype=float)
    out = horner(c, np.exp(1j * t)).real
    return float(out) if out.ndim == 0 else out


def _series_on_grid(c: np.ndarray, n: int) -> np.ndarray:
    """``Re sum_p c_p e^{ipt}`` at the ``n`` uniform nodes by one inverse
    real FFT.  Needs ``n > 2 max p``: a mode at ``n/2`` would count once."""
    return 0.5 * (np.fft.irfft(c, n, norm="forward") + c[0].real)


def _block_rows(P: int) -> int:
    """Rows of ``P`` complex entries that fit in ``ASSEMBLY_BLOCK_BYTES``
    (at least one, at most ``P``)."""
    return min(P, max(1, ASSEMBLY_BLOCK_BYTES // (16 * P)))


def _on_nodes(ks: np.ndarray, spectra: np.ndarray, P: int) -> np.ndarray:
    """``sum_k spectra[..., k] e^{i ks[k] t_j}`` at the ``P`` uniform nodes
    ``t_j``: one inverse FFT of the coefficients folded mod ``P``."""
    folded = np.zeros(spectra.shape[:-1] + (P,), dtype=complex)
    np.add.at(folded, (..., ks % P), spectra)
    return np.fft.ifft(folded, norm="forward", out=folded)


def _quotient_floor(curve: FourierCurve) -> float:
    """``|W|`` below this means a degenerate or self-intersecting curve."""
    return QUOTIENT_TOL * max(1.0, max(abs(c) for c in curve.cs))


def _kernel_blocks(curve: FourierCurve, P: int):
    """Regular part ``G`` of the kernel on the P x P uniform grid,
    :func:`_block_rows` rows at a time.

    Row index runs over tau, column index over t.  Off the diagonal
    ``G = z'(tau) / (z(tau) - z(t))``; on it ``G = z''/(2 z')``.  The
    log-derivative of the chord quotient
    ``W = (z(tau) - z(t)) e^{it}/(e^{i tau} - e^{it})`` is then
    ``W_tau / W = G - cot((tau - t)/2)/2 - i/2``, without the cot term on
    the diagonal, where ``W(t, t) = -i z'(t)`` and the limit is
    ``z''/(2 z') - i/2``.

    ``z``, ``z'`` and ``z''`` at the nodes are one inverse FFT each of the
    coefficients folded mod P.  A block of ``E = 1/G = (z(tau) - z(t)) /
    z'(tau)`` is one real matrix product of rank 3, ``z(tau)/z'(tau) -
    z(t)/z'(tau)``, as accurate as the node difference; then
    ``G = conj(E)/|E|^2``, no complex division.  Within ``NEAR_DIAGONALS``
    grid steps of the diagonal the difference cancels, so there it comes
    from its own spectrum, ``z(s + dh) - z(s) = sum_k c_k (e^{ikdh} - 1)
    e^{iks}`` with ``e^{2ix} - 1 = i sin 2x - 2 sin^2 x``: one batched
    inverse FFT for the offsets ``d > 0`` (those below the diagonal are
    the same values negated).

    ``|W(t, t)| = |z'(t)|`` and ``|W| = |D| / |2 sin((tau - t)/2)| >=
    |D|/2`` off the diagonal (``D = z(tau) - z(t)``): a block whose
    ``|z'|`` or exact ``|W|`` drops below :func:`_quotient_floor` raises
    :class:`SolverError`, and the exact test runs only when a bound on
    ``min |D|`` is below ``2 floor``.

    The nodes and the chord table are built by the call; the returned
    iterator yields ``(r0, re, im)``, ``Re G`` and ``Im G`` for
    the rows ``r0 .. r0 + len(re) - 1``, as views of buffers that the
    next block overwrites.
    """
    floor = _quotient_floor(curve)
    ks = np.asarray(curve.ks)
    cs = np.asarray(curve.cs)
    z, dz, d2z = _on_nodes(ks, np.stack([cs, 1j * ks * cs, -(ks * ks) * cs]), P)
    speed = np.abs(dz)
    w = np.divide(1.0, dz, where=speed > 0, out=np.zeros(P, dtype=complex))
    a = z * w
    diag = 0.5 * d2z * w
    # E(tau, t) = a(tau) - w(tau) z(t): real rows [Re E; -Im E] from [1, Re z, Im z]
    coef = np.stack(
        [
            np.column_stack([a.real, -w.real, w.imag]),
            np.column_stack([-a.imag, w.imag, w.real]),
        ]
    )
    basis = np.stack([np.ones(P), z.real, z.imag])
    d = np.arange(1, min(NEAR_DIAGONALS, (P - 1) // 2) + 1)
    x = np.multiply.outer(d, ks * (np.pi / P))  # k d h / 2
    chord = _on_nodes(ks, cs * (1j * np.sin(2.0 * x) - 2.0 * np.sin(x) ** 2), P)
    rows = _block_rows(P)
    buf = np.empty((4, rows, P))

    def blocks():
        for r0 in range(0, P, rows):
            r1 = min(P, r0 + rows)
            # Re E and -Im E, then Re G and Im G in place
            re, im, a2, sq = buf[:, : r1 - r0]
            if np.min(speed[r0:r1]) < floor:
                raise SolverError(
                    "chord quotient vanished on the grid: curve is degenerate "
                    "or self-intersecting"
                )
            np.matmul(coef[:, r0:r1], basis, out=buf[:2, : r1 - r0])
            # the band: tau = t + dh at column i - d, tau = t - dh at i + d
            i = np.arange(r0, r1)[:, None]
            start = (i - r0) * P
            above, below = (i - d) % P, (i + d) % P
            band = chord[d - 1, above] * w[r0:r1, None]
            re.flat[start + above] = band.real
            im.flat[start + above] = -band.imag
            band = chord[d - 1, i] * w[r0:r1, None]
            re.flat[start + below] = -band.real
            im.flat[start + below] = band.imag
            # a placeholder E = 1 on the diagonal, whose G is set below
            re.flat[start + i] = 1.0
            im.flat[start + i] = 0.0
            np.multiply(re, re, out=a2)
            a2 += np.multiply(im, im, out=sq)
            if np.min(a2) * np.min(speed[r0:r1]) ** 2 < 4.0 * floor * floor:
                sine = 2.0 * np.sin(np.pi * ((i - np.arange(P)) % P) / P)
                if np.any(a2 * speed[r0:r1, None] ** 2 < (floor * sine) ** 2):
                    raise SolverError(
                        "chord quotient vanished on the grid: curve is "
                        "degenerate or self-intersecting"
                    )
            np.divide(1.0, a2, out=a2)
            re *= a2
            im *= a2
            re.flat[start + i] = diag[r0:r1, None].real
            im.flat[start + i] = diag[r0:r1, None].imag
            yield r0, re, im

    return blocks()


def _kernel_value(curve: FourierCurve, tau: float, t: float):
    """Scalar ``W_tau / W`` from the geometric-sum form of the chord
    quotient, regular on the diagonal:

        W = sum_{k>=1} (c_k e^{ikt} - c_{-k} e^{-ik tau}) S_k(tau - t),

    ``S_k(x) = sum_{l<k} e^{ilx}``, so every ``S_k`` and its derivative
    come from one cumulative sum over ``l``: ``O(n + m)`` work."""
    coeffs = curve.coeffs
    L = max(curve.n, curve.m)
    k = np.arange(1, L + 1)
    e = np.exp(1j * (tau - t) * np.arange(L))
    S, dS = np.cumsum(e), np.cumsum(1j * np.arange(L) * e)
    pos = np.array([coeffs.get(j, 0) for j in k], complex) * np.exp(1j * k * t)
    neg = np.array([coeffs.get(-j, 0) for j in k], complex) * np.exp(-1j * k * tau)
    W = (pos - neg) @ S
    W_tau = (pos - neg) @ dS + neg @ (1j * k * S)
    if abs(W) < _quotient_floor(curve):
        raise SolverError(
            "chord quotient vanished: curve is degenerate or self-intersecting"
        )
    return W_tau / W


def kernel_K(curve: FourierCurve, tau: float, t: float) -> float:
    """Imaginary part of the log-derivative of the chord quotient.

    Equals ``Im[z'(tau)/(z(tau)-z(t))] - 1/2`` off the diagonal and stays
    finite at ``tau = t`` thanks to the geometric-sum form.
    """
    return float(_kernel_value(curve, tau, t).imag)


def kernel_L(curve: FourierCurve, tau: float, t: float) -> float:
    """Real part of the log-derivative of the chord quotient."""
    return float(_kernel_value(curve, tau, t).real)


def _assembly_peak_bytes(P: int, M: int) -> int:
    """Upper bound on the peak memory of assembling and solving the system,
    whatever the curve's support.

    The node values and the rows built from them take 16 bytes per
    ``12 P``, and the chord table of the near-diagonal band per
    ``NEAR_DIAGONALS P``.  The stream adds the real ``2M x P`` row spectra
    (16 bytes per ``P M``) and, per row of a block of :func:`_block_rows`
    rows, its four real buffers and its row spectrum (under ``3 P``
    complex entries) and the band's values and indices (under
    ``4 NEAR_DIAGONALS``).  The tau transform then runs in chunks of about
    one block.  The ``2M x 2M`` matrix plus the LU copy of
    :func:`solve_reparam` take 64 bytes per ``M^2``.
    """
    per_row = 3 * P + 4 * NEAR_DIAGONALS
    return 16 * (P * (M + NEAR_DIAGONALS + 12) + _block_rows(P) * per_row) + 64 * M * M


def _peak(values: np.ndarray) -> float:
    """Largest real or imaginary part in absolute value (0 when empty):
    within a factor ``sqrt 2`` of the largest modulus."""
    parts = values.view(float) if np.iscomplexobj(values) else values
    return max(np.max(parts, initial=0.0), -np.min(parts, initial=0.0))


def _discarded(spectrum: np.ndarray, M: int) -> np.ndarray:
    """:func:`_peak` of ``spectrum[..., k]`` over the two halves ``(M, h]``
    and ``(h, 2M]`` of the first discarded band, ``h = M + M//2``."""
    h = M + M // 2
    halves = (spectrum[..., M + 1 : h + 1], spectrum[..., h + 1 : 2 * M + 1])
    return np.array([_peak(half) for half in halves])


def _tail(kept: float, discarded: np.ndarray, M: int, P: int) -> float:
    """The envelope of a spectrum extrapolated to the first mode that
    aliases into the kept band ``1..M``, ``P - M``, over the larger of the
    kept band's peak and 1.  Spectra come scaled to Fourier coefficients,
    so 1 stands for the identity in ``A`` and for a radian in ``q``: a
    spectrum that vanishes, like the kernel of a circle, has no tail.

    The decay from the first discarded half band to the second is carried
    on geometrically (the trapezoid rule converges geometrically for
    periodic analytic integrands: Trefethen & Weideman, SIAM Rev. 56,
    2014); an envelope that does not fall is carried on flat, which is
    also what a round-off plateau looks like."""
    first, second = discarded
    h = M + M // 2
    rate = 1.0 if second >= first else second / first
    return float(second * rate ** ((P - M - h) / max(1, h - M)) / max(kept, 1.0))


def _row_spectra(curve: FourierCurve, M: int, P: int, u: np.ndarray):
    """Stream the kernel grid: ``(rows, ul, tail)`` with
    ``rows[p-1, tau]`` and ``rows[M+p-1, tau]`` the sums over t of
    ``K(tau, t) cos(pt)`` and ``K(tau, t) sin(pt)``, ``p = 1..M``,
    ``ul[t]`` the sum over tau of ``u(tau) L(tau, t)`` and ``tail`` the
    :func:`_tail` of the rows' spectra along t.

    With ``G`` from :func:`_kernel_blocks`, ``K = Im G - 1/2``, whose
    constant drops out of modes ``1..M``, and
    ``L = Re G - cot((tau - t)/2)/2`` (no cot term on the diagonal).  The
    cot part of ``ul`` is the circular correlation of ``u`` with the odd
    table ``cot(pi d/P)/2``, ``d = 1..P-1``, whose DFT is
    ``-i (P - 2p)/2`` exactly: one real FFT and one inverse.  The block
    buffers are freed on return."""
    blocks = _kernel_blocks(curve, P)
    rows = np.empty((2 * M, P))
    ul = np.zeros(P)
    spec = np.empty((_block_rows(P), P // 2 + 1), dtype=complex)
    discarded = np.zeros(2)
    for r0, re, im in blocks:
        r1 = r0 + len(re)
        ul += u[r0:r1] @ re
        full = np.fft.rfft(im, axis=1, out=spec[: len(im)])
        np.maximum(discarded, _discarded(full, M), out=discarded)
        kept = full[:, 1 : M + 1]
        rows[:M, r0:r1] = kept.real.T
        np.negative(kept.imag.T, out=rows[M:, r0:r1])
    cot = 0.5j * (P - 2.0 * np.arange(P // 2 + 1))
    cot[0] = 0.0
    ul -= np.fft.irfft(np.fft.rfft(u) * cot, P)
    # scaled to the Fourier coefficients of K(tau, .)
    return rows, ul, _tail(_peak(rows) * 2.0 / P, discarded * 2.0 / P, M, P)


def _check_grid(M: int, P: int) -> None:
    """Reject ``M < 1``, ``P < 4M`` and sizes whose peak would exceed
    ``ASSEMBLY_MAX_BYTES`` with :class:`InputError`."""
    if M < 1:
        raise InputError("M must be >= 1")
    if P < 4 * M:
        raise InputError(f"grid size P={P} must be at least 4M={4 * M}")
    need = _assembly_peak_bytes(P, M)
    if need > ASSEMBLY_MAX_BYTES:
        raise InputError(
            f"assembly at M={M}, P={P} needs about {need / 2**30:.1f} GiB, "
            f"above the {ASSEMBLY_MAX_BYTES / 2**30:.0f} GiB cap"
        )


def assemble_system(curve: FourierCurve, M: int, P: int) -> BlockSystem:
    """Project the integral equation onto ``cos(lt), sin(lt)``, ``l <= M``.

    The kernel is sampled on the ``P x P`` uniform grid and both integrals
    of every entry are evaluated with the periodic trapezoid rule (which is
    the spectrally accurate choice for periodic integrands).  Each trapezoid
    sum is a discrete Fourier transform, so the grid is streamed in blocks
    of :func:`_block_rows` tau rows: every row of the kernel ``K`` is
    transformed along t by a real FFT, keeping modes ``1..M``, and the
    ``L``-kernel part of the right-hand side is accumulated; real FFTs
    along tau of those ``2M x P`` row spectra, a few rows at a time and
    keeping modes ``1..M``, then give all four blocks.  Requires
    ``P >= 4M``; the curve must wind once around the origin.  Sizes whose
    peak would exceed ``ASSEMBLY_MAX_BYTES`` are rejected before anything
    is allocated.

    The same transforms measure the quadrature error: ``tail`` is the
    largest :func:`_tail` of the rows' spectra along t, the blocks'
    spectra along tau and the half spectra of ``ln|z|`` and of the
    ``L``-kernel integral, so a grid whose first aliased mode is at
    round-off has a tail near machine precision.
    """
    _check_grid(M, P)
    u = np.log(np.abs(eval_curve(curve, _grid(P))))
    rows, ul, tail = _row_spectra(curve, M, P, u)

    # X[j, l] = sum_tau e^{-il tau} rows[j, tau]: the cos(l tau) projection
    # is Re X and the sin(l tau) projection -Im X
    w = 4.0 / P**2  # (1/pi^2) * (2 pi / P)^2
    A = np.empty((2 * M, 2 * M))
    discarded = np.zeros(2)
    step = min(_block_rows(P // 2 + 1), 2 * M)
    spec = np.empty((step, P // 2 + 1), dtype=complex)
    for j0 in range(0, 2 * M, step):
        chunk = rows[j0 : j0 + step]
        full = np.fft.rfft(chunk, axis=1, out=spec[: len(chunk)])
        np.maximum(discarded, _discarded(full, M), out=discarded)
        X = full[:, 1 : M + 1]
        np.multiply(X.real, -w, out=A[j0 : j0 + step, :M])
        np.multiply(X.imag, w, out=A[j0 : j0 + step, M:])
    tail = max(tail, _tail(_peak(A), w * discarded, M, P))
    A[np.diag_indices(2 * M)] += 1.0

    # right-hand side: the continuous-kernel part minus the conjugate of
    # ln|z| (that of a cos pt + b sin pt is a sin pt - b cos pt), from half
    # spectra a - ib (modes 1..M, below the Nyquist mode)
    su = _half_spectrum(u)
    rl = (2.0 / P) * ul  # (1/pi) int ln|z(tau)| L(tau, t) dtau at t_j
    sr = _half_spectrum(rl)
    for half in (su, sr):
        tail = max(tail, _tail(_peak(half[1 : M + 1]), _discarded(half, M), M, P))
    su, sr = su[1 : M + 1], sr[1 : M + 1]
    F = sr.real - su.imag
    G = -(su.real + sr.imag)
    for block in (A, F, G):
        if not np.all(np.isfinite(block)):
            raise SolverError("non-finite entries in the projected system")
    return BlockSystem(A=A, F=F, G=G, tail=tail)


def solve_reparam(curve: FourierCurve, M: int, P: int) -> ReparamSolution:
    """Solve the block system and build ``theta(t) = arg z(t) + q(t)``.

    ``P`` is the correspondence grid, on which ``theta`` is sampled, and
    the largest quadrature grid.  The system is first assembled on the
    kernel's own resolution ``4M``, the smallest grid the projection
    allows, and kept when its ``tail`` is at most ``KERNEL_TAIL_TOL``;
    otherwise it is assembled on ``P``.  A tail above the tolerance even
    there is logged on the ``cforge`` logger.  Sizes are checked at ``P``
    before anything is assembled.

    The mean of ``q`` is zero by construction (the constant mode is excluded
    from the system), which also removes the rotational eigenfunction and
    makes the truncated system uniquely solvable.  Non-monotone ``theta`` is
    flagged, never repaired: it signals an under-resolved M.
    """
    from scipy.linalg import lu_factor, lu_solve
    from scipy.linalg.lapack import dgecon

    _check_grid(M, P)
    grid = 4 * M if P > 4 * M else P
    system = assemble_system(curve, M, grid)
    if grid < P and not system.tail <= KERNEL_TAIL_TOL:
        grid = P
        system = assemble_system(curve, M, grid)
    if not system.tail <= KERNEL_TAIL_TOL:
        log.warning(
            "kernel tail %.3e at P=%d exceeds %.0e: the quadrature grid "
            "under-resolves the kernel", system.tail, P, KERNEL_TAIL_TOL
        )
    A = system.A
    lu, piv = lu_factor(A)
    rcond, _ = dgecon(lu, np.linalg.norm(A, 1), norm="1")
    cond = float(1.0 / rcond) if rcond > 0 else float("inf")
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularSystemError(
            f"block system numerically singular (condition {cond:.3e})",
            condition=cond,
        )
    x = lu_solve((lu, piv), system.rhs())
    alpha, beta = x[:M], x[M:]
    q = np.append(0.0, alpha - 1j * beta)  # q(t) = Re sum_p q_p e^{ipt}
    theta = unwrap_arg(curve, P) + _series_on_grid(q, P)
    closing = theta[0] + 2.0 * np.pi - theta[-1]
    monotone = bool(np.all(np.diff(theta) > 0.0) and closing > 0.0)
    return ReparamSolution(
        M=M,
        alpha=alpha,
        beta=beta,
        theta_grid=theta,
        grid_size=P,
        monotone=monotone,
        condition=cond,
        assembly_P=grid,
        kernel_tail=system.tail,
    )


def correspondence_inverse(theta_grid: np.ndarray):
    """Monotone inverse ``t(theta)`` of a strictly increasing correspondence.

    ``theta_grid`` holds ``theta`` at ``len(theta_grid)`` uniform parameters.
    A seed table samples the trigonometric interpolant of ``theta(t) - t``
    ``INVERSE_UPSAMPLE`` times finer (one zero-padded inverse real FFT),
    closed by ``theta_0 + 2 pi`` and made monotone.  Each query is seeded by
    linear interpolation in that table and polished by 2 Newton steps on
    the exact interpolant (value and slope from one shared power table),
    each clipped to the seed's table interval widened by one table step.  A final residual ``max|theta(t) - theta*|``
    above ``INVERSE_TOL`` raises :class:`SolverError`.  The inverse
    satisfies ``t(theta + 2 pi) = t(theta) + 2 pi``.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    P = len(theta_grid)
    theta0 = theta_grid[0]
    c = _half_spectrum(theta_grid - _grid(P))
    # theta - t and its slope, one row each
    c_dc = np.stack([c, 1j * np.arange(len(c)) * c])

    fine = INVERSE_UPSAMPLE * P
    t_tab = _grid(fine)
    th_tab = t_tab + _series_on_grid(c, fine)
    t_tab = np.append(t_tab, 2.0 * np.pi)
    th_tab = np.maximum.accumulate(np.append(th_tab, theta0 + 2.0 * np.pi))
    h = 2.0 * np.pi / fine

    def inverse(theta):
        theta = np.asarray(theta, dtype=float)
        scalar = theta.ndim == 0
        th = np.atleast_1d(theta).astype(float)
        turns = np.floor((th - theta0) / (2.0 * np.pi))
        th_red = th - 2.0 * np.pi * turns
        t = np.interp(th_red, th_tab, t_tab)
        j = np.clip(np.floor(t / h), 0, fine - 1)
        lo, hi = (j - 1.0) * h, (j + 2.0) * h
        for _ in range(2):
            value, slope = _series_at(c_dc, t)
            t = np.clip(t - (t + value - th_red) / (1.0 + slope), lo, hi)
        resid = float(np.max(np.abs(t + _series_at(c, t) - th_red), initial=0.0))
        if not resid <= INVERSE_TOL:
            raise SolverError(
                f"correspondence inverse residual {resid:.3e} "
                f"exceeds {INVERSE_TOL:.1e}"
            )
        t = t + 2.0 * np.pi * turns
        return float(t[0]) if scalar else t

    return inverse


def taylor_from_correspondence(
    curve: FourierCurve, theta_grid: np.ndarray, D: int
) -> PolynomialMap:
    """Taylor coefficients of the disk map with boundary correspondence
    ``theta_grid`` (values at uniform curve parameters).

    Evaluates ``c_k = (1/2 pi) int z(t(theta)) e^{-ik theta} dtheta`` on a
    uniform theta grid of at least ``4 D`` nodes; the same samples give the
    negative-frequency coefficients whose l2 norm becomes ``neg_residual``.
    The output is gauge-fixed by the rotation making ``c_1`` real positive.
    """
    if D < 1:
        raise InputError("D must be >= 1")
    inverse = correspondence_inverse(theta_grid)
    Q = max(4 * D, 256)
    theta0 = float(theta_grid[0])
    thetas = theta0 + 2.0 * np.pi * np.arange(Q) / Q
    samples = eval_curve(curve, inverse(thetas))
    spectrum = np.fft.fft(samples) / Q
    k_pos = np.arange(D + 1)
    coeffs = spectrum[k_pos] * np.exp(-1j * k_pos * theta0)
    k_neg = np.arange(1, D + 1)
    neg = spectrum[(-k_neg) % Q] * np.exp(1j * k_neg * theta0)
    phase = np.angle(coeffs[1]) if abs(coeffs[1]) > 0 else 0.0
    coeffs = coeffs * np.exp(-1j * k_pos * phase)
    return PolynomialMap(coeffs=coeffs, neg_residual=float(np.linalg.norm(neg)))


def taylor_coeffs(curve: FourierCurve, sol: ReparamSolution, D: int) -> PolynomialMap:
    """Taylor coefficients of an accepted solve (see
    :func:`taylor_from_correspondence`), stamped with the solver resolution."""
    if not sol.monotone:
        raise NonMonotoneThetaError(
            "cannot extract coefficients from a rejected (non-monotone) "
            "correspondence; increase M/P"
        )
    pmap = taylor_from_correspondence(curve, sol.theta_grid, D)
    return PolynomialMap(
        coeffs=pmap.coeffs,
        neg_residual=pmap.neg_residual,
        solver_M=sol.M,
        solver_P=sol.grid_size,
    )


# ---------------------------------------------------------------------------
# persistence (formats in cforge.io): coefficients (k >= 0) plus a sidecar


def save_polynomial_map(pmap: PolynomialMap, path: str) -> None:
    """Write coefficients to ``path`` and diagnostics to ``path + '.meta.json'``."""
    io.write_kri(path, range(len(pmap.coeffs)), pmap.coeffs)
    sidecar = {
        "neg_residual": pmap.neg_residual,
        "M": pmap.solver_M,
        "P": pmap.solver_P,
        "gauge": "argc1=0",
    }
    io.write_json(str(path) + ".meta.json", sidecar)


def load_polynomial_map(path: str) -> PolynomialMap:
    """Read :func:`save_polynomial_map` output; the sidecar is optional."""
    import os

    rows = dict(io.read_kri(path))
    if min(rows) < 0:
        raise InputError(f"polynomial map {path} must have k >= 0")
    coeffs = np.zeros(max(rows) + 1, dtype=complex)
    coeffs[list(rows)] = list(rows.values())
    meta_path = str(path) + ".meta.json"
    meta = io.read_json(meta_path, "sidecar") if os.path.exists(meta_path) else {}
    try:
        return PolynomialMap(
            coeffs=coeffs,
            neg_residual=float(meta.get("neg_residual", float("nan"))),
            solver_M=int(meta.get("M", 0)),
            solver_P=int(meta.get("P", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed sidecar {meta_path}: {exc}") from exc
