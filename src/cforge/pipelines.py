"""End-to-end disk-to-domain map construction.

Three pipelines share one backbone.  Each normalizes its domain in its own
way, then :func:`_solve_core` translates the normalized boundary so the
chosen anchor sits at the origin, solves the reparametrization problem and
extracts the polynomial Taylor core, and :func:`_composed` stamps the
result with its provenance:

* :func:`smooth_map` handles smooth boundaries directly;
* :func:`corner_map` and :func:`slender_map` turn the domain seen from a
  pivot onto its centroid direction, check it lies in ``|arg| <= opening``
  and straighten it with ``z^(N/k)`` (:func:`_straighten`), then solve and
  fold back with the ``z^(k/N)`` approximant (:func:`_fold`): the corner
  about its corner of angle ``k pi/N`` with opening ``k pi/(2N)``, the
  slender map as the ``(1, 2)`` case about an outside ``a``, opening ``pi/2``.

The result is a :class:`ComposedMap`: a polynomial core evaluated on the
unit disk followed by an ordered list of plane transforms.  Every stage of
the construction is recorded in the provenance dict so a run can be
reproduced bit for bit.  This module builds maps: it imports the checks
it gates on from :mod:`cforge.geometry_checks` (core winding, anchor
scoring) and re-exports :func:`measure_corner_angle`.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from numbers import Number, Real

import numpy as np

from . import io
from .errors import (
    DomainError,
    InputError,
    PipelineError,
    RefitQualityError,
    SectorViolationError,
    SelfIntersectionError,
)
from .fourier_boundary import (
    FourierCurve,
    curvature,
    derivative_curve,
    eval_curve,
    eval_grid,
    fit_from_samples,
    horner,
    unwrap_closed,
)
from .geometry_checks import boundary_distances, core_winding, measure_corner_angle
from .reparam_solver import PolynomialMap, solve_reparam, taylor_coeffs
from .root_cf import CFApproximant, root_cf

__all__ = [
    "PlaneTransform",
    "ComposedMap",
    "PipelineConfig",
    "smooth_map",
    "corner_map",
    "slender_map",
    "evaluate_composed",
    "measure_corner_angle",
    "area_centroid",
    "winding_number",
]

SECTOR_MARGIN = 1e-9     # angular slack for sector / half-plane membership
CORNER_EXCLUSION = 1e-8  # |w| below this (times scale) has no reliable argument
ANCHOR_FRACTIONS = (0.0, 0.125, 0.25, 0.375, 0.5)
ANCHOR_SEARCH_GRID = 1024
# a later anchor candidate (or curvature node of the default expansion point)
# wins only by more than this relative margin: closer values are a rounding-
# level tie, kept by the earlier one, so the choice does not depend on the
# last bits of the BLAS build
ANCHOR_TIE_RTOL = 1e-9
# Newton on the base core for an anchor's preimage: step budget and the
# residual |core(beta) - target| accepted, relative to max |core coefficient|
REANCHOR_STEPS = 80
REANCHOR_TOL = 1e-10
# a refit coefficient at most this times max |sample| is round-off: each
# side of the support ends at the last coefficient above it (the plateau
# cut of Aurentz & Trefethen, "Chopping a Chebyshev series", 2017)
REFIT_FLOOR = 64 * np.finfo(float).eps
# parameter names of each stage kind, in ``PlaneTransform.params`` order
STAGE_FIELDS = {
    "affine": ("a", "b"),
    "power": ("N", "k"),
    "cf_root": ("k", "N", "n_iter"),
}


@dataclass(frozen=True)
class PlaneTransform:
    """One stage of a composed map.

    kinds and parameter layouts:
      ``affine``:  (a, b) for ``z -> a z + b``
      ``power``:   (N, k) two ints for the principal ``z -> z^(N/k)``
      ``cf_root``: (k, N, n_iter) for the recursive ``z^(k/N)`` approximant

    :meth:`describe` gives the JSON form recorded in manifests and
    :meth:`from_dict` reads it back.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in STAGE_FIELDS:
            raise InputError(f"unknown transform kind {self.kind!r}")
        if len(self.params) != len(STAGE_FIELDS[self.kind]):
            raise InputError(f"{self.kind} stage takes {STAGE_FIELDS[self.kind]}")
        if self.kind == "affine":
            params = tuple(complex(v) for v in self.params)
            if params[0] == 0:
                raise InputError("degenerate affine stage (a = 0)")
        else:
            params = tuple(_integer(v, f"{self.kind} parameter") for v in self.params)
            if self.kind == "power" and params[1] == 0:
                raise InputError("degenerate power stage (k = 0)")
            if self.kind == "cf_root":
                CFApproximant(*params)
        object.__setattr__(self, "params", params)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if self.kind == "affine":
            a, b = self.params
            out = a * z + b
        elif self.kind == "power":
            N, k = self.params
            out = np.zeros_like(z)
            nz = z != 0
            out[nz] = np.exp((N / k) * np.log(z[nz]))
        else:
            k, N, n_iter = self.params
            out = root_cf(z, CFApproximant(k, N, n_iter), domain="slit")
            out = np.asarray(out, dtype=complex)
        return complex(out) if out.ndim == 0 else out

    def describe(self) -> dict:
        """``{"kind": .., <parameter name>: value}``, complex as ``[re, im]``."""
        out = {"kind": self.kind}
        for name, v in zip(STAGE_FIELDS[self.kind], self.params):
            out[name] = [v.real, v.imag] if isinstance(v, complex) else v
        return out

    @staticmethod
    def from_dict(desc: dict) -> "PlaneTransform":
        """Inverse of :meth:`describe`; a missing parameter raises KeyError."""
        kind = desc["kind"]
        params = tuple(desc[name] for name in STAGE_FIELDS.get(kind, ()))
        if kind == "affine":
            params = tuple(complex(*v) for v in params)
        return PlaneTransform(kind, params)


@dataclass(frozen=True)
class ComposedMap:
    """Polynomial core plus post-stages, evaluated disk -> core -> stages."""

    stages: tuple
    core: PolynomialMap
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))

    def __call__(self, zeta):
        return evaluate_composed(self, zeta)

    def on_circle(self, n: int) -> np.ndarray:
        """The map at the ``n``-th roots of unity, the core by :func:`eval_grid`."""
        coeffs = self.core.coeffs
        return self.through_stages(eval_grid(np.arange(len(coeffs)), coeffs, n))

    def through_stages(self, values):
        """Core ``values`` through the stages in order; a root-approximant stage
        given points outside its region raises :class:`DomainError` naming it."""
        for i, stage in enumerate(self.stages):
            try:
                values = stage(values)
            except DomainError as exc:
                raise DomainError(f"stage {i} ({stage.kind}): {exc}") from exc
        return values


def evaluate_composed(cmap: ComposedMap, zeta):
    """Evaluate the composed map at ``zeta`` with ``|zeta| <= 1``: the core
    polynomial by Horner, then :meth:`ComposedMap.through_stages`."""
    zeta = np.asarray(zeta, dtype=complex)
    if np.any(np.abs(zeta) > 1.0 + 1e-12):
        raise InputError("evaluation point outside the closed unit disk")
    return cmap.through_stages(cmap.core(zeta))


def _point(value, what: str) -> complex:
    """``value`` as a complex point; booleans, non-numbers and non-finite
    numbers are bad input."""
    if isinstance(value, bool) or not isinstance(value, Number):
        raise InputError(f"{what} must be a point, got {value!r}")
    if not np.isfinite(complex(value)):
        raise InputError(f"{what} must be finite, got {value!r}")
    return complex(value)


def _integer(value, what: str) -> int:
    """``value`` as an int; booleans, non-numbers and fractions are bad input."""
    real = isinstance(value, Real) and not isinstance(value, bool)
    if not (real and abs(value) < np.inf and int(value) == value):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _re_im(value, ndim: int, message: str) -> np.ndarray:
    """JSON ``[re, im]`` (``ndim`` 1) or a list of them (``ndim`` 2) as
    complex; a boolean anywhere is bad input."""
    try:
        pairs = np.asarray(value)
    except ValueError:  # ragged
        raise InputError(message) from None
    if pairs.dtype.kind not in "iuf" or pairs.ndim != ndim or pairs.shape[-1] != 2:
        raise InputError(message)
    # numpy reads true/false as 1/0 next to numbers
    parts = value if ndim == 1 else itertools.chain.from_iterable(value)
    if bool in map(type, parts):
        raise InputError(message)
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def _known_keys(block: dict, allowed, what: str) -> None:
    """Raise :class:`InputError` naming a key of ``block`` not in ``allowed``."""
    unknown = sorted(set(block) - set(allowed), key=str)
    if unknown:
        raise InputError(f"unknown {what} key {unknown[0]!r}")


# the numeric fields; a JSON config holds these and the four blocks, nothing else
CONFIG_FIELDS = ("M", "P", "D", "n_iter", "refit_degree", "refit_tol", "sample_grid")
CONFIG_KEYS = CONFIG_FIELDS + ("boundary", "corner", "slender", "anchor")


@dataclass(frozen=True)
class PipelineConfig:
    """Inputs of one pipeline run.

    Exactly one of ``corner`` (``{"t0", "k", "N"}``) / ``slender``
    (``{"a": point or None}``) may be set (both empty means the smooth
    pipeline); malformed blocks and unknown keys raise :class:`InputError`.
    ``boundary`` is a FourierCurve; ``samples`` may be given instead
    (uniform parameters, used directly by the corner pipeline and fitted at
    ``refit_degree``, within ``refit_tol`` > 0, elsewhere).  Resolution
    defaults follow the command-line tool: M=64, P=8M, D=4M, n_iter=8.
    ``P`` is the correspondence grid and the upper bound of the quadrature
    grid, which :func:`~cforge.reparam_solver.solve_reparam` drops to the
    kernel's own resolution (``4L`` for ``L < M`` modes, or ``4M``) when
    the kernel is resolved there.  Integer fields, corner ``k`` and
    ``N`` too, must hold integral numbers and are stored as ints; points
    and ``t0`` must be finite.  A folded map's approximant,
    ``CFApproximant(k, N, n_iter)`` (slender: ``(1, 2)``), is checked here.
    """

    boundary: FourierCurve | None = None
    samples: np.ndarray | None = None
    corner: dict | None = None
    slender: dict | None = None
    M: int = 64
    P: int | None = None
    D: int | None = None
    n_iter: int = 8
    refit_degree: int = 24
    refit_tol: float = 1e-3
    anchor: complex | None = None
    sample_grid: int = 4096

    def __post_init__(self):
        if self.boundary is None and self.samples is None:
            raise InputError("config needs a boundary curve or samples")
        if self.corner is not None and self.slender is not None:
            raise InputError("corner and slender are mutually exclusive")
        M = _integer(self.M, "M")
        defaults = {"P": 8 * M, "D": 4 * M}
        for key in CONFIG_FIELDS:
            value = getattr(self, key)
            if key != "refit_tol":
                value = _integer(defaults.get(key) if value is None else value, key)
                object.__setattr__(self, key, value)
        if self.sample_grid <= 0:
            raise InputError(f"sample_grid must be positive, got {self.sample_grid}")
        tol = self.refit_tol
        if not (isinstance(tol, Real) and not isinstance(tol, bool) and 0 < tol < np.inf):
            raise InputError(f"refit_tol must be finite and positive, got {tol!r}")
        object.__setattr__(self, "refit_tol", float(tol))
        if self.anchor is not None:
            object.__setattr__(self, "anchor", _point(self.anchor, "anchor"))
        if self.corner is not None:
            try:
                t0, k, N = (self.corner[key] for key in ("t0", "k", "N"))
                corner = {"t0": float(t0), "k": _integer(k, "k"), "N": _integer(N, "N")}
            except KeyError as exc:
                raise InputError(f"corner is missing the key {exc}") from exc
            except (InputError, TypeError, ValueError) as exc:
                raise InputError(
                    f"malformed corner {self.corner!r}: t0 must be a number "
                    "and corner k and N must be integers"
                ) from exc
            if not np.isfinite(corner["t0"]):
                raise InputError(f"corner t0 must be finite, got {t0!r}")
            _known_keys(self.corner, corner, "corner")
            CFApproximant(corner["k"], corner["N"], self.n_iter)
            object.__setattr__(self, "corner", corner)
        if self.slender is not None:
            if not isinstance(self.slender, dict) or set(self.slender) - {"a"}:
                raise InputError(
                    f"slender must be {{'a': point or None}}, got {self.slender!r}"
                )
            a = self.slender.get("a")
            a = None if a is None else _point(a, "slender a")
            CFApproximant(1, 2, self.n_iter)
            object.__setattr__(self, "slender", {"a": a})
        if self.samples is not None:
            samples = np.asarray(self.samples, dtype=complex).ravel()
            if not np.all(np.isfinite(samples)):
                raise InputError("boundary samples must be finite")
            object.__setattr__(self, "samples", samples)

    # -- JSON round trip ----------------------------------------------------

    @staticmethod
    def from_json(payload, base_dir: str = ".") -> "PipelineConfig":
        """Build a config from a JSON string / dict (see docs for the schema).

        Missing or mistyped fields and unknown keys raise :class:`InputError`.
        """
        if isinstance(payload, str):
            payload = io.parse_json(payload, "config JSON")
        if not isinstance(payload, dict):
            raise InputError("config JSON must be an object")
        try:
            return PipelineConfig._from_dict(payload, base_dir)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"malformed config: {exc}") from exc

    @staticmethod
    def _from_dict(payload: dict, base_dir: str) -> "PipelineConfig":
        _known_keys(payload, CONFIG_KEYS, "config")
        bnd = payload.get("boundary")
        keys = sorted(bnd) if isinstance(bnd, dict) else []
        if keys not in (["coeffs"], ["samples"], ["file"]):
            raise InputError(f"boundary takes one of coeffs, samples, file; got {keys}")
        rows, samples = None, None
        if "file" in bnd:
            rows, samples = io.read_boundary(os.path.join(base_dir, bnd["file"]))
        elif "coeffs" in bnd:
            rows = io.coeffs_from_json(bnd["coeffs"])
        else:
            samples = _re_im(bnd["samples"], 2, "samples must be [re, im] pairs")
        slender = payload.get("slender")
        if slender is not None:
            _known_keys(slender, ("a_re", "a_im"), "slender")
            if "a_im" in slender and "a_re" not in slender:
                raise InputError("slender a_im needs a_re (a_re alone means a_im = 0)")
            if slender:
                re, im = (
                    _point(slender.get(key, 0.0), f"slender {key}").real
                    for key in ("a_re", "a_im")
                )
                slender = {"a": complex(re, im)}
        anchor = payload.get("anchor")
        if anchor is not None:
            anchor = complex(_re_im(anchor, 1, "anchor must be null or [re, im]"))
        return PipelineConfig(
            boundary=FourierCurve(*zip(*rows)) if rows else None, samples=samples,
            corner=payload.get("corner"), slender=slender, anchor=anchor,
            **{k: payload[k] for k in CONFIG_FIELDS if payload.get(k) is not None},
        )

    def snapshot(self) -> dict:
        """JSON-serializable snapshot sufficient to re-run the job."""
        anchor = None if self.anchor is None else [self.anchor.real, self.anchor.imag]
        out = {key: getattr(self, key) for key in CONFIG_FIELDS}
        out.update(corner=self.corner, slender=None, anchor=anchor)
        if self.slender is not None:
            a = self.slender["a"]
            out["slender"] = {} if a is None else {"a_re": a.real, "a_im": a.imag}
        b, s = self.boundary, self.samples
        if b is not None:
            out["boundary"] = {"coeffs": io.coeffs_to_json(b.ks, b.cs)}
        else:  # the inverse of the reader's [re, im] view
            out["boundary"] = {"samples": s.view(float).reshape(-1, 2).tolist()}
        return out


# ---------------------------------------------------------------------------
# geometry helpers


def area_centroid(points: np.ndarray):
    """Signed area and area centroid of the polygon through ``points``."""
    x, y = points.real, points.imag
    x1, y1 = np.roll(x, -1), np.roll(y, -1)
    cross = x * y1 - x1 * y
    A = 0.5 * float(cross.sum())
    if abs(A) < 1e-300:
        raise PipelineError("boundary encloses no area")
    cx = float(((x + x1) * cross).sum() / (6.0 * A))
    cy = float(((y + y1) * cross).sum() / (6.0 * A))
    return A, complex(cx, cy)


def winding_number(points: np.ndarray, about: complex) -> int:
    """Winding of the sampled closed curve about a point (must not hit it)."""
    w = points - about
    if np.min(np.abs(w)) < 1e-12 * (1.0 + np.max(np.abs(w))):
        raise PipelineError("winding undefined: point on the boundary")
    return int(round(unwrap_closed(w)[1]))


def _segments_intersect(p, p2, q, q2):
    """Proper-intersection test of segments ``p-p2`` against ``q-q2``,
    elementwise over broadcast batches."""
    d1 = p2 - p
    d2 = q2 - q
    denom = d1.real * d2.imag - d1.imag * d2.real
    dq = q - p
    t = dq.real * d2.imag - dq.imag * d2.real
    s = dq.real * d1.imag - dq.imag * d1.real
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = t / denom
        s = s / denom
    eps = 1e-12
    hit = (t > eps) & (t < 1 - eps) & (s > eps) & (s < 1 - eps)
    hit &= np.abs(denom) > 1e-300
    return hit


def _check_simple(points: np.ndarray, label: str, max_check: int = 1024) -> None:
    """Reject a self-intersecting closed polyline (coarsened to max_check).

    Two segments that cross have midpoints no further apart than the longer
    of the two, ``r``.  A sweep over the midpoints sorted by x finds, by
    ``searchsorted``, each one's successors within ``r`` in x; those within
    ``r`` in distance are every candidate pair.  Swapping the two segments
    negates both numerators and the denominator of the intersection test
    exactly, so testing each non-adjacent pair once as ``i < j`` and
    reporting the lexicographically first hit gives the pair the all-pairs
    test reports.
    """
    n = len(points)
    step = max(1, n // max_check)
    a = points[::step]
    m = len(a)
    if not np.all(np.isfinite(a)):
        raise InputError(f"{label} has non-finite points")
    b = np.roll(a, -1)
    mid = 0.5 * a + 0.5 * b
    # the relative slack covers rounding in the midpoints and the distances
    r = float(np.max(np.abs(b - a), initial=0.0)) * (1.0 + 1e-9) + 1e-12 * float(
        np.max(np.abs(mid), initial=0.0)
    )
    order = np.argsort(mid.real, kind="stable")
    xs = mid.real[order]
    count = np.searchsorted(xs, xs + r, "right") - np.arange(1, m + 1)
    first = np.repeat(np.arange(m), count)
    second = np.arange(len(first)) - np.repeat(np.cumsum(count) - count, count)
    second += first + 1
    i, j = order[first], order[second]
    near = np.abs(mid[i] - mid[j]) <= r
    i, j = np.minimum(i, j)[near], np.maximum(i, j)[near]
    far = (j - i > 1) & (j - i < m - 1)
    i, j = i[far], j[far]
    hit = _segments_intersect(a[i], b[i], a[j], b[j])
    if np.any(hit):
        i, j = divmod(int(np.min(i[hit] * m + j[hit])), m)
        raise SelfIntersectionError(
            f"{label} self-intersects near samples {i * step} and {j * step}"
        )


def _boundary_samples(cfg: PipelineConfig) -> np.ndarray:
    if cfg.samples is not None:
        return cfg.samples
    return eval_grid(cfg.boundary.ks, cfg.boundary.cs, cfg.sample_grid)


def _refit(cfg: PipelineConfig, samples=None, label: str = "sampled boundary"):
    """``(curve, resid)``: the curve to solve and its sup refit residual.

    Without ``samples`` these are ``cfg``'s own boundary: a given curve as
    it is (``resid`` None), sample input refitted.  A refit has support
    ``[-refit_degree, refit_degree]``, cut on each side past the last
    coefficient above ``REFIT_FLOOR * max |samples|`` so that the solve runs
    at the curve's true support, not at its round-off tail.  A residual
    above ``refit_tol`` of the samples' radius raises
    :class:`RefitQualityError`.
    """
    if samples is None:
        if cfg.boundary is not None:
            return cfg.boundary, None
        samples = cfg.samples
    degree = cfg.refit_degree
    fit = fit_from_samples(samples, degree, degree)
    floor = REFIT_FLOOR * float(np.max(np.abs(samples)))
    above = [k for k, c in zip(fit.ks, fit.cs) if k == 0 or abs(c) > floor]
    keep = slice(min(above) + degree, max(above) + degree + 1)
    curve = FourierCurve(fit.ks[keep], fit.cs[keep])
    resid = float(np.max(np.abs(eval_grid(curve.ks, curve.cs, len(samples)) - samples)))
    diam = float(np.max(np.abs(samples - samples.mean())))
    if resid > cfg.refit_tol * max(diam, 1e-30):
        raise RefitQualityError(
            f"{label} refit at degree {degree} deviates by {resid:.3e} "
            f"(tolerance {cfg.refit_tol:.1e} of scale {diam:.3e}); "
            "raise refit_degree"
        )
    return curve, resid


def _translate(curve: FourierCurve, offset: complex) -> FourierCurve:
    coeffs = curve.coeffs
    coeffs[0] = coeffs.get(0, 0.0) + offset
    return FourierCurve.from_coeffs(coeffs)


def _straighten(samples: np.ndarray, pivot: complex, k: int, N: int, opening: float):
    """``(direction, straightened)``: the samples seen from ``pivot``,
    turned so their area centroid lies on the positive axis and raised to
    ``N/k``.  A sample outside ``|arg| <= opening`` and farther from
    ``pivot`` than ``CORNER_EXCLUSION`` times the largest distance raises
    :class:`SectorViolationError`."""
    shifted = samples - pivot
    _, centroid = area_centroid(shifted)
    direction = np.exp(1j * np.angle(centroid))
    w = shifted / direction
    body = np.abs(w) > CORNER_EXCLUSION * float(np.max(np.abs(w)))
    spread = float(np.max(np.abs(np.angle(w[body]))))
    if spread > opening + SECTOR_MARGIN:
        raise SectorViolationError(
            f"domain seen from {pivot} leaves the sector |arg| <= {opening:.6f} "
            f"by {spread - opening:.3e} rad after normalization"
        )
    return direction, PlaneTransform("power", (N, k))(w)


def _fold(cfg: PipelineConfig, k: int, N: int, pivot, direction, anchor):
    """``(construction, stages)``: domain to solved curve for
    :func:`_straighten` and a solve anchored at ``anchor``, and back."""
    construction = (
        PlaneTransform("affine", (1.0, -pivot)),
        PlaneTransform("affine", (1.0 / direction, 0.0)),
        PlaneTransform("power", (N, k)),
        PlaneTransform("affine", (1.0, -anchor)),
    )
    stages = (
        PlaneTransform("affine", (1.0, anchor)),
        PlaneTransform("cf_root", (k, N, cfg.n_iter)),
        PlaneTransform("affine", (direction, pivot)),
    )
    return construction, stages


def _check_injective(core: PolynomialMap) -> None:
    """Raise :class:`PipelineError` if ``core`` is not locally injective."""
    winding = core_winding(core)
    if winding != 0:
        raise PipelineError(f"core winding {winding}: not locally injective")


def _solve_core(curve: FourierCurve, anchor: complex, cfg: PipelineConfig):
    """``(sol, core)``: the reparametrization solve of ``curve`` with
    ``anchor`` moved to the origin, and its Taylor core."""
    centered = _translate(curve, -anchor)
    sol = solve_reparam(centered, cfg.M, cfg.P)
    return sol, taylor_coeffs(centered, sol, cfg.D)


def _composed(
    kind: str, cfg: PipelineConfig, curve, construction, stages, sol, core, **extra
) -> ComposedMap:
    """The composed map with its provenance (config snapshot, described
    ``construction`` transforms from domain to solved ``curve``, solver
    diagnostics with the solved support, quadrature grid, kernel tail and
    the size and certificate of the correspondence inverse's table,
    ``extra`` entries).  Each pipeline gates its core with
    :func:`_check_injective` where it makes it."""
    provenance = {
        "kind": kind,
        "config": cfg.snapshot(),
        "construction": [t.describe() for t in construction],
        **extra,
        "solver": {
            "M": sol.M,
            "P": sol.grid_size,
            "n": curve.n,
            "m": curve.m,
            "condition": sol.condition,
            "assembly_P": sol.assembly_P,
            "kernel_tail": sol.kernel_tail,
            "inverse_nodes": sol.inverse.nodes,
            "inverse_residual": sol.inverse.residual,
            "monotone": sol.monotone,
            "neg_residual": core.neg_residual,
        },
    }
    return ComposedMap(stages=stages, core=core, provenance=provenance)


# ---------------------------------------------------------------------------
# pipelines


def smooth_map(cfg: PipelineConfig) -> ComposedMap:
    """Polynomial map onto a smooth domain.

    A boundary already winding once around the origin is solved as-is (the
    disk centre then maps to the origin).  Otherwise the curve mean is
    translated to the origin first and restored afterwards as an affine
    stage.
    """
    if cfg.corner is not None or cfg.slender is not None:
        raise InputError("smooth_map config must not declare corner/slender")
    curve, resid = _refit(cfg)
    samples = _boundary_samples(cfg)
    encloses = (
        np.min(np.abs(samples)) > 1e-9 * np.max(np.abs(samples))
        and winding_number(samples, 0.0) == 1
    )
    centroid = 0.0j if encloses else curve.coeff(0)
    sol, core = _solve_core(curve, centroid, cfg)
    _check_injective(core)
    stages = [PlaneTransform("affine", (1.0, centroid))] if centroid != 0 else []
    construction = [PlaneTransform("affine", (1.0, -centroid))]
    refit = {} if resid is None else {"refit_deviation": resid}
    return _composed("smooth", cfg, curve, construction, stages, sol, core, **refit)


def corner_map(cfg: PipelineConfig) -> ComposedMap:
    """Fraction-polynomial map onto a domain with one corner of opening
    ``k pi / N`` at boundary parameter ``t0``.

    The domain is straightened about the corner in the sector
    ``|arg| <= k pi/(2N)`` (:func:`_straighten`); the straightened samples
    are refitted and solved about their area centroid, and the map is
    folded back with the ``z^(k/N)`` approximant (:func:`_fold`).
    """
    if cfg.corner is None:
        raise InputError("corner_map needs a corner declaration")
    k, N, t0 = cfg.corner["k"], cfg.corner["N"], cfg.corner["t0"]
    samples = _boundary_samples(cfg)
    S = len(samples)
    if cfg.boundary is not None:
        z0 = eval_curve(cfg.boundary, t0)
    else:
        j = int(round(t0 / (2.0 * np.pi / S)))
        if abs(t0 - 2.0 * np.pi * j / S) > 1e-9:
            raise InputError("corner t0 must coincide with a sample node")
        z0 = complex(samples[j % S])

    direction, straightened = _straighten(samples, z0, k, N, k * np.pi / (2.0 * N))
    straight_curve, refit_resid = _refit(cfg, straightened, "straightened boundary")
    _, anchor = area_centroid(straightened)
    sol, core = _solve_core(straight_curve, anchor, cfg)
    _check_injective(core)
    construction, stages = _fold(cfg, k, N, z0, direction, anchor)
    corner = {
        "t0": t0,
        "k": k,
        "N": N,
        "position": [z0.real, z0.imag],
        "rotation": -float(np.angle(direction)),
        "theta_corner": float(sol.theta(t0)),
    }
    return _composed(
        "corner", cfg, straight_curve, construction, stages, sol, core,
        corner=corner, refit_deviation=refit_resid,
    )


def _default_a(curve: FourierCurve, samples: np.ndarray) -> complex:
    """Outside point near the maximal-curvature boundary point.

    Offset is 2% of the domain diameter along the outward normal at the
    curvature maximum (its first node, ties within ``ANCHOR_TIE_RTOL``).
    A cusp on the grid has no normal, so there :func:`curvature` raises
    :class:`InputError`.
    """
    S = len(samples)
    t_s = 2.0 * np.pi * np.arange(S) / S
    kappa = curvature(curve, t_s)
    j = int(np.argmax(kappa >= kappa.max() - ANCHOR_TIE_RTOL * abs(kappa.max())))
    d1 = eval_curve(derivative_curve(curve, 1), t_s[j])
    outward = -1j * (d1 / np.abs(d1))
    diameter = 2.0 * float(np.max(np.abs(samples - samples.mean())))
    return complex(samples[j] + 0.02 * diameter * outward)


def slender_map(cfg: PipelineConfig) -> ComposedMap:
    """Fraction-polynomial map onto a slender domain.

    The domain is widened by ``(z-a)^2`` about the configured outside point
    ``a`` (default: 2% of the diameter beyond the maximal-curvature point):
    the ``(k, N) = (1, 2)`` straightening of :func:`_straighten` in the
    half-plane seen from ``a``.  It is solved in squared coordinates and
    folded back through the recursive square-root approximant (:func:`_fold`).

    The interior point sent to the disk centre ("anchor") is a free
    normalization of the squared-domain solve.  Because re-anchoring is a
    disk automorphism, one solve supports them all: each candidate samples
    the one correspondence through the automorphism sending 0 to the
    anchor's preimage (:func:`_reanchor`).  Candidates lie on the segment
    from the image of the original centroid towards the squared domain's
    area centroid; the one whose boundary image lies closest to the target
    curve (sup distance) is kept.  A core that is not locally injective
    (univalence winding not 0) is rejected, and a search left with no
    candidate raises :class:`PipelineError`.  Set ``cfg.anchor`` to a
    complex value to pin it instead.
    """
    if cfg.slender is None:
        raise InputError("slender_map needs a slender declaration")
    curve, sample_resid = _refit(cfg)
    samples = _boundary_samples(cfg)
    a = cfg.slender["a"]
    if a is None:
        a = _default_a(curve, samples)

    if winding_number(samples, a) != 0:
        raise PipelineError(
            f"expansion point a = {a} must lie outside the domain "
            "(boundary winding about it is nonzero)"
        )
    direction, squared = _straighten(samples, a, 1, 2, np.pi / 2)
    _check_simple(squared, "squared boundary")
    squared_curve, refit_resid = _refit(cfg, squared, "squared boundary")

    base_anchor = PlaneTransform("power", (2, 1))((curve.coeff(0) - a) / direction)
    _, u_centroid = area_centroid(squared)
    sol, base_core = _solve_core(squared_curve, base_anchor, cfg)

    def cores_at(anchors) -> list:
        """``(core, preimage log)`` per anchor, the core replaced by the
        :class:`PipelineError` that rejects it.  Every candidate samples the
        one solve through a disk automorphism: the preimages come from one
        batched Newton (:func:`_reanchor`), the re-anchored cores from one
        stacked extraction; the base anchor keeps the base core, preimage 0."""
        moved = np.array([an for an in anchors if an != base_anchor], dtype=complex)
        betas, steps, residuals, errors = _reanchor(base_core, base_anchor, moved)
        ok = np.array([error is None for error in errors], dtype=bool)
        cores = iter(
            taylor_coeffs(squared_curve, sol, cfg.D, betas[ok], -moved[ok])
            if ok.any() else ()
        )
        found = iter(zip(steps.tolist(), residuals, errors))
        out = []
        for anchor in anchors:
            if anchor == base_anchor:
                n, residual, core = 0, float(abs(base_core.coeffs[0])), base_core
            else:
                n, residual, error = next(found)
                core = error or next(cores)
            out.append((core, {"preimage_steps": n, "preimage_residual": residual}))
        return out

    def gated(core) -> PolynomialMap:
        # a candidate without a preimage, or whose core is not locally
        # injective, raises its PipelineError here
        if isinstance(core, PipelineError):
            raise core
        _check_injective(core)
        return core

    search_log = []
    if cfg.anchor is not None:
        [(core, _)] = cores_at([cfg.anchor])
        chosen_anchor, chosen = cfg.anchor, gated(core)
    else:
        distance = boundary_distances(curve, ANCHOR_SEARCH_GRID)
        anchors = [base_anchor + f * (u_centroid - base_anchor) for f in ANCHOR_FRACTIONS]
        best = None
        for frac, anchor, (core, preimage) in zip(
            ANCHOR_FRACTIONS, anchors, cores_at(anchors)
        ):
            entry = {"frac": frac, "anchor": [anchor.real, anchor.imag], **preimage}
            search_log.append(entry)
            try:
                core = gated(core)
                _, stages = _fold(cfg, 1, 2, a, direction, anchor)
                score = float(np.max(distance(ComposedMap(stages, core))))
            except (PipelineError, InputError, DomainError) as exc:
                # no preimage, a core not locally injective, or a root cut hit
                entry["rejected"] = str(exc)
                continue
            entry["sup_deviation"] = score
            if best is None or score < best[0] * (1.0 - ANCHOR_TIE_RTOL):
                best = (score, anchor, core)
        if best is None:
            raise PipelineError(
                "no anchor candidate gave a locally injective core and an "
                "evaluable composed map"
            )
        _, chosen_anchor, chosen = best

    construction, stages = _fold(cfg, 1, 2, a, direction, chosen_anchor)
    slender = {
        "a": [a.real, a.imag],
        "direction": [direction.real, direction.imag],
        "anchor": [chosen_anchor.real, chosen_anchor.imag],
        "anchor_search": search_log,
    }
    refit = {} if sample_resid is None else {"boundary_refit_deviation": sample_resid}
    return _composed(
        "slender", cfg, squared_curve, construction, stages, sol, chosen,
        slender=slender, refit_deviation=refit_resid, **refit,
    )


def _reanchor(core: PolynomialMap, old_anchor, new_anchors):
    """Preimages ``beta`` of each of ``new_anchors`` under the solve
    anchored at ``old_anchor``: the solve re-anchored is that solve composed
    with the disk automorphism sending 0 to ``beta``.  ``core`` is the
    Taylor core at ``old_anchor``.

    Returns ``(betas, steps, residuals, errors)``, one entry per anchor.
    One Newton runs on all of them: each step evaluates the core and its
    derivative by one :func:`horner` call at every live ``beta``.  Each
    anchor keeps its own stopping rule (a step below 1e-15, a zero slope or
    ``REANCHOR_STEPS`` steps), and must keep its iterates in the unit disk
    (it leaves the live set the step it leaves, with no residual) and
    bring ``|core(beta) - target|`` within ``REANCHOR_TOL`` of the core's
    scale; ``errors`` holds the :class:`PipelineError` of each anchor that
    fails, None for the others.
    """
    new_anchors = np.asarray(new_anchors, dtype=complex).reshape(-1)
    targets = new_anchors - old_anchor
    n = len(targets)
    # the core and its derivative, one row each
    c_dc = np.stack([core.coeffs, np.append(core.derivative_coeffs(), 0.0)])
    betas = np.zeros(n, dtype=complex)
    steps = np.zeros(n, dtype=int)
    residuals = [None] * n
    errors = [None] * n
    live = np.arange(n)
    for step_no in range(1, REANCHOR_STEPS + 1):
        if not live.size:
            break
        value, slope = horner(c_dc, betas[live])
        steps[live] = step_no
        flat = slope == 0
        live, value, slope = live[~flat], value[~flat], slope[~flat]
        step = (value - targets[live]) / slope
        betas[live] -= step
        left = np.abs(betas[live]) >= 1.0
        for i in live[left]:
            errors[i] = PipelineError(
                f"anchor {complex(new_anchors[i])} is not an interior point of the "
                f"solve: the preimage Newton left the unit disk at step {step_no}"
            )
        live = live[~left & ~(np.abs(step) < 1e-15)]
    done = np.array([e is None for e in errors], dtype=bool)
    if np.any(done):
        found = np.abs(core(betas[done]) - targets[done])
        scale = REANCHOR_TOL * float(np.max(np.abs(core.coeffs)))
        for i, residual in zip(np.flatnonzero(done), found.tolist()):
            residuals[i] = residual
            if not residual <= scale:
                errors[i] = PipelineError(
                    f"anchor preimage Newton did not converge: residual "
                    f"{residual:.3e} after {steps[i]} steps"
                )
    return betas, steps, residuals, errors
