"""Quantitative quality checks for computed maps, and the SVG renderer.

The deviation report turns "does the image boundary lie on the target
curve" into numbers (sup and mean distance over a boundary grid); the
univalence check counts zeros of the core derivative inside the disk by
the argument principle (0 means locally injective); the renderer draws the
image of a polar net of the disk as a deterministic standalone SVG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .fourier_boundary import FourierCurve, derivative_curve, eval_curve, eval_grid
from .fourier_boundary import unwrap_closed
from .pipelines import ComposedMap, evaluate_composed, measure_corner_angle
from .reparam_solver import PolynomialMap

__all__ = [
    "DeviationReport",
    "boundary_distances",
    "boundary_deviation",
    "univalence_check",
    "render_polar_net",
]


@dataclass(frozen=True)
class DeviationReport:
    """Numbers backing an accept/reject decision for a computed map."""

    sup_deviation: float
    mean_deviation: float
    neg_residual: float
    univalence_winding: int
    monotone_theta: bool
    corner_angle_measured: float | None = None

    def __post_init__(self):
        if self.sup_deviation + 1e-15 < self.mean_deviation:
            raise InputError("sup deviation cannot be below mean deviation")


def _nearest_distance(target, grid: int):
    """Callable giving the distance from each of an array of points to the
    target curve; the target's samples, k-d tree and derivative curves are
    built once, here, for every array it measures.

    The nearest of ``16 * grid`` uniform parameter samples of the target is
    found by one k-d tree query over all points, and its distance is taken
    as ``|p - z(s_j)|``.  When the target is a Fourier curve, one Newton
    step on the squared-distance stationarity condition, clipped to one
    sample spacing, refines the parameter and the smaller of the two
    distances is kept; parametric callables skip the refinement.
    """
    from scipy.spatial import cKDTree

    fine = 16 * grid
    s = 2.0 * np.pi * np.arange(fine) / fine
    if isinstance(target, FourierCurve):
        tgt = eval_grid(target.ks, target.cs, fine)
        dcurve = derivative_curve(target, 1)
        d2curve = derivative_curve(target, 2)
    else:
        tgt = np.asarray(target(s), dtype=complex)
        dcurve = d2curve = None
    if not np.all(np.isfinite(tgt)):
        raise InputError("target curve has non-finite samples")
    tree = cKDTree(np.column_stack([tgt.real, tgt.imag]))

    def distance(points):
        points = np.asarray(points, dtype=complex)
        # a non-finite point keeps a non-finite distance, as the dense argmin gave
        finite = np.isfinite(points)
        j = np.zeros(len(points), dtype=np.intp)
        ok_pts = points[finite]
        _, j[finite] = tree.query(np.column_stack([ok_pts.real, ok_pts.imag]))
        best = np.abs(points - tgt[j])
        if dcurve is None:
            return best
        # one Newton step on g(s) = Re[(z(s)-p) conj(z'(s))] = 0
        s0 = s[j]
        zs = eval_curve(target, s0)
        zp = eval_curve(dcurve, s0)
        zpp = eval_curve(d2curve, s0)
        diff = zs - points
        g = (diff * np.conj(zp)).real
        gp = (np.abs(zp) ** 2 + (diff * np.conj(zpp)).real)
        ok = np.abs(gp) > 1e-30
        step = np.where(ok, g / np.where(ok, gp, 1.0), 0.0)
        step = np.clip(step, -2.0 * np.pi / fine, 2.0 * np.pi / fine)
        s0 = s0 - step
        refined = np.abs(eval_curve(target, s0) - points)
        return np.minimum(best, refined)

    return distance


def boundary_distances(target, grid: int = 256):
    """Callable giving the distances of a composed map's images of the
    ``grid``-th roots of unity from the target curve (a FourierCurve, or any
    2 pi-periodic parametric callable), prepared once for every map."""
    if grid < 256:
        raise InputError("deviation grid must be at least 256")
    distance = _nearest_distance(target, grid)
    return lambda cmap: distance(cmap.on_circle(grid))


def boundary_deviation(
    cmap: ComposedMap, target, grid: int = 256
) -> DeviationReport:
    """Distance of the image boundary from the target curve
    (:func:`boundary_distances`), with the univalence winding check on the
    core and the solver diagnostics carried by the map.
    """
    dist = boundary_distances(target, grid)(cmap)
    winding = univalence_check(cmap.core, max(8 * cmap.core.degree, 256))
    solver = cmap.provenance.get("solver", {})
    angle = None
    if cmap.provenance.get("corner") is not None:
        angle = measure_corner_angle(cmap)
    return DeviationReport(
        sup_deviation=float(np.max(dist)),
        mean_deviation=float(np.mean(dist)),
        neg_residual=float(cmap.core.neg_residual),
        univalence_winding=winding,
        monotone_theta=bool(solver.get("monotone", True)),
        corner_angle_measured=angle,
    )


def univalence_check(core: PolynomialMap, grid: int) -> int:
    """Winding of ``Z'(e^{i theta})`` about 0 = number of zeros of ``Z'``
    in the disk.  Zero means the core is locally injective.

    The nodes are the ``grid``-th roots of unity, where :func:`eval_grid`
    gives ``Z'`` exactly.  ``grid >= 8 * degree`` resolves the turning of
    its argument between neighbouring nodes.  Fails when ``|Z'|`` drops
    below 1e-12 at a node (zero on the circle is inconclusive).
    """
    if grid < 8 * core.degree:
        raise InputError("univalence grid must be at least 8 * degree")
    vals = eval_grid(np.arange(core.degree), core.derivative_coeffs(), grid)
    if np.min(np.abs(vals)) < 1e-12:
        raise InputError(
            "derivative vanishes on the unit circle; winding inconclusive"
        )
    return int(round(unwrap_closed(vals)[1]))


# ---------------------------------------------------------------------------
# SVG polar net


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _path(points) -> str:
    # one format of all coordinates: '%.12g' % x == format(x, '.12g')
    points = np.asarray(points, dtype=complex)
    xy = np.column_stack([points.real, -points.imag]).ravel().tolist()
    coords = " ".join(["%.12g,%.12g"] * len(points)) % tuple(xy)
    return f'<polyline fill="none" points="{coords}"/>'


def render_polar_net(
    cmap: ComposedMap, spokes: int = 8, circles: int = 4, samples: int = 256
) -> str:
    """Standalone SVG of the polar-net image under the map.

    Draws the images of ``circles`` concentric circles (radii j/(circles+1))
    and ``spokes`` radii of the unit disk, plus the image of the unit circle
    as the boundary.  Output is deterministic: fixed path order (circles by
    radius, spokes by angle, boundary last), floats at 12 significant
    digits.  Samples that a stage rejects (a stage-domain failure) are left
    out instead of aborting the figure: the curve is drawn as a group of
    polylines split at those samples, annotated with their indices.
    """
    if spokes < 1 or circles < 1:
        raise InputError("need at least one spoke and one circle")
    if samples < 2:
        raise InputError(f"need at least 2 samples per curve, got {samples}")
    paths = []
    all_pts = []

    def draw(zeta_arr):
        try:
            runs, skipped = [evaluate_composed(cmap, zeta_arr)], []
        except DomainError:
            runs, run, skipped = [], [], []
            for i, zv in enumerate(zeta_arr):
                try:
                    run.append(evaluate_composed(cmap, zv))
                except DomainError:
                    skipped.append(i)
                    if run:
                        runs.append(np.asarray(run, dtype=complex))
                    run = []
            if run:
                runs.append(np.asarray(run, dtype=complex))
        all_pts.extend(runs)
        if not skipped:
            paths.append(_path(runs[0]))
            return
        warn = "stage-domain-error at samples " + ",".join(map(str, skipped))
        body = "".join(_path(r) + "\n" for r in runs)
        paths.append(f'<g data-warning="{warn}">\n{body}</g>')

    for j in range(1, circles + 1):
        r = j / (circles + 1.0)
        draw(r * np.exp(2j * np.pi * np.arange(samples + 1) / samples))
    for j in range(spokes):
        ang = 2.0 * np.pi * j / spokes
        draw(np.linspace(0.0, 1.0, samples) * np.exp(1j * ang))
    draw(np.exp(2j * np.pi * np.arange(samples + 1) / samples))

    pool = np.concatenate(all_pts) if all_pts else np.array([-1.0 - 1j, 1.0 + 1j])
    x0, x1 = float(np.min(pool.real)), float(np.max(pool.real))
    y0, y1 = float(np.min(-pool.imag)), float(np.max(-pool.imag))
    mx = 0.05 * max(x1 - x0, y1 - y0, 1e-12)
    view = (x0 - mx, y0 - mx, (x1 - x0) + 2 * mx, (y1 - y0) + 2 * mx)
    width = (x1 - x0) + 2 * mx
    body = "\n".join(paths)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(view[0])} {_fmt(view[1])} {_fmt(view[2])} {_fmt(view[3])}">\n'
        f'<g stroke="black" stroke-width="{_fmt(width / 400.0)}">\n'
        f"{body}\n"
        "</g>\n"
        "</svg>\n"
    )
