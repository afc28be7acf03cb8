"""Quantitative quality checks for computed maps, and the SVG renderer.

The deviation report turns "does the image boundary lie on the target
curve" into numbers (sup and mean distance over a boundary grid); the
univalence check counts zeros of the core derivative inside the disk by
the argument principle (0 means locally injective); the corner-angle check
measures a corner map's image corner (``k pi/N`` by design); the renderer
draws the image of a polar net of the disk as a deterministic standalone
SVG.  Maps are evaluated by their own methods, so :mod:`cforge.pipelines`
imports this module and not the other way round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .fourier_boundary import FourierCurve, eval_curve, eval_grid
from .fourier_boundary import unwrap_closed
from .reparam_solver import ASSEMBLY_MAX_BYTES, PolynomialMap

__all__ = [
    "DeviationReport",
    "boundary_distances",
    "boundary_deviation",
    "check_deviation_grid",
    "core_winding",
    "measure_corner_angle",
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


# candidate (point, sample) pairs the nearest-sample search expands at once
# (at least one point's worth): far-off points need every sample each
NEAREST_CHUNK_PAIRS = 2**18
# discrete Newton steps that refine the arc-length seed of each point (one
# brings it to the nearest sample on the pinned maps)
SEED_STEPS = 1
# Newton steps of the Fourier refinement, and the step, in table spacings,
# at which a point counts as converged
REFINE_STEPS = 8
REFINE_TOL = 1e-9


def _table_size(target, grid: int) -> int:
    """Samples in the target table: ``2 * grid`` nodes of a Fourier curve
    (Newton refines from them), ``16 * grid`` of a parametric callable
    (whose distances are to the nearest sample)."""
    return (2 if isinstance(target, FourierCurve) else 16) * grid


def check_deviation_grid(target, grid: int) -> None:
    """Reject a deviation ``grid`` below 256, or one whose check tables would
    exceed ``ASSEMBLY_MAX_BYTES``, with :class:`InputError`, before anything
    is allocated.

    The count: 56 bytes a target sample (the samples, two sorted
    coordinate copies with their orders, the arc lengths), about 256 bytes
    a point for the work arrays of the search and of Newton, and 64 bytes
    a pair for one chunk of candidate pairs.
    """
    if grid < 256:
        raise InputError("deviation grid must be at least 256")
    size = _table_size(target, grid)
    need = 56 * size + 256 * grid + 64 * max(size, NEAREST_CHUNK_PAIRS)
    if need > ASSEMBLY_MAX_BYTES:
        raise InputError(
            f"deviation grid {grid} needs about {need / 2**30:.1f} GiB of check "
            f"tables, above the {ASSEMBLY_MAX_BYTES / 2**30:.0f} GiB cap"
        )


def _seed_radius(points, tgt, arc, length):
    """Distance per point within which some sample lies: the distance to
    the nearest sample of a window about a seed index.

    The seed follows the arc length along the polyline of the points, with
    the target's arc length aligned at the first point by brute force, and
    is refined by discrete Newton steps on ``|tgt[j] - p|^2`` with central
    differences.  It only bounds the search; it never decides the answer.
    """
    S = len(tgt)
    along = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(points)))))
    loop = along[-1] + abs(points[0] - points[-1])
    first = int(np.argmin(np.abs(tgt - points[0])))
    scale = length / loop if loop > 0 else 0.0
    j = np.searchsorted(arc, (arc[first] + along * scale) % length, "right") - 1
    for _ in range(SEED_STEPS):
        f = np.abs(tgt[(j[:, None] + np.arange(-1, 2)) % S] - points[:, None]) ** 2
        slope = 0.5 * (f[:, 2] - f[:, 0])
        bend = f[:, 2] - 2.0 * f[:, 1] + f[:, 0]
        step = np.rint(-slope / np.where(bend > 0, bend, np.inf))
        j = (j + np.clip(step, -(S // 2), S // 2).astype(np.intp)) % S
    window = tgt[(j[:, None] + np.arange(-2, 3)) % S]
    return np.min(np.abs(window - points[:, None]), axis=1)


def _nearest_samples(points, tgt, orders, keys, radius, slack):
    """Distance from each point to its nearest sample, given a radius within
    which lie that sample and every sample within ``slack`` of it, and the
    starts of the refinement: the (point, sample) pairs, in point order,
    whose sample lies within ``slack`` of the nearest one and no farther
    than its two neighbours.  The nearest sample is always a start.

    Every sample within ``radius`` of a point lies in both its x strip and
    its y strip of that half-width: ``searchsorted`` on the sorted
    coordinates gives both, and the thinner is scanned.  The candidate
    pairs are expanded in chunks of about ``NEAREST_CHUNK_PAIRS``.
    """
    n, S = len(points), len(tgt)
    lo = np.empty((2, n), dtype=np.intp)
    hi = np.empty((2, n), dtype=np.intp)
    for axis, coord in enumerate((points.real, points.imag)):
        lo[axis] = np.searchsorted(keys[axis], coord - radius, "left")
        hi[axis] = np.searchsorted(keys[axis], coord + radius, "right")
    axis = np.argmin(hi - lo, axis=0)
    lo, count = lo[axis, np.arange(n)], (hi - lo)[axis, np.arange(n)]
    ends = np.cumsum(count)
    limit = max(NEAREST_CHUNK_PAIRS, S)
    dist = np.empty(n)
    owners, starts = [], []
    a = 0
    while a < n:
        done = ends[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(ends, done + limit, "right")))
        c = count[a:b]
        first = ends[a:b] - c - done
        owner = np.repeat(np.arange(a, b), c)
        pos = np.arange(ends[b - 1] - done) - first[owner - a] + lo[owner]
        j = orders[axis[owner], pos]
        d = np.abs(points[owner] - tgt[j])
        dist[a:b] = np.minimum.reduceat(d, first)
        near = d <= dist[owner] + slack
        owner, j, d = owner[near], j[near], d[near]
        sides = np.abs(tgt[(j[:, None] + np.array([-1, 1])) % S] - points[owner, None])
        keep = np.all(d[:, None] <= sides, axis=1)
        owners.append(owner[keep])
        starts.append(j[keep])
        a = b
    return dist, np.concatenate(owners), np.concatenate(starts)


def _newton_step(diff, zp, zpp, h):
    """Newton step for ``g(s) = Re[(z(s) - p) conj z'(s)] = 0``, the
    stationarity of the squared distance, from ``diff = z(s) - p`` and the
    derivatives at ``s``, and whether it is trusted: a full step within
    ``h`` where ``g'(s) > 0``.  Otherwise the step is clipped to ``h``, or,
    where ``g'(s) <= 0`` (no minimum for Newton to find), ``h`` downhill."""
    g = (diff * np.conj(zp)).real
    gp = np.abs(zp) ** 2 + (diff * np.conj(zpp)).real
    convex = gp > 0
    newton = g / np.where(convex, gp, 1.0)
    trusted = convex & (np.abs(newton) <= h)
    return np.where(convex, np.clip(newton, -h, h), np.sign(g) * h), trusted


def _nearest_distance(target, grid: int):
    """Callable giving the distance from each of an array of points to the
    target curve; the target table is built once, here, for every array it
    measures.

    The table holds :func:`_table_size` uniform parameter samples of the
    target, sorted once by x and once by y.  The nearest sample to each
    point is found exactly, with no heuristic guard (:func:`_seed_radius`
    bounds the search, :func:`_nearest_samples` scans it), and for a
    parametric callable its distance ``|p - z(s_j)|`` is the answer.

    For a Fourier curve, the true nearest point ``z(s*)`` lies within half
    a spacing ``h`` of a sample, whose distance is then at most ``L h / 2``
    above it, where ``L = sum |k c_k|`` bounds ``|z'|``.  So Newton on
    ``Re[(z(s) - p) conj z'(s)] = 0`` runs from every sample within that
    slack of the nearest that is no farther than its neighbours (one on
    each basin that can hold ``s*``; mostly the nearest sample alone) until
    the step is at most ``REFINE_TOL * h`` (at most ``REFINE_STEPS``
    steps).  A step that :func:`_newton_step` does not trust is halved
    until it brings the point closer.  The smallest of the nearest sample's
    distance and the distances reached from its starts is kept.  Every
    distance returned is ``|p - z(s)|`` at a computed ``s``, so it is never
    below the true distance.
    """
    size = _table_size(target, grid)
    h = 2.0 * np.pi / size
    fourier = isinstance(target, FourierCurve)
    if fourier:
        tgt = eval_grid(target.ks, target.cs, size)
        slack = 0.5 * h * float(np.sum(np.abs(np.multiply(target.ks, target.cs))))
    else:
        tgt = np.asarray(target(2.0 * np.pi * np.arange(size) / size), dtype=complex)
        slack = 0.0
    if not np.all(np.isfinite(tgt)):
        raise InputError("target curve has non-finite samples")
    orders = np.stack([np.argsort(tgt.real), np.argsort(tgt.imag)])
    keys = np.stack([tgt.real[orders[0]], tgt.imag[orders[1]]])
    chords = np.abs(np.diff(tgt, append=tgt[:1]))
    arc = np.concatenate(([0.0], np.cumsum(chords[:-1])))
    length = arc[-1] + chords[-1]

    def distance(points):
        points = np.asarray(points, dtype=complex)
        # a non-finite point keeps a non-finite distance, as the dense argmin gave
        best = np.abs(points - tgt[0])
        finite = np.flatnonzero(np.isfinite(points))
        if not finite.size:
            return best
        p = points[finite]
        radius = (_seed_radius(p, tgt, arc, length) + slack) * (1.0 + 1e-12)
        nearest, owner, j = _nearest_samples(p, tgt, orders, keys, radius, slack)
        if not fourier:
            best[finite] = nearest
            return best
        s = 2.0 * np.pi * j / size
        q = p[owner]
        z, zp, zpp = eval_curve(target, s, 2)
        here = np.abs(z - q)
        step, trusted = _newton_step(z - q, zp, zpp, h)
        live = np.flatnonzero(np.abs(step) > REFINE_TOL * h)
        for _ in range(REFINE_STEPS):
            if not live.size:
                break
            trial = s[live] - step[live]
            z, zp, zpp = eval_curve(target, trial, 2)
            diff = z - q[live]
            dist = np.abs(diff)
            # an untrusted step is taken only if it brings the point closer
            take = trusted[live] | (dist <= here[live])
            moved = live[take]
            s[moved], here[moved] = trial[take], dist[take]
            step[moved], trusted[moved] = _newton_step(
                diff[take], zp[take], zpp[take], h
            )
            step[live[~take]] *= 0.5
            live = live[np.abs(step[live]) > REFINE_TOL * h]
        # a converged point takes its last step, within REFINE_TOL, too; one
        # out of steps keeps the closer of its last point and that step
        reached = np.abs(eval_curve(target, s - step) - q)
        reached[live] = np.minimum(reached[live], here[live])
        first = np.flatnonzero(np.diff(owner, prepend=-1))
        best[finite] = np.minimum(nearest, np.minimum.reduceat(reached, first))
        return best

    return distance


def boundary_distances(target, grid: int = 256):
    """Callable giving the distances of a composed map's images of the
    ``grid``-th roots of unity from the target curve (a FourierCurve, or any
    2 pi-periodic parametric callable), prepared once for every map.  The
    grid is checked by :func:`check_deviation_grid`."""
    check_deviation_grid(target, grid)
    distance = _nearest_distance(target, grid)
    return lambda cmap: distance(cmap.on_circle(grid))


def boundary_deviation(
    cmap: "ComposedMap", target, grid: int = 256
) -> DeviationReport:
    """Distance of the image boundary from the target curve
    (:func:`boundary_distances`), with the univalence winding of the core
    (:func:`core_winding`, shared with the build gate) and the solver
    diagnostics carried by the map.
    """
    dist = boundary_distances(target, grid)(cmap)
    winding = core_winding(cmap.core)
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


def measure_corner_angle(
    cmap: "ComposedMap", grid: int = 512, window: float = 0.05
) -> float:
    """Interior angle of the image corner, measured from the boundary image.

    Takes the first ``window`` fraction of the ``grid`` boundary samples on
    each side of the corner preimage, fits a least-squares ray through the
    recorded corner position to each side (axial mean, so points count by
    squared distance), and returns the angle between the rays.
    """
    info = cmap.provenance.get("corner")
    if not info:
        raise InputError("map carries no corner provenance")
    theta_c = info["theta_corner"]
    z0 = complex(info["position"][0], info["position"][1])
    count = max(3, int(window * grid))
    s = 2.0 * np.pi * np.arange(1, count + 1) / grid
    directions = []
    for sign in (+1.0, -1.0):
        pts = cmap(np.exp(1j * (theta_c + sign * s)))
        v = pts - z0
        axial = complex((v * v).sum())
        d = 0.5 * np.angle(axial)
        if np.cos(d - np.angle(v.sum())) < 0.0:
            d += np.pi
        directions.append(d)
    diff = abs((directions[0] - directions[1] + np.pi) % (2.0 * np.pi) - np.pi)
    return float(diff)


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


def core_winding(core: PolynomialMap) -> int:
    """:func:`univalence_check` of ``core`` on the gate grid
    ``max(8 * degree, 256)``, computed once per core object: the count is
    kept on the core itself (and freed with it), so the build gate and the
    deviation report share it, while a core read from a file counts anew."""
    kept = vars(core)
    if "_winding" not in kept:
        kept["_winding"] = univalence_check(core, max(8 * core.degree, 256))
    return kept["_winding"]


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


def _evaluated(cmap: "ComposedMap", zeta_arr):
    """``(images, drawn)``: the image of ``zeta_arr`` and the mask of the
    samples no stage rejects.  A range of samples is evaluated in one call
    and halved only when that call raises, so each rejected sample costs
    about ``2 log2(len(zeta_arr))`` calls instead of one call per sample."""
    images = np.empty(len(zeta_arr), dtype=complex)
    drawn = np.ones(len(zeta_arr), dtype=bool)
    ranges = [(0, len(zeta_arr))]
    while ranges:
        lo, hi = ranges.pop()
        try:
            images[lo:hi] = cmap(zeta_arr[lo:hi])
        except DomainError:
            if hi - lo == 1:
                drawn[lo] = False
            else:
                ranges += [((lo + hi) // 2, hi), (lo, (lo + hi) // 2)]
    return images, drawn


def _runs(images, drawn):
    """``(runs, skipped)``: ``images`` split into the runs of ``drawn``
    samples, and the indices of the others."""
    ends = np.flatnonzero(np.diff(np.concatenate(([0], drawn, [0]))))
    runs = [images[a:b] for a, b in zip(ends[::2], ends[1::2])]
    return runs, np.flatnonzero(~drawn).tolist()


def render_polar_net(
    cmap: "ComposedMap", spokes: int = 8, circles: int = 4, samples: int = 256
) -> str:
    """Standalone SVG of the polar-net image under the map.

    Draws the images of ``circles`` concentric circles (radii j/(circles+1))
    and ``spokes`` radii of the unit disk, plus the image of the unit circle
    as the boundary.  Output is deterministic: fixed path order (circles by
    radius, spokes by angle, boundary last), floats at 12 significant
    digits.  The samples of every curve are evaluated together, each about
    once (:func:`_evaluated`).  Samples that a stage rejects (a stage-domain
    failure) are left out instead of aborting the figure: the curve is
    drawn as a group of polylines split at those samples, annotated with
    their indices.
    """
    if spokes < 1 or circles < 1:
        raise InputError("need at least one spoke and one circle")
    if samples < 2:
        raise InputError(f"need at least 2 samples per curve, got {samples}")
    ring = np.exp(2j * np.pi * np.arange(samples + 1) / samples)
    curves = [j / (circles + 1.0) * ring for j in range(1, circles + 1)]
    curves += [
        np.linspace(0.0, 1.0, samples) * np.exp(1j * (2.0 * np.pi * j / spokes))
        for j in range(spokes)
    ]
    curves.append(ring)
    images, drawn = _evaluated(cmap, np.concatenate(curves))
    ends = np.cumsum([len(c) for c in curves[:-1]])
    paths = []
    all_pts = []
    for image, ok in zip(np.split(images, ends), np.split(drawn, ends)):
        runs, skipped = _runs(image, ok)
        all_pts.extend(runs)
        if not skipped:
            paths.append(_path(runs[0]))
            continue
        warn = "stage-domain-error at samples " + ",".join(map(str, skipped))
        body = "".join(_path(r) + "\n" for r in runs)
        paths.append(f'<g data-warning="{warn}">\n{body}</g>')

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
