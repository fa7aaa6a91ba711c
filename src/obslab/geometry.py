"""Line, rectangle, and comb density functionals for observation fields.

Everything here estimates an infimum of window averages of a sampled field:
over line segments (gcc_constant), over anisotropic rectangles
(rectangle_density_inf), or over sliding windows along a direction
(comb_profile / relative_density_1d). Infima over segments and rectangles
are approximated by one search (_infimum): an explicit grid over
direction and anchor, then eight rounds of local coordinate descent. All
grid sizes are parameters, because the numbers are only meaningful
together with the search resolution. Every segment and rectangle average
is a window mean (_window_means) over a product lattice of anchors, which
evaluate receives as one coordinate array per axis, so cells and weights
are found per axis and never per anchor x body point. On a periodic field
whose anchor lattice steps whole grid cells, the grid phase first ranks a
window's anchors by one circular correlation (_correlated_means, by FFT)
when that reads fewer points than evaluate would, and re-measures through
evaluate only the anchors the correlation's error bound cannot rule out
(_grid_min), so the results keep their bits. A trace's point counters
therefore see every point of descent probes, comb profiles, truncated and
unaligned searches, but only the re-measured anchors of a correlated
window; the FFT's time is geometry's own.

Bad sizes and lengths (non-positive, NaN or infinite lengths, too-small
grids and sample counts) raise ValueError naming the argument.

Conventions: a Direction wraps an angle on the circle; the transverse unit
vector used by comb profiles is perp(theta) = (sin, -cos) rotated so that
the map (x, t) -> x*perp + t*theta is the rotation taking (0, 1) to theta.
Searches run over the field's fundamental domain; for fields that represent
a truncated (non-periodic) set, every grid point and every descent probe
keeps its window inside the box instead of wrapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import TRUNCATED_FAMILIES, ObservationField, evaluate


def is_truncated(field: ObservationField) -> bool:
    """True when the field samples a non-periodic set on a finite box."""
    return field.family.get("name") in TRUNCATED_FAMILIES


@dataclass(frozen=True)
class Direction:
    """Unit direction on the circle, stored as an angle in [0, 2*pi)."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", float(self.angle) % (2.0 * math.pi))

    @property
    def vector(self) -> np.ndarray:
        return np.array([math.cos(self.angle), math.sin(self.angle)])

    @property
    def perp(self) -> np.ndarray:
        """Transverse unit vector (theta_2, -theta_1)."""
        return np.array([math.sin(self.angle), -math.cos(self.angle)])

    @property
    def sign(self) -> int:
        """1d reduction: +1 for angles pointing right, -1 otherwise."""
        return 1 if math.cos(self.angle) >= 0 else -1


@dataclass(frozen=True)
class LineSegment:
    start: tuple
    direction: Direction
    length: float

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("segment length must be positive")


@dataclass(frozen=True)
class RectangleSpec:
    """Anisotropically dilated rectangle: anchor z, rotation theta,
    transverse side s = L * lam^((beta-1)/2), long side t = L * lam^beta."""

    theta: Direction
    anchor: tuple
    L: float
    lam: float
    beta: float

    def __post_init__(self):
        if not (self.L > 0 and self.lam >= 1 and 0 <= self.beta <= 1):
            raise ValueError("need L > 0, lam >= 1, beta in [0, 1]")

    @property
    def side_s(self) -> float:
        return self.L * self.lam ** ((self.beta - 1.0) / 2.0)

    @property
    def side_t(self) -> float:
        return self.L * self.lam ** self.beta


@dataclass
class CombProfile:
    """Sampled transverse profile x -> inf over t of window averages."""

    theta: Direction
    M: float
    values: np.ndarray
    spacing: float
    periodic: bool = True
    meta: dict = dc_field(default_factory=dict)


def _positive(name, value) -> None:
    """ValueError naming the argument unless value is positive and finite."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _at_least(name, value, least) -> None:
    """ValueError naming the count unless value >= least."""
    if not value >= least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")


def _auto_samples(field: ObservationField, length: float) -> int:
    per_cell = 3.0 * length / field.h
    return int(max(64, min(8192, math.ceil(per_cell))))


def _window_means(field, anchor_axes, body):
    """Mean of the field over the points anchor + body, one mean per anchor
    of the product lattice anchor_axes[0] x ... x anchor_axes[dim - 1]
    (row-major: the last axis varies fastest); body is (k, dim).

    A point's coordinate along axis i depends only on the anchor's i-th
    coordinate and the body point, so each axis goes to evaluate as its
    own (n_i, ..., k) array and the anchors x body point array is never
    built. The result of evaluate still has the full (n_0, ..., k) shape.
    """
    dim = field.dim
    coords = tuple(np.reshape(a, [-1 if j == i else 1 for j in range(dim)] + [1]) + body[:, i]
                   for i, a in enumerate(anchor_axes))
    return evaluate(field, coords).reshape(-1, len(body)).mean(axis=1)


def _segment_body(dvec, length, n_samples):
    """Midpoints of n_samples equal pieces of [0, length] * dvec."""
    s = (np.arange(n_samples) + 0.5) * (length / n_samples)
    return s[:, None] * dvec[None, :]


def _rect_body(theta: Direction, side_s, side_t, n_samples, dim):
    """Midpoint lattice of the rectangle with sides side_s across theta and
    side_t along it, cornered at the origin; aspect-balanced in 2d, and the
    segment [0, side_t] in 1d."""
    if dim == 1:
        u = (np.arange(n_samples) + 0.5) / n_samples
        return (u * side_t)[:, None]
    n1 = int(max(2, round(math.sqrt(n_samples / (side_t / side_s)))))
    n2 = int(max(2, math.ceil(n_samples / n1)))
    u = (np.arange(n1) + 0.5) / n1
    v = (np.arange(n2) + 0.5) / n2
    return ((u * side_s)[:, None, None] * theta.perp
            + (v * side_t)[None, :, None] * theta.vector).reshape(-1, 2)


def line_average(field: ObservationField, segment: LineSegment, n_samples: int | None = None) -> float:
    """Midpoint-rule average of the field along the segment."""
    if n_samples is None:
        n_samples = _auto_samples(field, segment.length)
    _at_least("n_samples", n_samples, 2)
    dvec = np.array([segment.direction.sign]) if field.dim == 1 else segment.direction.vector
    start = np.asarray(segment.start, dtype=np.float64)[:, None]
    return float(_window_means(field, start, _segment_body(dvec, segment.length, n_samples))[0])


def _anchor_grid(lo, hi, n, dim):
    """Per-axis coordinates of the n^dim anchor lattice: n cell midpoints
    of [lo[i], hi[i]] on each axis i."""
    return [lo[i] + (hi[i] - lo[i]) * (np.arange(n) + 0.5) / n for i in range(dim)]


def _correlation_pays(field, n_anchor, k) -> bool:
    """True when the grid phase ranks its anchors by _correlated_means:
    the field is periodic, the n_anchor-point lattice over one period
    steps a whole number of cells, and the n_anchor^dim x k points that
    evaluate would read outnumber the grid^dim samples an FFT reads (the
    measured break-even)."""
    return (not is_truncated(field) and field.grid % n_anchor == 0
            and n_anchor ** field.dim * k > field.grid ** field.dim)


def _correlated_means(field, anchor_axes, body):
    """The window means of _window_means for an anchor lattice over one
    period that steps a whole number s of grid cells per axis, as one
    circular correlation, to within _correlation_bound.

    Anchor m's points are the first anchor's moved by m * s grid nodes per
    axis, so its mean is sum_j K[j] v[j + m * s] (indices mod grid), where
    K holds the bilinear weights of the points at the first anchor,
    scattered onto the grid and divided by k: the correlation of the
    samples v with K, read every s nodes.
    """
    n, dim, k = field.grid, field.dim, len(body)
    index, weight = np.zeros((1, 1), np.intp), np.full((1, 1), 1.0 / k)
    for a, x in zip(anchor_axes, body.T):
        # each axis doubles the corners: index is row-major on the grid
        p = (a[0] - field.origin + x) / field.h
        c = np.floor(p)
        p -= c
        lo = c.astype(np.intp) % n
        index = (index[:, None] * n + np.array([lo, (lo + 1) % n])).reshape(-1, k)
        weight = (weight[:, None] * np.array([1.0 - p, p])).reshape(-1, k)
    kernel = np.bincount(index.ravel(), weight.ravel(), minlength=n ** dim).reshape((n,) * dim)
    shape, axes = (n,) * dim, tuple(range(dim))
    corr = np.fft.irfftn(field._spectrum * np.fft.rfftn(kernel).conj(), s=shape, axes=axes)
    step = n // len(anchor_axes[0])
    return corr[(slice(None, None, step),) * dim].ravel()


def _correlation_bound(field, body) -> float:
    """delta: a bound on |_correlated_means - _window_means| at any anchor,
    for samples in [0, 1] and N = grid^dim.

    - FFT: every butterfly value of rfftn(K) is bounded by sum(K) = 1 and
      ||rfftn(v)||_2 <= N, so the three transforms and the product err by
      about 20 eps log2(N) sqrt(N) in the 2-norm, hence at every anchor;
    - scatter: bincount adds at most k weights into one node, which moves
      sum(K) by at most k eps, and the means by as much;
    - position: a point's offset (p - origin) / h is rounded a few times on
      both paths, by about 8 eps R / h with R = |origin| + period + the
      body's reach; values in [0, 1] make the interpolant 1-Lipschitz in
      each axis's offset, so each path moves by at most dim times that;
    - evaluate's own rounding (the four corner products and the pairwise
      mean) is below 32 eps for any k.
    64 eps times the sum of the three scales covers all four with room.
    """
    n_points = field.grid ** field.dim
    reach = abs(field.origin) + field.period + float(np.abs(body).max())
    scale = (math.sqrt(n_points) * math.log2(2 * n_points) + len(body)
             + field.dim * reach / field.h)
    return 64.0 * np.finfo(np.float64).eps * scale


def _grid_min(field, anchor_axes, body, best):
    """(mean, anchor) of the first least window mean over the anchor
    lattice (row-major order), or None if the correlation proves that no
    mean there is below best.

    When _correlation_pays, the correlated means c only rank the anchors.
    With delta = _correlation_bound, the measured means w satisfy
    |w - c| <= delta, so every least w sits among the anchors with
    c <= min(c) + 2 delta (its c is at most its w + delta, its w at most
    the w at argmin c, and that at most min(c) + delta), and no w is
    below best if min(c) - delta >= best.
    Those anchors are re-measured by _window_means, on the sub-lattice of
    their rows and columns, whose first least is then the first least of
    the whole lattice: same anchor, same bits as measuring every anchor.
    """
    n = len(anchor_axes[0])
    picks = [np.arange(n)] * field.dim
    if _correlation_pays(field, n, len(body)):
        corr = _correlated_means(field, anchor_axes, body)
        delta = _correlation_bound(field, body)
        least = corr.min()
        if least - delta >= best:
            return None
        near = np.unravel_index(np.flatnonzero(corr <= least + 2.0 * delta), (n,) * field.dim)
        picks = [np.unique(i) for i in near]
    axes = [a[p] for a, p in zip(anchor_axes, picks)]
    means = _window_means(field, axes, body)
    i = int(np.argmin(means))
    cell = np.unravel_index(i, [len(p) for p in picks])
    return float(means[i]), np.array([a[c] for a, c in zip(axes, cell)])


def gcc_constant(
    field: ObservationField,
    L: float,
    direction_grid_size: int = 64,
    anchor_grid_size: int = 12,
    n_samples: int | None = None,
) -> float:
    """Estimated infimum of length-L segment averages.

    Directions come from a uniform grid on the circle, anchors from a
    uniform grid over the admissible anchor box, and the grid minimizer
    (direction and anchor) is polished by coordinate descent. The result
    is an upper bound for the true infimum. Grids must have at least 8
    points each. On a truncated field, directions whose segment cannot fit
    inside the box are skipped, and ValueError is raised if none fits.
    """
    _positive("L", L)
    _at_least("direction_grid_size", direction_grid_size, 8)
    _at_least("anchor_grid_size", anchor_grid_size, 8)
    if n_samples is None:
        n_samples = _auto_samples(field, L)
    _at_least("n_samples", n_samples, 2)

    if field.dim == 1:
        angle_list = np.array([0.0])
    else:
        angle_list = 2.0 * math.pi * np.arange(direction_grid_size) / direction_grid_size

    def segment(ang):
        # raw cos/sin: Direction() would reduce a negative probe angle mod
        # 2*pi and move the last bits of the direction vector
        dvec = np.array([math.cos(ang), math.sin(ang)]) if field.dim == 2 else np.array([1.0])
        return _segment_body(dvec, L, n_samples), np.array([np.zeros(field.dim), L * dvec])

    value, *_ = _infimum(field, [segment], angle_list, anchor_grid_size,
                         math.pi / max(len(angle_list), 8))
    return float(value)


def _infimum(field, shapes, angles, anchor_grid_size, ang_step):
    """Least window mean over (shape, angle, anchor), by grid and descent.

    shapes[j](angle) returns (body, corners): the window's sample offsets
    and its vertices, both relative to the anchor. Anchors range over one
    period; on truncated fields they range instead over the box that keeps
    the window inside the field's box, and an angle whose window cannot
    fit there is skipped. The grid minimizer (ties go to the first point
    visited: shapes outer, angles inner, then anchors; each window's least
    mean comes from _grid_min, which may rank the anchors by correlation
    but returns the bits of measuring them all) is polished by eight
    rounds of coordinate descent. Each round tries angle -+ ang_step
    (on a 2d field), then anchor -+ z_step along each axis, keeps any
    strict improvement, and halves both steps; on truncated fields each
    probe first moves its anchor into the admissible box. Returns (value,
    shape index, angle, anchor).
    """
    inside_box = is_truncated(field)

    def window(shape, ang):
        """(body, anchor lo, anchor hi), or None if the window cannot fit."""
        body, corners = shape(ang)
        if not inside_box:
            return body, np.full(field.dim, field.origin), np.full(field.dim, field.origin + field.period)
        lo = field.origin - corners.min(axis=0)
        hi = field.origin + field.period - corners.max(axis=0)
        return None if np.any(hi <= lo) else (body, lo, hi)

    def probe(win, z):
        if inside_box:
            z = np.clip(z, win[1], win[2])
        return _window_means(field, z[:, None], win[0])[0], z

    best = (np.inf, None, None, None, None)  # value, shape index, angle, anchor, window
    for j, shape in enumerate(shapes):
        for ang in angles:
            win = window(shape, ang)
            if win is None:
                continue
            axes = _anchor_grid(win[1], win[2], anchor_grid_size, field.dim)
            found = _grid_min(field, axes, win[0], best[0])
            if found is not None and found[0] < best[0]:
                best = (found[0], j, float(ang), found[1], win)
    value, j, ang, z, win = best
    if z is None:
        raise ValueError("no angle admits a window inside the box at the requested sizes")

    z_step = field.period / (2.0 * anchor_grid_size)
    for _ in range(8):
        if field.dim == 2:
            for cand in (ang - ang_step, ang + ang_step):
                cwin = window(shapes[j], cand)
                if cwin is not None:
                    v, zc = probe(cwin, z)
                    if v < value:
                        value, ang, z, win = v, cand, zc, cwin
        for axis in range(field.dim):
            for sgn in (-1.0, 1.0):
                zc = z.copy()
                zc[axis] += sgn * z_step
                v, zc = probe(win, zc)
                if v < value:
                    value, z = v, zc
        ang_step *= 0.5
        z_step *= 0.5
    return value, j, ang, z


def rectangle_density(field: ObservationField, rect: RectangleSpec, n_samples: int = 1024) -> float:
    """Average of the field over one rectangle, by midpoint grid."""
    _at_least("n_samples", n_samples, 2)
    body = _rect_body(rect.theta, rect.side_s, rect.side_t, n_samples, field.dim)
    return float(_window_means(field, np.asarray(rect.anchor, dtype=np.float64)[:, None], body)[0])


def rectangle_density_inf(
    field: ObservationField,
    beta: float,
    L: float,
    lambda_list,
    direction_grid_size: int = 24,
    anchor_grid_size: int = 10,
    n_samples: int = 1024,
) -> tuple[float, RectangleSpec]:
    """Sweep of rectangle_density over lam in lambda_list, rotations, and
    anchors, polished by coordinate descent; returns the minimum and its
    argmin rectangle.

    Ties break to the first grid point visited, i.e. the lexicographically
    smallest (lam index, direction index, anchor index). On a truncated
    field every rectangle measured, the returned one included, lies
    inside the box.
    """
    _positive("L", L)
    lambda_list = [float(l) for l in lambda_list]
    if not lambda_list:
        raise ValueError("lambda_list must be non-empty")
    _at_least("direction_grid_size", direction_grid_size, 1)
    _at_least("anchor_grid_size", anchor_grid_size, 1)
    _at_least("n_samples", n_samples, 2)
    if field.dim == 1:
        angle_list = np.array([0.0])
    else:
        angle_list = math.pi * np.arange(direction_grid_size) / direction_grid_size

    def rectangle(lam):
        spec = RectangleSpec(Direction(0.0), (0.0,) * field.dim, L, lam, beta)
        s, t = spec.side_s, spec.side_t

        def shape(ang):
            theta = Direction(ang)
            body = _rect_body(theta, s, t, n_samples, field.dim)
            if field.dim == 1:
                return body, np.array([[0.0], [t]])
            across, along = s * theta.perp, t * theta.vector
            return body, np.array([np.zeros(2), across, along, across + along])

        return shape

    value, j, ang, z = _infimum(field, [rectangle(lam) for lam in lambda_list], angle_list,
                                anchor_grid_size, math.pi / max(len(angle_list), 8) / 2.0)
    return float(value), RectangleSpec(Direction(ang), tuple(z), L, lambda_list[j], beta)


def comb_profile(
    field: ObservationField,
    theta: Direction,
    M: float,
    x_extent: float | None = None,
    t_extent: float | None = None,
    n_x: int = 256,
    samples_per_unit: float = 64.0,
    periodic_t: bool | None = None,
) -> CombProfile:
    """Transverse profile of infimal length-M window averages along theta.

    For each transverse offset x the lifted function t -> a(x*perp + t*theta)
    is sampled at resolution 1/samples_per_unit over t_extent, and the
    minimum over all window positions of the length-M running mean is taken
    (cumulative-sum sliding windows, so the t search is dense at the sample
    resolution). When periodic_t is true the window slides around the torus;
    callers pass the direction's closing period as t_extent in that case.
    Defaults probe one fundamental domain in both coordinates.
    """
    _positive("M", M)
    _at_least("n_x", n_x, 1)
    _positive("samples_per_unit", samples_per_unit)
    if field.dim != 2:
        raise ValueError("comb profiles are defined for 2d fields")
    P = field.period
    if x_extent is None:
        x_extent = P
    if t_extent is None:
        t_extent = P
    _positive("x_extent", x_extent)
    _positive("t_extent", t_extent)
    if periodic_t is None:
        periodic_t = not is_truncated(field)
    if not periodic_t and t_extent < M:
        raise ValueError("t_extent must be at least M for a non-periodic search")

    n_t = comb_samples(t_extent, samples_per_unit)
    h_t = t_extent / n_t
    n_w = int(max(1, round(M / h_t)))

    xs = (np.arange(n_x) + 0.5) * (x_extent / n_x)
    ts = (np.arange(n_t) + 0.5) * h_t
    pts = xs[:, None, None] * theta.perp[None, None, :] + ts[None, :, None] * theta.vector[None, None, :]
    values = _window_min(evaluate(field, pts), n_w, periodic_t)
    return CombProfile(
        theta=theta,
        M=M,
        values=values,
        spacing=x_extent / n_x,
        periodic=periodic_t,
        meta={
            "x_extent": x_extent,
            "t_extent": t_extent,
            "h_t": h_t,
            "n_window": n_w,
            "periodic_t": periodic_t,
        },
    )


def comb_samples(t_extent: float, samples_per_unit: float) -> int:
    """Samples along theta of a comb profile over t_extent: about
    samples_per_unit per unit length, and at least 2."""
    return int(max(2, round(t_extent / (1.0 / samples_per_unit))))


def relative_density_1d(profile: CombProfile, L: float) -> float:
    """Infimal length-L window average of a comb profile.

    Windows slide at the sample resolution; periodic profiles wrap.
    """
    _positive("L", L)
    n_w = int(max(1, round(L / profile.spacing)))
    return float(_window_min(profile.values, n_w, profile.periodic))


def _window_min(values, n_w: int, periodic: bool) -> np.ndarray:
    """Minimum over the last axis of the length-n_w running means.

    Periodic samples wrap: they are tiled so that every start in one period
    has n_w samples ahead of it, even when n_w exceeds the extent. Other
    samples admit only windows that fit inside them.
    """
    values = np.asarray(values, dtype=np.float64)
    if periodic:
        reps, tail = divmod(n_w - 1, values.shape[-1])
        values = np.concatenate([values] * (1 + reps) + [values[..., :tail]], axis=-1)
    elif n_w > values.shape[-1]:
        raise ValueError("window longer than the sampled range")
    c = np.cumsum(values, axis=-1)
    c = np.concatenate([np.zeros(c.shape[:-1] + (1,)), c], axis=-1)
    return ((c[..., n_w:] - c[..., :-n_w]) / n_w).min(axis=-1)
