"""Line, rectangle, and comb density functionals for observation fields.

Everything here estimates an infimum of window averages of a sampled field:
over line segments (gcc_constant), over anisotropic rectangles
(rectangle_density_inf), or over sliding windows along a direction
(comb_profile / relative_density_1d). Infima over continuous families are
approximated by explicit grids plus one round of local coordinate descent;
all grid sizes are parameters and are echoed in returned metadata, because
the numbers are only meaningful together with the search resolution.

Conventions: a Direction wraps an angle on the circle; the transverse unit
vector used by comb profiles is perp(theta) = (sin, -cos) rotated so that
the map (x, t) -> x*perp + t*theta is the rotation taking (0, 1) to theta.
Searches run over the field's fundamental domain; for fields that represent
a truncated (non-periodic) set, probes are kept inside the box instead of
wrapping.
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
        if self.L <= 0 or self.lam < 1 or not 0 <= self.beta <= 1:
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


def _auto_samples(field: ObservationField, length: float) -> int:
    per_cell = 3.0 * length / field.h
    return int(max(64, min(8192, math.ceil(per_cell))))


def _window_means(field, anchors, body):
    """Mean of the field over the points anchor + body, for each row of
    anchors (n, dim); body is (k, dim). Returns n means."""
    pts = anchors[:, None, :] + body[None, :, :]
    if field.dim == 1:
        pts = pts[..., 0]
    return evaluate(field, pts).mean(axis=1)


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
    return np.outer(np.repeat(u, n2) * side_s, theta.perp) + np.outer(np.tile(v, n1) * side_t, theta.vector)


def line_average(field: ObservationField, segment: LineSegment, n_samples: int | None = None) -> float:
    """Midpoint-rule average of the field along the segment."""
    if n_samples is None:
        n_samples = _auto_samples(field, segment.length)
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    dvec = np.array([segment.direction.sign]) if field.dim == 1 else segment.direction.vector
    start = np.asarray(segment.start, dtype=np.float64)[None, :]
    return float(_window_means(field, start, _segment_body(dvec, segment.length, n_samples))[0])


def _anchor_box(field, extent_lo, extent_hi):
    """Anchor bounds so [z + extent_lo, z + extent_hi] stays in the box."""
    lo = field.origin - extent_lo
    hi = field.origin + field.period - extent_hi
    if np.any(hi <= lo):
        raise ValueError("probe does not fit inside the box")
    return lo, hi


def _anchor_grid(lo, hi, n, dim):
    axes = [lo[i] + (hi[i] - lo[i]) * (np.arange(n) + 0.5) / n for i in range(dim)]
    if dim == 1:
        return axes[0][:, None]
    g = np.meshgrid(*axes, indexing="ij")
    return np.stack([c.ravel() for c in g], axis=-1)


def gcc_constant(
    field: ObservationField,
    L: float,
    direction_grid_size: int = 64,
    anchor_grid_size: int = 12,
    n_samples: int | None = None,
    angles: np.ndarray | None = None,
) -> float:
    """Estimated infimum of length-L segment averages.

    Directions come from a uniform grid on the circle (or the explicit
    `angles` override), anchors from a uniform grid over the admissible
    anchor box, and the grid minimizer is polished by coordinate descent.
    With an explicit `angles` list the descent moves anchors only, so the
    result stays an infimum over the requested directions; with the grid
    it also polishes the angle. The result is an upper bound for the true
    infimum. Grids must have at least 8 points each unless `angles` is
    supplied.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    if angles is None and (direction_grid_size < 8 or anchor_grid_size < 8):
        raise ValueError("direction and anchor grids need at least 8 points")
    inside_box = is_truncated(field)
    if n_samples is None:
        n_samples = _auto_samples(field, L)

    if field.dim == 1:
        angle_list = np.array([0.0])
    elif angles is not None:
        angle_list = np.atleast_1d(np.asarray(angles, dtype=np.float64))
    else:
        angle_list = 2.0 * math.pi * np.arange(direction_grid_size) / direction_grid_size

    best = (np.inf, 0, None, None)  # value, angle index, angle, anchor
    for k, ang in enumerate(angle_list):
        dvec = np.array([math.cos(ang), math.sin(ang)]) if field.dim == 2 else np.array([1.0])
        if inside_box:
            ext = dvec * L
            lo, hi = _anchor_box(field, np.minimum(0.0, ext), np.maximum(0.0, ext))
        else:
            lo = np.full(field.dim, field.origin)
            hi = np.full(field.dim, field.origin + field.period)
        anchors = _anchor_grid(lo, hi, anchor_grid_size, field.dim)
        means = _window_means(field, anchors, _segment_body(dvec, L, n_samples))
        i = int(np.argmin(means))
        if means[i] < best[0]:
            best = (float(means[i]), k, float(ang), anchors[i].copy())

    value, _, ang, anchor = best
    if anchor is None:
        return value

    def probe(ang_, z):
        dvec = np.array([math.cos(ang_), math.sin(ang_)]) if field.dim == 2 else np.array([1.0])
        if inside_box:
            ext = dvec * L
            try:
                lo, hi = _anchor_box(field, np.minimum(0.0, ext), np.maximum(0.0, ext))
            except ValueError:
                return np.inf
            z = np.clip(z, lo, hi)
        return _window_means(field, z[None, :], _segment_body(dvec, L, n_samples))[0]

    value, _, _ = _descend(probe, value, ang, anchor, math.pi / max(len(angle_list), 8),
                           field.period / (2.0 * anchor_grid_size),
                           move_angle=field.dim == 2 and angles is None)
    return value


def _descend(probe, value, ang, z, ang_step, z_step, move_angle):
    """Coordinate-descent polish of a grid minimizer of probe(angle, anchor).

    Each of eight rounds tries ang -+ ang_step (when move_angle), then
    z -+ z_step along each anchor axis in turn, keeping any strict
    improvement, and halves both steps. Returns (value, angle, anchor).
    """
    for _ in range(8):
        if move_angle:
            for cand in (ang - ang_step, ang + ang_step):
                v = probe(cand, z)
                if v < value:
                    value, ang = v, cand
        for axis in range(len(z)):
            for sgn in (-1.0, 1.0):
                zc = z.copy()
                zc[axis] += sgn * z_step
                v = probe(ang, zc)
                if v < value:
                    value, z = v, zc
        ang_step *= 0.5
        z_step *= 0.5
    return value, ang, z


def rectangle_density(field: ObservationField, rect: RectangleSpec, n_samples: int = 1024) -> float:
    """Average of the field over one rectangle, by midpoint grid."""
    body = _rect_body(rect.theta, rect.side_s, rect.side_t, n_samples, field.dim)
    return float(_window_means(field, np.asarray(rect.anchor, dtype=np.float64)[None, :], body)[0])


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
    smallest (lam index, direction index, anchor index).
    """
    lambda_list = [float(l) for l in lambda_list]
    if not lambda_list:
        raise ValueError("lambda_list must be non-empty")
    inside_box = is_truncated(field)
    if field.dim == 1:
        angle_list = np.array([0.0])
    else:
        angle_list = math.pi * np.arange(direction_grid_size) / direction_grid_size

    best_val = np.inf
    best = None
    for lam in lambda_list:
        for ang in angle_list:
            theta = Direction(ang)
            spec0 = RectangleSpec(theta, (0.0,) * field.dim, L, lam, beta)
            s, t = spec0.side_s, spec0.side_t
            if field.dim == 2:
                span = np.outer([0, 1], s * theta.perp)[:, None, :] + np.outer([0, 1], t * theta.vector)[None, :, :]
                corners = span.reshape(-1, 2)
                ext_lo, ext_hi = corners.min(axis=0), corners.max(axis=0)
            else:
                ext_lo, ext_hi = np.array([min(0.0, t)]), np.array([max(0.0, t)])
            if inside_box:
                try:
                    lo, hi = _anchor_box(field, ext_lo, ext_hi)
                except ValueError:
                    continue
            else:
                lo = np.full(field.dim, field.origin)
                hi = np.full(field.dim, field.origin + field.period)
            anchors = _anchor_grid(lo, hi, anchor_grid_size, field.dim)
            means = _window_means(field, anchors, _rect_body(theta, s, t, n_samples, field.dim))
            i = int(np.argmin(means))
            if means[i] < best_val:
                best_val = float(means[i])
                best = RectangleSpec(theta, tuple(anchors[i]), L, lam, beta)

    if best is None:
        raise ValueError("no rectangle fits inside the box at the requested sizes")

    s, t = best.side_s, best.side_t

    def probe(ang_, z_):
        body = _rect_body(Direction(ang_), s, t, n_samples, field.dim)
        return float(_window_means(field, z_[None, :], body)[0])

    val, ang, z = _descend(probe, best_val, best.theta.angle,
                           np.asarray(best.anchor, dtype=np.float64),
                           math.pi / max(len(angle_list), 8) / 2.0,
                           field.period / (2.0 * anchor_grid_size), move_angle=field.dim == 2)
    if val < best_val:
        best_val = val
        best = RectangleSpec(Direction(ang), tuple(z), best.L, best.lam, best.beta)
    return best_val, best


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
    if M <= 0:
        raise ValueError("window length M must be positive")
    if field.dim != 2:
        raise ValueError("comb profiles are defined for 2d fields")
    P = field.period
    if x_extent is None:
        x_extent = P
    if t_extent is None:
        t_extent = P
    if periodic_t is None:
        periodic_t = not is_truncated(field)
    if not periodic_t and t_extent < M:
        raise ValueError("t_extent must be at least M for a non-periodic search")

    h_t = 1.0 / samples_per_unit
    n_t = int(max(2, round(t_extent / h_t)))
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


def relative_density_1d(profile: CombProfile, L: float) -> float:
    """Infimal length-L window average of a comb profile.

    Windows slide at the sample resolution; periodic profiles wrap.
    """
    if L <= 0:
        raise ValueError("L must be positive")
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
