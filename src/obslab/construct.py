"""Constructive 1d ingredients: density partitions, bounded transfer
functions, and smooth minorants of ball-system indicators.

The source data is a union of disjoint open delta-balls Y on a circle of
circumference W (the working period). From a window length M the partition
recursion s_k = inf{y >= s_{k-1} + M : y not in Y} produces cells of length
between M and M + 2*delta; a function with constant cell averages rho then
has a bounded antiderivative of its fluctuation (the transfer function),
and scaling a fixed plateau bump into each ball, cell by cell, yields a
smooth function a <= 1_Y whose cell averages are exactly c1*rho/2.

The recursion runs on the unrolled line with Y extended periodically and
stops once it passes one period, so every cell satisfies both gap bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _window_min

# Plateau-bump template constants. The template is 1 on |u| <= 1/2 and
# falls to 0 at |u| = 1 through a quintic smoothstep. Its mean over [-1, 1]
# is exactly 3/4; its derivative maxima are 3.75, 23.2, 480 for orders
# 1..3, so 8.0 dominates max_m (max|d^m|)^(1/m) = 480^(1/3) = 7.83 with
# room for finite-difference error.
BUMP_C1 = 0.75
BUMP_C2 = 8.0
# samples a minorant may take: construct-demo peaks at about 55 bytes a
# sample, so 0.55 GB
MAX_MINORANT_SAMPLES = 10_000_000


def _smoothstep(s):
    return s * s * s * (10.0 + s * (-15.0 + 6.0 * s))


def bump_template(u):
    """Plateau bump: 1 on |u| <= 1/2, quintic falloff, 0 outside |u| < 1."""
    u = np.abs(np.asarray(u, dtype=np.float64))
    out = np.zeros(u.shape)
    out[u <= 0.5] = 1.0
    ramp = (u > 0.5) & (u < 1.0)
    out[ramp] = 1.0 - _smoothstep(2.0 * u[ramp] - 1.0)
    return out


@dataclass
class BallSystem:
    """Disjoint open delta-balls on a circle of circumference period."""

    centers: np.ndarray
    delta: float
    period: float

    def __post_init__(self):
        c = np.sort(np.mod(np.asarray(self.centers, dtype=np.float64), self.period))
        if self.delta <= 0 or self.period <= 0:
            raise ValueError("delta and period must be positive")
        if len(c):
            gaps = np.diff(np.concatenate([c, [c[0] + self.period]]))
            if np.any(gaps < 2.0 * self.delta - 1e-12):
                raise ValueError("balls overlap: need center spacing >= 2*delta")
        self.centers = c

    @property
    def measure(self) -> float:
        return 2.0 * self.delta * len(self.centers)

    def intervals(self, lo: float, hi: float) -> np.ndarray:
        """All ball intervals (c - delta, c + delta) with centers in [lo, hi),
        unrolled periodically. Returns an (n, 2) array."""
        if not len(self.centers):
            return np.empty((0, 2))
        k_lo = math.floor((lo - self.centers[-1]) / self.period)
        k_hi = math.ceil((hi - self.centers[0]) / self.period)
        cs = np.concatenate([self.centers + k * self.period for k in range(k_lo, k_hi + 1)])
        cs = cs[(cs >= lo) & (cs < hi)]
        return np.stack([cs - self.delta, cs + self.delta], axis=-1)

    def contains(self, x) -> np.ndarray:
        """Membership in the open periodic ball union."""
        x = np.asarray(x, dtype=np.float64)
        if not len(self.centers):
            return np.zeros(x.shape, dtype=bool)
        xm = np.mod(x, self.period)
        ext = np.concatenate([[self.centers[-1] - self.period], self.centers, [self.centers[0] + self.period]])
        i = np.searchsorted(ext, xm)
        d = np.minimum(np.abs(xm - ext[i - 1]), np.abs(ext[np.minimum(i, len(ext) - 1)] - xm))
        return d < self.delta

    def window_min_measure(self, L: float) -> tuple[float, float]:
        """Exact (min measure, argmin t) of |Y cap [t, t + L]| over the circle.

        The measure is piecewise linear in t, so the minimum sits at a
        critical offset where a window edge meets a ball edge.
        """
        if L <= 0:
            raise ValueError("L must be positive")
        if not len(self.centers):
            return 0.0, 0.0
        crit, vals = self._window_measures(L)
        i = int(np.argmin(vals))
        return float(vals[i]), float(crit[i])

    def _window_measures(self, L: float) -> tuple[np.ndarray, np.ndarray]:
        """The critical offsets t of window_min_measure and |Y cap [t, t + L]|
        at each, for a nonempty system.

        Offsets are measured in chunks of at most 64 rows, so the chunk x
        intervals temporaries stay small; each row is summed like a 1-D
        array, so every value is bit-identical to one window at a time.
        """
        iv = self.intervals(-self.period, 2.0 * self.period)
        crit = np.concatenate([iv.ravel(), iv.ravel() - L])
        crit = np.unique(np.mod(crit, self.period))
        vals = np.empty(crit.size)
        for r0 in range(0, crit.size, 64):
            lo = crit[r0:r0 + 64, None]
            hi = lo + L
            # the clip of each interval to [lo, hi]; np.clip is twice as slow
            # with broadcast bounds
            b = np.minimum(np.maximum(iv[:, 1], lo), hi)
            b -= np.minimum(np.maximum(iv[:, 0], lo), hi)
            vals[r0:r0 + 64] = np.sum(b, axis=1)
        return crit, vals


@dataclass
class AlmostPeriodicPartition:
    breakpoints: np.ndarray

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    @property
    def min_gap(self) -> float:
        return float(self.gaps.min())

    @property
    def max_gap(self) -> float:
        return float(self.gaps.max())


def _first_exterior(Y: BallSystem, y: float) -> float:
    """inf{z >= y : z outside the open ball union}."""
    z = y
    for _ in range(len(Y.centers) + 2):
        iv = Y.intervals(z - Y.period, z + Y.period)
        inside = iv[(iv[:, 0] < z) & (z < iv[:, 1])]
        if not len(inside):
            return z
        z = float(inside[0, 1])
    return z


def build_partition(Y: BallSystem, M: float) -> AlmostPeriodicPartition:
    """Breakpoint recursion s_k = inf{y >= s_{k-1} + M : y not in Y}.

    Starts at the first exterior point s0 >= 0 and runs until it passes
    s0 + period, so the breakpoints span at least one turn of the circle
    and every gap lies in [M, M + 2*delta].
    """
    if 2.0 * Y.delta > M:
        raise ValueError("need 2*delta <= M")
    if Y.measure >= Y.period:
        raise ValueError("ball system covers the whole circle; no exterior point")
    pts = [_first_exterior(Y, 0.0)]
    end = pts[0] + Y.period
    while pts[-1] < end:
        pts.append(_first_exterior(Y, pts[-1] + M))
    return AlmostPeriodicPartition(np.asarray(pts))


def _cumint_linear(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cumulative integral of the piecewise-linear interpolant at the nodes."""
    seg = 0.5 * (v[1:] + v[:-1]) * np.diff(x)
    return np.concatenate([[0.0], np.cumsum(seg)])


def _H_eval(x: np.ndarray, v: np.ndarray, H: np.ndarray, y) -> np.ndarray:
    """Exact integral of the piecewise-linear interpolant from x[0] to y."""
    y = np.asarray(y, dtype=np.float64)
    i = np.clip(np.searchsorted(x, y, side="right") - 1, 0, len(x) - 2)
    dx = y - x[i]
    h = x[i + 1] - x[i]
    slope = (v[i + 1] - v[i]) / h
    return H[i] + v[i] * dx + 0.5 * slope * dx * dx


@dataclass
class TransferResult:
    y: np.ndarray
    B: np.ndarray
    breakpoint_values: np.ndarray
    max_abs: float
    bound: float
    rho: float


def transfer_function(b, rho: float, partition: AlmostPeriodicPartition, tol: float = 1e-8) -> TransferResult:
    """B(y) = integral from the grid start of (b - rho), evaluated exactly
    for the piecewise-linear interpolant of b.

    Errors out if some cell average of b deviates from rho by more than
    tol: the boundedness claim only holds for almost-periodic densities.
    The returned bound is 4 * max_gap * sup|b|.
    """
    x, vals = np.asarray(b[0], dtype=np.float64), np.asarray(b[1], dtype=np.float64)
    if len(x) != len(vals) or len(x) < 2:
        raise ValueError("b must be an (x, values) pair with at least two nodes")
    bp = partition.breakpoints
    if bp[0] < x[0] - 1e-9 or bp[-1] > x[-1] + 1e-9:
        raise ValueError("partition breakpoints fall outside the sampled range of b")
    H = _cumint_linear(x, vals)
    Hk = _H_eval(x, vals, H, bp)
    avgs = np.diff(Hk) / np.diff(bp)
    bad = np.flatnonzero(np.abs(avgs - rho) > tol)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"cell {i} average {avgs[i]} deviates from rho = {rho} by more than {tol}"
        )
    B = (H - rho * (x - x[0])) - (_H_eval(x, vals, H, bp[0]) - rho * (bp[0] - x[0]))
    Bk = Hk - rho * (bp - x[0])
    Bk -= Bk[0]
    return TransferResult(
        y=x,
        B=B,
        breakpoint_values=Bk,
        max_abs=float(np.max(np.abs(B))),
        bound=4.0 * partition.max_gap * float(np.max(np.abs(vals))),
        rho=rho,
    )


@dataclass
class SmoothMinorant:
    x: np.ndarray
    values: np.ndarray
    eta: float
    Y: BallSystem
    M: float
    rho: float
    t_scales: np.ndarray
    partition: AlmostPeriodicPartition

    @property
    def step(self) -> float:
        return float(self.x[1] - self.x[0])


def _cell_ball_centers(Y: BallSystem, lo: float, hi: float) -> np.ndarray:
    iv = Y.intervals(lo, hi)
    if not len(iv):
        return np.empty(0)
    c = 0.5 * (iv[:, 0] + iv[:, 1])
    return c[(c >= lo) & (c < hi)]


def _bump_sum(xs: np.ndarray, Y: BallSystem, partition: AlmostPeriodicPartition, t_scales: np.ndarray) -> np.ndarray:
    out = np.zeros(xs.shape)
    bp = partition.breakpoints
    for k in range(len(bp) - 1):
        centers = _cell_ball_centers(Y, bp[k], bp[k + 1])
        r = t_scales[k] * Y.delta
        for c in centers:
            i0, i1 = np.searchsorted(xs, [c - r, c + r])
            if i1 > i0:
                out[i0:i1] += bump_template((xs[i0:i1] - c) / r)
    return out


def smooth_minorant(Y: BallSystem, M: float, rho: float) -> SmoothMinorant:
    """Smooth a <= 1_Y with constant cell averages eta = (3/8) * rho.

    Requires Y to be (M, rho) relatively dense (checked exactly; the error
    names the violating window) and delta < M/2. Each cell of the partition
    scales its balls by t_k = (rho/2) * |cell| / |Y cap cell| in [rho/2, 1]
    and puts the plateau-bump template on the scaled balls, which makes the
    cell average of a exactly c1 * rho / 2 in closed form. The sample step
    is (rho/2) * delta / 16, a sixteenth of the smallest scaled ball radius;
    more than MAX_MINORANT_SAMPLES samples raise ValueError.
    """
    delta = Y.delta
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    if not delta < M / 2.0:
        raise ValueError("need delta < M/2")
    wmin, wat = Y.window_min_measure(M)
    if wmin < rho * M - 1e-12:
        raise ValueError(
            f"Y is not (M, rho) relatively dense: window [{wat}, {wat + M}] carries "
            f"measure {wmin} < rho*M = {rho * M}"
        )
    part = build_partition(Y, M)
    bp = part.breakpoints
    t_scales = np.empty(len(bp) - 1)
    for k in range(len(bp) - 1):
        gap = bp[k + 1] - bp[k]
        centers = _cell_ball_centers(Y, bp[k], bp[k + 1])
        mass = 2.0 * delta * len(centers)
        if mass <= 0:
            raise ValueError(f"cell {k} contains no balls; Y is not dense enough")
        t = (rho / 2.0) * gap / mass
        if t > 1.0 + 1e-12:
            raise ValueError(f"cell {k} scale t = {t} exceeds 1; density precondition violated")
        t_scales[k] = min(t, 1.0)
    n = int(math.ceil((bp[-1] - bp[0]) / ((rho / 2.0) * delta / 16.0))) + 1
    if n > MAX_MINORANT_SAMPLES:
        raise ValueError(
            f"the minorant needs {n} samples of step (rho/2) delta / 16 over [{bp[0]}, {bp[-1]}]"
            f" at rho = {rho}, delta = {delta}; the limit is {MAX_MINORANT_SAMPLES}")
    xs = np.linspace(bp[0], bp[-1], n)
    vals = _bump_sum(xs, Y, part, t_scales)
    eta = BUMP_C1 * rho / 2.0
    return SmoothMinorant(
        x=xs,
        values=vals,
        eta=eta,
        Y=Y,
        M=M,
        rho=rho,
        t_scales=t_scales,
        partition=part,
    )


def sliding_window_min(values: np.ndarray, spacing: float, L: float) -> float:
    """Minimal length-L window average of samples, windows fully inside."""
    return float(_window_min(values, int(max(1, round(L / spacing))), periodic=False))


def derivative_bounds(sm: SmoothMinorant, orders=(1, 2, 3)) -> dict:
    """Central finite-difference derivative maxima of a and of A/M against
    the template bounds c2^m * ((rho/2) * delta)^(-m).

    A is the transfer function of (a, eta), accumulated by trapezoid on the
    sample grid; its bound is checked with the same right-hand side, which
    dominates comfortably since dA/dy = a - eta is bounded by 1.
    """
    h = sm.step
    scale = (sm.rho / 2.0) * sm.Y.delta
    a = sm.values
    A = np.concatenate([[0.0], np.cumsum(0.5 * (a[1:] + a[:-1]) - sm.eta) * h]) / sm.M
    out = {}
    for m in orders:
        if m == 1:
            fd_a = (a[2:] - a[:-2]) / (2.0 * h)
            fd_A = (A[2:] - A[:-2]) / (2.0 * h)
        elif m == 2:
            fd_a = (a[2:] - 2.0 * a[1:-1] + a[:-2]) / (h * h)
            fd_A = (A[2:] - 2.0 * A[1:-1] + A[:-2]) / (h * h)
        elif m == 3:
            fd_a = (-a[:-4] + 2.0 * a[1:-3] - 2.0 * a[3:-1] + a[4:]) / (2.0 * h ** 3)
            fd_A = (-A[:-4] + 2.0 * A[1:-3] - 2.0 * A[3:-1] + A[4:]) / (2.0 * h ** 3)
        else:
            raise ValueError("orders up to 3 only")
        allowed = BUMP_C2 ** m / scale ** m
        max_a, max_A = float(np.max(np.abs(fd_a))), float(np.max(np.abs(fd_A)))
        out[m] = {
            "max_a": max_a,
            "max_A_over_M": max_A,
            "allowed": allowed,
            "ok": max_a <= allowed and max_A <= allowed,
        }
    return out
