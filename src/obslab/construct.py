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
The least window measure ranks every critical offset t by F(t + L) - F(t),
F the running measure of the unrolled balls, and sums the balls clipped to
the window only at offsets ranked within a rounding bound of the least.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .geometry import _positive, _window_min

# Plateau-bump template constants. The template is 1 on |u| <= 1/2 and
# falls to 0 at |u| = 1 through a quintic smoothstep. Its mean over [-1, 1]
# is exactly 3/4; its derivative maxima are 3.75, 23.2, 480 for orders
# 1..3, so 8.0 dominates max_m (max|d^m|)^(1/m) = 480^(1/3) = 7.83 with
# room for finite-difference error.
BUMP_C1 = 0.75
BUMP_C2 = 8.0
# samples a minorant may take: construct-demo peaks at about 20 bytes a
# sample traced (the samples x and a, and the bump sum's indices; its
# scans run in blocks), so about 0.2 GB
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
    # window_min_measure's pair at each L it was asked, so that a caller
    # and smooth_minorant share one search
    _least: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _positive("delta", self.delta)
        _positive("period", self.period)
        c = np.asarray(self.centers, dtype=np.float64)
        if not np.all(np.isfinite(c)):
            raise ValueError(f"centers must be finite, got {c[~np.isfinite(c)]}")
        c = np.sort(np.mod(c, self.period))
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
        """Exact (min measure, first argmin t) of |Y cap [t, t + L]| on the circle.

        The measure is piecewise linear in t, so the minimum sits at a
        critical offset where a window edge meets a ball edge. Only offsets
        ranked (_ranked_measures) within twice its bound of the least are
        measured by clipped-interval sums, 64 at a time in ascending t, each
        row summed like a 1-D array. No clipped sum is below 0, so the
        first block that holds a 0 ends the search: the pair is that of
        measuring all, bit for bit. The pair is kept for the next call at
        the same L.
        """
        _positive("L", L)
        if L in self._least:
            return self._least[L]
        if not len(self.centers):
            return 0.0, 0.0
        W = self.period
        turns, rem = divmod(L, W)  # each whole turn adds the whole measure
        iv = self.intervals(-W, 2.0 * W)  # a remainder below W never needs balls past 2W
        crit = np.unique(np.mod(np.concatenate([iv.ravel(), iv.ravel() - rem]), W))
        ranked, bound = _ranked_measures(iv, crit, rem)
        keep = crit[ranked <= ranked.min() + 2.0 * bound]
        vals = np.empty(keep.size)
        for r0 in range(0, keep.size, 64):
            lo = keep[r0:r0 + 64, None]
            hi = lo + rem
            # the clip of each interval to [lo, hi]; np.clip is twice as slow
            # with broadcast bounds
            b = np.minimum(np.maximum(iv[:, 1], lo), hi)
            b -= np.minimum(np.maximum(iv[:, 0], lo), hi)
            vals[r0:r0 + 64] = np.sum(b, axis=1)
            if not vals[r0:r0 + 64].all():
                break
        i = int(np.argmin(vals[:r0 + 64]))
        self._least[L] = float(vals[i] + turns * self.measure), float(keep[i])
        return self._least[L]


def _ranked_measures(iv: np.ndarray, t: np.ndarray, L: float) -> tuple[np.ndarray, float]:
    """(F(t + L) - F(t), bound) for sorted intervals iv, F(x) the summed
    length left of x: intervals ending by x whole (a running sum), the one
    or two holding x (more only if balls overlap) by x - lo. bound bounds
    the distance to the clipped sums: for n intervals of total length S and
    unit roundoff u, a clipped sum errs by n u S (a rounding per term, n - 1
    in their sum), each F by (n + 3) u S (lengths, running sum, partial
    terms), their difference by u S: 8 (n + 2) u S covers it with room.
    """
    lo, hi = iv.T
    whole = np.concatenate([[0.0], np.cumsum(hi - lo)])

    def F(x):
        k = np.searchsorted(hi, x, side="right")
        out, holding = whole[k], np.searchsorted(lo, x) - k
        for j in range(holding.max()):
            out += np.where(holding > j, x - lo[np.minimum(k + j, lo.size - 1)], 0.0)
        return out

    u = np.finfo(np.float64).eps / 2.0  # the unit roundoff
    return F(t + L) - F(t), 8.0 * (len(iv) + 2) * u * whole[-1]


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


def build_partition(Y: BallSystem, M: float) -> AlmostPeriodicPartition:
    """Breakpoint recursion s_k = inf{y >= s_{k-1} + M : y not in Y}.

    Starts at the first exterior point s0 >= 0 and runs until it passes
    s0 + period, so the breakpoints span at least one turn of the circle
    and every gap lies in [M, M + 2*delta]. Each step y finds by
    bisection the first unrolled ball that ends past y and, while it holds
    y, moves y to its end (balls may overlap by 1e-12, so that end may lie
    in the next). A walk stops within a turn of its start, so a table of
    the balls centred in [y0 - period, y0 + 4 period) serves every start
    up to y0 + 2 period. Starts stay below 3 periods when M < period, and
    there are two when M >= period, so the table is built at most twice.
    """
    if 2.0 * Y.delta > M:
        raise ValueError("need 2*delta <= M")
    W = Y.period
    if Y.measure >= W:
        raise ValueError("ball system covers the whole circle; no exterior point")
    pts, y, reach = [], 0.0, -math.inf
    while not pts or pts[-1] < pts[0] + W:
        if y > reach:
            lo, hi = Y.intervals(y - W, y + 4.0 * W).T
            reach = y + 2.0 * W
        k = np.searchsorted(hi, y, side="right")
        while k < lo.size and lo[k] < y:
            y = hi[k]
            k = np.searchsorted(hi, y, side="right")
        pts.append(y)
        y = y + M
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


def _cell_balls(Y: BallSystem, bp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(centers, cells): the unrolled balls centred in [bp[0], bp[-1]),
    each centre the midpoint of its interval, and the cell k of each,
    bp[k] <= centre < bp[k + 1]."""
    iv = Y.intervals(bp[0], bp[-1])
    c = 0.5 * (iv[:, 0] + iv[:, 1])
    c = c[(c >= bp[0]) & (c < bp[-1])]
    return c, np.searchsorted(bp, c, side="right") - 1


def _bump_sum(xs: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Sum of the plateau bumps on the balls (centers, radii), sampled at
    xs in one pass: each ball's samples are those in [c - r, c + r), and
    bincount adds each sample's terms in ball order (one term, as the
    balls are disjoint)."""
    i0 = np.searchsorted(xs, centers - radii)
    n = np.maximum(np.searchsorted(xs, centers + radii) - i0, 0)
    ball = np.repeat(np.arange(len(centers)), n)
    at = np.arange(n.sum()) + np.repeat(i0 - np.cumsum(n) + n, n)
    return np.bincount(at, bump_template((xs[at] - centers[ball]) / radii[ball]),
                       minlength=len(xs))


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
    centers, cells = _cell_balls(Y, bp)
    counts = np.bincount(cells, minlength=len(bp) - 1)
    t_scales = np.empty(len(bp) - 1)
    for k in range(len(bp) - 1):
        gap = bp[k + 1] - bp[k]
        mass = 2.0 * delta * counts[k]
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
    vals = _bump_sum(xs, centers, t_scales[cells] * delta)
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
    _positive("spacing", spacing)
    _positive("L", L)
    return float(_window_min(values, int(max(1, round(L / spacing))), periodic=False))


# outputs of one finite-difference block: 256 kB of float64 stay in cache
_FD_BLOCK = 1 << 15


def derivative_bounds(sm: SmoothMinorant) -> dict:
    """Central finite-difference derivative maxima of a and of A/M against
    the template bounds c2^m * ((rho/2) * delta)^(-m).

    A is the transfer function of (a, eta), accumulated by trapezoid on the
    sample grid; its bound is checked with the same right-hand side, which
    dominates comfortably since dA/dy = a - eta is bounded by 1. Blocks of
    _FD_BLOCK differences, each the whole-array arithmetic on an
    overlapping slice, give the whole array's maxima bit for bit. A is
    built one block at a time, its running sum seeded with the sum carried
    from the block before: np.cumsum adds in sequence, so each block has
    the bits of the whole-array A, and no array of A's length is held.
    """
    h = sm.step
    scale = (sm.rho / 2.0) * sm.Y.delta
    a = sm.values
    # (order m, samples a difference reads past its first, the difference)
    orders = ((1, 2, lambda f: (f[2:] - f[:-2]) / (2.0 * h)),
              (2, 2, lambda f: (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)),
              (3, 4, lambda f: (-f[:-4] + 2.0 * f[1:-3] - 2.0 * f[3:-1] + f[4:]) / (2.0 * h ** 3)))
    peaks = {m: ([], []) for m, _, _ in orders}
    carry = np.zeros(1)
    for i in range(0, a.size - 2, _FD_BLOCK):
        j = min(i + _FD_BLOCK + 4, a.size)
        # the trapezoid sums e[i:j] from e[i] (e[0] = 0), and A = e h / M
        e = np.cumsum(np.concatenate([carry, 0.5 * (a[i + 1:j] + a[i:j - 1]) - sm.eta]))
        carry = e[_FD_BLOCK:_FD_BLOCK + 1]
        A = e * h / sm.M
        for m, reach, fd in orders:
            if i < a.size - reach:
                for f, peak in zip((a[i:j], A), peaks[m]):
                    peak.append(np.max(np.abs(fd(f[:_FD_BLOCK + reach]))))
    out = {}
    for m, (max_a, max_A) in peaks.items():
        max_a, max_A = float(np.max(max_a)), float(np.max(max_A))
        allowed = BUMP_C2 ** m / scale ** m
        out[m] = {
            "max_a": max_a,
            "max_A_over_M": max_A,
            "allowed": allowed,
            "ok": max_a <= allowed and max_A <= allowed,
        }
    return out


def max_outside_support(sm: SmoothMinorant) -> float:
    """The largest sample of a outside the balls of Y, 0.0 when a <= 1_Y
    on every sample, located _FD_BLOCK samples at a time; zero samples
    cannot raise it, so only the positive ones are located."""
    tops = []
    for i in range(0, sm.values.size, _FD_BLOCK):
        v, x = sm.values[i:i + _FD_BLOCK], sm.x[i:i + _FD_BLOCK]
        pos = v > 0.0
        tops.append(np.max(v[pos][~sm.Y.contains(x[pos])], initial=0.0))
    return float(np.max(tops, initial=0.0))
