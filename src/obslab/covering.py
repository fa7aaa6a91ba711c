"""Effective coverings of the circle of directions by certified arcs.

An effective covering at budget (rho, lam) is a finite set of directions
theta, each with a cap half-width eps_theta (measured as a chord) and a
window length M_theta, such that the caps cover the circle and every entry
satisfies eps*M + 1/(eps*lam) < rho. Each entry carries a certificate: a
direction-restricted GCC constant (segments of length M have average >=
eta_floor) or a comb certificate (the length-M window profile transverse to
theta is (L, eta_floor) relatively dense).

Two constructions are provided. The periodic construction enumerates all
rational directions (P, Q)/T with T <= 2*lam^gamma and certifies long
directions by the GCC and short ones by combs; its floors come from the
inscribed-square side delta_level. The product construction covers the four
axes with comb certificates and the rest of the circle with a uniform
angular grid of GCC certificates.

Cap widths differ between the two certificate kinds in the periodic
construction: GCC entries take eps = 4/(lam^gamma T), comb entries take
eps = 2/(lam^gamma T), which is still no smaller than the rational
approximation radius (so the caps cover) while keeping eps*M <= 12/lam^gamma
for every entry; the wider choice would overshoot the budget on the
shortest comb directions.

comb_gcc_certify measures every entry by one window search on a rational
direction (p, q), whose lines close up on the torus: the entry's own, or
for an untagged GCC cap (the product grid) the primitive direction of
least T within h/M of the cap's angle (_nearest_rational), so that the
walked length-M segment stays within one sample spacing h of the cap's
own. It measures one window infimum per symmetry orbit of those
directions. For each lam it lists the scan's orbits not yet in the
cache, in scan order, and measures them on a fork-started process pool
with one worker per usable core (never more workers than orbits). Each
worker inherits the field and the pending entries at fork; a task is one
position in that list and its result one float. Tasks are submitted a
few per worker ahead of the scan and their results consumed in scan
order, so the cache, the records and the counts are those of a serial
scan, and a fail_fast scan stops without queueing the rest. The pool is
shut down before the call returns, and a worker that dies raises
BrokenProcessPool, a RuntimeError. With one usable core, inside a
daemonic process, while another thread runs, or where fork is
unavailable, the same scan measures in-process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import numbers
import os
import threading
from collections import deque
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import ObservationField, SizeError, _parse_intervals, lattice_symmetries
from .geometry import Direction, _positive, comb_profile, comb_samples, relative_density_1d
# bound here only so that bench/spans.py can wrap it; no certificate calls it
from .geometry import gcc_constant  # noqa: F401


@dataclass(frozen=True)
class RationalDirection:
    p: int
    q: int

    def __post_init__(self):
        if (self.p, self.q) == (0, 0) or math.gcd(abs(self.p), abs(self.q)) != 1:
            raise ValueError(f"({self.p}, {self.q}) is not a primitive lattice direction")

    @property
    def T(self) -> float:
        return math.hypot(self.p, self.q)

    @property
    def angle(self) -> float:
        return math.atan2(self.q, self.p) % (2.0 * math.pi)

    @property
    def direction(self) -> Direction:
        return Direction(self.angle)


@dataclass(frozen=True)
class Certificate:
    """What an entry claims: kind 'gcc' (segments of length M average at
    least eta_floor) or 'comb' (profile at window M is (L, eta_floor)
    relatively dense)."""

    kind: str
    M: float
    eta_floor: float
    L: float | None = None

    def __post_init__(self):
        if self.kind not in ("gcc", "comb"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if self.kind == "comb" and (self.L is None or self.L <= 0):
            raise ValueError("comb certificates need a transverse window L > 0")


@dataclass(frozen=True)
class CoveringEntry:
    angle: float
    eps: float
    certificate: Certificate
    rational: RationalDirection | None = None

    @property
    def M(self) -> float:
        return self.certificate.M


@dataclass
class EffectiveCovering:
    entries: list
    rho: float
    lam: float
    meta: dict = dc_field(default_factory=dict)


@dataclass
class CoveringReport:
    covers: bool
    budget_ok: bool
    gaps: list
    worst_margin: float
    n_entries: int

    @property
    def ok(self) -> bool:
        return self.covers and self.budget_ok


def _egcd(a: int, b: int) -> tuple[int, int]:
    """x, y with a*x + b*y = gcd(a, b), for nonnegative a, b."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0


def bezout_bounded(P: int, Q: int, n: int) -> tuple[int, int]:
    """Solve a*P + b*Q = n with |a| <= |Q| and |b| <= |P|.

    Exists for every 1 <= n <= |P*Q| when gcd(P, Q) = 1: take for a the
    representative of n * P^(-1) mod |Q| in [0, |Q|), which leaves
    b = (n - a*|P|) / |Q| inside (-|P|, |P|].
    """
    P, Q, n = int(P), int(Q), int(n)
    if math.gcd(abs(P), abs(Q)) != 1:
        raise ValueError(f"gcd({P}, {Q}) != 1")
    if not 1 <= n <= abs(P * Q):
        raise ValueError(f"n = {n} outside [1, |P*Q|] = [1, {abs(P * Q)}]")
    sp = 1 if P > 0 else -1
    sq = 1 if Q > 0 else -1
    p, q = abs(P), abs(Q)
    a0, _ = _egcd(p, q)
    a = (n * a0) % q
    b = (n - a * p) // q
    assert a * p + b * q == n and abs(a) <= q and abs(b) <= p
    return a * sp, b * sq


def _convergents_capped(t: float, cap: int) -> tuple[int, int]:
    """Last continued-fraction convergent p/q of t in [0, 1] with q <= cap."""
    p_prev, q_prev, p_cur, q_cur = 0, 1, 1, 0  # standard h/k seed pairs
    r = t
    for _ in range(64):
        a = math.floor(r)
        p_next = a * p_cur + p_prev
        q_next = a * q_cur + q_prev
        if q_next > cap:
            break
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_next, q_next
        frac = r - a
        if frac < 1e-15:
            break
        r = 1.0 / frac
    return p_cur, q_cur


def dirichlet_direction(phi, lam: float, gamma: float = 0.25) -> RationalDirection:
    """Rational direction (P, Q)/T with T <= 2*lam^gamma and chord distance
    |phi - (P,Q)/T| <= 2/(lam^gamma * T).

    Folds the direction into the octant 0 <= y <= x, takes the last
    continued-fraction convergent of the slope with denominator <=
    floor(lam^gamma), and unfolds it (_unfold).
    """
    if lam < 1:
        raise ValueError("lam must be at least 1")
    if not 0 < gamma < 0.5:
        raise ValueError("gamma must lie in (0, 1/2)")
    if isinstance(phi, Direction):
        x, y = phi.vector
    else:
        v = np.asarray(phi, dtype=np.float64)
        nrm = math.hypot(v[0], v[1])
        if nrm == 0:
            raise ValueError("zero direction")
        x, y = v[0] / nrm, v[1] / nrm
    cap = max(1, math.floor(lam ** gamma))
    num, den = _convergents_capped(min(abs(x), abs(y)) / max(abs(x), abs(y)), cap)
    return _unfold(x, y, num, den)


def _unfold(x: float, y: float, num: int, den: int) -> RationalDirection:
    """The direction (den, num) of the octant 0 <= y <= x moved back to the
    octant of (x, y) by the signed permutation that folds (x, y) there."""
    p, q = (num, den) if abs(y) > abs(x) else (den, num)
    return RationalDirection(int(math.copysign(p, x)), int(math.copysign(q, y)))


def farey_directions(cap_T: float) -> list[RationalDirection]:
    """All primitive lattice directions with T = |(P, Q)| <= cap_T,
    sorted by (T, angle)."""
    R = int(math.floor(cap_T))
    out = []
    for p in range(-R, R + 1):
        for q in range(-R, R + 1):
            if (p, q) == (0, 0) or p * p + q * q > cap_T * cap_T:
                continue
            if math.gcd(abs(p), abs(q)) == 1:
                out.append(RationalDirection(p, q))
    out.sort(key=lambda r: (r.T, r.angle))
    return out


MAX_COVERING_SIZE = 100_000  # lattice points a covering may scan, or entries it may hold


def periodic_effective_covering(
    delta_level: float, rho: float, lam: float, gamma: float = 0.25
) -> EffectiveCovering:
    """Covering by all rational directions with T <= 2*lam^gamma.

    Long directions (T >= T0 = 1/delta_level) carry GCC certificates with
    M = T + 2 and floor 0.9 * delta^2 T / (2(T+2)) (a segment of that
    length meets at least floor(delta*T) >= delta*T/2 translates of a
    delta-square edge). Short directions carry comb certificates with
    M = 2T + 4, L = 1/T, floor 0.9 * T delta^2/(2T+4). At T = T0 exactly,
    the GCC certificate is preferred (recorded in meta).
    """
    if not 0 < delta_level <= 1:
        raise ValueError("delta_level must lie in (0, 1]")
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not 0 < gamma < 0.5:
        raise ValueError("gamma must lie in (0, 1/2)")
    lam0 = (20.0 / rho) ** 4
    if lam < lam0 * (1.0 - 1e-12):
        raise ValueError(f"lam = {lam} below the admissible floor lam0 = (20/rho)^4 = {lam0}")
    cap = lam ** gamma
    n_scan = (2 * math.floor(2.0 * cap) + 1) ** 2  # what farey_directions(2 cap) visits
    if n_scan > MAX_COVERING_SIZE:
        raise ValueError(f"the covering at lam = {lam:g}, gamma = {gamma:g} scans {n_scan} "
                         f"lattice points, more than MAX_COVERING_SIZE = {MAX_COVERING_SIZE}")
    T0 = 1.0 / delta_level
    entries = []
    for rat in farey_directions(2.0 * cap):
        T = rat.T
        if T >= T0:
            eps = 4.0 / (cap * T)
            eta = 0.9 * delta_level ** 2 * T / (2.0 * (T + 2.0))
            cert = Certificate("gcc", T + 2.0, eta)
        else:
            eps = 2.0 / (cap * T)
            eta = 0.9 * T * delta_level ** 2 / (2.0 * T + 4.0)
            cert = Certificate("comb", 2.0 * T + 4.0, eta, L=1.0 / T)
        entries.append(CoveringEntry(rat.angle, eps, cert, rat))
    meta = {
        "builder": "periodic",
        "delta_level": delta_level,
        "gamma": gamma,
        "T0": T0,
        "lam0": lam0,
        "threshold_preference": "gcc",
        "floor_scale": 0.9,
    }
    return EffectiveCovering(entries, rho, lam, meta)


def product_effective_covering(
    M: float,
    L_diag: float,
    rho: float,
    lam: float,
    eta_axis: float = 0.0,
    eta_diag: float = 0.0,
) -> EffectiveCovering:
    """Axis caps with comb certificates plus an angular grid of GCC caps.

    eps1 = rho/(4M) on the axes, eps2 = rho/(4 L_diag) on the grid; the grid
    spans each quadrant between the axis caps with pitch one cap width, so
    the union covers. Certificate floors are supplied by the caller (the
    construction itself is family-agnostic).
    """
    if M <= 0 or L_diag <= 0:
        raise ValueError("M and L_diag must be positive")
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    lam0 = 8.0 * max(L_diag, M) / rho ** 2
    if lam < lam0 * (1.0 - 1e-12):
        raise ValueError(f"lam = {lam} below the admissible floor lam0 = 8*max(L, M)/rho^2 = {lam0}")
    eps1 = rho / (4.0 * M)
    eps2 = rho / (4.0 * L_diag)
    w1 = 2.0 * math.asin(min(eps1, 2.0) / 2.0)
    w2 = 2.0 * math.asin(min(eps2, 2.0) / 2.0)
    entries = []
    for k in range(4):
        cert = Certificate("comb", M, eta_axis, L=M)
        entries.append(CoveringEntry(k * math.pi / 2.0, eps1, cert, _AXES[k]))
    a_lo, a_hi = w1, math.pi / 2.0 - w1
    if a_lo < a_hi:
        n = int(math.ceil((a_hi - a_lo) / (2.0 * w2)))
        if 4 + 4 * n > MAX_COVERING_SIZE:
            raise ValueError(f"the product covering at lam = {lam:g}, rho = {rho:g} holds {4 + 4 * n} "
                             f"entries, more than MAX_COVERING_SIZE = {MAX_COVERING_SIZE}")
        base = a_lo + (2.0 * np.arange(n) + 1.0) * w2
        for ang in base:
            for quadrant in range(4):
                phi = (quadrant * math.pi / 2.0 + ang) % (2.0 * math.pi)
                cert = Certificate("gcc", L_diag, eta_diag)
                entries.append(CoveringEntry(phi, eps2, cert, None))
    meta = {
        "builder": "product",
        "M": M,
        "L_diag": L_diag,
        "eps1": eps1,
        "eps2": eps2,
        "lam0": lam0,
    }
    return EffectiveCovering(entries, rho, lam, meta)


_AXES = [
    RationalDirection(1, 0),
    RationalDirection(0, 1),
    RationalDirection(-1, 0),
    RationalDirection(0, -1),
]


def verify_covering(cov: EffectiveCovering, tol: float = 1e-12) -> CoveringReport:
    """Exact interval-union check of the caps plus per-entry budget check.

    Chord half-widths eps convert to angular half-widths 2*asin(eps/2);
    entries with eps >= 2 cover everything. budget requires the strict
    inequality eps*M + 1/(eps*lam) < rho for every entry; the worst margin
    rho - (eps*M + 1/(eps*lam)) is reported.
    """
    arcs = []
    for e in cov.entries:
        if e.eps >= 2.0:
            arcs.append((0.0, 2.0 * math.pi))
            continue
        w = 2.0 * math.asin(e.eps / 2.0)
        c = e.angle % (2.0 * math.pi)
        lo, hi = c - w, c + w
        if lo < 0:
            arcs.append((lo + 2.0 * math.pi, 2.0 * math.pi))
            arcs.append((0.0, hi))
        elif hi > 2.0 * math.pi:
            arcs.append((lo, 2.0 * math.pi))
            arcs.append((0.0, hi - 2.0 * math.pi))
        else:
            arcs.append((lo, hi))
    arcs.sort()
    gaps = []
    reach = 0.0
    for lo, hi in arcs:
        if lo > reach + tol:
            gaps.append((reach, lo))
        reach = max(reach, hi)
    if reach < 2.0 * math.pi - tol:
        gaps.append((reach, 2.0 * math.pi))
    covers = not gaps

    worst_margin = min((cov.rho - (e.eps * e.M + 1.0 / (e.eps * cov.lam)) for e in cov.entries),
                       default=math.inf)
    return CoveringReport(covers, worst_margin > 0.0, gaps, worst_margin, len(cov.entries))


def covering_to_dict(cov: EffectiveCovering) -> dict:
    entries = []
    for e in cov.entries:
        rec = {
            "angle": e.angle,
            "eps": e.eps,
            "kind": e.certificate.kind,
            "M": e.certificate.M,
            "L": e.certificate.L,
            "eta_floor": e.certificate.eta_floor,
        }
        if e.rational is not None:
            rec["p"], rec["q"] = e.rational.p, e.rational.q
        entries.append(rec)
    return {"rho": cov.rho, "lam": cov.lam, "meta": dict(cov.meta), "entries": entries}


def _family_param(field: ObservationField, key: str):
    """A parameter the field's family record must carry (make_field records
    every one, defaults included)."""
    if key not in field.family:
        raise ValueError(f"field family {field.family.get('name')!r} records no {key!r} parameter")
    return field.family[key]


def _product_family_plan(field: ObservationField, rho: float) -> dict:
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    ex = _parse_intervals(_family_param(field, "intervals_x"))
    fy = _parse_intervals(_family_param(field, "intervals_y"))
    d1 = sum(hi - lo for lo, hi in ex)
    d2 = sum(hi - lo for lo, hi in fy)
    if d1 + d2 <= 1.0:
        raise ValueError(
            f"product certificates need delta1 + delta2 > 1, got {d1} + {d2}"
        )
    M = field.period  # the interval unions are 1-periodic; M is one period
    eps1 = rho / (4.0 * M)
    if eps1 / 2.0 >= 0.25:
        raise ValueError("rho too large: the diagonal-direction lemma needs eps1/2 < 1/4")
    alpha = (d1 + d2 + 1.0) / (2.0 * (d1 + d2))
    L_diag = 1.0 / ((1.0 - alpha) * (eps1 / 2.0))
    eta_diag = (d1 + d2 - 1.0) / 2.0
    return {
        "M": M,
        "L_diag": L_diag,
        "eta_axis": 0.9 * d1 * d2,
        "eta_diag": 0.9 * eta_diag,
        "delta1": d1,
        "delta2": d2,
    }


def default_covering_builder(field: ObservationField, rho: float, gamma: float = 0.25):
    """Family-appropriate covering builder lam -> EffectiveCovering; other
    families raise ValueError."""
    name = field.family.get("name")
    if name in ("constant", "periodic-square", "half-strip-comb"):
        if name != "constant" and abs(field.period - round(field.period)) > 1e-9:
            raise ValueError(
                f"family {name!r} repeats with unit period, so rational directions "
                f"close with the torus only when the field period is a positive "
                f"integer; got period = {field.period}"
            )
        if name == "periodic-square":
            delta = float(_family_param(field, "delta"))
        elif name == "half-strip-comb":
            delta = 0.5
        else:
            delta = 1.0

        def build(lam):
            return periodic_effective_covering(delta, rho, lam, gamma)

        return build
    if name == "product":
        plan = _product_family_plan(field, rho)

        def build(lam):
            cov = product_effective_covering(
                plan["M"], plan["L_diag"], rho, lam, plan["eta_axis"], plan["eta_diag"]
            )
            cov.meta.update({k: plan[k] for k in ("delta1", "delta2")})
            cov.meta["floor_scale"] = 0.9
            return cov

        return build
    raise ValueError(f"no built-in covering for family {name!r}")


@dataclass
class CertifyReport:
    passed: bool
    per_lambda: list
    symmetry: list


def _measure_entry(field: ObservationField, entry: CoveringEntry, n_offsets: int,
                   samples_per_unit: float) -> float:
    """Measured certificate constant for one covering entry, on the
    rational direction _measured_entries gave it: the entry's own, or for
    an untagged GCC cap the one of least T within h/M of its angle, so
    that its length-M segment stays within one sample spacing h of the
    cap's own.

    Rational directions close up on the torus: the lifted function is
    periodic with period T * box along the direction and box / T across it,
    so a dense cumulative-sum window search over one closed geodesic bundle
    is exhaustive at the sample resolution. The transverse extent shrinks
    like 1/T, so the offset count is capped at three samples per grid cell
    (never fewer than 8) to keep long directions affordable.
    """
    cert = entry.certificate
    x_extent, t_extent, n_x, _ = _comb_lattice(field, entry.rational.T, n_offsets,
                                               samples_per_unit)
    prof = comb_profile(field, entry.rational.direction, cert.M, x_extent=x_extent,
                        t_extent=t_extent, n_x=n_x, samples_per_unit=samples_per_unit,
                        periodic_t=True)
    if cert.kind == "gcc":
        return float(prof.values.min())
    return relative_density_1d(prof, cert.L)


def _simplest_fraction(lo: float, hi: float) -> tuple[int, int]:
    """(p, q): the fraction p/q in [lo, hi], 0 <= lo <= hi, of least q,
    which also has the least p. Continued fractions of the two endpoints,
    in exact integer arithmetic, until an integer falls in the interval."""
    a, b = lo.as_integer_ratio()
    c, d = hi.as_integer_ratio()
    h0, k0, h1, k1 = 0, 1, 1, 0  # the last two convergents
    while True:
        f = a // b
        if f * b == a or (f + 1) * d <= c:  # lo is an integer, or one lies in (lo, hi]
            t = f if f * b == a else f + 1
            return t * h1 + h0, t * k1 + k0
        h0, k0, h1, k1 = h1, k1, f * h1 + h0, f * k1 + k0
        a, b, c, d = d, c - f * d, b, a - f * b  # [1/(hi - f), 1/(lo - f)]


def _nearest_rational(angle: float, tol: float) -> RationalDirection:
    """The primitive direction (p, q) of least T whose angle lies within
    tol of angle: in the octant 0 <= y <= x, where the lattice's signed
    permutations fold the angle, the simplest slope in the tolerance
    interval (an axis when it reaches 0, the diagonal when it reaches
    pi/4), unfolded. So it commutes with every signed permutation, and
    _orbit_key merges mapped directions as the maps merge the angles.
    """
    x, y = math.cos(angle), math.sin(angle)
    r = math.atan2(min(abs(x), abs(y)), max(abs(x), abs(y)))
    lo = 0.0 if r <= tol else math.tan(r - tol)
    hi = 1.0 if r + tol >= math.pi / 4.0 else math.tan(r + tol)  # tan(pi/4) < 1 in floats
    return _unfold(x, y, *_simplest_fraction(lo, hi))


def _measured_entries(field: ObservationField, cov: EffectiveCovering) -> list:
    """The covering's entries, each tagged with the rational direction it
    is measured on: its own, or the one _nearest_rational finds within
    h / M of its angle."""
    return [e if e.rational is not None
            else dataclasses.replace(e, rational=_nearest_rational(e.angle, field.h / e.M))
            for e in cov.entries]


def _comb_lattice(field, T: float, n_offsets: int, samples_per_unit: float):
    """(x_extent, t_extent, n_x, n_t) of the comb profile that measures an
    entry whose rational direction has length T (see _measure_entry)."""
    x_extent, t_extent = field.period / T, T * field.period
    n_x = int(min(n_offsets, max(8, math.ceil(3.0 * x_extent / field.h))))
    return x_extent, t_extent, n_x, comb_samples(t_extent, samples_per_unit)


TASKS_AHEAD = 4  # tasks queued per worker ahead of the scan
# samples (n_x x n_t) a certificate's comb profile may take: about 0.3-0.7 s on
# one core of a 2-vCPU x86-64 VM; streamed by rows, it holds ~48 B a row sample
MAX_PROFILE_SAMPLES = 10_000_000

_pending = None  # (field, n_offsets, samples_per_unit, entries) in a measuring worker


def _worker_count() -> int:
    """Processes that measure at once: the usable cores, or 1 where no
    worker can be forked safely: a daemonic process may have no children,
    a fork taken while another thread holds a lock leaves that lock held
    in the child, and some platforms have no fork."""
    import multiprocessing  # deferred, as in _measurements
    if (multiprocessing.current_process().daemon or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _init_worker(pending) -> None:
    global _pending
    _pending = pending


def _measure_pending(k: int) -> float:
    field, n_offsets, samples_per_unit, entries = _pending
    return _measure_entry(field, entries[k], n_offsets, samples_per_unit)


def _measurements(field, entries, n_offsets: int, samples_per_unit: float):
    """Measured constants of entries, yielded in order.

    With more than one worker the entries are measured on a fork-started
    pool, TASKS_AHEAD tasks per worker ahead of the consumer; closing the
    generator cancels what is queued and waits for the workers to exit.
    """
    workers = min(_worker_count(), len(entries))
    if workers <= 1:
        yield from (_measure_entry(field, e, n_offsets, samples_per_unit) for e in entries)
        return
    # imported here: only a pool needs them, and an import costs every CLI start
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a spawned worker would import numpy and obslab again
    # (about 0.1 s) and be sent the field by pickle
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker,
                               initargs=((field, n_offsets, samples_per_unit, entries),))
    try:
        tasks = iter(range(len(entries)))
        window = deque(pool.submit(_measure_pending, k)
                       for k in itertools.islice(tasks, TASKS_AHEAD * workers))
        while window:
            value = window.popleft().result()
            window.extend(pool.submit(_measure_pending, k) for k in itertools.islice(tasks, 1))
            yield value
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def comb_gcc_certify(
    field: ObservationField,
    rho: float,
    lambda_list,
    gamma: float = 0.25,
    fail_fast: bool = False,
    n_offsets: int = 32,
    samples_per_unit: float = 64.0,
) -> CertifyReport:
    """Build the family's default covering for each lam and measure every
    entry's certificate.

    An entry passes when its measured constant exceeds its declared floor.
    A certificate's infimum depends only on the certificate and the orbit
    of its direction under direction reversal and the field's lattice
    symmetries (fields.lattice_symmetries, recorded as the report's
    symmetry), not on lam. Measurements are therefore cached by orbit,
    across entries and lambda values: each orbit is measured once, on its
    first scanned member, and every member reports that value. Per lam,
    n_measured counts the entries scanned and n_measurements the
    measurements taken during that scan. With fail_fast, entries are
    scanned in (T, angle) order and the scan stops at the first failure
    for that lam. The orbits are measured on every usable core (see the
    module docstring); the report is the same as with one. A comb profile
    of more than MAX_PROFILE_SAMPLES samples (n_x x n_t) raises SizeError
    naming samples_per_unit before anything is measured.
    """
    lambda_list = list(lambda_list)
    if not lambda_list:
        raise ValueError("lambda_list must be non-empty")
    if not isinstance(n_offsets, numbers.Integral) or n_offsets < 1:
        raise ValueError(f"n_offsets must be a positive integer, got {n_offsets!r}")
    _positive("samples_per_unit", samples_per_unit)
    build = default_covering_builder(field, rho, gamma)
    coverings = [build(lam) for lam in lambda_list]  # refuse any lam before measuring
    scans = [_measured_entries(field, cov) for cov in coverings]
    lengths = {e.rational.T for entries in scans for e in entries}
    for T in sorted(lengths):
        *_, n_x, n_t = _comb_lattice(field, T, n_offsets, samples_per_unit)
        if n_x * n_t > MAX_PROFILE_SAMPLES:
            raise SizeError("samples_per_unit", (
                f"the comb profile of a direction of length T = {T:g} needs {n_x} x {n_t} ="
                f" {n_x * n_t} samples at {samples_per_unit:g} samples per unit length; the"
                f" limit is MAX_PROFILE_SAMPLES = {MAX_PROFILE_SAMPLES}"))
    symmetry = lattice_symmetries(field)
    maps = _orbit_maps(symmetry)
    cache: dict = {}
    per_lambda = []
    all_pass = True
    for lam, cov, entries in zip(lambda_list, coverings, scans):
        ver = verify_covering(cov)
        order = sorted(range(len(entries)), key=lambda i: (entries[i].rational.T, entries[i].angle))
        keys = [_orbit_key(entries[i], maps) for i in order]
        pending = {}
        for i, key in zip(order, keys):
            if key not in cache:
                pending.setdefault(key, entries[i])
        records = []
        lam_pass = ver.ok
        stopped = False
        taken = len(cache)
        with contextlib.closing(_measurements(field, list(pending.values()), n_offsets,
                                              samples_per_unit)) as measurements:
            for i, key in zip(order, keys):
                e = entries[i]
                if key not in cache:
                    cache[key] = next(measurements)
                measured = cache[key]
                cert = e.certificate
                ok = measured > cert.eta_floor
                records.append({"angle": e.angle, "p": e.rational.p, "q": e.rational.q,
                                "T": e.rational.T, "kind": cert.kind, "M": cert.M, "L": cert.L,
                                "eps": e.eps, "floor": cert.eta_floor, "measured": measured,
                                "pass": bool(ok)})
                if not ok:
                    lam_pass = False
                    if fail_fast:
                        stopped = True
                        break
        worst = None
        if records:
            worst = min(range(len(records)), key=lambda j: records[j]["measured"] - records[j]["floor"])
        per_lambda.append(
            {
                "lam": float(lam),
                "covering_meta": dict(cov.meta),
                "covers": ver.covers,
                "budget_ok": ver.budget_ok,
                "n_entries": len(cov.entries),
                "n_measured": len(records),
                "n_measurements": len(cache) - taken,
                "n_pass": sum(r["pass"] for r in records),
                "stopped_early": stopped,
                "worst_index": worst,
                "worst_margin": (records[worst]["measured"] - records[worst]["floor"]) if worst is not None else None,
                "all_pass": lam_pass,
                "entries": records,
            }
        )
        all_pass = all_pass and lam_pass
    return CertifyReport(passed=all_pass, per_lambda=per_lambda, symmetry=symmetry)


def _orbit_maps(symmetry) -> list[tuple[int, int, int, int]]:
    """Linear parts (a, b, c, d), acting as (x, y) -> (a x + b y, c x + d y),
    of the group generated by direction reversal and the lattice symmetries
    found by fields.lattice_symmetries."""
    gens = [(-1, 0, 0, -1)]
    for rec in symmetry:
        if rec["kind"] == "transpose":
            gens.append((0, 1, 1, 0))
        else:
            gens.append((-1, 0, 0, 1) if rec["axis"] == 0 else (1, 0, 0, -1))
    group = {(1, 0, 0, 1)}
    while True:
        grown = group | {(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
                         for a, b, c, d in group for e, f, g, h in gens}
        if grown == group:
            return sorted(group)
        group = grown


def _orbit_key(entry: CoveringEntry, maps) -> tuple:
    """Cache key shared by every entry whose rational direction lies in
    one orbit of maps and whose certificate is the same: the largest image
    of (p, q). With reversal alone this is the +-(p, q) key."""
    cert = entry.certificate
    p, q = entry.rational.p, entry.rational.q
    return (cert.kind, *max((a * p + b * q, c * p + d * q) for a, b, c, d in maps), cert.M, cert.L)
