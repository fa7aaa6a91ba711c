"""Observation fields on periodic boxes.

An observation field is a function a : box -> [0, 1] stored as samples on a
uniform grid. The box is [origin, origin + period)^dim and is always treated
as a torus: evaluation wraps around, and averaging kernels wrap around. Sets
that are not genuinely periodic (the inverse-power region, the half-strip
comb) are represented by sampling their indicator on a large centered box;
callers that need boundary-free answers keep their probes away from the box
edge.

Grid convention: values[i] (1d) or values[i, j] (2d) is the sample at
x = origin + i * h, y = origin + j * h with h = period / grid. The first
index runs along the x axis.
"""

from __future__ import annotations

import configparser
import struct
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np
from scipy import ndimage

_GRID_MAGIC = b"OGRD"
_GRID_VERSION = 1
# families that sample a non-periodic set on a finite box centered at 0
TRUNCATED_FAMILIES = ("e-beta", "half-strip-comb")


@dataclass
class ObservationField:
    """Sampled density a : box -> [0, 1] on a uniform periodic grid."""

    dim: int
    period: float
    grid: int
    values: np.ndarray
    origin: float = 0.0
    family: dict = dc_field(default_factory=dict)
    modulus: float = 0.0

    @property
    def h(self) -> float:
        return self.period / self.grid

    def describe(self) -> dict:
        """Plain-dict descriptor for report embedding."""
        return {
            "dim": self.dim,
            "period": self.period,
            "grid": self.grid,
            "origin": self.origin,
            "family": dict(self.family),
            "modulus": self.modulus,
        }


def _check_shape(dim: int, grid: int, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    expected = (grid,) if dim == 1 else (grid, grid)
    if values.shape != expected:
        raise ValueError(
            f"values shape {values.shape} does not match dim={dim}, grid={grid}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    if np.any(values < -1e-12) or np.any(values > 1 + 1e-12):
        raise ValueError("field values must lie in [0, 1]")
    return np.clip(values, 0.0, 1.0)


def _grid_points(dim: int, period: float, grid: int, origin: float):
    ax = origin + (period / grid) * np.arange(grid)
    if dim == 1:
        return (ax,)
    return np.meshgrid(ax, ax, indexing="ij")


def _member_constant(pts, value):
    base = pts[0]
    return np.full(np.shape(base), float(value))


def _member_periodic_square(pts, delta):
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    inside = np.ones(np.shape(pts[0]), dtype=bool)
    for coord in pts:
        inside &= np.mod(coord, 1.0) < delta
    return inside.astype(np.float64)


def _parse_intervals(spec):
    """Accept [(lo, hi), ...] or a string 'lo:hi, lo:hi' with 0<=lo<hi<=1."""
    if isinstance(spec, str):
        parts = [p for p in spec.split(",") if p.strip()]
        spec = [tuple(float(v) for v in p.split(":")) for p in parts]
    out = []
    for lo, hi in spec:
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError(f"interval ({lo}, {hi}) must satisfy 0 <= lo < hi <= 1")
        out.append((float(lo), float(hi)))
    if not out:
        raise ValueError("need at least one interval")
    return out


def _member_intervals_1d(coord, intervals):
    frac = np.mod(coord, 1.0)
    inside = np.zeros(np.shape(coord), dtype=bool)
    for lo, hi in intervals:
        inside |= (frac >= lo) & (frac < hi)
    return inside


def _member_product(pts, intervals_x, intervals_y):
    ex = _parse_intervals(intervals_x)
    fy = _parse_intervals(intervals_y)
    inside = _member_intervals_1d(pts[0], ex) & _member_intervals_1d(pts[1], fy)
    return inside.astype(np.float64)


def _member_e_beta(pts, beta):
    """Region above inverse-power profiles of the |x| coordinate.

    Outside the unit slab the floor is |x|^(-beta); inside it steepens to
    |x|^(-1/beta), so the set hugs both coordinate axes without touching
    them. Every axis-parallel line through the origin misses the set.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    x, y = pts
    ax, ay = np.abs(x), np.abs(y)
    with np.errstate(divide="ignore", over="ignore"):
        outer = ay > ax ** (-beta)
        inner = ay > ax ** (-1.0 / beta)
    return np.where(ax >= 1.0, outer, inner).astype(np.float64)


def _member_half_strip_comb(pts):
    """Upper half-plane keeps frac(x) < 1/2, lower half-plane the complement.

    The union is 1-periodic in x and meets every non-vertical line, yet any
    vertical line sees only a half-line of it, so sliding vertical windows
    can be made to miss the set entirely.
    """
    x, y = pts
    left = np.mod(x, 1.0) < 0.5
    return np.where(y >= 0.0, left, ~left).astype(np.float64)


_FAMILIES = {
    "constant": {
        "member": _member_constant,
        "dims": (1, 2),
        "params": {"value": 1.0},
        "doc": "a == value everywhere; value in [0, 1], default 1.0",
    },
    "periodic-square": {
        "member": _member_periodic_square,
        "dims": (1, 2),
        "params": {"delta": 0.5},
        "doc": "1-periodic indicator of [0, delta)^dim in each unit cell",
    },
    "product": {
        "member": _member_product,
        "dims": (2,),
        "params": {"intervals_x": "0:0.6", "intervals_y": "0:0.6"},
        "doc": "E x F with E, F 1-periodic interval unions given as 'lo:hi, ...'",
    },
    "e-beta": {
        "member": _member_e_beta,
        "dims": (2,),
        "params": {"beta": 0.5},
        "doc": "region |y| > |x|^(-beta) (|x| >= 1), |y| > |x|^(-1/beta) (|x| < 1); misses both axes",
    },
    "half-strip-comb": {
        "member": _member_half_strip_comb,
        "dims": (2,),
        "params": {},
        "doc": "frac(x) < 1/2 for y >= 0 and frac(x) >= 1/2 for y < 0; defeats vertical combs",
    },
    "custom-grid": {
        "member": None,
        "dims": (1, 2),
        "params": {"grid_file": None},
        "doc": "samples from a raw grid file (save_grid / load_grid): magic OGRD, little-endian "
               "uint32 version, dim, grid and float64 period, origin, then row-major float64 values",
    },
}


def family_catalog() -> dict:
    """Name -> {dims, params, doc} for every built-in family; a parameter
    whose value is None has no default and must be given."""
    return {
        name: {"dims": info["dims"], "params": dict(info["params"]), "doc": info["doc"]}
        for name, info in _FAMILIES.items()
    }


def make_field(
    family: str,
    *,
    dim: int,
    period: float,
    grid: int,
    origin: float | str | None = None,
    values: np.ndarray | None = None,
    **params,
) -> ObservationField:
    """Sample a built-in family on a uniform grid.

    Omitted family parameters take their catalog defaults, and the family
    record names every parameter used. origin may be a float, the string
    "centered" (box centered at 0), or None, which picks "centered" for
    the TRUNCATED_FAMILIES and 0.0 otherwise.
    """
    if family not in _FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; known: {', '.join(sorted(_FAMILIES))}"
        )
    info = _FAMILIES[family]
    if dim not in info["dims"]:
        raise ValueError(f"family {family!r} supports dim in {info['dims']}, got {dim}")
    if not 0 < period < np.inf or grid < 2:
        raise ValueError(f"need a finite period > 0 and grid >= 2, got period={period}, grid={grid}")
    if origin is None:
        origin = "centered" if family in TRUNCATED_FAMILIES else 0.0
    if origin == "centered":
        origin = -period / 2.0
    origin = float(origin)
    if not np.isfinite(origin):
        raise ValueError(f"origin must be finite, got {origin}")

    if family == "custom-grid":
        if values is None:
            raise ValueError("custom-grid needs explicit values")
        vals = _check_shape(dim, grid, values)
    else:
        unknown = sorted(set(params) - set(info["params"]))
        if unknown:
            raise ValueError(f"family {family!r} takes no parameter {', '.join(unknown)}")
        params = {**info["params"], **params}
        pts = _grid_points(dim, period, grid, origin)
        vals = np.asarray(info["member"](pts, **params), dtype=np.float64)
        vals = _check_shape(dim, grid, vals)
    fam = {"name": family, **{k: (v if np.isscalar(v) else str(v)) for k, v in params.items()}}
    return ObservationField(dim, float(period), int(grid), vals, origin, fam)


def evaluate(field: ObservationField, points) -> np.ndarray:
    """Bilinear interpolation of the samples, periodic in every axis.

    points: array of shape (..., dim) for dim = 2, or (...) for dim = 1.
    Exact at grid nodes. Returns an array of the batch shape.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = field.grid
    h = field.h
    if field.dim == 1:
        u = (pts - field.origin) / h
        i0 = np.floor(u).astype(np.int64)
        f = u - i0
        i0 = np.mod(i0, n)
        i1 = (i0 + 1) % n
        v = field.values
        return (1.0 - f) * v[i0] + f * v[i1]
    if pts.shape[-1] != 2:
        raise ValueError("2d field expects points of shape (..., 2)")
    u = (pts[..., 0] - field.origin) / h
    w = (pts[..., 1] - field.origin) / h
    i0 = np.floor(u).astype(np.int64)
    j0 = np.floor(w).astype(np.int64)
    fu = u - i0
    fw = w - j0
    i0 = np.mod(i0, n)
    j0 = np.mod(j0, n)
    i1 = (i0 + 1) % n
    j1 = (j0 + 1) % n
    v = field.values
    return (
        v[i0, j0] * (1 - fu) * (1 - fw)
        + v[i1, j0] * fu * (1 - fw)
        + v[i0, j1] * (1 - fu) * fw
        + v[i1, j1] * fu * fw
    )


def lattice_symmetries(field: ObservationField) -> list[dict]:
    """Lattice symmetries of the samples.

    Finds the transpose values[i, j] = values[j, i] ({"kind": "transpose"})
    and, per axis, a reflection i -> (s - i) mod grid ({"kind": "flip",
    "axis": k, "s": s}, the least such s). Candidate shifts come from the
    axis's 1d marginal and each is verified on the full grid. Equality is
    exact, or within 1e-12 on a mollified field (the box filter breaks
    exactness in the last bits). The bilinear interpolant inherits every
    symmetry found. Truncated families have none, since their box edge is
    no symmetry of the set they sample.
    """
    if field.family.get("name") in TRUNCATED_FAMILIES:
        return []
    v = field.values
    tol = 1e-12 if field.modulus > 0 else 0.0

    def holds(w):
        return float(np.max(np.abs(w - v))) <= tol

    found = []
    if field.dim == 2 and holds(v.T):
        found.append({"kind": "transpose"})
    n = field.grid
    for axis in range(field.dim):
        marginal = v.sum(axis=tuple(a for a in range(field.dim) if a != axis))
        mirrored = np.flip(marginal)
        mtol = (v.size // n) * (tol + 1e-12)  # tol per summed sample, plus rounding
        for s in range(n):
            # np.roll(np.flip(x), s + 1)[i] == x[(s - i) % n]
            if (float(np.max(np.abs(np.roll(mirrored, s + 1) - marginal))) <= mtol
                    and holds(np.roll(np.flip(v, axis), s + 1, axis=axis))):
                found.append({"kind": "flip", "axis": axis, "s": s})
                break
    return found


def mollify(field: ObservationField, radius: float) -> ObservationField:
    """Periodic box average of half-width radius along every axis.

    The radius is rounded to a whole number of grid steps; the realized
    half-width is recorded as the field's modulus. Values stay in [0, 1].
    """
    if not 0 <= radius < np.inf:
        raise ValueError(f"mollify radius must be finite and nonnegative, got {radius}")
    w = int(round(radius / field.h))
    if w == 0:
        return ObservationField(
            field.dim, field.period, field.grid, field.values.copy(),
            field.origin, dict(field.family), field.modulus,
        )
    size = 2 * w + 1
    vals = field.values
    for axis in range(field.dim):
        vals = ndimage.uniform_filter1d(vals, size=size, axis=axis, mode="wrap")
    vals = np.clip(vals, 0.0, 1.0)
    fam = dict(field.family)
    fam["mollify"] = w * field.h
    return ObservationField(
        field.dim, field.period, field.grid, vals, field.origin, fam, w * field.h
    )


def save_grid(field: ObservationField, path) -> None:
    """Write a raw grid file.

    Layout: 4-byte magic "OGRD", then little-endian u32 version, u32 dim,
    u32 grid, f64 period, f64 origin, then grid^dim float64 samples in row
    major order (x index slowest for dim = 2).
    """
    path = Path(path)
    header = _GRID_MAGIC + struct.pack(
        "<IIIdd", _GRID_VERSION, field.dim, field.grid, field.period, field.origin
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def load_grid(path) -> ObservationField:
    """Read a raw grid file written by save_grid."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != _GRID_MAGIC or len(raw) < 4 + 28:
        raise ValueError(f"{path}: not a grid file (bad magic or short header)")
    version, dim, grid, period, origin = struct.unpack("<IIIdd", raw[4 : 4 + 28])
    if version != _GRID_VERSION:
        raise ValueError(f"{path}: unsupported grid file version {version}")
    if dim not in (1, 2) or grid < 2:
        raise ValueError(f"{path}: need dim in (1, 2) and grid >= 2, got dim={dim}, grid={grid}")
    if not (0 < period < np.inf and np.isfinite(origin)):
        raise ValueError(f"{path}: need a finite period > 0 and a finite origin, "
                         f"got period={period}, origin={origin}")
    count = grid ** dim
    if len(raw) != 4 + 28 + 8 * count:
        raise ValueError(f"{path}: expected {count} float64 samples after the header, "
                         f"found {len(raw) - 4 - 28} bytes")
    body = np.frombuffer(raw[4 + 28 :], dtype="<f8")
    values = body.reshape((grid,) * dim).astype(np.float64)
    fam = {"name": "custom-grid", "source": str(path)}
    return ObservationField(dim, period, grid, _check_shape(dim, grid, values), origin, fam)


def field_from_config(source) -> ObservationField:
    """Build a field from an INI file or a prepared ConfigParser.

    The [field] section must name the family and the sampling box::

        [field]
        family = periodic-square
        dim = 2
        period = 1.0
        grid = 256
        delta = 0.3
        mollify = 0.05

    Family parameters are the same keywords make_field accepts. For
    custom-grid, grid_file points at a raw grid file and the box keys are
    taken from the file. origin accepts a number or "centered".
    """
    cfg, where = source, "<config>"
    try:
        if not isinstance(source, configparser.ConfigParser):
            cfg, where = configparser.ConfigParser(), str(source)
            if not cfg.read(where):
                raise ValueError(f"cannot read config file {source}")
        sec = dict(cfg["field"]) if cfg.has_section("field") else None
    except configparser.Error as exc:
        raise ValueError(f"malformed config file {where}: {exc}") from None
    if sec is None:
        raise ValueError(f"{where}: missing [field] section")
    family = sec.get("family")
    if not family:
        raise ValueError(f"{where}: [field] needs a family key")

    if family == "custom-grid":
        grid_file = sec.get("grid_file")
        if not grid_file:
            raise ValueError(f"{where}: custom-grid needs grid_file")
        base = Path(where).parent if where != "<config>" else Path(".")
        fpath = Path(grid_file)
        if not fpath.is_absolute():
            fpath = base / fpath
        fld = load_grid(fpath)
    else:
        known = {"family", "dim", "period", "grid", "origin", "mollify"}
        params = {}
        for key in sec:
            if key in known:
                continue
            raw = sec.get(key)
            try:
                params[key] = float(raw)
            except ValueError:
                params[key] = raw
        origin = sec.get("origin", None)
        if origin is not None and origin != "centered":
            origin = float(origin)
        fld = make_field(
            family,
            dim=int(sec.get("dim", 2)),
            period=float(sec.get("period", 1.0)),
            grid=int(sec.get("grid", 256)),
            origin=origin,
            **params,
        )
    r = float(sec.get("mollify", 0.0))
    if r != 0:
        fld = mollify(fld, r)
    return fld
