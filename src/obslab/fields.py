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

import struct
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from pathlib import Path

import numpy as np

_GRID_MAGIC = b"OGRD"
_GRID_VERSION = 1
# samples a field may hold, grid ** dim, checked before any is built
MAX_FIELD_SAMPLES = 2 ** 24
# families that sample a non-periodic set on a finite box centered at 0
TRUNCATED_FAMILIES = ("e-beta", "half-strip-comb")


class SizeError(ValueError):
    """A size over a stated cap, or a number past the float64 range, refused
    before any computation; argument names the parameter that sets it."""

    def __init__(self, argument: str, message: str):
        super().__init__(message)
        self.argument = argument


@dataclass
class ObservationField:
    """Sampled density a : box -> [0, 1] on a uniform periodic grid.

    A field is not mutated after construction: evaluate reads a wrapped
    copy of the samples and the geometry window search their spectrum
    (rfftn), each built once per field on first use, so operations that
    change samples (mollify, load_grid) return a new field.
    """

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

    @cached_property
    def _wrapped(self) -> np.ndarray:
        """The samples with index grid wrapped to 0 along every axis,
        (grid + 1)^dim values flattened in row-major order."""
        return np.pad(self.values, [(0, 1)] * self.dim, mode="wrap").ravel()

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """rfftn of the samples, for circular correlations with them."""
        return np.fft.rfftn(self.values)

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


def _parse_intervals(spec: str) -> list:
    """The intervals of a string 'lo:hi, lo:hi, ...' with 0 <= lo < hi <= 1."""
    out = []
    for piece in filter(None, map(str.strip, spec.split(","))):
        try:
            lo, hi = map(float, piece.split(":"))
        except ValueError:
            raise ValueError(f"interval {piece!r} is not of the form lo:hi") from None
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError(f"interval ({lo}, {hi}) must satisfy 0 <= lo < hi <= 1")
        out.append((lo, hi))
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
    inside = []
    for coord, name, spec in zip(pts, ("intervals_x", "intervals_y"), (intervals_x, intervals_y)):
        try:
            inside.append(_member_intervals_1d(coord, _parse_intervals(spec)))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return (inside[0] & inside[1]).astype(np.float64)


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
    the TRUNCATED_FAMILIES and 0.0 otherwise. A grid of more than
    MAX_FIELD_SAMPLES samples raises SizeError before any is built.
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
    n_samples = int(grid) ** dim
    if n_samples > MAX_FIELD_SAMPLES:
        raise SizeError("field_grid", (
            f"a {dim}d grid of {grid} per axis has {n_samples} samples, {8 * n_samples / 1e9:.3g}"
            f" GB per float64 array; the limit is {MAX_FIELD_SAMPLES} samples"))
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


def evaluate(field: ObservationField, axes: tuple) -> np.ndarray:
    """Bilinear interpolation of the samples, periodic in every axis, at
    the points whose coordinate along axis k is axes[k].

    axes is a tuple of dim coordinate arrays that broadcast together, such
    as (x[:, None], y[None, :]) for the product of x and y, or (x,) on a
    1d field. The result has their broadcast shape, a NumPy scalar for
    scalar axes. Exact at grid nodes. Points are wrapped onto the box in
    float64, which is exact while they lie within 2**52 / grid cells of it.

    Per axis, on that axis's own array: the offset (p - origin) / h, its
    floor (the cell), the fraction frac, the cell wrapped onto the grid and
    1 - frac, so a product lattice costs per-axis work once per
    coordinate, not once per point. Only the flat index, the corner reads
    and the weighted sum run on the broadcast shape. Each cell corner is
    read from the wrapped table shifted by the corner's flat offset and
    weighted per axis by frac (bit 1) or 1 - frac (bit 0). Terms are
    multiplied and summed left to right in the order of
    (1 - f) v[i] + f v[i+1] (1d) and
    v[i,j] (1-fu)(1-fw) + v[i+1,j] fu (1-fw) + v[i,j+1] (1-fu) fw + v[i+1,j+1] fu fw
    (2d), which fixes every rounding.
    """
    dim, n, h, origin = field.dim, field.grid, field.h, field.origin
    if not isinstance(axes, tuple) or len(axes) != dim:
        raise ValueError(f"{dim}d field expects a tuple of {dim} coordinate arrays")
    shape = np.broadcast_shapes(*(np.shape(a) for a in axes))
    frac, cell, comp = [], [], []
    for a in axes:
        # 0-d axes become (1,), so that the body works on arrays only
        f = np.subtract(np.atleast_1d(np.asarray(a, dtype=np.float64)), origin)
        f /= h
        c = np.floor(f)
        f -= c
        q = np.divide(c, n)  # c mod n without integer modulo
        np.floor(q, out=q)
        q *= n
        c -= q
        frac.append(f)
        cell.append(c)
        comp.append(np.subtract(1.0, f))
    table = field._wrapped
    out = np.empty(np.broadcast_shapes(*(c.shape for c in cell)))
    v = np.empty(out.shape)
    if dim == 1:
        corners = [(table, (0,)), (table[1:], (1,))]
        flat = cell[0]
    else:
        corners = [(table, (0, 0)), (table[n + 1:], (1, 0)),
                   (table[1:], (0, 1)), (table[n + 2:], (1, 1))]
        cell[0] *= n + 1
        flat = np.add(cell[0], cell[1], out=v)
    idx = np.empty(out.shape, dtype=np.intp)
    np.copyto(idx, flat, casting="unsafe")
    for k, (shifted, bits) in enumerate(corners):
        vt = v if k else out
        shifted.take(idx, out=vt, mode="clip")  # idx is in range; "raise" would buffer out
        for axis, bit in enumerate(bits):
            vt *= frac[axis] if bit else comp[axis]
        if k:
            out += vt
    out = out.reshape(shape)
    return out[()] if out.ndim == 0 else out


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
    A radius over four periods raises ValueError: that box wraps round the
    field more than eight times, each wrap one pass of _box_mean, and
    averages it to nearly its mean.
    """
    if not 0 <= radius <= 4 * field.period:
        raise ValueError(f"mollify radius must lie in [0, 4 periods] = [0, {4 * field.period}],"
                         f" got {radius}")
    w = int(round(radius / field.h))
    if w == 0:
        return ObservationField(
            field.dim, field.period, field.grid, field.values.copy(),
            field.origin, dict(field.family), field.modulus,
        )
    vals = field.values
    for axis in range(field.dim):
        vals = _box_mean(vals, 2 * w + 1, axis)
    vals = np.clip(vals, 0.0, 1.0)
    fam = dict(field.family)
    fam["mollify"] = w * field.h
    return ObservationField(
        field.dim, field.period, field.grid, vals, field.origin, fam, w * field.h
    )


def _box_mean(vals: np.ndarray, size: int, axis: int) -> np.ndarray:
    """Periodic mean over windows of an odd size along axis, with the
    operation order of scipy.ndimage.uniform_filter1d(mode="wrap"), so
    the values are bit-identical: each line's first window is summed left
    to right, then each next window sum is the last one plus (new - old),
    and each sum is divided by size. A window wider than the line wraps
    round it more than once; it is summed a period at a time, so memory
    stays at a few copies of vals."""
    n, lead = vals.shape[axis], size // 2

    def wrapped(start, stop):
        """Offsets start..stop - 1 of each line wrapped from -lead."""
        return np.take(vals, np.arange(start - lead, stop - lead) % n, axis=axis)

    total = np.zeros_like(wrapped(0, 1))
    for start in range(0, size, n):
        chunk = np.concatenate([total, wrapped(start, min(start + n, size))], axis=axis)
        total = np.take(np.add.accumulate(chunk, axis=axis), [-1], axis=axis)
    steps = np.concatenate([total, wrapped(size, size + n - 1) - wrapped(0, n - 1)], axis=axis)
    return np.add.accumulate(steps, axis=axis) / size


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
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read grid file: {exc.strerror}") from None
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


def field_from_config(spec) -> ObservationField:
    """Field of resolved [field] keys: spec maps each key of
    obslab.cli.FIELD_FLAGS but mollify to its parsed value, None where not
    given. make_field builds it from family, dim, period, grid, origin and
    the family's parameters; a custom-grid field is load_grid of
    grid_file, whose file sets the box and the samples, so it takes no
    family parameter or origin."""
    params = {key: value for key, value in spec.items() if value is not None}
    family = params.pop("family")
    box = {key: params.pop(key, None) for key in ("dim", "period", "grid")}
    if family != "custom-grid":
        return make_field(family, **box, **params)
    grid_file = params.pop("grid_file", None)
    if params:
        raise ValueError(f"custom-grid takes no {', '.join(sorted(params))}: its grid file "
                         f"sets the box and the samples")
    if grid_file is None:
        raise ValueError("custom-grid needs grid_file")
    return load_grid(grid_file)
