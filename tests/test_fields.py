import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from obslab import fields


def test_family_catalog_lists_builtins():
    cat = fields.family_catalog()
    for name in ("constant", "periodic-square", "product", "e-beta",
                 "half-strip-comb", "custom-grid"):
        assert name in cat
        assert "doc" in cat[name]
    assert cat["product"]["dims"] == (2,)
    assert set(cat["periodic-square"]["dims"]) == {1, 2}


def test_make_field_rejects_unknown_family():
    with pytest.raises(ValueError):
        fields.make_field("no-such-family", dim=1, period=1.0, grid=16)


def test_make_field_validates_parameters():
    with pytest.raises(ValueError):
        fields.make_field("periodic-square", dim=1, period=1.0, grid=16, delta=0.0)
    with pytest.raises(ValueError):
        fields.make_field("periodic-square", dim=1, period=1.0, grid=16, delta=1.5)
    with pytest.raises(ValueError):
        fields.make_field("e-beta", dim=2, period=24.0, grid=64, beta=1.0)
    with pytest.raises(ValueError):
        fields.make_field("product", dim=2, period=1.0, grid=16,
                          intervals_x="0.5:0.2", intervals_y="0:1")
    for period in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite period"):
            fields.make_field("constant", dim=1, period=period, grid=16)
    for origin in (math.inf, math.nan):
        with pytest.raises(ValueError, match="origin"):
            fields.make_field("constant", dim=1, period=1.0, grid=16, origin=origin)


@pytest.mark.parametrize("dim", [1, 2])
def test_make_field_caps_the_sample_count(monkeypatch, dim):
    """A grid of grid ** dim > MAX_FIELD_SAMPLES raises SizeError naming
    field_grid before any sample is built; one at the cap is sampled."""
    monkeypatch.setattr(fields, "MAX_FIELD_SAMPLES", 4 ** dim)
    assert fields.make_field("periodic-square", dim=dim, period=1.0, grid=4).values.size == 4 ** dim

    def unreachable(*args):
        raise AssertionError("_grid_points called")

    monkeypatch.setattr(fields, "_grid_points", unreachable)
    with pytest.raises(fields.SizeError, match=rf"has {5 ** dim} samples") as exc:
        fields.make_field("periodic-square", dim=dim, period=1.0, grid=5)
    assert exc.value.argument == "field_grid"


def test_periodic_square_1d_exact_node_values():
    """delta = 0.3 on a 200-point unit grid is exactly 60 cells."""
    f = fields.make_field("periodic-square", dim=1, period=1.0, grid=200, delta=0.3)
    assert f.values.shape == (200,)
    assert set(np.unique(f.values)) == {0.0, 1.0}
    assert int(f.values.sum()) == 60
    assert f.values.mean() == pytest.approx(0.3, abs=0.0)
    x = np.arange(200) / 200.0
    assert np.array_equal(f.values, (np.mod(x, 1.0) < 0.3).astype(float))


def test_product_membership_at_nodes():
    f = fields.make_field("product", dim=2, period=1.0, grid=10,
                          intervals_x="0:0.5", intervals_y="0.2:0.7")
    x = np.arange(10) / 10.0
    in_x = x < 0.5
    in_y = (x >= 0.2) & (x < 0.7)
    expected = np.outer(in_x, in_y).astype(float)
    assert np.array_equal(f.values, expected)


def test_e_beta_axis_nodes_are_zero():
    f = fields.make_field("e-beta", dim=2, period=24.0, grid=512, beta=0.5)
    assert f.origin == -12.0
    # the row and column of nodes through y = 0 and x = 0 carry no mass
    i0 = int(round((0.0 - f.origin) / f.h))
    assert np.all(f.values[:, i0] == 0.0)
    assert np.all(f.values[i0, :] == 0.0)
    assert f.values.max() == 1.0


def test_half_strip_comb_halves():
    f = fields.make_field("half-strip-comb", dim=2, period=16.0, grid=64)
    assert f.origin == -8.0
    x = f.origin + np.arange(64) * f.h
    upper = np.mod(x, 1.0) < 0.5
    iy_up = int(round((2.0 - f.origin) / f.h))
    iy_dn = int(round((-2.0 - f.origin) / f.h))
    assert np.array_equal(f.values[:, iy_up], upper.astype(float))
    assert np.array_equal(f.values[:, iy_dn], (~upper).astype(float))


def test_evaluate_bilinear_midpoints():
    vals = np.array([0.0, 1.0, 0.5, 0.25])
    f = fields.make_field("custom-grid", dim=1, period=4.0, grid=4, values=vals)
    mids = np.array([0.5, 1.5, 2.5, 3.5])
    got = fields.evaluate(f, (mids,))
    expected = np.array([0.5, 0.75, 0.375, 0.125])
    assert np.allclose(got, expected, atol=1e-14)


def _unit_samples(data, dim, grid):
    shape = (grid,) * dim
    return data.draw(arrays(np.float64, shape, elements=st.floats(0.0, 1.0)), label="values")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_evaluate_exact_at_nodes_and_periodic(data):
    """With a dyadic step and origin every node coordinate is exact, so
    evaluate returns the samples bit for bit, also one period over."""
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = data.draw(st.integers(2, 12), label="grid")
    h = 2.0 ** data.draw(st.integers(-6, 2), label="log2 h")
    origin = h * data.draw(st.integers(-8, 8), label="origin / h")
    vals = _unit_samples(data, dim, grid)
    f = fields.make_field("custom-grid", dim=dim, period=grid * h, grid=grid,
                          origin=origin, values=vals)
    shift = f.period * data.draw(st.integers(-2, 2), label="periods")
    ax = origin + h * np.arange(grid) + shift
    axes = (ax,) if dim == 1 else (ax[:, None], ax[None, :])
    assert np.array_equal(fields.evaluate(f, axes), f.values)


def _reference_evaluate(field, points):
    """Bilinear evaluate with integer indices and modulo, kept as the oracle
    that fields.evaluate must match bit for bit."""
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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluate_matches_the_integer_index_reference(data):
    """Float wrapping and the wrapped table change no bit: random grids
    (odd ones too), boxes, far points, nodes and nodes +- 1 ulp, in batches
    up to three times the 8192 points of the blocks evaluate once had."""
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = data.draw(st.integers(2, 600), label="grid")
    period = data.draw(st.floats(0.01, 100.0), label="period")
    origin = data.draw(st.floats(-100.0, 100.0), label="origin")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    f = fields.make_field("custom-grid", dim=dim, period=period, grid=grid, origin=origin,
                          values=rng.random((grid,) * dim))
    count = data.draw(st.integers(0, 3 * 8192 + 100), label="points")
    periods = 10.0 ** data.draw(st.floats(0.0, 5.0), label="log10 periods out")
    shape = (count,) if dim == 1 else (count, 2)
    kind = data.draw(st.sampled_from(["uniform", "nodes", "nodes+-ulp"]), label="kind")
    if kind == "uniform":
        pts = origin + period * rng.uniform(-periods, periods, shape)
    else:
        # half of the nodes on period boundaries, where the wrap is decided
        cells = rng.integers(-int(periods * grid), int(periods * grid) + 1, shape)
        cells[::2] = grid * (cells[::2] // grid)
        pts = origin + f.h * cells
        if kind == "nodes+-ulp":
            pts = np.nextafter(pts, rng.choice([-np.inf, np.inf], shape))
    axes = (pts,) if dim == 1 else tuple(np.moveaxis(pts, -1, 0))
    assert np.array_equal(fields.evaluate(f, axes), _reference_evaluate(f, pts))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_per_axis_form_matches_the_integer_index_reference(data):
    """Coordinate arrays of random shapes that broadcast together give the
    bits of the reference at their broadcast points: random grids,
    periodic and truncated-style origins, far points, nodes and nodes +- 1
    ulp, 0-d and empty axes, and batches above 8192 points."""
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = data.draw(st.integers(2, 600), label="grid")
    period = data.draw(st.floats(0.01, 100.0), label="period")
    origin = data.draw(st.one_of(st.just(0.0), st.just(-period / 2.0), st.floats(-100.0, 100.0)),
                       label="origin")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    f = fields.make_field("custom-grid", dim=dim, period=period, grid=grid, origin=origin,
                          values=rng.random((grid,) * dim))
    # a batch shape of up to 3 axes, each axis array keeping a random subset
    # of its trailing axes (sizes 1, the 0-d array when it keeps none)
    big = data.draw(st.booleans(), label="above 8192 points")
    batch = data.draw(st.lists(st.integers(0 if not big else 1, 3 if big else 12),
                               min_size=0, max_size=3), label="batch")
    if big:
        batch.append(data.draw(st.integers(8193, 2 * 8192), label="k"))
    periods = 10.0 ** data.draw(st.floats(0.0, 5.0), label="log10 periods out")
    kind = data.draw(st.sampled_from(["uniform", "nodes", "nodes+-ulp"]), label="kind")

    def coords(shape):
        if kind == "uniform":
            return origin + period * rng.uniform(-periods, periods, shape)
        cells = rng.integers(-int(periods * grid), int(periods * grid) + 1, shape)
        if cells.ndim:
            cells[..., ::2] = grid * (cells[..., ::2] // grid)
        c = origin + f.h * cells
        return np.nextafter(c, rng.choice([-np.inf, np.inf], shape)) if kind == "nodes+-ulp" else c

    axes = []
    for i in range(dim):
        keep = data.draw(st.lists(st.booleans(), min_size=len(batch), max_size=len(batch)),
                         label=f"axes kept by axis {i}")
        if big:
            keep[-1] = True  # the long axis, so that the batch stays above 8192 points
        shape = [n if kept else 1 for n, kept in zip(batch, keep)]
        # leading size-1 axes may be dropped, which broadcasting restores
        drop = data.draw(st.integers(0, len(shape)), label=f"leading axes dropped by axis {i}")
        while drop and shape and shape[0] == 1:
            shape.pop(0)
            drop -= 1
        axes.append(coords(tuple(shape)))
    axes = tuple(axes)
    got = fields.evaluate(f, axes)
    pts = np.stack(np.broadcast_arrays(*axes), axis=-1)
    want = _reference_evaluate(f, pts if dim == 2 else pts[..., 0])
    assert np.shape(got) == np.broadcast_shapes(*(a.shape for a in axes))
    assert np.array_equal(got, want)
    if np.ndim(got) == 0:
        assert type(got) is np.float64


def test_evaluate_output_contract():
    f1 = fields.make_field("custom-grid", dim=1, period=1.0, grid=4,
                           values=[0.0, 1.0, 0.5, 0.25])
    f2 = fields.make_field("periodic-square", dim=2, period=1.0, grid=8, delta=0.5)
    # broadcast shape, a scalar for scalar axes
    assert fields.evaluate(f1, ([],)).shape == (0,)
    single = fields.evaluate(f1, (0.125,))
    assert type(single) is np.float64 and single == 0.5
    assert type(fields.evaluate(f2, (0.1, 0.2))) is np.float64
    assert fields.evaluate(f1, ([[0.125, 0.25], [0.375, 0.5]],)).shape == (2, 2)
    assert np.array_equal(fields.evaluate(f2, ([0.125, 0.625], 0.25)), [1.0, 0.0])
    assert fields.evaluate(f2, (np.zeros((3, 1)), np.zeros(4))).shape == (3, 4)
    assert fields.evaluate(f1, (np.zeros((0, 2)),)).shape == (0, 2)
    # anything but a tuple of dim coordinate arrays: too few or too many
    # axes, and a bare array, scalar or list of points
    for field, bad in ((f2, (0.1,)), (f2, (0.1, 0.2, 0.3)), (f2, np.zeros((4, 2))), (f2, 0.5),
                       (f2, [0.1, 0.2]), (f2, [[0.125, 0.25]]), (f1, np.zeros(3)), (f1, 0.125),
                       (f1, [0.125])):
        with pytest.raises(ValueError, match=f"tuple of {field.dim} coordinate arrays"):
            fields.evaluate(field, bad)


def test_evaluate_reads_each_fields_own_samples(tmp_path):
    """evaluate caches a wrapped copy of the samples per field; a field,
    its mollified copy and a file round trip of that copy each evaluate
    their own samples at the nodes, in any order."""
    rng = np.random.default_rng(5)
    f = fields.make_field("custom-grid", dim=2, period=1.0, grid=16, values=rng.random((16, 16)))
    ax = np.arange(16) / 16
    nodes = (ax[:, None], ax[None, :])
    assert np.array_equal(fields.evaluate(f, nodes), f.values)
    g = fields.mollify(f, 2 / 16)
    fields.save_grid(g, tmp_path / "g.ogrd")
    loaded = fields.load_grid(tmp_path / "g.ogrd")
    assert not np.array_equal(g.values, f.values)
    for field in (g, loaded, f):
        assert np.array_equal(fields.evaluate(field, nodes), field.values)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mollify_preserves_mean_and_range(data):
    """The periodic box average keeps the sample sum, stays in [0, 1], and
    can only shrink the worst node-to-node jump along every axis."""
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = data.draw(st.integers(2, 40), label="grid")
    f = fields.make_field("custom-grid", dim=dim, period=1.0, grid=grid,
                          values=_unit_samples(data, dim, grid))
    radius = data.draw(st.floats(0.0, 2.0), label="radius")
    g = fields.mollify(f, radius)
    assert g.values.sum() == pytest.approx(f.values.sum(), rel=1e-12, abs=1e-12)
    assert g.values.min() >= 0.0 and g.values.max() <= 1.0
    w = round(radius / f.h)
    assert g.modulus == (w * f.h if w else f.modulus)

    def jump(v, axis):
        return np.abs(v - np.roll(v, 1, axis=axis)).max()

    for axis in range(dim):
        assert jump(g.values, axis) <= jump(f.values, axis) + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_box_mean_is_scipy_uniform_filter_bit_for_bit(data):
    """The box mean behind mollify equals scipy.ndimage.uniform_filter1d
    with mode="wrap" exactly, along either axis, on samples of any scale
    and for half-widths from 1 to more than three grids, so that windows
    wrap round the grid several times; mollify is that mean on every
    axis, clipped to [0, 1]."""
    from scipy import ndimage

    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = data.draw(st.integers(2, 24), label="grid")
    scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]), label="scale")
    vals = data.draw(arrays(np.float64, (grid,) * dim, elements=st.floats(-1.0, 1.0)),
                     label="values") * scale
    size = 2 * data.draw(st.integers(1, 3 * grid + 1), label="w") + 1
    for axis in range(dim):
        want = ndimage.uniform_filter1d(vals, size=size, axis=axis, mode="wrap")
        assert np.array_equal(fields._box_mean(vals, size, axis), want)
    f = fields.make_field("custom-grid", dim=dim, period=1.0, grid=grid,
                          values=_unit_samples(data, dim, grid))
    want = f.values
    for axis in range(dim):
        want = ndimage.uniform_filter1d(want, size=size, axis=axis, mode="wrap")
    assert np.array_equal(fields.mollify(f, (size // 2) * f.h).values, np.clip(want, 0.0, 1.0))


def test_mollify_rejects_bad_radius():
    """A radius must be finite, nonnegative and at most four periods; a
    larger box would wrap round the grid about 2 radius / period times."""
    f = fields.make_field("constant", dim=1, period=1.0, grid=16, value=1.0)
    for radius in (-0.1, math.inf, math.nan, 4.01, 1e9):
        with pytest.raises(ValueError, match="mollify radius must lie in"):
            fields.mollify(f, radius)
    assert fields.mollify(f, 4.0).modulus == 4.0


def test_grid_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    vals = rng.uniform(size=(12, 12))
    f = fields.make_field("custom-grid", dim=2, period=3.0, grid=12,
                          values=vals, origin=-1.5)
    path = tmp_path / "field.ogrd"
    fields.save_grid(f, path)
    raw = path.read_bytes()
    assert raw[:4] == b"OGRD"
    g = fields.load_grid(path)
    assert g.dim == 2 and g.grid == 12
    assert g.period == 3.0 and g.origin == -1.5
    assert np.array_equal(g.values, f.values)


def test_load_grid_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        fields.load_grid(path)


def test_field_from_config_matches_make_field():
    spec = {"family": "periodic-square", "dim": 1, "period": 1.0, "grid": 200,
            "origin": None, "delta": 0.3, "beta": None, "grid_file": None}
    f = fields.field_from_config(spec)
    g = fields.make_field("periodic-square", dim=1, period=1.0, grid=200, delta=0.3)
    assert np.array_equal(f.values, g.values)
    assert f.describe() == g.describe()


def test_field_from_config_custom_grid_relative_path(tmp_path, monkeypatch):
    """A relative grid_file is read from the working directory, and the
    file sets the box whatever dim, period and grid say."""
    vals = np.linspace(0.0, 1.0, 8)
    f = fields.make_field("custom-grid", dim=1, period=3.0, grid=8, values=vals)
    fields.save_grid(f, tmp_path / "data.ogrd")
    monkeypatch.chdir(tmp_path)
    g = fields.field_from_config({"family": "custom-grid", "dim": 2, "period": 1.0, "grid": 256,
                                  "origin": None, "delta": None, "grid_file": "data.ogrd"})
    assert np.array_equal(g.values, vals)
    assert (g.dim, g.period, g.grid, g.family["source"]) == (1, 3.0, 8, "data.ogrd")


def test_describe_is_json_friendly():
    f = fields.make_field("product", dim=2, period=1.0, grid=16,
                          intervals_x="0:0.6", intervals_y="0:0.6")
    d = f.describe()
    assert d["dim"] == 2
    assert d["family"]["name"] == "product"
    assert isinstance(d["period"], float)


def test_make_field_fills_catalog_defaults():
    for name, info in fields.family_catalog().items():
        if name == "custom-grid":
            continue
        dim = info["dims"][-1]
        f = fields.make_field(name, dim=dim, period=4.0, grid=16)
        assert f.family == {"name": name, **info["params"]}
        g = fields.make_field(name, dim=dim, period=4.0, grid=16, **info["params"])
        assert np.array_equal(f.values, g.values)


def test_make_field_rejects_unknown_parameter():
    with pytest.raises(ValueError, match="delta"):
        fields.make_field("constant", dim=1, period=1.0, grid=16, delta=0.3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_custom_grid_rejects_non_finite_values(bad):
    vals = np.full(8, 0.5)
    vals[3] = bad
    with pytest.raises(ValueError, match="finite"):
        fields.make_field("custom-grid", dim=1, period=1.0, grid=8, values=vals)


def _grid_bytes(dim, grid, samples, period=1.0, origin=0.0):
    return b"OGRD" + struct.pack("<IIIdd", 1, dim, grid, period, origin) + \
        np.full(samples, 0.5).astype("<f8").tobytes()


@pytest.mark.parametrize("dim, grid, samples", [
    (1, 8, 10),   # 16 trailing bytes
    (1, 8, 7),    # one sample short
    (3, 4, 64),   # no such dimension
    (2, 1, 1),    # a one-point grid
])
def test_load_grid_rejects_malformed_files(tmp_path, dim, grid, samples):
    path = tmp_path / "field.ogrd"
    path.write_bytes(_grid_bytes(dim, grid, samples))
    with pytest.raises(ValueError):
        fields.load_grid(path)


@pytest.mark.parametrize("period, origin", [(0.0, 0.0), (-1.0, 0.0), (math.nan, 0.0),
                                            (math.inf, 0.0), (1.0, math.nan), (1.0, -math.inf)])
def test_load_grid_rejects_bad_boxes(tmp_path, period, origin):
    path = tmp_path / "field.ogrd"
    path.write_bytes(_grid_bytes(1, 8, 8, period, origin))
    with pytest.raises(ValueError, match="finite period"):
        fields.load_grid(path)


def test_load_grid_reads_exact_files(tmp_path):
    path = tmp_path / "field.ogrd"
    path.write_bytes(_grid_bytes(1, 8, 8))
    assert np.array_equal(fields.load_grid(path).values, np.full(8, 0.5))


def _index_maps(dim, grid, transpose, flips):
    """Flat-index permutations of a grid for the transpose and for the
    reflections i -> (s - i) mod grid along each axis in flips."""
    idx = np.arange(grid ** dim).reshape((grid,) * dim)
    maps = [idx.T.ravel()] if transpose else []
    for axis, s in flips.items():
        maps.append(np.take(idx, (s - np.arange(grid)) % grid, axis=axis).ravel())
    return maps


def _symmetrize(values, maps):
    """Give every orbit of the maps (all involutions) the value of its
    least flat index, so the result is exactly invariant."""
    label = np.arange(values.size)
    while True:
        new = label
        for m in maps:
            new = np.minimum(new, new[m])
        if np.array_equal(new, label):
            return values.ravel()[label].reshape(values.shape)
        label = new


def _is_symmetry(values, g):
    if g["kind"] == "transpose":
        return np.allclose(values, values.T, rtol=0.0, atol=1e-12)
    n = values.shape[g["axis"]]
    mirrored = np.take(values, (g["s"] - np.arange(n)) % n, axis=g["axis"])
    return np.allclose(values, mirrored, rtol=0.0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lattice_symmetries_finds_what_the_grid_was_given(data):
    """A random grid made invariant under a random subset of {transpose,
    flip per axis at a random shift} shows at least that subset, also
    after mollify; everything reported is a true symmetry; a generic grid
    shows none."""
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = data.draw(st.integers(3, 24), label="grid")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    raw = rng.random((grid,) * dim)
    transpose = dim == 2 and data.draw(st.booleans(), label="transpose")
    flips = {axis: data.draw(st.integers(0, grid - 1), label=f"s{axis}")
             for axis in range(dim) if data.draw(st.booleans(), label=f"flip{axis}")}
    vals = _symmetrize(raw, _index_maps(dim, grid, transpose, flips))
    f = fields.make_field("custom-grid", dim=dim, period=1.0, grid=grid, values=vals)
    radius = data.draw(st.sampled_from([0.0, 1.0 / grid, 2.0 / grid]), label="radius")
    f = fields.mollify(f, radius)
    found = fields.lattice_symmetries(f)
    assert all(_is_symmetry(f.values, g) for g in found)
    kinds = {(g["kind"], g.get("axis")) for g in found}
    if transpose:
        assert ("transpose", None) in kinds
    for axis in flips:
        assert ("flip", axis) in kinds
    generic = fields.make_field("custom-grid", dim=dim, period=1.0, grid=grid, values=raw)
    assert fields.lattice_symmetries(generic) == []


def test_lattice_symmetries_of_the_builtin_families():
    prod = fields.make_field("product", dim=2, period=1.0, grid=500,
                             intervals_x="0:0.6", intervals_y="0:0.6")
    assert fields.lattice_symmetries(prod) == [
        {"kind": "transpose"},
        {"kind": "flip", "axis": 0, "s": 299},
        {"kind": "flip", "axis": 1, "s": 299},
    ]
    lopsided = fields.make_field("product", dim=2, period=1.0, grid=100,
                                 intervals_x="0:0.3,0.4:0.8", intervals_y="0:0.35,0.5:0.9")
    assert fields.lattice_symmetries(lopsided) == []
    for name in fields.TRUNCATED_FAMILIES:
        f = fields.make_field(name, dim=2, period=8.0, grid=64)
        assert fields.lattice_symmetries(f) == []
