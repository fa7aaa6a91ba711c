import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from obslab import covering, fields, geometry


def test_direction_basics():
    d = geometry.Direction(0.3)
    assert math.hypot(*d.vector) == pytest.approx(1.0, abs=1e-15)
    assert np.dot(d.vector, d.perp) == pytest.approx(0.0, abs=1e-15)
    e = geometry.Direction(math.atan2(4.0, 3.0))
    assert e.vector[0] == pytest.approx(0.6)
    assert e.vector[1] == pytest.approx(0.8)


@settings(max_examples=60, deadline=None)
@given(angle=st.floats(0.0, 2.0 * math.pi), side_s=st.floats(1e-3, 50.0),
       side_t=st.floats(1e-3, 50.0), n_samples=st.integers(1, 5000))
def test_rect_body_matches_the_outer_product_form(angle, side_s, side_t, n_samples):
    """The broadcast rectangle body is, bit for bit, the sum of two outer
    products of the repeated and tiled midpoints with perp and vector."""
    theta = geometry.Direction(angle)
    n1 = int(max(2, round(math.sqrt(n_samples / (side_t / side_s)))))
    n2 = int(max(2, math.ceil(n_samples / n1)))
    u = (np.arange(n1) + 0.5) / n1
    v = (np.arange(n2) + 0.5) / n2
    want = (np.outer(np.repeat(u, n2) * side_s, theta.perp)
            + np.outer(np.tile(v, n1) * side_t, theta.vector))
    got = geometry._rect_body(theta, side_s, side_t, n_samples, 2)
    assert got.shape == want.shape and np.array_equal(got, want)


def test_rectangle_spec_sides():
    """side_s = L * lam^((beta-1)/2), side_t = L * lam^beta."""
    r = geometry.RectangleSpec(geometry.Direction(0.0), (0.0, 0.0), 2.0, 4.0, 0.5)
    assert r.side_s == pytest.approx(2.0 * 4.0 ** (-0.25))
    assert r.side_t == pytest.approx(2.0 * 2.0)
    r1 = geometry.RectangleSpec(geometry.Direction(0.0), (0.0, 0.0), 3.0, 1.0, 0.0)
    assert r1.side_s == pytest.approx(3.0)
    assert r1.side_t == pytest.approx(3.0)


def test_rectangle_spec_validation():
    d = geometry.Direction(0.0)
    with pytest.raises(ValueError):
        geometry.RectangleSpec(d, (0.0, 0.0), -1.0, 4.0, 0.5)
    with pytest.raises(ValueError):
        geometry.RectangleSpec(d, (0.0, 0.0), 1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        geometry.RectangleSpec(d, (0.0, 0.0), 1.0, 4.0, 1.5)


def test_line_average_constant_field():
    f = fields.make_field("constant", dim=2, period=1.0, grid=64, value=1.0)
    seg = geometry.LineSegment((0.1, 0.2), geometry.Direction(0.3), 2.5)
    assert geometry.line_average(f, seg, 512) == pytest.approx(1.0, abs=1e-14)


def test_line_average_e_beta_axes_vanish():
    f = fields.make_field("e-beta", dim=2, period=24.0, grid=512, beta=0.5)
    along_x = geometry.LineSegment((f.origin, 0.0), geometry.Direction(0.0), 24.0)
    along_y = geometry.LineSegment((0.0, f.origin), geometry.Direction(math.pi / 2), 24.0)
    assert geometry.line_average(f, along_x, 4096) == 0.0
    assert geometry.line_average(f, along_y, 4096) == 0.0


def _rectangle_density(field, rect, n_samples=1024):
    """Average of the field over one rectangle by its midpoint lattice:
    the points and the mean through which rectangle_density_inf measures
    it."""
    body = geometry._rect_body(rect.theta, rect.side_s, rect.side_t, n_samples, field.dim)
    return float(geometry._window_means(field, np.asarray(rect.anchor, dtype=np.float64)[:, None],
                                        body)[0])


def test_rectangle_density_constant_field():
    f = fields.make_field("constant", dim=2, period=1.0, grid=32, value=1.0)
    rect = geometry.RectangleSpec(geometry.Direction(0.3), (0.1, 0.2), 2.0, 4.0, 0.5)
    assert _rectangle_density(f, rect, n_samples=256) == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rectangle_density_reproduces_the_reported_infimum(data):
    """The sweep, the descent probe and _rectangle_density sample a
    rectangle through the same points, so the reported argmin re-measures
    to the reported value bit for bit."""
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = 16
    vals = data.draw(arrays(np.float64, (grid,) * dim, elements=st.floats(0.0, 1.0)),
                     label="values")
    f = fields.make_field("custom-grid", dim=dim, period=1.0, grid=grid, values=vals)
    beta = data.draw(st.floats(0.0, 1.0), label="beta")
    lams = data.draw(st.lists(st.floats(1.0, 8.0), min_size=1, max_size=2), label="lams")
    L = data.draw(st.floats(0.1, 2.0), label="L")
    n = data.draw(st.integers(8, 96), label="n_samples")
    val, spec = geometry.rectangle_density_inf(f, beta, L, lams, direction_grid_size=4,
                                               anchor_grid_size=3, n_samples=n)
    assert _rectangle_density(f, spec, n) == val


def test_gcc_constant_constant_field():
    f = fields.make_field("constant", dim=2, period=1.0, grid=32, value=1.0)
    val = geometry.gcc_constant(f, 3.0, direction_grid_size=8, anchor_grid_size=8,
                                n_samples=64)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_gcc_constant_returns_a_float_on_both_search_paths():
    """A plain float whether the descent beats the grid minimum (a dip
    between anchor grid points) or not (a constant field)."""
    body = geometry._segment_body(np.array([1.0]), 0.1, 32)
    anchors = geometry._anchor_grid(np.zeros(1), np.ones(1), 8, 1)
    dip = np.ones(64)
    dip[28:31] = 0.0
    for vals, descent_wins in ((dip, True), (np.ones(64), False)):
        f = fields.make_field("custom-grid", dim=1, period=1.0, grid=64, values=vals)
        val = geometry.gcc_constant(f, 0.1, anchor_grid_size=8, n_samples=32)
        grid_min = geometry._window_means(f, anchors, body).min()
        assert type(val) is float
        assert (val < grid_min) == descent_wins


def test_gcc_constant_validation():
    f = fields.make_field("constant", dim=2, period=1.0, grid=32, value=1.0)
    with pytest.raises(ValueError):
        geometry.gcc_constant(f, 0.0)
    with pytest.raises(ValueError):
        geometry.gcc_constant(f, 1.0, direction_grid_size=4, anchor_grid_size=4)


def _gcc_entry_measure(f, angle, M, n_offsets, samples_per_unit):
    """What certify measures for a GCC cap of length M at angle: the
    closed-geodesic window minimum on the rational direction that
    covering._nearest_rational maps the angle to."""
    rat = covering._nearest_rational(angle, f.h / M)
    entry = covering.CoveringEntry(angle, 0.1, covering.Certificate("gcc", M, 0.0), rat)
    return covering._measure_entry(f, entry, n_offsets, samples_per_unit)


def test_gcc_constant_product_band_angle():
    """A length-192 segment in the band between the axes, measured on the
    rational direction within h/M of 0.125733, sees about a third of the
    product set; it does not fall to the axis, where the constant is 0."""
    f = fields.make_field("product", dim=2, period=1.0, grid=500,
                          intervals_x="0:0.6", intervals_y="0:0.6")
    val = _gcc_entry_measure(f, 0.125733, 192.0, 32, 32.0)
    assert val == pytest.approx(0.35728356596602895, abs=1e-6)


def test_gcc_constant_product_axis_is_zero():
    f = fields.make_field("product", dim=2, period=1.0, grid=100,
                          intervals_x="0:0.6", intervals_y="0:0.6")
    assert _gcc_entry_measure(f, 0.0, 10.0, 8, 32.0) == 0.0


def test_comb_profile_periodic_square_axis():
    f = fields.make_field("periodic-square", dim=2, period=1.0, grid=100, delta=0.5)
    prof = geometry.comb_profile(f, geometry.Direction(0.0), 3,
                                 x_extent=1.0, t_extent=1.0, n_x=8,
                                 samples_per_unit=200.0)
    assert prof.values.shape == (8,)
    assert prof.spacing == pytest.approx(0.125)
    assert prof.periodic
    # offsets inside the stripe see density 1/2; the rest see nothing
    assert prof.values.max() == pytest.approx(0.5, abs=1e-12)
    assert prof.values.min() == pytest.approx(0.0, abs=1e-12)
    assert geometry.relative_density_1d(prof, 1.0) == pytest.approx(0.25, abs=1e-12)


def _hand_profile(vals):
    return geometry.CombProfile(geometry.Direction(0.0), 1.0, vals, 0.25)


def test_relative_density_hand_profiles():
    vals = np.array([1.0, 0.0, 0.0, 0.0])
    assert geometry.relative_density_1d(_hand_profile(vals), 0.5) == 0.0
    assert geometry.relative_density_1d(_hand_profile(vals), 1.0) == pytest.approx(0.25)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_window_min_matches_brute_force(data):
    n = data.draw(st.integers(1, 12), label="n")
    rows = data.draw(st.integers(1, 3), label="rows")
    vals = data.draw(arrays(np.float64, (rows, n), elements=st.floats(0.0, 1.0)), label="vals")
    periodic = data.draw(st.booleans(), label="periodic")
    n_w = data.draw(st.integers(1, 3 * n), label="n_w")
    if not periodic and n_w > n:
        with pytest.raises(ValueError):
            geometry._window_min(vals, n_w, periodic)
        return
    starts = range(n) if periodic else range(n - n_w + 1)
    want = [min(sum(row[(s + k) % n] for k in range(n_w)) / n_w for s in starts) for row in vals]
    np.testing.assert_allclose(geometry._window_min(vals, n_w, periodic), want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(geometry._window_min(vals[0], n_w, periodic), want[0],
                               rtol=0, atol=1e-12)


def _zeros_column_window_min(values, n_w, periodic):
    """Reference window minimum: cumulative sums behind a zeros column,
    every mean divided out, then the minimum."""
    values = np.asarray(values, dtype=np.float64)
    if periodic:
        reps, tail = divmod(n_w - 1, values.shape[-1])
        values = np.concatenate([values] * (1 + reps) + [values[..., :tail]], axis=-1)
    c = np.cumsum(values, axis=-1)
    c = np.concatenate([np.zeros(c.shape[:-1] + (1,)), c], axis=-1)
    return ((c[..., n_w:] - c[..., :-n_w]) / n_w).min(axis=-1)


def _point_array_comb_values(field, theta, M, x_extent, t_extent, n_x, samples_per_unit,
                             periodic_t):
    """Reference comb_profile values: the whole (n_x, n_t, 2) point array
    through evaluate at once, then the reference window minimum."""
    n_t = geometry.comb_samples(t_extent, samples_per_unit)
    h_t = t_extent / n_t
    n_w = int(max(1, round(M / h_t)))
    xs = (np.arange(n_x) + 0.5) * (x_extent / n_x)
    ts = (np.arange(n_t) + 0.5) * h_t
    pts = (xs[:, None, None] * theta.perp[None, None, :]
           + ts[None, :, None] * theta.vector[None, None, :])
    return _zeros_column_window_min(fields.evaluate(field, tuple(np.moveaxis(pts, -1, 0))),
                                    n_w, periodic_t)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_window_min_keeps_the_bits_of_the_zeros_column_form(data):
    ndim = data.draw(st.integers(1, 3), label="ndim")
    shape = data.draw(st.lists(st.integers(1, 4), min_size=ndim - 1, max_size=ndim - 1),
                      label="batch") + [data.draw(st.integers(1, 16), label="n")]
    vals = data.draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)), label="vals")
    periodic = data.draw(st.booleans(), label="periodic")
    n_w = data.draw(st.integers(1, 3 * shape[-1] + 1 if periodic else shape[-1]), label="n_w")
    assert np.array_equal(geometry._window_min(vals, n_w, periodic),
                          _zeros_column_window_min(vals, n_w, periodic))


_SQUARE = fields.make_field("periodic-square", dim=2, period=1.0, grid=32, delta=0.3)
_RANDOM = fields.make_field("custom-grid", dim=2, period=2.0, grid=16,
                            values=np.random.default_rng(3).random((16, 16)))
_STRIP = fields.make_field("half-strip-comb", dim=2, period=2.0, grid=64)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_streamed_comb_profile_keeps_the_bits_of_the_point_array_form(data):
    """Rows streamed through evaluate in blocks give the values of the
    whole point array: many blocks or one, a last block short of rows,
    rows longer than a block, windows longer than the extent (several
    tilings, or exactly one), a single offset, and truncated fields."""
    field = data.draw(st.sampled_from([_SQUARE, _RANDOM, _STRIP]), label="field")
    periodic_t = field is not _STRIP or data.draw(st.booleans(), label="periodic_t")
    theta = geometry.Direction(data.draw(st.floats(0.0, 2.0 * math.pi), label="angle"))
    n_x = data.draw(st.integers(1, 24), label="n_x")
    x_extent = data.draw(st.floats(0.05, 3.0), label="x_extent")
    t_extent = data.draw(st.floats(0.1, 4.0), label="t_extent")
    samples_per_unit = data.draw(st.floats(2.0, 40.0), label="samples_per_unit")
    n_t = geometry.comb_samples(t_extent, samples_per_unit)
    n_w = data.draw(st.one_of(st.sampled_from([1, n_t, n_t + 1, 2 * n_t, 3 * n_t + 2]),
                              st.integers(1, 3 * n_t)) if periodic_t
                    else st.integers(1, n_t), label="n_w")
    M = n_w * (t_extent / n_t)
    block = data.draw(st.integers(1, 3 * n_t), label="block")
    want = _point_array_comb_values(field, theta, M, x_extent, t_extent, n_x, samples_per_unit,
                                    periodic_t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_PROFILE_BLOCK", block)
        prof = geometry.comb_profile(field, theta, M, x_extent=x_extent, t_extent=t_extent,
                                     n_x=n_x, samples_per_unit=samples_per_unit,
                                     periodic_t=periodic_t)
    assert prof.meta["n_window"] == n_w
    assert np.array_equal(prof.values, want)


def test_comb_profile_takes_numpy_integer_counts():
    args = (_SQUARE, geometry.Direction(0.4), 0.5)
    assert np.array_equal(geometry.comb_profile(*args, n_x=np.int64(5)).values,
                          geometry.comb_profile(*args, n_x=5).values)


def test_relative_density_window_longer_than_periodic_profile():
    assert geometry.relative_density_1d(_hand_profile(np.ones(4)), 3.0) == 1.0
    vals = np.array([1.0, 0.0, 0.0, 0.0])
    # 6 samples from any start cover one full period plus two samples
    assert geometry.relative_density_1d(_hand_profile(vals), 1.5) == pytest.approx(1.0 / 6.0)


def test_comb_profile_periodic_follows_periodic_t():
    f = fields.make_field("e-beta", dim=2, period=24.0, grid=128, beta=0.5)
    kwargs = dict(n_x=8, samples_per_unit=4.0)
    assert not geometry.comb_profile(f, geometry.Direction(0.3), 2.0, **kwargs).periodic
    assert geometry.comb_profile(f, geometry.Direction(0.3), 2.0, periodic_t=True,
                                 **kwargs).periodic


def test_rectangle_search_keeps_truncated_anchors_inside_the_box():
    """On a truncated field every descent probe moves its anchor into the
    admissible box, so the reported rectangle lies inside the field's box
    instead of wrapping across its edge, and re-measures to the value."""
    f = fields.make_field("half-strip-comb", dim=2, period=2.0, grid=128)
    val, spec = geometry.rectangle_density_inf(f, 0.0, 1.0, [1.0, 2.0], direction_grid_size=8,
                                               anchor_grid_size=2, n_samples=128)
    across, along = spec.side_s * spec.theta.perp, spec.side_t * spec.theta.vector
    corners = np.asarray(spec.anchor) + np.array([[0.0, 0.0], across, along, across + along])
    assert corners.min() >= f.origin - 1e-12
    assert corners.max() <= f.origin + f.period + 1e-12
    assert _rectangle_density(f, spec, 128) == val


def _point_array_window_means(field, anchor_axes, body):
    """The window means as computed before the per-axis form: the whole
    anchors x body point array is built and evaluated. Kept as the oracle
    that geometry._window_means must match bit for bit."""
    grid = np.meshgrid(*[np.asarray(a, dtype=np.float64) for a in anchor_axes], indexing="ij")
    anchors = np.stack([c.ravel() for c in grid], axis=-1)
    pts = anchors[:, None, :] + body[None, :, :]
    return fields.evaluate(field, tuple(np.moveaxis(pts, -1, 0))).mean(axis=1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_window_search_matches_the_point_array_reference(data):
    """gcc_constant and rectangle_density_inf return the same bits, and the
    same argmin rectangle, as when every window mean builds its points:
    random 1d and 2d fields, periodic and truncated."""
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = data.draw(st.integers(2, 600), label="grid")
    period = data.draw(st.floats(0.5, 50.0), label="period")
    truncated = data.draw(st.booleans(), label="truncated")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    vals = rng.random((grid,) * dim)
    if truncated:
        f = fields.ObservationField(dim, period, grid, vals, origin=-period / 2.0,
                                    family={"name": "half-strip-comb"})
    else:
        origin = data.draw(st.floats(-10.0, 10.0), label="origin")
        f = fields.make_field("custom-grid", dim=dim, period=period, grid=grid, origin=origin,
                              values=vals)
    L = period * data.draw(st.floats(0.05, 0.6), label="L / period")
    n_anchor = data.draw(st.integers(8, 10), label="anchor grid")
    n_samples = data.draw(st.integers(2, 300), label="n_samples")
    lams = data.draw(st.lists(st.floats(1.0, 4.0), min_size=1, max_size=2), label="lams")
    beta = data.draw(st.floats(0.0, 1.0), label="beta")

    def run():
        out = []
        for call in (lambda: geometry.gcc_constant(f, L, direction_grid_size=8,
                                                    anchor_grid_size=n_anchor, n_samples=n_samples),
                     lambda: geometry.rectangle_density_inf(f, beta, L, lams, direction_grid_size=6,
                                                            anchor_grid_size=n_anchor,
                                                            n_samples=n_samples)):
            try:
                out.append(call())
            except ValueError as exc:  # no window fits a truncated box
                out.append(str(exc))
        return out

    got = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_window_means", _point_array_window_means)
        want = run()
    assert got == want


def test_rectangle_grid_routes_every_point_through_evaluate(monkeypatch):
    """The grid phase still calls geometry.evaluate, with a result of the
    full (anchors, anchors, body) shape per (rectangle, angle), so a
    tracer that wraps that name counts every point; each descent probe
    then evaluates one body."""
    f = fields.make_field("periodic-square", dim=2, period=1.0, grid=64, delta=0.4)
    shapes = []
    real = geometry.evaluate

    def spy(field, points):
        out = real(field, points)
        shapes.append(np.shape(out))
        return out

    monkeypatch.setattr(geometry, "evaluate", spy)
    lams, n_dirs, n_anchor, n_samples = [1.0, 3.0], 5, 6, 200
    geometry.rectangle_density_inf(f, 0.5, 0.8, lams, direction_grid_size=n_dirs,
                                   anchor_grid_size=n_anchor, n_samples=n_samples)
    grid_calls = len(lams) * n_dirs
    for j, lam in enumerate(lams):
        spec = geometry.RectangleSpec(geometry.Direction(0.0), (0.0, 0.0), 0.8, lam, 0.5)
        for a in range(n_dirs):
            theta = geometry.Direction(math.pi * a / n_dirs)
            k = len(geometry._rect_body(theta, spec.side_s, spec.side_t, n_samples, 2))
            shape = shapes[j * n_dirs + a]
            assert shape == (n_anchor, n_anchor, k)
            assert math.prod(shape) == n_anchor ** 2 * k
    probes = shapes[grid_calls:]
    assert probes and all(len(s) == 3 and s[:2] == (1, 1) for s in probes)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_correlated_means_agree_with_window_means(data):
    """On random periodic 1d and 2d fields whose anchor lattice steps an
    odd number of cells, so that the first anchor sits mid-cell, the
    correlated means equal _window_means to within delta / 100: segment
    and rectangle bodies, some longer than the period."""
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    n_anchor = data.draw(st.integers(1, 10), label="anchor grid")
    step = 2 * data.draw(st.integers(0, 30 if dim == 1 else 8), label="step // 2") + 1
    period = data.draw(st.floats(0.1, 50.0), label="period")
    origin = data.draw(st.floats(-20.0, 20.0), label="origin")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    grid = max(2, n_anchor * step)  # make_field needs 2 samples a side
    f = fields.make_field("custom-grid", dim=dim, period=period, grid=grid, origin=origin,
                          values=rng.random((grid,) * dim))
    length = period * data.draw(st.floats(0.05, 3.5), label="length / period")
    k = data.draw(st.integers(2, 400), label="body points")
    theta = geometry.Direction(data.draw(st.floats(0.0, 2.0 * math.pi), label="angle"))
    if data.draw(st.booleans(), label="segment"):
        dvec = theta.vector if dim == 2 else np.array([theta.sign])
        body = geometry._segment_body(dvec, length, k)
    else:
        side_s = period * data.draw(st.floats(0.01, 1.0), label="side_s / period")
        body = geometry._rect_body(theta, side_s, length, k, dim)
    axes = geometry._anchor_grid(np.full(dim, origin), np.full(dim, origin + period), n_anchor,
                                 dim)
    got = geometry._correlated_means(f, axes, body)
    want = geometry._window_means(f, axes, body)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= geometry._correlation_bound(f, body) / 100


def test_correlation_bound_is_small_on_the_density_fields():
    """delta on a 64 x 64 unit torus with the L = 3 segment body is far
    below any gap the search resolves, so the re-measured candidates are
    the near ties only."""
    f = fields.make_field("constant", dim=2, period=1.0, grid=64)
    body = geometry._segment_body(np.array([0.6, 0.8]), 3.0, 576)
    assert geometry._correlation_bound(f, body) < 1e-10


def _density_searches(f):
    """The density workload's searches on one field: the L = 3 segment
    infimum and the three rectangle plans, each with its argmin."""
    g = geometry.gcc_constant(f, 3.0, direction_grid_size=24, anchor_grid_size=8)
    rects = [geometry.rectangle_density_inf(f, beta, 3.0, lams, direction_grid_size=16,
                                            anchor_grid_size=8)
             for beta, lams in ((0.0, [1.0, 4.0]), (0.5, [1.0, 4.0]), (1.0, [1.0, 2.0]))]
    return g, rects


def test_correlated_ranking_returns_the_bits_of_the_evaluate_search(monkeypatch):
    """With the correlated ranking on, gcc_constant and
    rectangle_density_inf return the same values and argmin rectangles,
    compared by ==, as the same search that measures every anchor by
    _window_means. The fields: the criterion-3 generator's field 6 at seed
    1, where theta and theta + pi tie exactly (ranking by the correlation
    alone picks another value there), its field 8 at seed 2 (a search
    with delta = 0, or that re-measures only the least correlated anchor,
    returns other bits there), random 1d and 2d fields whose anchors sit
    mid-cell, and a field whose window means tie along x."""
    from test_acceptance import _random_periodic_field

    cases = []
    for seed, number in ((1, 6), (2, 8)):
        rng = np.random.default_rng(seed)
        cases.append([_random_periodic_field(rng) for _ in range(number)][-1])
    rng = np.random.default_rng(23)
    for dim, grid in ((1, 72), (2, 24)):
        cases.append(fields.make_field("custom-grid", dim=dim, period=1.7, grid=grid,
                                       origin=-0.3, values=rng.random((grid,) * dim)))
    # constant along x: every window mean ties across a row of anchors
    cases.append(fields.make_field("custom-grid", dim=2, period=1.0, grid=32,
                                   values=np.tile(rng.random(32), (32, 1))))
    ran = []
    real = geometry._correlated_means

    def spy(*args):
        ran.append(args[0].dim)
        return real(*args)

    monkeypatch.setattr(geometry, "_correlated_means", spy)
    got = [_density_searches(f) for f in cases]
    assert sorted(set(ran)) == [1, 2]
    monkeypatch.setattr(geometry, "_correlation_pays", lambda *args: False)
    ran.clear()
    want = [_density_searches(f) for f in cases]
    assert ran == []
    assert got == want


_FIELD_2D = fields.make_field("periodic-square", dim=2, period=1.0, grid=32, delta=0.5)
_PROFILE = geometry.CombProfile(geometry.Direction(0.0), 0.5, np.ones(8), 0.125)


@pytest.mark.parametrize("call, name", [
    (lambda: geometry.rectangle_density_inf(_FIELD_2D, 0.5, 0.5, [1.0], anchor_grid_size=0),
     "anchor_grid_size"),
    (lambda: geometry.rectangle_density_inf(_FIELD_2D, 0.5, 0.5, [1.0], direction_grid_size=0),
     "direction_grid_size"),
    (lambda: geometry.rectangle_density_inf(_FIELD_2D, 0.5, 0.5, [1.0], n_samples=0), "n_samples"),
    (lambda: geometry.rectangle_density_inf(_FIELD_2D, 0.5, math.nan, [1.0]), "L"),
    (lambda: geometry.rectangle_density_inf(_FIELD_2D, 0.5, math.inf, [1.0]), "L"),
    (lambda: geometry.rectangle_density_inf(_FIELD_2D, 0.5, 0.5, [1.0], n_samples=2.5),
     "n_samples"),
    (lambda: geometry.gcc_constant(_FIELD_2D, 0.5, n_samples=1), "n_samples"),
    (lambda: geometry.gcc_constant(_FIELD_2D, 0.5, direction_grid_size=4), "direction_grid_size"),
    (lambda: geometry.gcc_constant(_FIELD_2D, 0.5, anchor_grid_size=4), "anchor_grid_size"),
    (lambda: geometry.gcc_constant(_FIELD_2D, math.nan), "L"),
    (lambda: geometry.gcc_constant(_FIELD_2D, -1.0), "L"),
    (lambda: geometry.comb_profile(_FIELD_2D, geometry.Direction(0.0), 0.5, n_x=0), "n_x"),
    (lambda: geometry.comb_profile(_FIELD_2D, geometry.Direction(0.0), 0.5, samples_per_unit=0),
     "samples_per_unit"),
    (lambda: geometry.comb_profile(_FIELD_2D, geometry.Direction(0.0), math.nan), "M"),
    (lambda: geometry.comb_profile(_FIELD_2D, geometry.Direction(0.0), 0.5, x_extent=0.0),
     "x_extent"),
    pytest.param(lambda: geometry.comb_profile(_FIELD_2D, geometry.Direction(0.0), 0.5, n_x=2.5),
                 "n_x", id="n_x-float"),
    pytest.param(lambda: geometry.comb_profile(_FIELD_2D, geometry.Direction(0.0), 0.5, n_x=True),
                 "n_x", id="n_x-bool"),
    pytest.param(lambda: geometry.gcc_constant(_FIELD_2D, 0.5, anchor_grid_size=8.0),
                 "anchor_grid_size", id="anchor_grid_size-float"),
    pytest.param(lambda: geometry.Direction(math.nan), "angle", id="angle-nan"),
    pytest.param(lambda: geometry.Direction(-math.inf), "angle", id="angle-inf"),
    (lambda: geometry.relative_density_1d(_PROFILE, math.nan), "L"),
    (lambda: geometry.relative_density_1d(_PROFILE, 0.0), "L"),
    (lambda: geometry.line_average(_FIELD_2D, geometry.LineSegment((0.0, 0.0),
                                                                    geometry.Direction(0.0), 0.5),
                                   n_samples=1), "n_samples"),
])
def test_geometry_rejects_bad_input(call, name):
    """Each bad size or length raises a ValueError that names it."""
    with pytest.raises(ValueError, match=rf"^{name} must"):
        call()
