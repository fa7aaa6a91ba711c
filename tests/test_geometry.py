import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from obslab import fields, geometry


def test_direction_basics():
    d = geometry.Direction(0.3)
    assert math.hypot(*d.vector) == pytest.approx(1.0, abs=1e-15)
    assert np.dot(d.vector, d.perp) == pytest.approx(0.0, abs=1e-15)
    e = geometry.Direction(math.atan2(4.0, 3.0))
    assert e.vector[0] == pytest.approx(0.6)
    assert e.vector[1] == pytest.approx(0.8)


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


def test_rectangle_density_constant_field():
    f = fields.make_field("constant", dim=2, period=1.0, grid=32, value=1.0)
    rect = geometry.RectangleSpec(geometry.Direction(0.3), (0.1, 0.2), 2.0, 4.0, 0.5)
    assert geometry.rectangle_density(f, rect, n_samples=256) == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rectangle_density_reproduces_the_reported_infimum(data):
    """The sweep, the descent probe and rectangle_density sample a
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
    assert geometry.rectangle_density(f, spec, n) == val


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


def test_gcc_constant_product_band_angle():
    """An explicit angle list pins the direction; refinement may move the
    anchor but must not wander off to the axis where the constant is 0."""
    f = fields.make_field("product", dim=2, period=1.0, grid=500,
                          intervals_x="0:0.6", intervals_y="0:0.6")
    val = geometry.gcc_constant(f, 192.0, anchor_grid_size=8, n_samples=3072,
                                angles=[0.125733])
    assert val == pytest.approx(0.34766679968264497, abs=1e-6)


def test_gcc_constant_product_axis_is_zero():
    f = fields.make_field("product", dim=2, period=1.0, grid=100,
                          intervals_x="0:0.6", intervals_y="0:0.6")
    val = geometry.gcc_constant(f, 10.0, anchor_grid_size=8, n_samples=256,
                                angles=[0.0])
    assert val == 0.0


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
    assert geometry.rectangle_density(f, spec, 128) == val
