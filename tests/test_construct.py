import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obslab import construct


def test_bump_template_shape():
    u = np.array([-1.2, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.2])
    v = construct.bump_template(u)
    assert np.all(v[np.abs(u) <= 0.5] == 1.0)
    assert np.all(v[np.abs(u) >= 1.0] == 0.0)
    assert np.all((v >= 0.0) & (v <= 1.0))


def test_bump_template_mean_is_three_quarters():
    """Plateau of width 1 plus two quintic falloffs integrate to 3/2 on
    [-1, 1], so the mean is exactly 3/4."""
    u = np.linspace(-1.0, 1.0, 200001)
    mean = np.trapezoid(construct.bump_template(u), u) / 2.0
    assert mean == pytest.approx(0.75, abs=1e-9)


def test_ball_system_basics():
    Y = construct.BallSystem([3.0, 0.0, 1.0 + 6.0], 0.25, 6.0)
    assert np.allclose(Y.centers, [0.0, 1.0, 3.0])
    assert Y.measure == pytest.approx(1.5)
    assert bool(Y.contains(0.1)) and bool(Y.contains(5.9))
    assert not bool(Y.contains(0.5))


def test_ball_system_rejects_overlap():
    with pytest.raises(ValueError):
        construct.BallSystem([0.0, 0.3], 0.25, 6.0)
    with pytest.raises(ValueError):
        # wraparound spacing also counts
        construct.BallSystem([0.0, 5.9], 0.25, 6.0)


def test_window_min_measure_hand_case():
    Y = construct.BallSystem([0.0, 1.0, 3.0], 0.25, 6.0)
    # the window [3.25, 5.25] misses every ball
    wmin, wat = Y.window_min_measure(2.0)
    assert wmin == pytest.approx(0.0, abs=1e-15)
    assert 3.25 - 1e-9 <= wat <= 5.75 - 2.0 + 1e-9
    # a full-circle window sees the whole measure
    wfull, _ = Y.window_min_measure(6.0)
    assert wfull == pytest.approx(1.5, abs=1e-12)


def test_window_min_measure_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = 8
        W = 20.0
        pitch = W / n
        centers = pitch * np.arange(n) + rng.uniform(-0.2, 0.2, size=n)
        Y = construct.BallSystem(centers, 0.4, W)
        L = 3.0
        wmin, _ = Y.window_min_measure(L)
        # cheap dense check: integrate the indicator on a fine grid
        xs = np.arange(0.0, W, W / 40000)
        ind = Y.contains(xs).astype(float)
        c = np.concatenate([[0.0], np.cumsum(ind)]) * (W / 40000)
        k = int(round(L / (W / 40000)))
        ext = np.concatenate([c, c[-1] + c[1:]])
        windows = ext[k:k + len(xs)] - ext[:len(xs)]
        assert wmin <= windows.min() + 1e-3
        assert wmin >= windows.min() - 1e-3


def _window_measures_loop(Y, L):
    """The critical offsets of window_min_measure, the clipped-sum measure
    of what is left of the window past its whole turns at each, one offset
    at a time, and the measure those turns add."""
    W = Y.period
    turns, L = divmod(L, W)
    iv = Y.intervals(-W, 2.0 * W)
    crit = np.unique(np.mod(np.concatenate([iv.ravel(), iv.ravel() - L]), W))
    return crit, np.array([np.sum(np.clip(iv[:, 1], t, t + L) - np.clip(iv[:, 0], t, t + L))
                           for t in map(float, crit)]), turns * Y.measure


def _layout(layout, n, pitch, delta, seed):
    """A ball system of n balls: jittered on a lattice of the pitch, on the
    exact lattice (many equal measures), in one cluster of centre spacing
    exactly 2 delta (touching) or 2 delta - 0.9e-12 (overlapping, within
    the 1e-12 that BallSystem admits, 0.1e-12 spare for the rounding of
    the centres), each cluster leaving a stretch of empty windows, or
    sparse (one ball a pitch on a circle of 50 n pitches, mostly empty
    windows)."""
    if layout == "jittered":
        return _random_system(np.random.default_rng(seed), n * pitch, delta, n)
    if layout == "lattice":
        return construct.BallSystem(pitch * np.arange(n), delta, n * pitch)
    if layout in ("touching", "overlapping"):
        spacing = 2.0 * delta - (0.9e-12 if layout == "overlapping" else 0.0)
        return construct.BallSystem(spacing * np.arange(n), delta, (n + 1) * pitch)
    return construct.BallSystem(pitch * np.arange(n), delta, 50.0 * n * pitch)


_LAYOUTS = st.sampled_from(["jittered", "lattice", "touching", "overlapping", "sparse"])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 120), pitch=st.floats(0.05, 3.0), delta_frac=st.floats(0.02, 0.5),
       l_frac=st.floats(0.1, 40.0), seed=st.integers(0, 2 ** 32 - 1), layout=_LAYOUTS)
def test_window_measures_chunks_match_the_scalar_loop(n, pitch, delta_frac, l_frac, seed, layout):
    """The ranked search, which stops at the first chunk that holds an
    empty window, returns bit for bit the first least of the clipped sums
    of every critical offset, one window at a time, on the layouts of
    _layout, with more and fewer critical offsets than one chunk, and
    windows longer than the circle when n is small."""
    Y = _layout(layout, n, pitch, delta_frac * pitch, seed)
    L = l_frac * Y.delta
    crit, vals, turns = _window_measures_loop(Y, L)
    i = int(np.argmin(vals))
    assert Y.window_min_measure(L) == (float(vals[i] + turns), float(crit[i]))


def test_window_min_measure_counts_windows_longer_than_the_circle():
    """Windows up to 3 W long against a dense scan of the indicator: each
    whole turn of a window holds |Y|, and the rest is measured on the
    circle."""
    Y = construct.BallSystem([0.0, 1.0, 3.0], 0.25, 6.0)
    assert Y.window_min_measure(5.9)[0] == pytest.approx(1.4, abs=1e-12)
    assert Y.window_min_measure(9.0)[0] == pytest.approx(2.0, abs=1e-12)
    assert Y.window_min_measure(12.0)[0] == pytest.approx(3.0, abs=1e-12)
    assert Y.window_min_measure(6e6)[0] == pytest.approx(1.5e6, rel=1e-12)
    rng = np.random.default_rng(5)
    step = 1e-3
    for _ in range(4):
        Y = _random_system(rng, 6.0, float(rng.uniform(0.05, 0.3)), 5)
        xs = np.arange(0.0, 4.0 * Y.period, step)
        cum = np.concatenate([[0.0], np.cumsum(Y.contains(xs + 0.5 * step))]) * step
        for L in rng.uniform(0.1, 3.0 * Y.period, size=12):
            k = int(round(L / step))
            dense = np.min(cum[k:k + int(round(Y.period / step))] - cum[:int(round(Y.period / step))])
            wmin, wat = Y.window_min_measure(float(L))
            assert wmin == pytest.approx(dense, abs=2.0 * step)
            assert 0.0 <= wat < Y.period


@pytest.mark.parametrize("kwargs, match", [
    ({"centers": [0.0, np.nan], "delta": 0.1, "period": 6.0}, r"centers must be finite, got \[nan\]"),
    ({"centers": [0.0, 1.0], "delta": np.nan, "period": 6.0}, "delta must be positive and finite, got nan"),
    ({"centers": [0.0, 1.0], "delta": 0.1, "period": np.inf}, "period must be positive and finite, got inf"),
    ({"centers": [0.0, 1.0], "delta": 0.0, "period": 6.0}, "delta must be positive and finite, got 0.0"),
])
def test_ball_system_names_the_bad_argument(kwargs, match):
    with pytest.raises(ValueError, match=match):
        construct.BallSystem(**kwargs)


@pytest.mark.parametrize("L", [np.nan, 0.0, -1.0, np.inf])
def test_window_min_measure_refuses_a_bad_length(L):
    Y = construct.BallSystem([0.0, 1.0, 3.0], 0.25, 6.0)
    with pytest.raises(ValueError, match="^L must be positive and finite"):
        Y.window_min_measure(L)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 24), pitch=st.floats(0.5, 3.0), delta_frac=st.floats(0.02, 0.45),
       m_frac=st.floats(1.0, 4.0), seed=st.integers(0, 2 ** 32 - 1))
def test_build_partition_gap_bounds(n, pitch, delta_frac, m_frac, seed):
    """On random ball systems every gap lies in [M, M + 2 delta], no
    breakpoint is inside an open ball, and the span reaches one period."""
    delta = delta_frac * pitch
    Y = _random_system(np.random.default_rng(seed), n * pitch, delta, n)
    M = m_frac * 2.0 * delta
    bp = construct.build_partition(Y, M).breakpoints
    gaps = np.diff(bp)
    assert np.all(gaps >= M - 1e-9) and np.all(gaps <= M + 2.0 * delta + 1e-9)
    d = np.abs(np.mod(bp[:, None], Y.period) - Y.centers[None, :])
    assert np.all(np.minimum(d, Y.period - d) >= delta - 1e-9)
    assert bp[-2] < bp[0] + Y.period <= bp[-1]


def _first_exterior(Y, y):
    """inf{z >= y : z outside the open ball union}, with the balls within a
    turn of z unrolled anew at each step, as build_partition once did."""
    z = y
    for _ in range(len(Y.centers) + 2):
        iv = Y.intervals(z - Y.period, z + Y.period)
        inside = iv[(iv[:, 0] < z) & (z < iv[:, 1])]
        if not len(inside):
            return z
        z = float(inside[0, 1])
    return z


def _first_exterior_partition(Y, M):
    pts = [_first_exterior(Y, 0.0)]
    end = pts[0] + Y.period
    while pts[-1] < end:
        pts.append(_first_exterior(Y, pts[-1] + M))
    return np.asarray(pts)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 60), pitch=st.floats(0.05, 3.0), delta_frac=st.floats(0.02, 0.49),
       m_turns=st.floats(0.0, 6.0), seed=st.integers(0, 2 ** 32 - 1), layout=_LAYOUTS)
def test_build_partition_matches_the_first_exterior_walk(n, pitch, delta_frac, m_turns, seed,
                                                         layout):
    """The bisection walk gives the breakpoints of stepping each from a
    table unrolled anew, bit for bit: M from 2 delta (at
    least 1/500 of the circle, which bounds the cost of the old walk) to
    six times it, so that the second walk may start past the first
    table, on the layouts of _layout."""
    delta = delta_frac * pitch
    Y = _layout(layout, n, pitch, delta, seed)
    M = max(2.0 * delta, Y.period / 500.0, m_turns * Y.period)
    want = _first_exterior_partition(Y, M)
    assert np.array_equal(construct.build_partition(Y, M).breakpoints, want)


def test_build_partition_validation():
    Y = construct.BallSystem([0.0, 2.0], 0.5, 4.0)
    with pytest.raises(ValueError):
        construct.build_partition(Y, 0.6)


def _random_system(rng, W, delta, n):
    pitch = W / n
    jitter = max(0.0, 0.5 * (pitch - 2.0 * delta))  # W / n may round below 2 delta
    centers = pitch * np.arange(n) + rng.uniform(-jitter, jitter, size=n)
    return construct.BallSystem(centers, delta, W)


def test_transfer_function_constant_density():
    """A density whose cell averages stay near rho has |B| within the
    declared bound."""
    rng = np.random.default_rng(9)
    Y = _random_system(rng, 24.0, 0.2, 12)
    x = np.linspace(0.0, 48.0, 9601)
    b_vals = 0.4 + 0.1 * np.sin(2.0 * math.pi * x / 2.0)
    part = construct.build_partition(Y, 2.0)
    res = construct.transfer_function((x, b_vals), 0.4, part, tol=0.2)
    assert res.bound == pytest.approx(4.0 * part.max_gap * np.max(np.abs(b_vals)))
    assert res.max_abs <= res.bound + 1e-12


def test_transfer_function_rejects_drifting_density():
    Y = construct.BallSystem([0.0, 2.0, 4.0], 0.25, 6.0)
    x = np.linspace(0.0, 12.0, 2401)
    vals = x / 12.0  # cell averages drift
    part = construct.build_partition(Y, 1.5)
    with pytest.raises(ValueError, match="cell"):
        construct.transfer_function((x, vals), 0.5, part, tol=1e-4)


def test_transfer_function_names_first_failing_cell():
    Y = construct.BallSystem([0.0, 2.0, 4.0], 0.25, 6.0)
    x = np.linspace(0.0, 12.0, 2401)
    part = construct.build_partition(Y, 1.5)
    vals = np.where(x < 5.0, 0.5, 0.9)  # the interpolant leaves 0.5 after x = 4.995
    first = int(np.argmax(part.breakpoints[1:] > 4.995))
    assert first > 0
    with pytest.raises(ValueError, match=f"^cell {first} average "):
        construct.transfer_function((x, vals), 0.5, part, tol=1e-9)


def test_transfer_function_random_bound_loop():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(8, 16))
        W = float(n) * 2.0
        Y = _random_system(rng, W, 0.15, n)
        # sample b past one turn so the partition stays in range
        x = np.linspace(0.0, 2.0 * W, 8001)
        vals = 0.5 + 0.2 * np.sin(2.0 * math.pi * x * n / W)
        part = construct.build_partition(Y, 1.2)
        res = construct.transfer_function((x, vals), 0.5, part, tol=0.25)
        assert res.max_abs <= res.bound + 1e-12
        bp_vals = res.breakpoint_values
        assert np.max(np.abs(bp_vals - bp_vals[0])) <= 0.25 * 4.0 * part.max_gap + 1e-9


def test_smooth_minorant_properties():
    rng = np.random.default_rng(13)
    Y = _random_system(rng, 40.0, 0.05, 40)
    M = 2.0
    wmin, _ = Y.window_min_measure(M)
    rho = 0.8 * wmin / M
    sm = construct.smooth_minorant(Y, M, rho)
    # support containment is exact on the sampled grid
    member = Y.contains(sm.x)
    assert np.all(sm.values[~member] == 0.0)
    assert np.all((sm.values >= 0.0) & (sm.values <= 1.0 + 1e-12))
    assert sm.eta == pytest.approx(3.0 * rho / 8.0)
    assert sm.eta >= rho / 4.0
    assert np.all(sm.t_scales >= rho / 2.0 - 1e-12)
    assert np.all(sm.t_scales <= 1.0 + 1e-12)
    density = construct.sliding_window_min(sm.values, sm.step, 2.0 * M)
    assert density >= 0.99 * rho / 8.0


def test_smooth_minorant_validation():
    rng = np.random.default_rng(14)
    Y = _random_system(rng, 12.0, 0.05, 12)
    with pytest.raises(ValueError):
        construct.smooth_minorant(Y, 1.0, 1.5)
    with pytest.raises(ValueError):
        construct.smooth_minorant(Y, 0.08, 0.5)  # delta >= M/2
    sparse = construct.BallSystem([0.0], 0.05, 12.0)
    with pytest.raises(ValueError, match="window"):
        construct.smooth_minorant(sparse, 1.0, 0.5)


def test_smooth_minorant_refuses_too_many_samples():
    """100 balls of radius 1e-4 on the unit circle at rho = 0.016 need
    2e7 samples of step 5e-8, twice the limit: refused before sampling."""
    Y = construct.BallSystem(np.arange(100) / 100, 1e-4, 1.0)
    with pytest.raises(ValueError, match=r"needs 20000001 samples .* the limit is 10000000"):
        construct.smooth_minorant(Y, 0.5, 0.016)


def test_derivative_bounds_hold():
    rng = np.random.default_rng(16)
    Y = _random_system(rng, 20.0, 0.05, 20)
    wmin, _ = Y.window_min_measure(2.0)
    sm = construct.smooth_minorant(Y, 2.0, 0.8 * wmin / 2.0)
    fd = construct.derivative_bounds(sm)
    assert set(fd.keys()) == {1, 2, 3}
    for m, rec in fd.items():
        assert rec["ok"]
        assert rec["max_a"] <= rec["allowed"]


def test_sliding_window_min_validation():
    with pytest.raises(ValueError):
        construct.sliding_window_min(np.ones(4), 1.0, 10.0)
    for spacing, L, name in [(1.0, 0.0, "L"), (1.0, -2.0, "L"), (1.0, np.nan, "L"),
                             (0.0, 2.0, "spacing"), (-1.0, 2.0, "spacing"), (np.nan, 2.0, "spacing")]:
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            construct.sliding_window_min(np.arange(4.0), spacing, L)


def _derivative_bounds_full(sm):
    """derivative_bounds' maxima from whole-array differences."""
    h, a = sm.step, sm.values
    A = np.concatenate([[0.0], np.cumsum(0.5 * (a[1:] + a[:-1]) - sm.eta) * h]) / sm.M
    out = {}
    for f, key in [(a, "max_a"), (A, "max_A_over_M")]:
        fd = {1: (f[2:] - f[:-2]) / (2.0 * h),
              2: (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h),
              3: (-f[:-4] + 2.0 * f[1:-3] - 2.0 * f[3:-1] + f[4:]) / (2.0 * h ** 3)}
        for m, d in fd.items():
            out.setdefault(m, {})[key] = float(np.max(np.abs(d)))
    return out


@pytest.mark.parametrize("extra", [-3, 0, 1, 2, 3, 4, 5])
def test_blocked_derivative_bounds_match_the_whole_array(extra):
    """Samples a few below, at and just above one block (and two): the
    blocked maxima are those of the whole-array differences, bit for bit,
    wherever the largest difference falls."""
    rng = np.random.default_rng(40 + extra)
    Y = _random_system(rng, 20.0, 0.05, 20)
    wmin, _ = Y.window_min_measure(2.0)
    sm = construct.smooth_minorant(Y, 2.0, 0.8 * wmin / 2.0)
    for n in (construct._FD_BLOCK + extra, 2 * construct._FD_BLOCK + extra):
        part = construct.SmoothMinorant(sm.x[:n], sm.values[:n].copy(), sm.eta, Y, sm.M,
                                        sm.rho, sm.t_scales, sm.partition)
        for i in {n - 1, n - 3, construct._FD_BLOCK - 1, construct._FD_BLOCK + 1} & set(range(n)):
            part.values[i] += 0.25  # the largest differences at block edges
            got = construct.derivative_bounds(part)
            for m, want in _derivative_bounds_full(part).items():
                assert (got[m]["max_a"], got[m]["max_A_over_M"]) == (want["max_a"], want["max_A_over_M"])
            part.values[i] -= 0.25
