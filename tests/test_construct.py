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
        ts = np.linspace(0.0, W, 4001)
        brute = min(float(np.sum(np.clip(np.minimum(hi, t + L) - np.maximum(lo, t), 0.0, None)))
                    for t in ts
                    for hi, lo in [(None, None)]) if False else None
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
    """_window_measures one critical offset at a time."""
    iv = Y.intervals(-Y.period, 2.0 * Y.period)
    crit = np.unique(np.mod(np.concatenate([iv.ravel(), iv.ravel() - L]), Y.period))
    return crit, np.array([np.sum(np.clip(iv[:, 1], t, t + L) - np.clip(iv[:, 0], t, t + L))
                           for t in map(float, crit)])


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 120), pitch=st.floats(0.05, 3.0), delta_frac=st.floats(0.02, 0.5),
       l_frac=st.floats(0.1, 40.0), seed=st.integers(0, 2 ** 32 - 1))
def test_window_measures_chunks_match_the_scalar_loop(n, pitch, delta_frac, l_frac, seed):
    """The chunked window measures equal, bit for bit, the sums of one
    window at a time, on ball systems with more and fewer critical
    offsets than one chunk; so do the minimum and its offset."""
    delta = delta_frac * pitch
    Y = _random_system(np.random.default_rng(seed), n * pitch, delta, n)
    L = l_frac * delta
    crit, vals = Y._window_measures(L)
    want_crit, want_vals = _window_measures_loop(Y, L)
    assert np.array_equal(crit, want_crit) and np.array_equal(vals, want_vals)
    i = int(np.argmin(want_vals))
    assert Y.window_min_measure(L) == (float(want_vals[i]), float(want_crit[i]))


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


def test_build_partition_validation():
    Y = construct.BallSystem([0.0, 2.0], 0.5, 4.0)
    with pytest.raises(ValueError):
        construct.build_partition(Y, 0.6)


def _random_system(rng, W, delta, n):
    pitch = W / n
    jitter = 0.5 * (pitch - 2.0 * delta)
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
    with pytest.raises(ValueError):
        construct.derivative_bounds(sm, orders=(4,))


def test_sliding_window_min_validation():
    with pytest.raises(ValueError):
        construct.sliding_window_min(np.ones(4), 1.0, 10.0)
