"""Acceptance gate: twelve end-to-end checks with wall-clock budgets.

Every test prints one summary line on success; a failing assertion makes
pytest flag the criterion itself. Random inputs are seeded, so reruns are
reproducible down to the report bytes (checked last).
"""

import math
import time

import numpy as np

from obslab import construct, covering, evolution, fields, geometry, reports, spectral

TWO_PI = 2.0 * math.pi


def _finish(num, name, t0, budget=None):
    elapsed = time.perf_counter() - t0
    if budget is not None:
        assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s >= {budget}s"
    print(f"criterion {num:2d} ({name}): PASS [{elapsed:.1f}s]")


def test_criterion_01_bezout_exhaustive():
    t0 = time.perf_counter()
    n_checked = 0
    for P in range(1, 26):
        for Q in range(1, 26):
            if math.gcd(P, Q) != 1:
                continue
            for n in range(1, P * Q + 1):
                a, b = covering.bezout_bounded(P, Q, n)
                assert a * P + b * Q == n
                assert abs(a) <= Q and abs(b) <= P
                n_checked += 1
    assert n_checked > 40000
    _finish(1, "bounded Bezout pairs, exhaustive", t0, 10.0)


def test_criterion_02_dirichlet_direction_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    gamma = 0.25
    phis = rng.uniform(0.0, TWO_PI, 10_000)
    units = np.column_stack([np.cos(phis), np.sin(phis)])
    for lam in (16.0, 256.0, 4096.0):
        cap = lam ** gamma
        for u in units:
            rd = covering.dirichlet_direction(u, lam, gamma)
            assert rd.T <= 2.0 * cap + 1e-9
            diff = float(np.linalg.norm(u - rd.direction.vector))
            assert diff <= 2.0 / (cap * rd.T) + 1e-9
    _finish(2, "rational direction approximation", t0, 30.0)


def _random_periodic_field(rng):
    grid = 64
    modes = rng.integers(-2, 3, size=(6, 2))
    amps = rng.normal(size=6)
    x = np.arange(grid) / grid
    X, Y = np.meshgrid(x, x, indexing="ij")
    u = np.zeros((grid, grid))
    for (kx, ky), c in zip(modes, amps):
        u = u + c * np.cos(TWO_PI * (kx * X + ky * Y))
    vals = np.clip(0.55 + 0.6 * u, 0.0, 1.0)
    f = fields.make_field("custom-grid", dim=2, period=1.0, grid=grid, values=vals)
    return fields.mollify(f, 0.03)


def test_criterion_03_segment_floor_transfers_to_rectangles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    L = 3.0
    plans = ((0.0, [1.0, 4.0]), (0.5, [1.0, 4.0]), (1.0, [1.0, 2.0]))
    worst = math.inf
    for _ in range(20):
        f = _random_periodic_field(rng)
        g = geometry.gcc_constant(f, L, direction_grid_size=24, anchor_grid_size=8)
        for beta, lams in plans:
            r, _spec = geometry.rectangle_density_inf(
                f, beta, L, lams, direction_grid_size=16, anchor_grid_size=8)
            worst = min(worst, r - g)
            assert r >= g - 0.02, f"beta={beta}: rect inf {r} < segment inf {g} - 0.02"
    print(f"  worst rectangle-minus-segment margin: {worst:+.4f}")
    _finish(3, "segment infimum bounds rectangle infimum", t0, 300.0)


def test_criterion_04_cusp_family_axis_blind_but_rectangle_dense():
    t0 = time.perf_counter()
    f = fields.make_field("e-beta", dim=2, period=24.0, grid=512, beta=0.5)
    for seg in (
        geometry.LineSegment((f.origin, 0.0), geometry.Direction(0.0), 24.0),
        geometry.LineSegment((0.0, f.origin), geometry.Direction(math.pi / 2.0), 24.0),
    ):
        assert geometry.line_average(f, seg, n_samples=4096) == 0.0
    n_dirs, n_anchor = 16, 8
    lams = [1.0, 4.0]
    n_rects = len(lams) * n_dirs * n_anchor * n_anchor
    assert n_rects >= 1000
    r, _spec = geometry.rectangle_density_inf(
        f, 0.5, 2.0, lams, direction_grid_size=n_dirs, anchor_grid_size=n_anchor)
    assert r >= 0.05, f"rectangle density infimum {r} below 0.05"
    _finish(4, "cusp set: zero axis averages, dense rectangles", t0, 120.0)


def test_criterion_05_transfer_function_bound_and_breakpoints():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    rho = 0.5
    for _ in range(100):
        n = int(rng.integers(8, 16))
        W = 2.0 * n
        pitch = W / n
        delta = 0.15
        jitter = 0.5 * (pitch - 2.0 * delta)
        centers = pitch * np.arange(n) + rng.uniform(-jitter, jitter, size=n)
        Y = construct.BallSystem(centers, delta, W)
        part = construct.build_partition(Y, 1.5)
        bp = part.breakpoints
        xs, vs = [], []
        for k in range(len(bp) - 1):
            t = np.linspace(bp[k], bp[k + 1], 49)
            j = int(rng.integers(1, 4))
            amp = float(rng.uniform(0.05, 0.35))
            seg = rho + amp * np.sin(TWO_PI * j * (t - bp[k]) / (bp[k + 1] - bp[k]))
            if k:
                t, seg = t[1:], seg[1:]
            xs.append(t)
            vs.append(seg)
        b = (np.concatenate(xs), np.concatenate(vs))
        res = construct.transfer_function(b, rho, part, tol=1e-9)
        assert res.max_abs <= res.bound + 1e-12
        spread = float(np.max(np.abs(res.breakpoint_values - res.breakpoint_values[0])))
        assert spread <= 1e-10, f"breakpoint values drift by {spread}"
    _finish(5, "transfer function bound over random densities", t0, 10.0)


def test_criterion_06_smooth_minorant_batch():
    t0 = time.perf_counter()
    M = 2.0
    seed = 600
    for delta in (0.05, 0.1, 0.2):
        for _ in range(10):
            rng = np.random.default_rng(seed)
            seed += 1
            n = 20
            W = 20.0
            pitch = W / n
            jitter = 0.5 * (pitch - 2.0 * delta)
            centers = pitch * np.arange(n) + rng.uniform(-jitter, jitter, size=n)
            Y = construct.BallSystem(centers, delta, W)
            wmin, _ = Y.window_min_measure(M)
            assert wmin > 0.0
            rho = 0.8 * wmin / M
            sm = construct.smooth_minorant(Y, M, rho)
            member = Y.contains(sm.x)
            assert np.all(sm.values[~member] == 0.0)
            assert np.all((sm.values >= 0.0) & (sm.values <= 1.0 + 1e-12))
            assert sm.eta >= rho / 4.0
            density = construct.sliding_window_min(sm.values, sm.step, 2.0 * M)
            assert density >= 0.99 * rho / 8.0
            fd = construct.derivative_bounds(sm, orders=(1, 2, 3))
            assert all(rec["ok"] for rec in fd.values())
    _finish(6, "smooth minorants over random ball systems", t0, 60.0)


def test_criterion_07_uncertainty_constants_stable_then_collapse():
    t0 = time.perf_counter()
    N = 2048
    dense = fields.mollify(
        fields.make_field("periodic-square", dim=1, period=TWO_PI, grid=N, delta=0.3),
        0.05)
    Cs = []
    for lam in np.geomspace(16.0, 512.0, 10):
        mask = spectral.build_mask(N, 1, TWO_PI, "annulus", lam=float(lam), delta=2.0, beta=0.0)
        Cs.append(spectral.uncertainty_constant(dense, mask).value)
    Cs = np.array(Cs)
    assert np.all(np.isfinite(Cs))
    variation = float(Cs.max() / Cs.min())
    assert variation <= 5.0, f"C varies by x{variation:.2f} over the lambda sweep"

    x = TWO_PI * np.arange(N) / N
    mask = spectral.build_mask(N, 1, TWO_PI, "ball", radius=32.0)
    c_at = {}
    for gap in (0.2, 0.5, 1.0, 2.0):
        vals = (x < TWO_PI - gap).astype(np.float64)
        f = fields.make_field("custom-grid", dim=1, period=TWO_PI, grid=N, values=vals)
        c_at[gap] = spectral.uncertainty_constant(f, mask).c
    assert c_at[0.2] > 1e-3
    for gap in (0.5, 1.0, 2.0):
        assert c_at[gap] < 1e-3, f"gap {gap}: c = {c_at[gap]} not collapsed"
    print(f"  C variation x{variation:.3f}; c at gaps {c_at}")
    _finish(7, "uncertainty constant: stability and gap collapse", t0, 120.0)


def test_criterion_08_resolvent_decay_slope():
    t0 = time.perf_counter()
    f = fields.mollify(
        fields.make_field("periodic-square", dim=1, period=TWO_PI, grid=2048, delta=0.3),
        0.05)
    gamma = 1.5
    m = spectral.calibrate_m(f, gamma, 16.0)
    ks = [16, 25, 40, 64, 102, 161]
    lams = [float(k) ** gamma for k in ks]
    reps = spectral.resolvent_sweep(f, gamma, lams, m)
    vals = np.array([r.value for r in reps])
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)
    slope = float(np.polyfit(np.log(lams), np.log(vals), 1)[0])
    lo, hi = -2.0 / 3.0 - 0.2, -2.0 / 3.0 + 0.2
    assert lo <= slope <= hi, f"log-log decay slope {slope} outside [{lo}, {hi}]"
    print(f"  decay slope {slope:+.4f} vs allowed [{lo:+.4f}, {hi:+.4f}]")
    _finish(8, "fractional resolvent decay rate", t0, 300.0)


def test_criterion_09_comb_certificates():
    t0 = time.perf_counter()
    rho = 0.5

    prod = fields.make_field("product", dim=2, period=1.0, grid=500,
                             intervals_x="0:0.6", intervals_y="0:0.6")
    rep = covering.comb_gcc_certify(prod, rho, [6144.0, 24576.0], samples_per_unit=32.0)
    assert rep.passed
    for pl in rep.per_lambda:
        assert pl["covers"] and pl["budget_ok"]
        assert pl["n_measured"] == pl["n_entries"]
        assert pl["n_pass"] == pl["n_entries"]
        assert pl["worst_margin"] > 0.0

    ps = fields.make_field("periodic-square", dim=2, period=1.0, grid=200, delta=0.3)
    rep = covering.comb_gcc_certify(ps, rho, [2.56e6, 1.024e7], samples_per_unit=32.0)
    assert rep.passed
    for pl in rep.per_lambda:
        assert pl["covers"] and pl["budget_ok"]
        assert pl["n_pass"] == pl["n_entries"]
        assert pl["worst_margin"] > 0.0

    hs = fields.make_field("half-strip-comb", dim=2, period=16.0, grid=512)
    prof = geometry.comb_profile(hs, geometry.Direction(math.pi / 2.0), 6.0,
                                 x_extent=16.0, t_extent=16.0, n_x=32,
                                 samples_per_unit=32.0)
    assert float(np.max(np.abs(prof.values))) <= 1e-12
    rep = covering.comb_gcc_certify(hs, rho, [2.56e6], fail_fast=True,
                                    n_offsets=8, samples_per_unit=8.0)
    assert not rep.passed
    assert rep.per_lambda[0]["stopped_early"]
    _finish(9, "comb certificates: pass, pass, and detected failure", t0, 600.0)


def test_criterion_10_gramian_identity_and_cost_shape():
    t0 = time.perf_counter()
    const = fields.make_field("constant", dim=1, period=TWO_PI, grid=64)
    rep = evolution.observability_gramian(const, 1.0, 0.7, 4.0)
    assert abs(rep.lam_min - 0.7) <= 1e-10

    f = fields.mollify(
        fields.make_field("periodic-square", dim=1, period=TWO_PI, grid=512, delta=0.3),
        0.05)
    gamma = 1.5
    m = spectral.calibrate_m(f, gamma, 16.0)
    lams = [float(k) ** gamma for k in (16, 25, 40, 64)]
    M_worst = max(r.value for r in spectral.resolvent_sweep(f, gamma, lams, m))
    assert math.isfinite(M_worst)
    eps = 0.1
    threshold = math.sqrt(M_worst * (math.pi ** 2 + eps))
    T_list = np.linspace(2.0 * math.pi * math.sqrt(M_worst),
                         10.0 * math.pi * math.sqrt(M_worst), 5)
    assert np.all(T_list > threshold)
    ratios = []
    for T in T_list:
        direct = evolution.observability_gramian(f, 1.0, float(T), 16.0).kappa
        pred = evolution.miller_cost(M_worst, m, float(T), eps)
        assert pred is not None
        ratios.append(direct / pred)
    ratios = np.array(ratios)
    assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)
    c_fit = float(ratios.max())
    assert float(ratios.max() / ratios.min()) <= 2.0
    for T, ratio in zip(T_list, ratios):
        assert ratio <= c_fit + 1e-12
    print(f"  fitted c = {c_fit:.4f}, ratio spread x{ratios.max() / ratios.min():.3f}")
    _finish(10, "Gramian identity and predicted cost shape", t0, 300.0)


def test_criterion_11_small_time_cost_envelope():
    t0 = time.perf_counter()
    f = fields.mollify(
        fields.make_field("periodic-square", dim=1, period=TWO_PI, grid=256, delta=0.3),
        0.05)
    out = evolution.arb_time_shape_check(f, 2.0 / 3.0, np.geomspace(0.05, 0.075, 6),
                                         24.0, beta=0.5, alt_exponents=(-8.0,))
    assert out["exponent"] == -4.0
    assert out["slope"] >= 0.0
    assert out["r2"] >= 0.9
    assert out["passed"]
    print(f"  slope {out['slope']:.3e}, R^2 {out['r2']:.4f}")
    _finish(11, "small-time cost envelope fit", t0, 600.0)


def test_criterion_12_determinism(tmp_path):
    t0 = time.perf_counter()

    def build(out):
        out.mkdir(exist_ok=True)
        f = fields.make_field("periodic-square", dim=1, period=TWO_PI, grid=256, delta=0.3)
        reps = []
        for lam in (16.0, 32.0):
            mask = spectral.build_mask(256, 1, TWO_PI, "annulus", lam=lam, delta=2.0, beta=0.0)
            reps.append(spectral.uncertainty_constant(f, mask))
        payload = reports.report_envelope(
            "uncertainty", {"lambdas": [16.0, 32.0], "seed": 7},
            {"reports": [r.to_dict() for r in reps]})
        reports.write_json(out / "uncertainty_report.json", payload)
        reports.write_csv(out / "uncertainty_sweep.csv", reports.SPECTRAL_SWEEP_HEADER,
                          reports.spectral_sweep_rows(reps))

    d1, d2 = tmp_path / "a", tmp_path / "b"
    build(d1)
    build(d2)
    for name in ("uncertainty_report.json", "uncertainty_sweep.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    rng1 = np.random.default_rng(3)
    rng2 = np.random.default_rng(3)
    for _ in range(3):
        f1 = _random_periodic_field(rng1)
        f2 = _random_periodic_field(rng2)
        assert np.array_equal(f1.values, f2.values)
    _finish(12, "seeded reruns are byte-identical", t0)
