import contextlib
import math
import multiprocessing
import os
import signal

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from obslab import cli, covering, fields, geometry


def test_rational_direction_properties():
    r = covering.RationalDirection(3, 4)
    assert r.T == pytest.approx(5.0)
    assert r.angle == pytest.approx(math.atan2(4, 3))
    v = r.direction.vector
    assert v[0] == pytest.approx(0.6) and v[1] == pytest.approx(0.8)


def test_rational_direction_must_be_primitive():
    with pytest.raises(ValueError):
        covering.RationalDirection(0, 0)
    with pytest.raises(ValueError):
        covering.RationalDirection(2, 4)


def test_certificate_validation():
    covering.Certificate("gcc", 3.0, 0.1)
    covering.Certificate("comb", 3.0, 0.1, L=1.0)
    with pytest.raises(ValueError):
        covering.Certificate("magic", 3.0, 0.1)
    with pytest.raises(ValueError):
        covering.Certificate("comb", 3.0, 0.1)


def test_bezout_bounded_examples():
    assert covering.bezout_bounded(3, 5, 7) == (4, -1)
    assert covering.bezout_bounded(2, 5, 10) == (0, 2)
    assert covering.bezout_bounded(-3, 5, 7) == (-4, -1)


def test_bezout_bounded_validation():
    with pytest.raises(ValueError):
        covering.bezout_bounded(4, 6, 5)
    with pytest.raises(ValueError):
        covering.bezout_bounded(3, 5, 16)
    with pytest.raises(ValueError):
        covering.bezout_bounded(3, 5, 0)


nonzero = st.integers(-300, 300).filter(bool)


@settings(max_examples=500, deadline=None)
@given(P=nonzero, Q=nonzero, data=st.data())
def test_bezout_bounded_random(P, Q, data):
    assume(math.gcd(P, Q) == 1)
    n = data.draw(st.integers(1, abs(P * Q)), label="n")
    a, b = covering.bezout_bounded(P, Q, n)
    assert a * P + b * Q == n
    assert abs(a) <= abs(Q) and abs(b) <= abs(P)


def test_dirichlet_direction_contract():
    """T <= 2 lam^gamma and chord distance <= 2/(lam^gamma T)."""
    rng = np.random.default_rng(5)
    for lam in (16.0, 256.0, 4096.0):
        cap = lam ** 0.25
        for _ in range(200):
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            r = covering.dirichlet_direction(geometry.Direction(phi), lam)
            assert math.gcd(abs(r.p), abs(r.q)) == 1
            assert r.T <= 2.0 * cap + 1e-12
            v = r.direction.vector
            chord = math.hypot(v[0] - math.cos(phi), v[1] - math.sin(phi))
            assert chord <= 2.0 / (cap * r.T) + 1e-12


@settings(max_examples=300, deadline=None)
@given(x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0), lam=st.floats(1.0, 1e10),
       gamma=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
def test_dirichlet_direction_contract_random(x, y, lam, gamma):
    """The contract over random directions, scales and exponents."""
    nrm = math.hypot(x, y)
    assume(nrm > 1e-6)
    r = covering.dirichlet_direction((x, y), lam, gamma=gamma)
    cap = lam ** gamma
    assert math.gcd(abs(r.p), abs(r.q)) == 1
    assert r.T <= 2.0 * cap
    v = r.direction.vector
    assert math.hypot(v[0] - x / nrm, v[1] - y / nrm) <= 2.0 / (cap * r.T) + 1e-9


def test_dirichlet_direction_validation():
    with pytest.raises(ValueError):
        covering.dirichlet_direction(geometry.Direction(0.1), 0.5)
    with pytest.raises(ValueError):
        covering.dirichlet_direction(geometry.Direction(0.1), 16.0, gamma=0.7)
    with pytest.raises(ValueError):
        covering.dirichlet_direction((0.0, 0.0), 16.0)


def test_farey_directions_census():
    dirs = covering.farey_directions(40.0)
    assert len(dirs) == 3064
    assert dirs[0] == covering.RationalDirection(1, 0)
    assert len(set((d.p, d.q) for d in dirs)) == len(dirs)
    for d in dirs:
        assert d.T <= 40.0
        assert math.gcd(abs(d.p), abs(d.q)) == 1
    keys = [(d.T, d.angle) for d in dirs]
    assert keys == sorted(keys)


def _gap(a, b):
    """Distance between two angles on the circle."""
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


# the 8 signed permutations (a, b, c, d): (x, y) -> (a x + b y, c x + d y)
SIGNED_PERMUTATIONS = [(sx, 0, 0, sy) for sx in (1, -1) for sy in (1, -1)] + \
                      [(0, sx, sy, 0) for sx in (1, -1) for sy in (1, -1)]
# tol >= 0.005 keeps every answer at T <= 100 sqrt(2): a slope interval
# of width 2 tol holds a fraction of denominator <= 1 / (2 tol)
FAREY = covering.farey_directions(150.0)
FAREY_T = np.array([d.T for d in FAREY])
FAREY_ANGLE = np.array([d.angle for d in FAREY])
SMALL = covering.farey_directions(5.0)


@st.composite
def _angles(draw):
    """Exact axes and diagonals, random angles, and angles just outside
    tol of a small-T direction."""
    k = draw(st.integers(0, 3))
    return draw(st.one_of(
        st.just(k * math.pi / 2.0),
        st.just(math.pi / 4.0 + k * math.pi / 2.0),
        st.floats(0.0, 2.0 * math.pi),
        st.tuples(st.sampled_from(SMALL), st.sampled_from([-1.0, 1.0]),
                  st.floats(1e-6, 0.5)).map(lambda t: ("outside", *t)),
    ))


@settings(max_examples=300, deadline=None)
@given(spec=_angles(), tol=st.floats(0.005, 0.3))
def test_nearest_rational_is_the_least_T_within_tol(spec, tol):
    """The result is primitive and within tol of the angle, no primitive
    direction of smaller T is, and mapping commutes with the lattice's
    signed permutations."""
    if isinstance(spec, tuple):
        _, near, side, excess = spec
        angle = near.angle + side * tol * (1.0 + excess)
    else:
        angle = spec
    gaps = np.abs((FAREY_ANGLE - angle + math.pi) % (2.0 * math.pi) - math.pi)
    # a direction within rounding of the tolerance's edge may go either way
    assume(np.all(np.abs(gaps - tol) > 1e-9 * tol))
    r = covering._nearest_rational(angle, tol)
    assert math.gcd(abs(r.p), abs(r.q)) == 1
    assert _gap(r.angle, angle) <= tol
    assert r.T <= 100.0 * math.sqrt(2.0) + 1e-9
    assert np.all(gaps[FAREY_T < r.T - 1e-9] > tol)
    x, y = math.cos(angle), math.sin(angle)
    for a, b, c, d in SIGNED_PERMUTATIONS:
        image = math.atan2(c * x + d * y, a * x + b * y)
        assert covering._nearest_rational(image, tol) == \
            covering.RationalDirection(a * r.p + b * r.q, c * r.p + d * r.q)


def test_periodic_covering_census():
    cov = covering.periodic_effective_covering(0.3, 1.0, 160000.0)
    ver = covering.verify_covering(cov)
    assert ver.n_entries == 3064
    assert ver.covers and ver.budget_ok and ver.ok
    assert ver.worst_margin == pytest.approx(0.39993749999999995, abs=1e-12)
    kinds = {}
    for e in cov.entries:
        kinds[e.certificate.kind] = kinds.get(e.certificate.kind, 0) + 1
    assert kinds == {"comb": 24, "gcc": 3040}
    assert cov.meta["lam0"] == pytest.approx(160000.0)
    assert cov.meta["T0"] == pytest.approx(1.0 / 0.3)


def test_periodic_covering_floor_formulas():
    cov = covering.periodic_effective_covering(0.3, 1.0, 160000.0)
    g = 160000.0 ** 0.25
    for e in cov.entries:
        T = e.rational.T
        cert = e.certificate
        if cert.kind == "gcc":
            assert cert.M == pytest.approx(T + 2.0)
            assert cert.eta_floor == pytest.approx(0.9 * 0.3 ** 2 * T / (2.0 * (T + 2.0)))
            assert e.eps == pytest.approx(4.0 / (g * T))
        else:
            assert cert.M == pytest.approx(2.0 * T + 4.0)
            assert cert.L == pytest.approx(1.0 / T)
            assert cert.eta_floor == pytest.approx(0.9 * T * 0.3 ** 2 / (2.0 * T + 4.0))
            assert e.eps == pytest.approx(2.0 / (g * T))


def test_periodic_covering_admissibility_gate():
    with pytest.raises(ValueError):
        covering.periodic_effective_covering(0.3, 1.0, 159999.0)
    # exact threshold with float dust just below is admitted
    cov = covering.periodic_effective_covering(0.3, 1.0, 160000.0 * (1.0 - 1e-13))
    assert covering.verify_covering(cov).budget_ok


def test_product_covering_census():
    cov = covering.product_effective_covering(1.0, 192.00000000000017, 0.5, 6144.0,
                                              eta_axis=0.9 * 0.36,
                                              eta_diag=0.9 * 0.1)
    ver = covering.verify_covering(cov)
    assert ver.n_entries == 4064
    assert ver.ok
    assert ver.worst_margin == pytest.approx(0.125, abs=1e-12)
    kinds = {}
    for e in cov.entries:
        kinds[e.certificate.kind] = kinds.get(e.certificate.kind, 0) + 1
    assert kinds == {"comb": 4, "gcc": 4060}


def test_product_covering_admissibility_gate():
    with pytest.raises(ValueError):
        covering.product_effective_covering(1.0, 192.00000000000017, 0.5, 6143.0)
    # lam0 carries float dust slightly above 6144; the gate tolerates it
    cov = covering.product_effective_covering(1.0, 192.00000000000017, 0.5, 6144.0)
    assert covering.verify_covering(cov).budget_ok


def test_verify_covering_detects_gaps():
    cert = covering.Certificate("gcc", 2.0, 0.1)
    entries = [covering.CoveringEntry(0.0, 0.05, cert),
               covering.CoveringEntry(math.pi, 0.05, cert)]
    cov = covering.EffectiveCovering(entries, 1.0, 1e6)
    ver = covering.verify_covering(cov)
    assert not ver.covers
    assert len(ver.gaps) >= 2
    assert not ver.ok


def _uncovered(thetas, entries):
    """Brute force: which of the angles lie in no cap, with 1e-9 of slack
    for roundoff."""
    out = np.ones(len(thetas), dtype=bool)
    for e in entries:
        if e.eps >= 2.0:
            return np.zeros(len(thetas), dtype=bool)
        dist = np.abs((thetas - e.angle + math.pi) % (2.0 * math.pi) - math.pi)
        out &= dist > 2.0 * math.asin(e.eps / 2.0) + 1e-9
    return out


@settings(max_examples=200, deadline=None)
@given(caps=st.lists(st.tuples(st.floats(0.0, 2.0 * math.pi, exclude_max=True),
                               st.floats(1e-3, 2.5)), min_size=1, max_size=12))
def test_verify_covering_matches_brute_force(caps):
    """covers means no sampled angle is uncovered, and every reported gap
    wider than 1e-3 has an uncovered midpoint."""
    cert = covering.Certificate("gcc", 1.0, 0.1)
    entries = [covering.CoveringEntry(a, eps, cert) for a, eps in caps]
    ver = covering.verify_covering(covering.EffectiveCovering(entries, 1.0, 1e6))
    if ver.covers:
        samples = np.linspace(0.0, 2.0 * math.pi, 20000, endpoint=False)
        assert not _uncovered(samples, entries).any()
    mids = np.array([0.5 * (lo + hi) for lo, hi in ver.gaps if hi - lo > 1e-3])
    assert _uncovered(mids, entries).all()


def test_verify_covering_detects_budget_violation():
    cert = covering.Certificate("gcc", 2.0, 0.1)
    cov = covering.EffectiveCovering([covering.CoveringEntry(0.0, 3.0, cert)], 1.0, 1e6)
    ver = covering.verify_covering(cov)
    assert ver.covers  # eps >= 2 is the whole circle
    assert not ver.budget_ok
    assert ver.worst_margin < 0.0


def test_covering_to_dict_records_every_entry():
    cov = covering.periodic_effective_covering(0.3, 1.0, 160000.0)
    d = covering.covering_to_dict(cov)
    assert d["rho"] == cov.rho and d["lam"] == cov.lam
    assert d["meta"] == cov.meta
    assert len(d["entries"]) == len(cov.entries)
    for e, rec in zip(cov.entries, d["entries"]):
        cert = e.certificate
        assert (rec["angle"], rec["eps"], rec["kind"]) == (e.angle, e.eps, cert.kind)
        assert (rec["M"], rec["L"], rec["eta_floor"]) == (cert.M, cert.L, cert.eta_floor)
        assert (rec["p"], rec["q"]) == (e.rational.p, e.rational.q)


def test_default_builder_dispatch():
    fps = fields.make_field("periodic-square", dim=2, period=1.0, grid=64, delta=0.3)
    build = covering.default_covering_builder(fps, 1.0)
    cov = build(160000.0)
    assert cov.meta["builder"] == "periodic"
    assert cov.meta["delta_level"] == pytest.approx(0.3)

    fp = fields.make_field("product", dim=2, period=1.0, grid=64,
                           intervals_x="0:0.6", intervals_y="0:0.6")
    build = covering.default_covering_builder(fp, 0.5)
    cov = build(6144.0)
    assert cov.meta["builder"] == "product"
    assert len(cov.entries) == 4064


def test_default_builder_requires_integer_period():
    f = fields.make_field("periodic-square", dim=2, period=2 * math.pi,
                          grid=64, delta=0.3)
    with pytest.raises(ValueError, match="integer"):
        covering.default_covering_builder(f, 1.0)


def test_default_builder_escape_hatch_message():
    f = fields.make_field("e-beta", dim=2, period=24.0, grid=64, beta=0.5)
    with pytest.raises(ValueError, match="no built-in covering for family 'e-beta'"):
        covering.default_covering_builder(f, 1.0)


@pytest.mark.parametrize("family, key, params", [
    ("product", "intervals_y", {"intervals_x": "0:0.6", "intervals_y": "0:0.6"}),
    ("periodic-square", "delta", {"delta": 0.3}),
])
def test_default_builder_reads_family_record_without_fallback(family, key, params):
    f = fields.make_field(family, dim=2, period=1.0, grid=64, **params)
    del f.family[key]
    with pytest.raises(ValueError, match=f"no '{key}' parameter"):
        covering.default_covering_builder(f, 0.5)


def test_certify_constant_field_all_pass():
    """Every certificate floor is below 1, so the constant field passes
    and repeated lambdas reuse cached measurements."""
    f = fields.make_field("constant", dim=2, period=1.0, grid=64, value=1.0)
    rep = covering.comb_gcc_certify(f, 2.0, [10000.0, 10000.0 * 4.0],
                                    n_offsets=4, samples_per_unit=4.0)
    assert rep.passed
    first, second = rep.per_lambda
    assert first["all_pass"] and second["all_pass"]
    assert first["n_measured"] == first["n_entries"]
    assert second["n_entries"] > first["n_entries"]
    for e in first["entries"]:
        assert e["measured"] == pytest.approx(1.0, abs=1e-9)
        assert e["floor"] < 1.0
        assert e["pass"]
    # measurements depend on the rational direction only, so the shared
    # directions carry identical values across the lam sweep
    by_dir = {(e["p"], e["q"]): e["measured"] for e in second["entries"]}
    for e in first["entries"]:
        assert by_dir[(e["p"], e["q"])] == e["measured"]


def test_certify_fail_fast_stops_early():
    f = fields.make_field("half-strip-comb", dim=2, period=16.0, grid=256)
    rep = covering.comb_gcc_certify(f, 0.5, [2560000.0], fail_fast=True,
                                    n_offsets=8, samples_per_unit=8.0)
    assert not rep.passed
    assert rep.symmetry == []
    rec = rep.per_lambda[0]
    assert rec["stopped_early"]
    assert rec["n_measured"] < rec["n_entries"]
    failing = [e for e in rec["entries"] if e["measured"] is not None and not e["pass"]]
    assert failing


def _counting_measurements(monkeypatch):
    """Record every _measure_entry call made in this process; with one
    worker every measurement is made here."""
    monkeypatch.setattr(covering, "_worker_count", lambda: 1)
    calls = []
    measure = covering._measure_entry

    def counted(field, entry, *args):
        calls.append(entry)
        return measure(field, entry, *args)

    monkeypatch.setattr(covering, "_measure_entry", counted)
    return calls


def test_certify_measures_each_symmetry_orbit_once(monkeypatch):
    """The periodic squares are invariant under the whole square group, so
    (p, q) shares its measurement with every (+-p, +-q) and (+-q, +-p)
    of the same certificate, once per orbit and across lambda values."""
    calls = _counting_measurements(monkeypatch)
    f = fields.make_field("periodic-square", dim=2, period=1.0, grid=64, delta=0.3)
    rep = covering.comb_gcc_certify(f, 2.0, [10000.0, 40000.0], n_offsets=4,
                                    samples_per_unit=4.0)
    assert rep.symmetry == [{"kind": "transpose"}, {"kind": "flip", "axis": 0, "s": 19},
                            {"kind": "flip", "axis": 1, "s": 19}]
    orbits: dict = {}
    for pl in rep.per_lambda:
        assert pl["n_measured"] == pl["n_entries"]
        for e in pl["entries"]:
            orbit = (e["kind"], *sorted((abs(e["p"]), abs(e["q"]))), e["M"], e["L"])
            orbits.setdefault(orbit, set()).add(e["measured"])
    assert all(len(values) == 1 for values in orbits.values())
    assert len(calls) == len(orbits)
    assert sum(pl["n_measurements"] for pl in rep.per_lambda) == len(calls)
    n_directions = len({(e["p"], e["q"]) for pl in rep.per_lambda for e in pl["entries"]})
    assert 4 * len(orbits) < n_directions


def test_certify_without_symmetry_measures_each_direction_pair(monkeypatch):
    """Interval unions with no mirror symmetry and E != F leave only
    direction reversal: one measurement per +-(p, q)."""
    calls = _counting_measurements(monkeypatch)
    f = fields.make_field("product", dim=2, period=1.0, grid=100,
                          intervals_x="0:0.3,0.4:0.8", intervals_y="0:0.35,0.5:0.9")
    rep = covering.comb_gcc_certify(f, 1.9, [200.0], n_offsets=8, samples_per_unit=8.0)
    assert rep.symmetry == []
    keys = {(e["kind"], *max((e["p"], e["q"]), (-e["p"], -e["q"])), e["M"], e["L"])
            for e in rep.per_lambda[0]["entries"]}
    assert len(calls) == len(keys)
    assert 2 * len(keys) == rep.per_lambda[0]["n_entries"]


def test_certify_measures_product_caps_on_rational_directions(monkeypatch):
    """Every product record names the rational direction it was measured
    on, within h/M of a GCC cap's angle (an axis comb's own), and one
    measurement is taken per orbit of those directions under the square
    group, which the symmetric product set has."""
    calls = _counting_measurements(monkeypatch)
    f = fields.make_field("product", dim=2, period=1.0, grid=100,
                          intervals_x="0:0.6", intervals_y="0:0.6")
    rep = covering.comb_gcc_certify(f, 1.9, [200.0, 800.0], n_offsets=8, samples_per_unit=8.0)
    assert [g["kind"] for g in rep.symmetry] == ["transpose", "flip", "flip"]
    orbits = set()
    for pl in rep.per_lambda:
        assert pl["n_measured"] == pl["n_entries"]
        for e in pl["entries"]:
            assert e["T"] == math.hypot(e["p"], e["q"])
            assert math.gcd(abs(e["p"]), abs(e["q"])) == 1
            tol = f.h / e["M"] if e["kind"] == "gcc" else 0.0
            assert _gap(math.atan2(e["q"], e["p"]), e["angle"]) <= tol * (1.0 + 1e-9) + 1e-15
            orbits.add((e["kind"], *sorted((abs(e["p"]), abs(e["q"]))), e["M"], e["L"]))
    assert sum(pl["n_measurements"] for pl in rep.per_lambda) == len(orbits) == len(calls)
    assert any(e["kind"] == "gcc" and e["T"] > 1 for e in rep.per_lambda[0]["entries"])


@contextlib.contextmanager
def _deadline(seconds=120):
    """Raise TimeoutError in this process if the block runs too long, so a
    pool that hangs fails the test."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _pool_and_in_process(monkeypatch, workers, field, *args, **kwargs):
    """comb_gcc_certify on a pool of workers, then in this process."""
    calls = _counting_measurements(monkeypatch)
    monkeypatch.setattr(covering, "_worker_count", lambda: workers)
    with _deadline():
        pooled = covering.comb_gcc_certify(field, *args, **kwargs)
    assert calls == []  # the workers measured
    monkeypatch.setattr(covering, "_worker_count", lambda: 1)
    serial = covering.comb_gcc_certify(field, *args, **kwargs)
    assert len(calls) == sum(pl["n_measurements"] for pl in serial.per_lambda)
    return pooled, serial


@pytest.mark.parametrize("workers", [2, 5])
def test_certify_pool_matches_in_process(monkeypatch, workers):
    """Results are consumed in scan order, so the cache shared across lam
    values, every record and every count come out as in one process, also
    with more workers than cores."""
    f = fields.make_field("periodic-square", dim=2, period=1.0, grid=64, delta=0.3)
    pooled, serial = _pool_and_in_process(monkeypatch, workers, f, 2.0, [10000.0, 40000.0],
                                          n_offsets=4, samples_per_unit=4.0)
    assert pooled.per_lambda == serial.per_lambda
    assert pooled.passed == serial.passed
    assert [pl["n_measurements"] for pl in pooled.per_lambda] == [97, 96]
    assert multiprocessing.active_children() == []


def test_certify_pool_fail_fast_matches_in_process(monkeypatch):
    f = fields.make_field("half-strip-comb", dim=2, period=16.0, grid=256)
    pooled, serial = _pool_and_in_process(monkeypatch, 2, f, 0.5, [2560000.0], fail_fast=True,
                                          n_offsets=8, samples_per_unit=8.0)
    assert pooled.per_lambda == serial.per_lambda
    (rec,) = pooled.per_lambda
    assert rec["stopped_early"]
    assert rec["n_measurements"] < 10 and rec["n_measured"] < rec["n_entries"]
    assert multiprocessing.active_children() == []


def _boom(*args):
    raise ValueError("boom")


def _die(*args):
    os._exit(7)


@pytest.mark.parametrize("measure, error", [(_boom, ValueError), (_die, RuntimeError)])
def test_certify_pool_worker_failure_reaches_the_caller(monkeypatch, measure, error):
    """A measurement that raises re-raises in the caller; a worker that
    dies breaks the pool (a RuntimeError) instead of hanging the scan."""
    monkeypatch.setattr(covering, "_measure_entry", measure)
    monkeypatch.setattr(covering, "_worker_count", lambda: 2)
    f = fields.make_field("constant", dim=2, period=1.0, grid=16, value=1.0)
    with _deadline(), pytest.raises(error):
        covering.comb_gcc_certify(f, 2.0, [10000.0], n_offsets=4, samples_per_unit=4.0)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kwargs", [dict(lambda_list=[]), dict(n_offsets=0),
                                    dict(samples_per_unit=0.0), dict(rho=0.0),
                                    dict(samples_per_unit=math.inf), dict(n_offsets=2.5)])
def test_certify_rejects_empty_or_degenerate_inputs(kwargs):
    """An empty sweep would pass with nothing measured; zero counts and
    scales would divide by zero, an infinite scale too (inside
    comb_samples), and a fractional offset count is no count. Each error
    names its argument."""
    f = fields.make_field("constant", dim=2, period=1.0, grid=16, value=1.0)
    args = {"rho": 2.0, "lambda_list": [10000.0], **kwargs}
    with pytest.raises(ValueError, match=rf"^{next(iter(kwargs))} must"):
        covering.comb_gcc_certify(f, **args)


@pytest.mark.parametrize("argv", [
    ["cover", "--lam", "1e30"],
    ["certify", "--lambdas", "160000,1e30", "--n-offsets", "4", "--samples-per-unit", "4"],
])
def test_unbounded_covering_is_refused_up_front(tmp_path, capsys, argv):
    """A covering whose lattice scan could not finish exits 2 and names
    lam, gamma and the count; certify refuses it before measuring the
    admissible lam that precedes it."""
    field = ["--field-family", "periodic-square", "--field-grid", "32", "--rho", "1"]
    with _deadline(10):
        code = cli.main(argv + field + ["--out", str(tmp_path)])
    assert code == 2
    out, err = capsys.readouterr()
    assert "lam = 1e+30, gamma = 0.25 scans 16000000150085449 lattice points" in err
    assert "[certify]" not in out


def test_product_covering_with_too_many_entries_is_refused():
    # delta1 + delta2 = 1.001 makes the diagonal GCC caps about 3e-5 wide
    f = fields.make_field("product", dim=2, period=1.0, grid=16,
                          intervals_x="0:0.5", intervals_y="0:0.501")
    with pytest.raises(ValueError, match="lam = 1e[+]09, rho = 1 holds 137036 entries"):
        covering.default_covering_builder(f, 1.0)(1e9)


def test_certify_refuses_a_comb_profile_over_the_sample_cap(monkeypatch):
    """Over MAX_PROFILE_SAMPLES samples in one comb profile raise a
    SizeError naming samples_per_unit before any entry is measured, so no
    pool worker forks; at 1e9 samples per unit a unit comb takes 32e9."""
    def never(*args):
        raise AssertionError("an entry was measured")

    monkeypatch.setattr(covering, "_measurements", never)
    f = fields.make_field("periodic-square", dim=2, period=1.0, grid=200, delta=0.3)
    with pytest.raises(fields.SizeError, match="needs 32 x 1000000000 = 32000000000 samples") as exc:
        covering.comb_gcc_certify(f, 1.0, [160000.0], samples_per_unit=1e9)
    assert exc.value.argument == "samples_per_unit"


def test_certify_comb_profiles_stay_far_under_the_sample_cap():
    """The largest comb profile that criterion 9 or the benchmark's certify
    workload measures is that of criterion 9's product field at rho = 0.5:
    a GCC cap mapped to a direction of T = 6788 (h / M = 1e-5 leaves
    little room) at 32 samples per unit, 8 x 217,212 = 1,737,696 samples,
    about a sixth of MAX_PROFILE_SAMPLES."""
    product = fields.make_field("product", dim=2, period=1.0, grid=500,
                                intervals_x="0:0.6", intervals_y="0:0.6")
    square = fields.make_field("periodic-square", dim=2, period=1.0, grid=200, delta=0.3)
    strip = fields.make_field("half-strip-comb", dim=2, period=16.0, grid=512)
    runs = [(product, 0.5, [6144.0, 24576.0], 32, 32.0), (product, 1.0, [1024.0], 32, 32.0),
            (square, 0.5, [2.56e6, 1.024e7], 32, 32.0), (square, 1.0, [160000.0], 32, 32.0),
            (strip, 0.5, [2.56e6], 8, 8.0)]
    largest = 0
    for f, rho, lams, n_offsets, samples_per_unit in runs:
        build = covering.default_covering_builder(f, rho)
        for T in {e.rational.T for lam in lams
                  for e in covering._measured_entries(f, build(lam))}:
            *_, n_x, n_t = covering._comb_lattice(f, T, n_offsets, samples_per_unit)
            largest = max(largest, n_x * n_t)
    assert largest == 1737696
    assert 5 * largest < covering.MAX_PROFILE_SAMPLES
