"""The four benchmark workloads and the checks on their outputs.

Each workload is a list of operations run by one closed-loop client: an
operation starts only after the previous one returned. An operation is
one CLI command (through `obslab.cli.main`) or one library sweep step.
It fails if it raises, returns an unexpected exit code, or its output
fails its check. Why each workload exists is in NOTES.md.

Only `density` takes its inputs from the seed. The others are fixed
configurations, because a certificate's verdict depends on the exact
field.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from obslab import fields, geometry

import spans

TWO_PI = repr(2.0 * math.pi)
REFERENCE = Path(__file__).with_name("reference.json")
SLOPE_RANGE = (-2.0 / 3.0 - 0.2, -2.0 / 3.0 + 0.2)


class CheckFailed(Exception):
    pass


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def _floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _report(out: Path, name: str) -> dict:
    return json.loads((out / f"{name}_report.json").read_text())["report"]


def _close(got, want, rtol, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{what}: {got.size} values, pinned {want.size}")
    ok = np.isclose(got, want, rtol=rtol, atol=0.0) | ((got == want) & np.isinf(want))
    _require(bool(np.all(ok)), f"{what}: {got.tolist()} not within rtol {rtol} of {want.tolist()}")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


# -- operations ---------------------------------------------------------------


class Op:
    """One operation: run() returns what check() needs."""

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


def _cli_op(label, argv, expect_rc, check, tracer, out):
    def run():
        rc = spans.run_cli(tracer, argv + ["--out", str(out)])
        _require(rc == expect_rc, f"exit code {rc}, expected {expect_rc}")
        return out

    return Op(label, run, check)


def _field_flags(family, dim, grid, period, **extra):
    argv = ["--field-family", family, "--field-dim", str(dim), "--field-grid", str(grid),
            "--field-period", str(period)]
    for key, val in extra.items():
        argv += [f"--{key.replace('_', '-')}", str(val)]
    return argv


# certify ----------------------------------------------------------------------


def _check_certified(out):
    rep = _report(out, "certify")
    _require(rep["passed"], "certificate did not pass")
    for pl in rep["per_lambda"]:
        _require(pl["covers"] and pl["budget_ok"], f"lam {pl['lam']}: covering not verified")
        _require(pl["n_pass"] == pl["n_entries"], f"lam {pl['lam']}: {pl['n_pass']} of "
                                                  f"{pl['n_entries']} entries pass")
        _require(pl["worst_margin"] > 0.0, f"lam {pl['lam']}: worst margin {pl['worst_margin']}")
    return rep


def _check_failfast(out):
    rep = _report(out, "certify")
    _require(not rep["passed"], "half-strip certificate passed")
    _require(rep["per_lambda"][0]["stopped_early"], "half-strip scan did not stop early")
    return rep


def certify_ops(seed, out, tracer, ref):
    common = ["certify", "--samples-per-unit", "32"]
    return [
        _cli_op("certify product", common + _field_flags(
            "product", 2, 500, 1.0, intervals_x="0:0.6", intervals_y="0:0.6")
            + ["--rho", "1.0", "--lambdas", "1024"], 0, _check_certified, tracer, out),
        _cli_op("certify periodic-square", common + _field_flags(
            "periodic-square", 2, 200, 1.0, field_delta=0.3)
            + ["--rho", "1.0", "--lambdas", "160000"], 0, _check_certified, tracer, out),
        _cli_op("certify half-strip", ["certify"] + _field_flags("half-strip-comb", 2, 512, 16)
                + ["--rho", "0.5", "--lambdas", "2560000", "--fail-fast", "--n-offsets", "8",
                   "--samples-per-unit", "8"], 1, _check_failfast, tracer, out),
    ]


# spectral ---------------------------------------------------------------------

RESOLVENT_LAMBDAS = [float(k) ** 1.5 for k in (16, 25, 40, 64, 102, 161)]
ANNULUS_LAMBDAS = np.geomspace(16.0, 473.0, 10)
SQUARE_1D = _field_flags("periodic-square", 1, 2048, TWO_PI, field_delta=0.3, field_mollify=0.05)
SQUARE_2D = _field_flags("periodic-square", 2, 64, TWO_PI, field_delta=0.8, field_mollify=0.05)


def _resolvent_values(rep):
    return {"M": [r["value"] for r in rep["reports"]], "slope": rep["fit"]["slope"]}


def _uncertainty_values(rep):
    return {"c": [r["c"] for r in rep["reports"]], "C": [r["value"] for r in rep["reports"]],
            "rank": [r["rank"] for r in rep["reports"]]}


def spectral_ops(seed, out, tracer, ref):
    pins = ref["spectral"] if ref else None
    rtol = ref["rtol"] if ref else None

    def check_resolvent(out):
        got = _resolvent_values(_report(out, "resolvent"))
        _require(all(math.isfinite(v) and v > 0 for v in got["M"]), f"M not finite: {got['M']}")
        lo, hi = SLOPE_RANGE
        _require(got["slope"] is not None and lo <= got["slope"] <= hi,
                 f"decay slope {got['slope']} outside [{lo}, {hi}]")
        if pins:
            _close(got["M"], pins["resolvent"]["M"], rtol, "resolvent M")
        return got

    def check_uncertainty(key):
        def check(out):
            got = _uncertainty_values(_report(out, "uncertainty"))
            if pins:
                _require(got["rank"] == pins[key]["rank"], f"{key}: rank {got['rank']}")
                _close(got["c"], pins[key]["c"], rtol, f"{key} c")
                _close(got["C"], pins[key]["C"], rtol, f"{key} C")
            return got
        return check

    return [
        _cli_op("resolvent 1d N=2048", ["resolvent"] + SQUARE_1D
                + ["--gamma", "1.5", "--lam0", "16", "--lambdas", _floats(RESOLVENT_LAMBDAS),
                   "--fit"], 0, check_resolvent, tracer, out),
        _cli_op("uncertainty annulus 1d", ["uncertainty"] + SQUARE_1D
                + ["--mask", "annulus", "--lambdas", _floats(ANNULUS_LAMBDAS)], 0,
                check_uncertainty("annulus_1d"), tracer, out),
        _cli_op("uncertainty ball 2d", ["uncertainty"] + SQUARE_2D
                + ["--mask", "ball", "--radius", "26"], 0,
                check_uncertainty("ball_2d"), tracer, out),
    ]


# cost -------------------------------------------------------------------------

ENVELOPE_T = np.geomspace(0.05, 0.075, 6)


def _gramian_values(rep):
    return {"lam_min": [r["lam_min"] for r in rep["reports"]],
            "kappa": [r["kappa"] for r in rep["reports"]]}


def cost_ops(seed, out, tracer, ref):
    pins = ref["cost"] if ref else None
    rtol = ref["rtol"] if ref else None

    def check(key, envelope):
        def check_(out):
            rep = _report(out, "observe")
            got = _gramian_values(rep)
            if envelope:
                _require(rep["envelope"]["passed"], "envelope fit did not pass")
            if pins:
                _close(got["lam_min"], pins[key]["lam_min"], rtol, f"{key} lam_min")
                _close(got["kappa"], pins[key]["kappa"], rtol, f"{key} kappa")
            return got
        return check_

    return [
        _cli_op("observe 2d grid 128", ["observe"] + _field_flags(
            "periodic-square", 2, 128, TWO_PI, field_delta=0.3, field_mollify=0.05)
            + ["--beta", "1", "--cutoff", "24", "--T-list", "0.25 0.5 1.0"], 0,
            check("observe_2d", False), tracer, out),
        _cli_op("observe 1d envelope", ["observe"] + _field_flags(
            "periodic-square", 1, 256, TWO_PI, field_delta=0.3, field_mollify=0.05)
            + ["--beta", "0.5", "--cutoff", "24", "--T-list", _floats(ENVELOPE_T),
               "--envelope-eps", repr(2.0 / 3.0)], 0,
            check("envelope_1d", True), tracer, out),
    ]


# density ----------------------------------------------------------------------

SEGMENT_L = 3.0
RECT_PLANS = ((0.0, [1.0, 4.0]), (0.5, [1.0, 4.0]), (1.0, [1.0, 2.0]))


def random_periodic_field(rng: np.random.Generator):
    """The criterion-3 generator: a clipped random trigonometric sum on a
    64x64 unit torus, mollified at radius 0.03."""
    grid = 64
    modes = rng.integers(-2, 3, size=(6, 2))
    amps = rng.normal(size=6)
    x = np.arange(grid) / grid
    X, Y = np.meshgrid(x, x, indexing="ij")
    u = np.zeros((grid, grid))
    for (kx, ky), c in zip(modes, amps):
        u = u + c * np.cos(2.0 * math.pi * (kx * X + ky * Y))
    vals = np.clip(0.55 + 0.6 * u, 0.0, 1.0)
    f = fields.make_field("custom-grid", dim=2, period=1.0, grid=grid, values=vals)
    return fields.mollify(f, 0.03)


def _segment_and_rectangles(rng):
    field = random_periodic_field(rng)
    g = geometry.gcc_constant(field, SEGMENT_L, direction_grid_size=24, anchor_grid_size=8)
    rects = [geometry.rectangle_density_inf(field, beta, SEGMENT_L, lams,
                                            direction_grid_size=16, anchor_grid_size=8)[0]
             for beta, lams in RECT_PLANS]
    return g, rects


def _check_margins(result):
    g, rects = result
    for (beta, _), r in zip(RECT_PLANS, rects):
        _require(r >= g - 0.02, f"beta={beta}: rectangle inf {r} < segment inf {g} - 0.02")
    return result


def _e_beta_sweep():
    f = fields.make_field("e-beta", dim=2, period=24.0, grid=512, beta=0.5)
    return geometry.rectangle_density_inf(f, 0.5, 2.0, [1.0, 4.0],
                                          direction_grid_size=16, anchor_grid_size=8)[0]


def _check_e_beta(r):
    _require(r >= 0.05, f"e-beta rectangle density infimum {r} below 0.05")
    return r


def _check_construct(out):
    rep = _report(out, "construct")
    failed = [k for k, ok in rep["checks"].items() if not ok]
    _require(rep["passed"] and not failed, f"construct-demo checks failed: {failed}")
    return rep


def density_ops(seed, out, tracer, ref):
    rng = np.random.default_rng(seed)
    # fields are drawn inside each operation, so field building is timed
    ops = [Op(f"segment vs rectangles, field {k}", lambda: _segment_and_rectangles(rng),
              _check_margins) for k in range(8)]
    ops.append(Op("e-beta rectangle sweep", _e_beta_sweep, _check_e_beta))
    for s in range(seed, seed + 3):
        ops.append(_cli_op(f"construct-demo seed {s}", ["construct-demo", "--seed", str(s)],
                           0, _check_construct, tracer, out))
    return ops


WORKLOADS = {"certify": certify_ops, "spectral": spectral_ops, "cost": cost_ops,
             "density": density_ops}
SEEDED = {"certify": False, "spectral": False, "cost": False, "density": True}
