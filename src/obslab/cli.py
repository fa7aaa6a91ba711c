"""Config-driven command-line front-end.

Each subcommand runs one experiment family, echoes a summary line per
sweep point, and returns its exit status, report payload and CSV table
(file name, header, rows). main() alone parses every option, builds the
field, makes the output directory (--out, else $OBSLAB_OUT, else the
working directory) before the run and writes the reports there after it.
Options may come from an INI config file; explicit flags win over config
values. Exit codes: 0 success, 1 a mathematical check failed, 2 usage or
config error, 3 numerical failure in an eigensolver, or a certify
measuring process that died.

Every subcommand option is declared once, as a (dest, type, default,
help) entry of its command's table. The entry registers the flag
--<dest with hyphens> and reads the key <dest> of the config file's
[<command>] section through the same type; other keys there are errors.
The field's keys are declared once too, in FIELD_FLAGS, and the [field]
section is read by the same rule.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import construct, covering, evolution, fields, reports, spectral


def _real(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _floats(text: str) -> list[float]:
    values = [_real(tok) for tok in text.replace(",", " ").split()]
    if not values:
        raise ValueError("expected at least one number")
    return values


def _miller(text: str) -> list[float]:
    """M, m, eps: three numbers with M >= 0, m > 0 and eps > 0."""
    values = _floats(text)
    if len(values) != 3:
        raise ValueError(f"expected three numbers, got {len(values)}")
    evolution.check_miller(*values)
    return values


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _one_of(*names):
    def choice(text: str) -> str:
        if text not in names:
            raise ValueError(f"{text!r} is not one of {', '.join(names)}")
        return text
    return choice


def _origin(text: str) -> float | str:
    """'centered', or a finite number."""
    return text if text == "centered" else _real(text)


def _flag_type(type_):
    """type_ as an argparse type: its ValueError text becomes the usage
    error, where argparse would print only the type's name."""
    def parse(text: str):
        try:
            return type_(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


# flag, [field] config key, type, help
FIELD_FLAGS = (
    ("--field-family", "family", str, "built-in family name (default constant)"),
    ("--field-dim", "dim", int, "1 or 2"),
    ("--field-grid", "grid", int, "samples per axis"),
    ("--field-period", "period", _real, "box side (default 1.0)"),
    ("--field-origin", "origin", _origin, "box corner, or 'centered'"),
    ("--field-mollify", "mollify", _real, "box-average radius"),
    ("--field-value", "value", _real, "constant family value"),
    ("--field-delta", "delta", _real, "periodic-square side"),
    ("--field-beta", "beta", _real, "e-beta exponent"),
    ("--intervals-x", "intervals_x", str, "product family x intervals 'lo:hi, ...'"),
    ("--intervals-y", "intervals_y", str, "product family y intervals 'lo:hi, ...'"),
    ("--grid-file", "grid_file", str, "custom-grid sample file"),
)


# FIELD_FLAGS as an option table keyed by [field] key. Only family has a
# default: _build_field sets the box (dim, grid, period) once it knows the
# family, and a key left None is left out of the field, so make_field or
# the family's catalog sets it
FIELD_OPTIONS = tuple((key, type_, "constant" if key == "family" else None, help_)
                      for _, key, type_, help_ in FIELD_FLAGS)


def _load_sections(args, tables: dict) -> dict:
    """Section [name] of the --config file for each name: option table of
    tables, keyed by option dest; a key no option declares is an error,
    and a relative [field] grid_file is taken from the config's
    directory."""
    if not args.config:
        return {name: {} for name in tables}
    path = Path(args.config)
    if not path.exists():
        raise ValueError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
        raw = {name: dict(cp[name]) if cp.has_section(name) else {} for name in tables}
    except configparser.Error as exc:
        raise ValueError(f"malformed config file: {exc}") from None
    sections = {}
    for name, options in tables.items():
        dests = {cp.optionxform(dest): dest for dest, *_ in options}
        unknown = sorted(set(raw[name]) - set(dests))
        if unknown:
            raise ValueError(f"unknown key(s) {', '.join(unknown)} in [{name}]; "
                             f"known: {', '.join(dests.values())}")
        sections[name] = {dests[key]: value for key, value in raw[name].items()}
    if sections.get("field", {}).get("grid_file"):
        sections["field"]["grid_file"] = str(path.parent / sections["field"]["grid_file"])
    return sections


def _resolve(name: str, options, flags: dict, section: dict) -> dict:
    """Each option's value: its flag if given, else the config value of
    [name] through the option's type, else its default."""
    values = {}
    for dest, type_, default, _ in options:
        try:
            values[dest] = (flags[dest] if flags[dest] is not None
                            else type_(section[dest]) if dest in section else default)
        except ValueError as exc:
            raise ValueError(f"[{name}] {dest}: {exc}") from None
    return values


def _build_field(spec: dict, dim: int, grid: int):
    """Field of the resolved [field] keys, box-averaged by their mollify
    radius. A dim, grid or period not given takes the command's box (dim,
    grid) and period 1.0, except for custom-grid, whose file sets its own
    box: field_from_config refuses one given to it by name."""
    radius = spec.pop("mollify")
    if spec["family"] != "custom-grid":
        box = {"dim": dim, "grid": grid, "period": 1.0}
        spec.update((key, value) for key, value in box.items() if spec[key] is None)
    field = fields.field_from_config(spec)
    try:
        return fields.mollify(field, radius) if radius else field
    except ValueError as exc:
        raise ValueError(f"--field-mollify: {exc}") from None


def _out_dir(args) -> Path:
    path = Path(args.out or os.environ.get("OBSLAB_OUT") or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"{path}: cannot make the output directory: {exc.strerror}") from None
    return path


CERTIFY_OPTIONS = (
    ("rho", _real, 0.5, "observation scale"),
    ("lambdas", _floats, [2560000.0], "frequency scales, space or comma separated"),
    ("gamma", _real, 0.25, "covering exponent in (0, 1/2)"),
    ("fail_fast", _boolean, False, "stop at the first failing entry"),
    ("n_offsets", int, 32, "transverse offsets per comb profile"),
    ("samples_per_unit", _real, 64.0, "line samples per unit length"),
)


def cmd_certify(args, field):
    report = covering.comb_gcc_certify(field, args.rho, args.lambdas, gamma=args.gamma,
                                       fail_fast=args.fail_fast, n_offsets=args.n_offsets,
                                       samples_per_unit=args.samples_per_unit)
    symmetry = ",".join("transpose" if g["kind"] == "transpose" else f"flip{g['axis']}@{g['s']}"
                        for g in report.symmetry) or "none"
    for rec in report.per_lambda:
        print(f"[certify] lam={rec['lam']:g} entries={rec['n_entries']} "
              f"measured={rec['n_measured']} measurements={rec['n_measurements']} "
              f"pass={rec['all_pass']} symmetry={symmetry}")
    payload = {"passed": report.passed, "symmetry": report.symmetry, "per_lambda": report.per_lambda}
    rows = [{"lam": rec["lam"], **e} for rec in report.per_lambda for e in rec["entries"]]
    # each lam's scan records at least one entry, so rows[0] exists
    table = ("certify_entries.csv", list(rows[0]), [list(row.values()) for row in rows])
    return (0 if report.passed else 1), payload, table


COVER_OPTIONS = (
    ("rho", _real, 1.0, "observation scale"),
    ("lam", _real, 160000.0, "frequency scale"),
    ("gamma", _real, 0.25, "covering exponent in (0, 1/2)"),
)


def cmd_cover(args, field):
    cov = covering.default_covering_builder(field, args.rho, args.gamma)(args.lam)
    ver = covering.verify_covering(cov)
    print(f"[cover] lam={args.lam:g} entries={ver.n_entries} covers={ver.covers} "
          f"budget_ok={ver.budget_ok} worst_margin={ver.worst_margin:.6g}")
    payload = {"covering": covering.covering_to_dict(cov), "verification": {**vars(ver), "ok": ver.ok}}
    return (0 if ver.ok else 1), payload, None


UNCERTAINTY_OPTIONS = (
    ("mask", _one_of("ball", "annulus", "sector", "annulus_sector", "rectangle"), "annulus",
     "ball, annulus, sector, annulus_sector or rectangle"),
    ("weight", _one_of("sqrt", "full"), "sqrt", "sqrt or full"),
    ("mask_delta", _real, 2.0, "annulus half-width factor"),
    ("mask_beta", _real, 0.0, "annulus width exponent"),
    ("sigma", _real, None, "rectangle side"),
    ("radius", _real, None, "ball radius"),
    ("angle", _real, 0.0, "sector direction"),
    ("eps0", _real, 0.25, "sector aperture"),
    ("lambdas", _floats, None, "annulus center sweep"),
    ("zetas", _floats, None, "rectangle corner sweep"),
)


def cmd_uncertainty(args, field):
    kind, sigma, radius, lambdas, zetas = args.mask, args.sigma, args.radius, args.lambdas, args.zetas

    def one_mask(**params):
        return spectral.build_mask(field.grid, field.dim, field.period, kind, **params)

    runs = []
    if kind == "rectangle":
        for z in (zetas if zetas is not None else [0.0]):
            runs.append(one_mask(zeta=z, sigma=sigma))
    elif kind == "ball":
        runs.append(one_mask(radius=radius))
    else:
        base = {}
        if kind in ("sector", "annulus_sector"):
            base.update(angle=args.angle, eps0=args.eps0)
        if kind in ("annulus", "annulus_sector"):
            for lam in (lambdas if lambdas is not None else [32.0]):
                runs.append(one_mask(lam=lam, delta=args.mask_delta, beta=args.mask_beta, **base))
        else:
            runs.append(one_mask(**base))
    reps = []
    for mask in runs:
        rep = spectral.uncertainty_constant(field, mask, weight=args.weight)
        reps.append(rep)
        label = mask.params.get("lam", mask.params.get("zeta", mask.params.get("radius", "")))
        print(f"[uncertainty] {kind}={label} rank={rep.rank} c={rep.c:.6g} C={rep.value:.6g}")
    payload = {"reports": [r.to_dict() for r in reps]}
    return 0, payload, ("uncertainty_sweep.csv", reports.SPECTRAL_SWEEP_HEADER,
                        reports.spectral_sweep_rows(reps))


RESOLVENT_OPTIONS = (
    ("gamma", _real, 1.5, "dispersion exponent"),
    ("lambdas", _floats, [64.0, 125.0, 253.0, 512.0], "spectral parameter sweep"),
    ("m", _real, None, "damping strength"),
    ("lam0", _real, 16.0, "calibration scale when --m is absent"),
    ("fit", _boolean, False, "add log-log slope"),
)


def cmd_resolvent(args, field):
    lambdas = args.lambdas
    if args.m is None:
        args.m = spectral.calibrate_m(field, args.gamma, args.lam0)
    reps = spectral.resolvent_sweep(field, args.gamma, lambdas, args.m)
    for rep in reps:
        print(f"[resolvent] lam={rep.extra['lam']:g} M={rep.value:.6g} "
              f"kernel_dim={rep.extra['kernel_dim']}")
    payload = {"reports": [r.to_dict() for r in reps]}
    if args.fit:
        vals = [r.value for r in reps]
        if any(lam <= 0 for lam in lambdas):
            payload["fit"] = {"slope": None,
                              "reason": "fit needs positive lambdas"}
        elif len(set(lambdas)) < 2:
            payload["fit"] = {"slope": None, "reason": "fit needs at least two distinct lambdas"}
        elif all(math.isfinite(v) and v > 0 for v in vals):
            slope, intercept = np.polyfit(np.log(lambdas), np.log(vals), 1)
            payload["fit"] = {"slope": float(slope), "intercept": float(intercept)}
        else:
            payload["fit"] = {"slope": None, "reason": "non-finite M in sweep"}
    return 0, payload, ("resolvent_sweep.csv", reports.SPECTRAL_SWEEP_HEADER,
                        reports.spectral_sweep_rows(reps))


OBSERVE_OPTIONS = (
    ("beta", _real, 1.0, "dispersion exponent in [0, 1]"),
    ("cutoff", _real, 16.0, "frequency cutoff K"),
    ("T_list", _floats, [0.1, 0.2, 0.4, 0.8], "observation times"),
    ("miller", _miller, None, "M,m,eps for a predicted-cost comparison (M >= 0, m > 0, eps > 0)"),
    ("envelope_eps", _real, None, "fit log kappa against T^(2-4/eps)"),
)


def cmd_observe(args, field):
    beta, K, T_list, miller = args.beta, args.cutoff, args.T_list, args.miller
    if args.envelope_eps is not None:
        evolution.check_envelope_sweep(args.envelope_eps, T_list)
    reps = evolution.cost_curve(field, beta, T_list, K)
    for rep in reps:
        print(f"[observe] T={rep.T:g} lam_min={rep.lam_min:.6g} kappa={rep.kappa:.6g} "
              f"nodes={rep.n_nodes}")
    payload = {"reports": [r.to_dict() for r in reps]}
    if miller is not None:
        M_res, m_res, eps = miller
        comparison = []
        for rep in reps:
            pred = evolution.miller_cost(M_res, m_res, rep.T, eps)
            comparison.append({"T": rep.T, "kappa_direct": rep.kappa, "kappa_pred": pred,
                               "ratio": None if pred is None else rep.kappa / pred})
        ratios = [c["ratio"] for c in comparison if c["ratio"] is not None]
        payload["miller"] = {"M": M_res, "m": m_res, "eps": eps, "label": "shape",
                             "C_eps": 1.0, "comparison": comparison,
                             "fitted_c": max(ratios) if ratios else None}
    if args.envelope_eps is not None:
        payload["envelope"] = evolution._envelope_fit(args.envelope_eps, T_list,
                                                      [r.kappa for r in reps], beta)
    rows = [[r.T, r.K, r.n_nodes, r.lam_min, r.kappa] for r in reps]
    status = 1 if "envelope" in payload and not payload["envelope"]["passed"] else 0
    return status, payload, ("observe_sweep.csv", ["T", "K", "n_nodes", "lam_min", "kappa"], rows)


def random_ball_system(rng: np.random.Generator, W: float, delta: float, n_balls: int) -> construct.BallSystem:
    """Jittered-lattice centers with spacing at least 2*delta."""
    if n_balls < 1:
        raise ValueError(f"need at least one ball, got n_balls = {n_balls}")
    if 3.0 * W == math.inf:
        raise fields.SizeError("W", f"the window search unrolls the balls up to 3 x W, past"
                               f" the float64 range; the limit is W = 5.99e+307")
    pitch = W / n_balls
    if pitch < 2.0 * delta:
        raise ValueError(f"{n_balls} balls of radius {delta} cannot be disjoint on circumference {W}")
    jitter = 0.5 * (pitch - 2.0 * delta)
    centers = pitch * np.arange(n_balls) + rng.uniform(-jitter, jitter, size=n_balls)
    return construct.BallSystem(centers, delta, W)


CONSTRUCT_DEMO_OPTIONS = (
    ("W", _real, 40.0, "circle circumference"),
    ("M", _real, 1.0, "window length"),
    ("rho", _real, None, "target density (default 0.8 x the least window density of the balls)"),
    ("delta", _real, 0.01, "ball radius"),
    ("n_balls", int, 400, "number of balls"),
    ("seed", int, 0, "random seed of the ball centers"),
)


def cmd_construct_demo(args, field):
    M, n_balls = args.M, args.n_balls
    if not M > 0:
        raise ValueError(f"the window length --M must be positive, got {M}")
    Y = random_ball_system(np.random.default_rng(args.seed), args.W, args.delta, n_balls)
    wmin, wat = Y.window_min_measure(M)
    if args.rho is None:
        if wmin == 0.0:
            raise ValueError(
                f"the window [{wat}, {wat + M}] of length --M {M} holds no ball, so the default"
                f" rho (0.8 x the least window density) is 0; take a longer --M or more balls")
        args.rho = 0.8 * wmin / M
    rho = args.rho
    # the partition spans --W (up to rounding), so only a window of 2 x --M >= --W can outrun it
    if 2.0 * M >= Y.period:
        bp = construct.build_partition(Y, M).breakpoints
        if 2.0 * M > bp[-1] - bp[0]:
            raise ValueError(f"the density window 2 x --M = {2.0 * M} is longer than the range"
                             f" [{bp[0]}, {bp[-1]}] the minorant samples; --M up to --W / 2 fits")
    sm = construct.smooth_minorant(Y, M, rho)
    outside = construct.max_outside_support(sm)
    density = construct.sliding_window_min(sm.values, sm.step, 2.0 * M)
    fd = construct.derivative_bounds(sm)
    checks = {
        "support_exact": outside == 0.0,
        "eta_at_least_quarter_rho": sm.eta >= rho / 4.0,
        "density_2M": density >= 0.99 * rho / 8.0,
        "derivative_bounds": all(d["ok"] for d in fd.values()),
    }
    passed = all(checks.values())
    print(f"[construct-demo] balls={n_balls} cells={len(sm.t_scales)} eta={sm.eta:.6g} "
          f"density={density:.6g} passed={passed}")
    payload = {
        "checks": checks, "passed": passed, "eta": sm.eta, "rho": rho,
        "window_min_measure": wmin, "window_argmin": wat,
        "density_2M": density, "max_outside_support": outside,
        "n_cells": len(sm.t_scales),
        "gap_range": [sm.partition.min_gap, sm.partition.max_gap],
        "t_range": [float(sm.t_scales.min()), float(sm.t_scales.max())],
        "derivative_bounds": fd,
    }
    stride = max(1, len(sm.x) // 2000)
    profile = [[float(x), float(v)] for x, v in zip(sm.x[::stride], sm.values[::stride])]
    return (0 if passed else 1), payload, ("construct_profile.csv", ["x", "a"], profile)


def cmd_list_families(args, field):
    catalog = fields.family_catalog()
    for name, info in sorted(catalog.items()):
        params = ", ".join(f"{k} (required)" if v is None else f"{k}={v}"
                           for k, v in info["params"].items()) or "none"
        print(f"{name}: {info['doc']} (dims: {info['dims']}; parameters: {params})")
    return 0, None, None


# name: (function, help, option table, (default dim, default grid) of its field, report file)
COMMANDS = {
    "certify": (cmd_certify, "measure every entry of an effective covering",
                CERTIFY_OPTIONS, (2, 256), "certify_report.json"),
    "cover": (cmd_cover, "build and verify an effective covering", COVER_OPTIONS, (2, 256),
              "cover_report.json"),
    "uncertainty": (cmd_uncertainty, "uncertainty constants on frequency masks",
                    UNCERTAINTY_OPTIONS, (1, 512), "uncertainty_report.json"),
    "resolvent": (cmd_resolvent, "resolvent constant sweep M(lambda)", RESOLVENT_OPTIONS,
                  (1, 512), "resolvent_report.json"),
    "observe": (cmd_observe, "observability Gramian cost sweep", OBSERVE_OPTIONS, (1, 512),
                "observe_report.json"),
    "construct-demo": (cmd_construct_demo, "smooth minorant of a random ball system",
                       CONSTRUCT_DEMO_OPTIONS, None, "construct_report.json"),
    "list-families": (cmd_list_families, "catalog of built-in field families", None, None, None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obslab",
        description="Numerical laboratory for geometric control, uncertainty "
                    "principles, and Schrödinger observability on the torus.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_, options, box, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if options is None:
            continue
        p.add_argument("--config", help="INI config file; flags override its values")
        p.add_argument("--out", help="output directory (default $OBSLAB_OUT or .)")
        if box is not None:
            for flag, key, type_, help_ in FIELD_FLAGS:
                p.add_argument(flag, dest=f"field_{key}", type=_flag_type(type_), help=help_)
        for dest, type_, _, help_ in options:
            flag = "--" + dest.replace("_", "-")
            if type_ is _boolean:
                p.add_argument(flag, dest=dest, action="store_true", default=None, help=help_)
            else:
                p.add_argument(flag, dest=dest, type=_flag_type(type_), help=help_)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    func, _, options, box, report_file = COMMANDS[args.command]
    try:
        field = out = None
        if options is not None:
            tables = {args.command: options}
            if box is not None:
                tables["field"] = FIELD_OPTIONS
            sections = _load_sections(args, tables)
            vars(args).update(_resolve(args.command, options, vars(args), sections[args.command]))
            # uncertainty's ball and rectangle masks need one more option
            needed = {"ball": "radius", "rectangle": "sigma"}.get(getattr(args, "mask", None))
            if needed and getattr(args, needed) is None:
                raise ValueError(f"{args.mask} masks need --{needed}")
            if box is not None:
                flags = {key: getattr(args, f"field_{key}") for _, key, *_ in FIELD_FLAGS}
                field = _build_field(_resolve("field", FIELD_OPTIONS, flags, sections["field"]), *box)
            out = _out_dir(args)
        status, payload, table = func(args, field)
        if payload is not None:
            # read after the run: resolvent and construct-demo fill in m and rho
            config = {dest: getattr(args, dest) for dest, *_ in options}
            if field is not None:
                config["field"] = field.describe()
            reports.write_json(out / report_file,
                               reports.report_envelope(args.command, config, payload))
            if table is not None:
                csv_file, header, rows = table
                reports.write_csv(out / csv_file, header, rows)
        return status
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        # LinAlgError subclasses ValueError, so it is caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        where = f" (config: {args.config})" if getattr(args, "config", None) else ""
        # a SizeError names its parameter, which is the option's dest
        flag = f"--{exc.argument.replace('_', '-')}: " if isinstance(exc, fields.SizeError) else ""
        print(f"error: {flag}{exc}{where}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
