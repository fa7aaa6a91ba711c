import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from obslab import cli, construct, covering, evolution, fields, reports, spectral


def run(argv):
    return cli.main(argv)


def test_no_command_prints_help(capsys):
    assert run([]) == 2
    out = capsys.readouterr().out
    assert "certify" in out and "observe" in out


def test_list_families(capsys):
    assert run(["list-families"]) == 0
    out = capsys.readouterr().out
    for name in ("constant", "periodic-square", "product", "e-beta",
                 "half-strip-comb", "custom-grid"):
        assert name in out
    assert "OGRD" in out
    assert out.count("custom-grid:") == 1


def test_cover_writes_envelope(tmp_path):
    code = run(["cover", "--out", str(tmp_path),
                "--field-family", "constant", "--field-dim", "2",
                "--field-grid", "32", "--field-period", "1.0",
                "--rho", "1.0", "--lam", "160000"])
    assert code == 0
    payload = json.loads((tmp_path / "cover_report.json").read_text())
    assert payload["tool"]["name"] == "obslab"
    assert payload["kind"] == "cover"
    assert payload["report"]["verification"]["ok"]
    assert "wall_time" not in json.dumps(payload)


def test_uncertainty_sweep_csv(tmp_path):
    code = run(["uncertainty", "--out", str(tmp_path),
                "--field-family", "constant", "--field-dim", "1",
                "--field-grid", "64", "--field-period", str(2 * math.pi),
                "--mask", "annulus", "--lambdas", "12,20"])
    assert code == 0
    lines = (tmp_path / "uncertainty_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(reports.SPECTRAL_SWEEP_HEADER)
    assert len(lines) == 3
    payload = json.loads((tmp_path / "uncertainty_report.json").read_text())
    for rep in payload["report"]["reports"]:
        assert rep["c"] == pytest.approx(1.0, abs=1e-12)


def test_resolvent_with_fit(tmp_path):
    code = run(["resolvent", "--out", str(tmp_path),
                "--field-family", "constant", "--field-dim", "1",
                "--field-grid", "64", "--field-period", str(2 * math.pi),
                "--gamma", "1.5", "--lambdas", "20 40 80", "--m", "0.5", "--fit"])
    assert code == 0
    payload = json.loads((tmp_path / "resolvent_report.json").read_text())
    assert "fit" in payload["report"]
    assert payload["report"]["fit"]["slope"] is not None


def test_observe_sweep(tmp_path):
    code = run(["observe", "--out", str(tmp_path),
                "--field-family", "constant", "--field-dim", "1",
                "--field-grid", "64", "--field-period", str(2 * math.pi),
                "--beta", "1.0", "--cutoff", "4", "--T-list", "0.5 1.0"])
    assert code == 0
    payload = json.loads((tmp_path / "observe_report.json").read_text())
    kappas = [r["kappa"] for r in payload["report"]["reports"]]
    assert kappas[0] == pytest.approx(2.0, rel=1e-9)
    assert kappas[1] == pytest.approx(1.0, rel=1e-9)
    lines = (tmp_path / "observe_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "T,K,n_nodes,lam_min,kappa"


def test_observe_miller_payload(tmp_path):
    code = run(["observe", "--out", str(tmp_path),
                "--field-family", "constant", "--field-dim", "1",
                "--field-grid", "64", "--field-period", str(2 * math.pi),
                "--beta", "1.0", "--cutoff", "4", "--T-list", "1.0 2.0",
                "--miller", "0.01,2.0,0.1"])
    assert code == 0
    payload = json.loads((tmp_path / "observe_report.json").read_text())
    miller = payload["report"]["miller"]
    assert miller["C_eps"] == 1.0
    assert miller["fitted_c"] is not None
    assert len(miller["comparison"]) == 2


def test_certify_failure_exit_code(tmp_path):
    code = run(["certify", "--out", str(tmp_path),
                "--field-family", "half-strip-comb", "--field-dim", "2",
                "--field-grid", "256", "--field-period", "16",
                "--rho", "0.5", "--lambdas", "2560000",
                "--fail-fast", "--n-offsets", "8", "--samples-per-unit", "8"])
    assert code == 1
    payload = json.loads((tmp_path / "certify_report.json").read_text())
    assert payload["report"]["passed"] is False
    lines = (tmp_path / "certify_entries.csv").read_text().strip().splitlines()
    assert lines[0].startswith("lam,angle,p,q,T,kind")


def test_certify_reports_measurements_taken(tmp_path, capsys):
    """The periodic squares share one measurement per symmetry orbit, so
    the report and the summary line count measurements apart from the
    entries scanned."""
    code = run(["certify", "--out", str(tmp_path), "--samples-per-unit", "32",
                "--field-family", "periodic-square", "--field-dim", "2",
                "--field-grid", "200", "--field-period", "1.0", "--field-delta", "0.3",
                "--rho", "1.0", "--lambdas", "160000"])
    assert code == 0
    assert "entries=3064 measured=3064 measurements=384 pass=True" in capsys.readouterr().out
    payload = json.loads((tmp_path / "certify_report.json").read_text())
    (rec,) = payload["report"]["per_lambda"]
    assert (rec["n_entries"], rec["n_measured"], rec["n_measurements"]) == (3064, 3064, 384)


def test_usage_error_exit_code(tmp_path, capsys):
    # a non-integer box period cannot host the unit-periodic comb family
    code = run(["certify", "--out", str(tmp_path),
                "--field-family", "periodic-square", "--field-dim", "2",
                "--field-grid", "32", "--field-period", "6.28",
                "--field-delta", "0.3", "--rho", "1.0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_config_exit_code(capsys):
    assert run(["cover", "--config", "/nonexistent/conf.ini"]) == 2
    assert "config" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("eigensolver did not converge")
    monkeypatch.setattr(cli.spectral, "uncertainty_constant", boom)
    code = run(["uncertainty", "--out", str(tmp_path),
                "--field-family", "constant", "--field-dim", "1",
                "--field-grid", "64", "--field-period", str(2 * math.pi),
                "--mask", "ball", "--radius", "8"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[field]\n"
        "family = constant\n"
        "dim = 2\n"
        "grid = 32\n"
        "period = 1.0\n"
        "\n"
        "[cover]\n"
        "rho = 0.5\n"
        "lam = 2560000\n"
    )
    code = run(["cover", "--config", str(cfg), "--out", str(tmp_path),
                "--rho", "1.0", "--lam", "160000"])
    assert code == 0
    payload = json.loads((tmp_path / "cover_report.json").read_text())
    assert payload["config"]["rho"] == 1.0
    assert payload["config"]["lam"] == 160000.0


def test_out_env_variable(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outdir = tmp_path / "reports"
    monkeypatch.setenv("OBSLAB_OUT", str(outdir))
    code = run(["observe", "--field-family", "constant", "--field-dim", "1",
                "--field-grid", "32", "--field-period", str(2 * math.pi),
                "--beta", "0.0", "--cutoff", "2", "--T-list", "0.5"])
    assert code == 0
    assert (outdir / "observe_report.json").exists()


def test_reports_are_reproducible(tmp_path):
    args = ["--field-family", "constant", "--field-dim", "1",
            "--field-grid", "64", "--field-period", str(2 * math.pi),
            "--beta", "1.0", "--cutoff", "4", "--T-list", "0.5 1.0"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(["observe", "--out", str(d1)] + args) == 0
    assert run(["observe", "--out", str(d2)] + args) == 0
    assert (d1 / "observe_report.json").read_bytes() == \
        (d2 / "observe_report.json").read_bytes()


def test_construct_demo(tmp_path):
    code = run(["construct-demo", "--out", str(tmp_path), "--seed", "1",
                "--W", "10", "--M", "1.0", "--delta", "0.01", "--n-balls", "100"])
    assert code == 0
    payload = json.loads((tmp_path / "construct_report.json").read_text())
    assert payload["report"]["passed"] is True
    assert all(payload["report"]["checks"].values())
    assert (tmp_path / "construct_profile.csv").exists()


def test_construct_demo_fails_a_positive_sample_outside_the_balls(tmp_path, monkeypatch):
    """Membership is tested only where a > 0, so one positive sample of
    the minorant outside Y still fails support_exact and exits 1."""
    build = construct.smooth_minorant

    def leaky(Y, M, rho):
        sm = build(Y, M, rho)
        outside = np.flatnonzero(~Y.contains(sm.x))
        sm.values[outside[outside.size // 2]] = 1e-3
        return sm

    monkeypatch.setattr(construct, "smooth_minorant", leaky)
    assert run(["construct-demo", "--out", str(tmp_path), "--seed", "1",
                "--W", "10", "--n-balls", "100"]) == 1
    report = json.loads((tmp_path / "construct_report.json").read_text())["report"]
    assert report["checks"]["support_exact"] is False
    assert report["max_outside_support"] == 1e-3


def test_resolvent_reports_are_reproducible(tmp_path):
    args = ["--field-family", "periodic-square", "--field-dim", "1",
            "--field-grid", "64", "--field-period", str(2 * math.pi),
            "--field-delta", "0.3", "--field-mollify", "0.05",
            "--gamma", "1.5", "--lam0", "16", "--lambdas", "8 27 64", "--fit"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(["resolvent", "--out", str(d1)] + args) == 0
    assert run(["resolvent", "--out", str(d2)] + args) == 0
    for name in ("resolvent_report.json", "resolvent_sweep.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    payload = json.loads((d1 / "resolvent_report.json").read_text())
    assert [r["kernel_dim"] for r in payload["report"]["reports"]] == [2, 2, 2]


def test_resolvent_size_guard_exit_code(tmp_path, capsys):
    code = run(["resolvent", "--out", str(tmp_path),
                "--field-family", "constant", "--field-dim", "2",
                "--field-grid", "128", "--field-period", "1.0",
                "--gamma", "1.5", "--lambdas", "64", "--m", "0.5"])
    assert code == 2
    assert "n = 16384" in capsys.readouterr().err


def _half_strip_config(tmp_path, certify_lines):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[field]\n"
        "family = half-strip-comb\n"
        "dim = 2\n"
        "grid = 256\n"
        "period = 16\n"
        "\n"
        "[certify]\n"
        "rho = 0.5\n"
        "lambdas = 2560000\n" + "".join(line + "\n" for line in certify_lines)
    )
    return cfg


def test_config_keys_are_flag_dests(tmp_path):
    cfg = _half_strip_config(tmp_path, ["n_offsets = 16", "samples_per_unit = 16",
                                        "fail_fast = yes"])
    assert run(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    config = json.loads((tmp_path / "certify_report.json").read_text())["config"]
    assert config["n_offsets"] == 16
    assert config["samples_per_unit"] == 16.0
    assert config["fail_fast"] is True


@pytest.mark.parametrize("line", ["fail_fast = maybe", "samples-per-unit = 16", "seed = 1"])
def test_bad_config_key_or_value_exit_code(tmp_path, capsys, line):
    cfg = _half_strip_config(tmp_path, [line])
    assert run(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config" in capsys.readouterr().err
    assert not (tmp_path / "certify_report.json").exists()


@pytest.mark.parametrize("line, message", [
    ("fail_fast = maybe", "[certify] fail_fast: not a boolean: 'maybe'"),
    ("n_offsets = four", "[certify] n_offsets: invalid literal for int()"),
    ("gamma = nan", "[certify] gamma: expected a finite number, got 'nan'"),
])
def test_bad_config_value_names_section_and_key(tmp_path, capsys, line, message):
    cfg = _half_strip_config(tmp_path, [line])
    assert run(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_config_keys_match_mixed_case_dests(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[construct-demo]\nW = 10\nM = 1.0\ndelta = 0.01\nn_balls = 100\nseed = 1\n\n"
        "[field]\nfamily = constant\ndim = 1\ngrid = 32\nperiod = 6.283185307179586\n\n"
        "[observe]\nbeta = 0.0\ncutoff = 2\nT_list = 0.5 1.0\n"
    )
    assert run(["construct-demo", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "construct_report.json").read_text())["config"]
    assert (config["W"], config["M"], config["n_balls"], config["seed"]) == (10.0, 1.0, 100, 1)
    assert run(["observe", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "observe_report.json").read_text())["config"]
    assert config["T_list"] == [0.5, 1.0]


def test_malformed_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("rho = 0.5\n")
    assert run(["cover", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["family = constant\n",
                                  "[field]\nfamily = constant\ndim = 1\ngrid = 16\nvalue = 50%\n"],
                         ids=["no-section-header", "percent-sign"])
def test_malformed_field_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert run(["cover", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed config file")
    assert not (tmp_path / "cover_report.json").exists()


def test_config_without_a_field_section_takes_the_field_defaults(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[other]\nx = 1\n\n[uncertainty]\nmask = ball\nradius = 3\n")
    assert run(["uncertainty", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    field = json.loads((tmp_path / "uncertainty_report.json").read_text())["config"]["field"]
    want = fields.make_field("constant", dim=1, period=1.0, grid=512).describe()
    assert field == want


def test_field_keys_read_like_their_flags(tmp_path):
    """[field] values go through their flags' types: a config and the
    same flags write the same report bytes."""
    flags = {"family": "product", "dim": "2", "grid": "32", "period": "2", "origin": "0.25",
             "mollify": "0.05", "intervals_x": "0:0.5, 0.7:0.9", "intervals_y": "0.1:0.6"}
    argv = []
    for flag, key, *_ in cli.FIELD_FLAGS:
        if key in flags:
            argv += [flag, flags[key]]
    cfg = tmp_path / "run.ini"
    cfg.write_text("[field]\n" + "".join(f"{key} = {value}\n" for key, value in flags.items()))
    for out, extra in ((tmp_path / "flags", argv), (tmp_path / "config", ["--config", str(cfg)])):
        assert run(["uncertainty", "--mask", "ball", "--radius", "4", "--out", str(out),
                    *extra]) == 0
    assert ((tmp_path / "flags" / "uncertainty_report.json").read_bytes()
            == (tmp_path / "config" / "uncertainty_report.json").read_bytes())


PRODUCT_32 = ["--field-family", "product", "--field-grid", "32"]  # cover defaults to dim 2


@pytest.mark.parametrize("extra, field_lines, message", [
    (["--intervals-x", "0.5"], [], "intervals_x: interval '0.5' is not of the form lo:hi"),
    (["--intervals-x", "0.2:0.5:0.7"], [],
     "intervals_x: interval '0.2:0.5:0.7' is not of the form lo:hi"),
    ([], ["intervals_x = 0.5"], "intervals_x: interval '0.5' is not of the form lo:hi"),
    ([], ["delta = abc"], "[field] delta: could not convert string to float: 'abc'"),
    ([], ["dim = 1.5"], "[field] dim: invalid literal for int() with base 10: '1.5'"),
    ([], ["seed = 1"], "unknown key(s) seed in [field]; known: family, dim, grid, period"),
    (["--field-family", "custom-grid", "--grid-file", "data.ogrd", "--field-delta", "0.9"], [],
     "custom-grid takes no delta: its grid file sets the box"),
    (["--field-family", "custom-grid", "--grid-file", "data.ogrd", "--field-origin", "7"], [],
     "custom-grid takes no origin: its grid file sets the box"),
    (["--field-family", "custom-grid"], [], "custom-grid needs grid_file"),
], ids=["intervals-x-flag", "intervals-x-three-numbers", "intervals-x-config", "delta-config",
        "dim-config", "unknown-key", "custom-grid-delta", "custom-grid-origin",
        "custom-grid-no-file"])
def test_bad_field_input_exits_2_naming_the_key(tmp_path, monkeypatch, capsys, extra,
                                                field_lines, message):
    """Each field key is parsed by its flag's type and checked by name:
    a bad one exits 2 with a usage error, where a non-numeric key once
    raised a TypeError from the float-or-string guess."""
    monkeypatch.chdir(tmp_path)
    fields.save_grid(fields.make_field("constant", dim=2, period=1.0, grid=32), "data.ogrd")
    (tmp_path / "run.ini").write_text("\n".join(["[field]", *field_lines, ""]))
    argv = ["cover", *PRODUCT_32, "--config", "run.ini", "--out", "out", *extra]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err and not (tmp_path / "out" / "cover_report.json").exists()


def test_linalg_error_exit_code(tmp_path, monkeypatch, capsys):
    """A LinAlgError from the solver that the answer rests on is a
    numerical failure, exit code 3: the Cholesky factor of an observe
    Gramian block above DENSE_EIGH_LIMIT (rank 201, one identity block),
    and the resolvent's tridiagonal eigensolve."""
    runs = {
        "cho_factor": ["observe", "--field-family", "constant", "--field-dim", "1",
                       "--field-grid", "512", "--cutoff", "100", "--T-list", "0.5"],
        "eigh_tridiagonal": ["resolvent", "--field-family", "constant", "--field-dim", "1",
                             "--field-grid", "64", "--gamma", "1.5", "--lambdas", "20 40",
                             "--m", "0.5"],
    }
    for solver, argv in runs.items():
        calls = []

        def boom(*args, **kwargs):
            calls.append(solver)
            raise np.linalg.LinAlgError(f"{solver} failed")

        with monkeypatch.context() as patch:
            patch.setattr(scipy.linalg, solver, boom)
            code = run(argv + ["--out", str(tmp_path), "--field-period", str(2 * math.pi)])
        assert calls == [solver]
        assert code == 3
        assert f"numerical failure: {solver} failed" in capsys.readouterr().err


@pytest.mark.parametrize("m", ["1e160", "1e200"])
def test_resolvent_overflow_is_a_numerical_failure(tmp_path, m):
    """An m whose Lanczos step overflows float64 exits 3 as a numerical
    failure, in a fresh process so that stderr holds every warning: no
    warning or traceback, and no report. It used to exit 2 on SciPy's
    refusal of an inf, after an overflow warning from numpy."""
    argv = ["resolvent", "--m", m, "--out", str(tmp_path)]
    done = _fresh_python(f"import sys, obslab.cli\nsys.exit(obslab.cli.main({argv!r}))",
                         tmp_path)
    assert done.returncode == 3
    assert done.stderr.startswith("numerical failure: Lanczos step 1 maps a unit vector to norm")
    assert "Warning" not in done.stderr and "Traceback" not in done.stderr
    assert not (tmp_path / "resolvent_report.json").exists()


@pytest.mark.parametrize("family, key, value", [("periodic-square", "delta", 0.5),
                                                ("product", "intervals_x", "0:0.6")])
def test_cover_uses_family_defaults(tmp_path, family, key, value):
    assert run(["cover", "--out", str(tmp_path), "--field-family", family]) == 0
    payload = json.loads((tmp_path / "cover_report.json").read_text())
    assert payload["config"]["field"]["family"][key] == value


@pytest.mark.parametrize("argv", [["cover", "--seed", "1"], ["list-families", "--config", "x.ini"]])
def test_options_exist_only_where_read(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


def test_grid_file_path_with_percent_sign(tmp_path):
    f = fields.make_field("periodic-square", dim=1, period=2 * math.pi, grid=64, delta=0.3)
    path = tmp_path / "50%.ogrd"
    fields.save_grid(f, path)
    code = run(["uncertainty", "--out", str(tmp_path), "--field-family", "custom-grid",
                "--grid-file", str(path), "--mask", "ball", "--radius", "3"])
    assert code == 0


def _grid_file_setup(tmp_path, monkeypatch, field_lines=()):
    """Work in tmp_path, with data.ogrd (delta 0.3) there and another
    data.ogrd (delta 0.5) and the config sub/c.ini in a subdirectory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for folder, delta in ((tmp_path, 0.3), (tmp_path / "sub", 0.5)):
        fields.save_grid(fields.make_field("periodic-square", dim=1, period=2 * math.pi,
                                           grid=64, delta=delta), folder / "data.ogrd")
    field = ["[field]", "family = custom-grid", *field_lines] if field_lines else []
    (tmp_path / "sub" / "c.ini").write_text(
        "\n".join([*field, "[uncertainty]", "mask = ball", "radius = 3", ""]))
    return ["uncertainty", "--config", "sub/c.ini", "--out", "out"]


@pytest.mark.parametrize("extra, field_lines, source", [
    (["--field-family", "custom-grid", "--grid-file", "data.ogrd"], (), "data.ogrd"),
    ([], ["grid_file = data.ogrd"], str(Path("sub") / "data.ogrd")),
    (["--grid-file", "data.ogrd"], ["grid_file = absent.ogrd"], "data.ogrd"),
])
def test_grid_file_flag_is_relative_to_working_dir(tmp_path, monkeypatch, extra, field_lines,
                                                   source):
    """A --grid-file flag is read from the working directory, a config
    grid_file from the config file's directory, whichever the other is."""
    argv = _grid_file_setup(tmp_path, monkeypatch, field_lines)
    assert run(argv + extra) == 0
    payload = json.loads((tmp_path / "out" / "uncertainty_report.json").read_text())
    assert payload["config"]["field"]["family"]["source"] == source


@pytest.mark.parametrize("mask, needed", [("ball", "--radius"), ("rectangle", "--sigma")])
def test_mask_without_its_option_exits_2_before_the_field(tmp_path, monkeypatch, capsys, mask,
                                                         needed):
    """The missing mask option is reported, not the unreadable grid file,
    because no field is built."""
    monkeypatch.chdir(tmp_path)
    code = run(["uncertainty", "--field-family", "custom-grid", "--grid-file", "absent.ogrd",
                "--mask", mask, "--out", "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {mask} masks need {needed}" in err
    assert "absent.ogrd" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, field_lines, named", [
    (["--field-family", "custom-grid", "--grid-file", "absent.ogrd"], (), "absent.ogrd"),
    (["--field-family", "custom-grid", "--grid-file", "sub"], (), "sub"),
    (["--field-family", "custom-grid", "--grid-file", "data.ogrd", "--out", "data.ogrd"], (),
     "data.ogrd"),
    ([], ["grid_file = absent.ogrd"], str(Path("sub") / "absent.ogrd")),
])
def test_bad_paths_exit_code(tmp_path, monkeypatch, capsys, extra, field_lines, named):
    """A missing grid file, a grid file that is a directory, an --out that
    is a regular file and a missing config grid_file exit 2 and name the
    path."""
    argv = _grid_file_setup(tmp_path, monkeypatch, field_lines)
    assert run(argv + extra) == 2
    assert capsys.readouterr().err.startswith(f"error: {named}: ")


def test_unusable_out_is_refused_before_the_run(tmp_path, capsys):
    target = tmp_path / "report.txt"
    target.write_text("")
    code = run(["certify", "--out", str(target), "--field-grid", "16", "--rho", "2",
                "--lambdas", "10000", "--n-offsets", "4", "--samples-per-unit", "4"])
    assert code == 2
    captured = capsys.readouterr()
    assert "[certify]" not in captured.out
    assert captured.err.startswith(f"error: {target}: ")


def test_list_families_prints_defaults(capsys):
    assert run(["list-families"]) == 0
    out = capsys.readouterr().out
    assert "parameters: delta=0.5)" in out
    assert "parameters: intervals_x=0:0.6, intervals_y=0:0.6)" in out


def test_resolvent_config_records_fit(tmp_path):
    args = ["resolvent", "--field-family", "constant", "--field-dim", "1",
            "--field-grid", "64", "--field-period", str(2 * math.pi),
            "--gamma", "1.5", "--lambdas", "20 40", "--m", "0.5"]
    for fit in (False, True):
        out = tmp_path / str(fit)
        assert run(args + ["--out", str(out)] + (["--fit"] if fit else [])) == 0
        config = json.loads((out / "resolvent_report.json").read_text())["config"]
        assert config["fit"] is fit
        assert config["m"] == 0.5 and config["lambdas"] == [20.0, 40.0]


def test_observe_envelope_fits_the_reported_sweep(tmp_path):
    T = [0.05 * 1.5 ** (k / 5) for k in range(6)]
    code = run(["observe", "--out", str(tmp_path),
                "--field-family", "periodic-square", "--field-dim", "1",
                "--field-grid", "256", "--field-period", str(2 * math.pi),
                "--field-delta", "0.3", "--field-mollify", "0.05",
                "--beta", "0.5", "--cutoff", "24",
                "--T-list", " ".join(map(repr, T)), "--envelope-eps", repr(2.0 / 3.0)])
    assert code == 0
    report = json.loads((tmp_path / "observe_report.json").read_text())["report"]
    assert [r["n_nodes"] for r in report["reports"]] == \
        [max(evolution.nyquist_nodes(0.5, t, 24.0), 33) for t in T]
    assert report["envelope"]["kappa"] == [r["kappa"] for r in report["reports"]]


def test_gramian_size_guard_exit_code(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(spectral, "_pair_form", lambda *a, **k: calls.append(a))
    code = run(["observe", "--out", str(tmp_path),
                "--field-family", "constant", "--field-dim", "2",
                "--field-grid", "128", "--field-period", str(2 * math.pi),
                "--cutoff", "60", "--T-list", "0.5"])
    assert code == 2
    err = capsys.readouterr().err
    # the solve's peak, 3 r^2 float64 at r = 11289 (beta 1, T 0.5, K 60)
    assert "rank 11289" in err and "3.1 GB" in err and "time nodes" not in err
    assert calls == []


@pytest.mark.parametrize("argv, flag, unreachable", [
    (["observe", "--T-list", "1e308"], "--T-list", "_real_form"),
    (["certify", "--samples-per-unit", "1e9"], "--samples-per-unit", "_measurements"),
])
def test_oversized_sweep_exits_2_naming_its_flag(tmp_path, monkeypatch, capsys, argv, flag,
                                                 unreachable):
    """observe --T-list 1e308 would ask for a trapezoid node count past the
    float64 range and certify --samples-per-unit 1e9 for 3.2e10-sample comb
    profiles: each exits 2 naming its flag, before a Gramian form is
    assembled or an entry is measured (so before any pool worker forks)."""
    def never(*args):
        raise AssertionError(f"{unreachable} called")

    module = evolution if argv[0] == "observe" else covering
    monkeypatch.setattr(module, unreachable, never)
    assert run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and "the limit is" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, flag, unreachable", [
    (["observe", "--T-list", "1e308"], "--T-list", (evolution, "build_mask")),
    (["observe", "--cutoff", "1e160"], "--cutoff", (evolution, "build_mask")),
    (["construct-demo", "--W", "1e308"], "--W", (construct, "BallSystem")),
])
def test_overflowing_input_exits_2_naming_its_flag(tmp_path, monkeypatch, capsys, argv, flag,
                                                   unreachable):
    """A T or a cutoff whose trapezoid node count is past the float64 range,
    and a circumference whose window search would unroll the balls past
    it, each exit 2 naming the flag before a mask is built or a ball
    placed, and write no report; each used to raise OverflowError."""
    module, name = unreachable

    def never(*args, **kwargs):
        raise AssertionError(f"{name} called")

    monkeypatch.setattr(module, name, never)
    assert run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and "past the float64 range" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("dim, grid, cutoff", [(1, 256, 24), (2, 64, 12)])
def test_observe_at_a_subnormal_T_exits_2_naming_its_flag(tmp_path, monkeypatch, capsys, dim,
                                                          grid, cutoff):
    """At T = 5e-324 the trapezoid step T/(n - 1) underflows to 0 and
    every off-diagonal time-kernel entry would be 0/0: observe exits 2
    naming --T-list and the step, with no traceback and no report, before
    a Gramian form is assembled."""
    def never(*args):
        raise AssertionError("_real_form called")

    monkeypatch.setattr(evolution, "_real_form", never)
    argv = ["observe", "--field-family", "periodic-square", "--field-dim", str(dim),
            "--field-grid", str(grid), "--field-period", "6.283185307179586",
            "--field-delta", "0.3", "--beta", "0.5", "--cutoff", str(cutoff),
            "--T-list", "5e-324", "--out", str(tmp_path)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --T-list: ") and "T/(n - 1) = 0 on n = 33" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["cover", "--rho", "0"],
    ["cover", "--rho", "-1"],
    ["certify", "--rho", "0"],
    ["certify", "--n-offsets", "0"],
    ["certify", "--samples-per-unit", "0"],
    ["certify", "--lambdas", ""],
    ["resolvent", "--gamma", "0"],
    ["resolvent", "--lambdas", "", "--fit"],
    ["construct-demo", "--n-balls", "0"],
    ["observe", "--T-list", "", "--envelope-eps", "0.5"],
    ["resolvent", "--lam0", "-1"],
    ["cover", "--field-mollify", "-1"],
    ["observe", "--cutoff", "-1", "--beta", "0.5"],  # (-1)^1.5 is complex
])
def test_empty_sweeps_and_nonpositive_scales_exit_code(tmp_path, capsys, argv):
    try:
        code = run(argv + ["--out", str(tmp_path)])
    except SystemExit as exc:  # argparse rejects a flag value itself
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, expected", [
    (["--M", "0.01"], r"the window \[[-+e.0-9]+, [-+e.0-9]+\] of length --M 0.01 holds no ball"),
    (["--W", "1e9", "--n-balls", "2"],
     r"the window \[[-+e.0-9]+, [-+e.0-9]+\] of length --M 1.0 holds no ball"),
    (["--M", "0"], "the window length --M must be positive, got 0.0"),
])
def test_construct_demo_names_the_window_length(tmp_path, capsys, argv, expected):
    """A window holding no ball makes the default rho 0: the error names
    --M and that window, not rho."""
    assert run(["construct-demo", *argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert re.search(expected, err) and "rho must" not in err and "L must" not in err
    assert not (tmp_path / "construct_report.json").exists()


@pytest.mark.parametrize("M", ["40", "100", "1000", "10000"])
def test_construct_demo_refuses_a_window_longer_than_the_samples(tmp_path, capsys,
                                                                monkeypatch, M):
    """On the default circle of circumference 40 a density window of 2 x
    --M beyond the sampled range is refused, naming --M, before the
    minorant is built."""
    def unreachable(*args):
        raise AssertionError("smooth_minorant called")

    monkeypatch.setattr(construct, "smooth_minorant", unreachable)
    assert run(["construct-demo", "--M", M, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"the density window 2 x --M = {2 * float(M)} is longer than the range" in err
    assert not (tmp_path / "construct_report.json").exists()


def test_construct_demo_walks_no_partition_on_a_long_circle(tmp_path, capsys, monkeypatch):
    """On a circle of circumference 1e9 the density window of 2 x --M
    cannot outrun the partition, so the CLI walks none of its 1e9
    breakpoints, and smooth_minorant refuses the sparse balls first."""
    def unreachable(*args):
        raise AssertionError("build_partition called")

    monkeypatch.setattr(construct, "build_partition", unreachable)
    assert run(["construct-demo", "--W", "1e9", "--rho", "0.1", "--n-balls", "2",
                "--out", str(tmp_path)]) == 2
    assert "is not (M, rho) relatively dense" in capsys.readouterr().err
    assert not (tmp_path / "construct_report.json").exists()


def test_construct_demo_refuses_many_empty_windows_quickly(tmp_path, capsys):
    """20000 balls of radius 0.01 on a circle of 1e5 leave thousands of
    empty windows of length 1, all tied at the least measure 0: the window
    search stops at the first, and the run is refused in a fraction of a
    second (23 s on 2 cores when every tie was measured against every
    ball; the bound leaves room for a loaded machine)."""
    start = time.perf_counter()
    assert run(["construct-demo", "--W", "1e5", "--n-balls", "20000", "--M", "1",
                "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 10.0
    assert re.search(r"the window \[[-+e.0-9]+, [-+e.0-9]+\] of length --M 1.0 holds no ball",
                     capsys.readouterr().err)


def test_construct_demo_refuses_too_many_samples(tmp_path, capsys):
    """100 balls of radius 1e-4 on the unit circle need about 2e7 samples
    at the default rho, twice construct.MAX_MINORANT_SAMPLES."""
    assert run(["construct-demo", "--W", "1", "--n-balls", "100", "--delta", "1e-4",
                "--M", "0.5", "--out", str(tmp_path)]) == 2
    assert re.search(r"the minorant needs \d+ samples .* the limit is 10000000",
                     capsys.readouterr().err)


@pytest.mark.parametrize("radius", ["-1", "4.01", "1e9"])
def test_field_mollify_out_of_range_names_the_flag(tmp_path, capsys, radius):
    """A mollify radius outside [0, 4 periods] exits 2 at once, naming
    --field-mollify: a radius of 1e9 used to sum about 3e8 periods."""
    assert run(["uncertainty", "--field-mollify", radius, "--mask", "ball", "--radius", "3",
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: --field-mollify: mollify radius must lie in [0, 4 periods]" in err


def test_uncertainty_block_over_the_cap_exits_2(tmp_path, monkeypatch, capsys):
    """An uncertainty block above DENSE_RANK_LIMIT exits 2 before any form
    is built, and writes no report."""
    def unreachable(*args):
        raise AssertionError("_pair_form called")

    monkeypatch.setattr(spectral, "DENSE_RANK_LIMIT", 16)
    monkeypatch.setattr(spectral, "_pair_form", unreachable)
    assert run(["uncertainty", *FIELD_1D, "--mask", "ball", "--radius", "8",
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the uncertainty block of order 17 ")
    assert "the limit is order 16" in err and not list(tmp_path.iterdir())


def test_field_grid_over_the_cap_exits_2_naming_the_flag(tmp_path, capsys):
    """--field-grid 200000 in 2d asks for 4e10 samples: it exits 2 naming
    --field-grid, where it used to die allocating them."""
    assert run(["cover", "--field-grid", "200000", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --field-grid: a 2d grid of 200000 per axis has 40000000000")
    assert f"the limit is {fields.MAX_FIELD_SAMPLES} samples" in err


@pytest.mark.parametrize("argv, expected", [
    (["certify", "--lambdas", ""], "argument --lambdas: expected at least one number"),
    (["uncertainty", "--mask", "blob"], "argument --mask: 'blob' is not one of ball, annulus"),
])
def test_bad_flag_value_names_what_was_expected(capsys, argv, expected):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert expected in capsys.readouterr().err


TWO_PI = repr(2 * math.pi)
FIELD_1D = ["--field-dim", "1", "--field-grid", "32", "--field-period", TWO_PI]
# a cheap run of each command, and its numeric flags (int-valued ones marked)
BAD_VALUE_RUNS = {
    "certify": (["--field-grid", "16", "--rho", "2", "--lambdas", "10000",
                 "--n-offsets", "4", "--samples-per-unit", "4"],
                {"--rho": float, "--lambdas": float, "--gamma": float, "--n-offsets": int,
                 "--samples-per-unit": float}),
    "cover": (["--field-grid", "16", "--rho", "1", "--lam", "160000"],
              {"--rho": float, "--lam": float, "--gamma": float}),
    "resolvent": ([*FIELD_1D, "--lambdas", "20 40"],
                  {"--gamma": float, "--lambdas": float, "--m": float, "--lam0": float}),
    "observe": ([*FIELD_1D, "--cutoff", "4", "--T-list", "0.5 1.0"],
                {"--beta": float, "--cutoff": float, "--T-list": float,
                 "--envelope-eps": float, "--miller": float}),
}
# resolvent spectral parameters below the spectrum are valid input
NEGATIVE_IS_VALID = {("resolvent", "--lambdas")}


@st.composite
def _bad_flag_value(draw):
    command = draw(st.sampled_from(sorted(BAD_VALUE_RUNS)), label="command")
    base, numeric = BAD_VALUE_RUNS[command]
    flag = draw(st.sampled_from(sorted(numeric)), label="flag")
    kinds = ["empty", "nan", "infinite", "non-numeric"]
    if (command, flag) not in NEGATIVE_IS_VALID:
        kinds.append("negative")
    kind = draw(st.sampled_from(kinds), label="kind")
    if kind == "negative":
        value = (draw(st.integers(max_value=-1)) if numeric[flag] is int
                 else draw(st.floats(max_value=-1e-300, allow_infinity=False)))
        text = repr(value)
    else:
        text = draw({
            "empty": st.sampled_from(["", " "]),
            "nan": st.sampled_from(["nan", "NaN", "-nan"]),
            "infinite": st.sampled_from(["inf", "-inf", "Infinity"]),
            # no letter of nan, inf or infinity, so float() cannot parse it
            "non-numeric": st.text("bcdeghjklmopqrsuvwxz", min_size=1, max_size=6),
        }[kind])
    return [command, *base, flag, text]


@settings(max_examples=80, deadline=None)
@given(argv=_bad_flag_value())
def test_bad_numeric_flag_values_exit_2(tmp_path_factory, argv):
    """Empty, negative, NaN, infinite or non-numeric values of a numeric
    flag are usage errors: exit 2, an error: line, no traceback."""
    out = tmp_path_factory.mktemp("out")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = run(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
    assert code == 2
    assert "error:" in stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()


# a cheap run of each command, and the files it writes into --out
WRITER_RUNS = {
    "certify": (BAD_VALUE_RUNS["certify"][0], {"certify_report.json", "certify_entries.csv"}),
    "cover": (BAD_VALUE_RUNS["cover"][0], {"cover_report.json"}),
    "uncertainty": (["--field-dim", "1", "--field-grid", "32", "--field-period", TWO_PI,
                     "--mask", "ball", "--radius", "3"],
                    {"uncertainty_report.json", "uncertainty_sweep.csv"}),
    "resolvent": (BAD_VALUE_RUNS["resolvent"][0] + ["--m", "0.5"],
                  {"resolvent_report.json", "resolvent_sweep.csv"}),
    "observe": (BAD_VALUE_RUNS["observe"][0], {"observe_report.json", "observe_sweep.csv"}),
    "construct-demo": (["--W", "10", "--n-balls", "100"],
                       {"construct_report.json", "construct_profile.csv"}),
    "list-families": ([], set()),
}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_command_writes_its_reports(tmp_path, monkeypatch, command):
    """Each command writes exactly its report and table; the report's kind
    is the command, and its config holds each option plus the field."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("OBSLAB_OUT", raising=False)
    _, _, options, box, _ = cli.COMMANDS[command]
    base, files = WRITER_RUNS[command]
    argv = [command, *base] + (["--out", "out"] if options is not None else [])
    assert run(argv) in (0, 1)
    written = {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()}
    assert written == {str(Path("out") / name) for name in files}
    if options is None:
        return
    (report_file,) = [name for name in files if name.endswith(".json")]
    envelope = json.loads((tmp_path / "out" / report_file).read_text())
    assert envelope["kind"] == command
    assert set(envelope["config"]) == {dest for dest, *_ in options} | ({"field"} if box else set())


@pytest.mark.parametrize("value", ["1,2", "a,b,c", "-1,2,0.1", "0.01,0,0.1", "0.01,2,0"])
def test_bad_miller_exits_2_before_any_gramian(tmp_path, monkeypatch, capsys, value):
    calls = []
    monkeypatch.setattr(evolution, "cost_curve", lambda *a, **k: calls.append(a))
    base, _ = BAD_VALUE_RUNS["observe"]
    with pytest.raises(SystemExit) as exc:
        run(["observe", *base, f"--miller={value}", "--out", str(tmp_path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "argument --miller: " in err
    assert "[observe]" not in out
    assert calls == []


def test_bad_miller_in_config_exits_2_before_any_gramian(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(evolution, "cost_curve", lambda *a, **k: calls.append(a))
    cfg = tmp_path / "c.ini"
    cfg.write_text("[observe]\nmiller = -1, 2, 0.1\n")
    base, _ = BAD_VALUE_RUNS["observe"]
    assert run(["observe", *base, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert "[observe] miller: need M >= 0 and m > 0" in err
    assert "[observe]" not in out
    assert calls == []


def test_observe_records_miller_as_numbers(tmp_path):
    base, _ = BAD_VALUE_RUNS["observe"]
    assert run(["observe", *base, "--miller", "0.01 2 0.1", "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "observe_report.json").read_text())["config"]
    assert config["miller"] == [0.01, 2.0, 0.1]


@pytest.mark.parametrize("T_list", ["0.5", "0.5 0.5"])
def test_envelope_with_one_distinct_time_exits_2_before_any_gramian(tmp_path, monkeypatch,
                                                                    capsys, T_list):
    calls = []
    monkeypatch.setattr(evolution, "cost_curve", lambda *a, **k: calls.append(a))
    base, _ = BAD_VALUE_RUNS["observe"]
    code = run(["observe", *base, "--T-list", T_list, "--envelope-eps", "0.5",
                "--out", str(tmp_path)])
    assert code == 2
    assert "at least two distinct T" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("T_list", ["0.05 0.06 0.07", "500 600"])
def test_envelope_abscissa_past_the_float_range_exits_2_before_any_gramian(
        tmp_path, monkeypatch, capsys, T_list):
    """At eps 0.01 the fit's abscissa T^(2 - 4/eps) = T^-398 overflows at
    T = 0.05 and underflows to 0 at T = 500: exit 2 naming --envelope-eps,
    where the fit used to fail with exit 3 (SVD did not converge)."""
    calls = []
    monkeypatch.setattr(evolution, "cost_curve", lambda *a, **k: calls.append(a))
    code = run(["observe", "--beta", "0.5", "--cutoff", "8", "--T-list", T_list,
                "--envelope-eps", "0.01", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --envelope-eps: ") and "not two distinct positive finite" in err
    assert calls == [] and not list(tmp_path.iterdir())


@pytest.mark.parametrize("lambdas", ["64", "64,64"])
def test_resolvent_fit_needs_two_distinct_lambdas(tmp_path, lambdas):
    base, _ = BAD_VALUE_RUNS["resolvent"]
    code = run(["resolvent", *base, "--m", "0.5", "--lambdas", lambdas, "--fit",
                "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "resolvent_report.json").read_text())["report"]
    assert report["fit"] == {"slope": None, "reason": "fit needs at least two distinct lambdas"}


def test_readme_commands_parse():
    """Every command of the README's command-line block parses, and every
    field flag the README lists exists on cover."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```\n", 2)[1]
    commands = block.replace("\\\n", " ").strip().splitlines()
    assert len(commands) == len(cli.COMMANDS)
    parser = cli.build_parser()
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "obslab"
        assert parser.parse_args(argv[1:]).command == argv[1]
    listed = section.split("shares the field flags:", 1)[1].split(". ", 1)[0]
    flags = re.findall(r"`(--[a-z-]+)`", listed)
    assert sorted(flags) == sorted(flag for flag, *_ in cli.FIELD_FLAGS)
    for flag in flags:
        assert parser.parse_args(["cover", flag, "1"]).command == "cover"


def _fresh_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    """code in a new interpreter that imports obslab from where this one
    did; pytest has already loaded SciPy in this one."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


LOADED_SCIPY = "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"


def test_commands_that_solve_no_eigenproblem_never_load_scipy(tmp_path):
    """import obslab, then small certify, cover, construct-demo and
    list-families runs, load no SciPy module."""
    runs = [BAD_VALUE_RUNS["certify"][0], BAD_VALUE_RUNS["cover"][0],
            ["--W", "10", "--n-balls", "100"], None]
    commands = ["certify", "cover", "construct-demo", "list-families"]
    argvs = [[name] + (argv + ["--out", str(tmp_path)] if argv else [])
             for name, argv in zip(commands, runs)]
    done = _fresh_python(
        "import sys\nimport obslab, obslab.cli\n"
        f"print([obslab.cli.main(argv) for argv in {argvs!r}])\n" + LOADED_SCIPY, tmp_path)
    assert done.returncode == 0, done.stderr
    *_, codes, loaded = done.stdout.splitlines()
    assert codes == "[0, 0, 0, 0]" and loaded == "[]"


def test_resolvent_loads_scipy_when_it_solves(tmp_path):
    """The same kind of fresh process runs a small resolvent, uncertainty
    and observe: SciPy is loaded at the first eigensolve, and no
    scipy.sparse module is."""
    argvs = [["resolvent", *BAD_VALUE_RUNS["resolvent"][0]],
             ["uncertainty", *FIELD_1D, "--mask", "ball", "--radius", "8"],
             ["observe", *BAD_VALUE_RUNS["observe"][0]]]
    argvs = [argv + ["--out", str(tmp_path)] for argv in argvs]
    done = _fresh_python(
        "import sys\nimport obslab.cli\n"
        f"print([obslab.cli.main(argv) for argv in {argvs!r}])\n" + LOADED_SCIPY, tmp_path)
    assert done.returncode == 0, done.stderr
    *_, codes, loaded = done.stdout.splitlines()
    assert codes == "[0, 0, 0]" and "'scipy.linalg'" in loaded
    assert "scipy.sparse" not in loaded
    for name in ("resolvent", "uncertainty", "observe"):
        assert (tmp_path / f"{name}_report.json").exists()
