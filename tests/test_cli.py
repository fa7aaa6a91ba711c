import contextlib
import io
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from obslab import cli, evolution, fields, reports


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


def test_linalg_error_exit_code(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalue iteration did not converge")
    monkeypatch.setattr(scipy.linalg, "eigh", boom)
    code = run(["resolvent", "--out", str(tmp_path),
                "--field-family", "constant", "--field-dim", "1",
                "--field-grid", "64", "--field-period", str(2 * math.pi),
                "--gamma", "1.5", "--lambdas", "20 40", "--m", "0.5"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


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
                "--beta", "0.5", "--cutoff", "24", "--n-nodes", "400",
                "--T-list", " ".join(map(repr, T)), "--envelope-eps", repr(2.0 / 3.0)])
    assert code == 0
    report = json.loads((tmp_path / "observe_report.json").read_text())["report"]
    assert [r["n_nodes"] for r in report["reports"]] == [400] * 6
    assert report["envelope"]["kappa"] == [r["kappa"] for r in report["reports"]]


def test_gramian_size_guard_exit_code(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(evolution, "compression_matrix", lambda *a, **k: calls.append(a))
    code = run(["observe", "--out", str(tmp_path),
                "--field-family", "constant", "--field-dim", "2",
                "--field-grid", "128", "--field-period", str(2 * math.pi),
                "--cutoff", "60", "--T-list", "0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "rank 11289" in err and "GB" in err
    assert calls == []


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
])
def test_empty_sweeps_and_nonpositive_scales_exit_code(tmp_path, capsys, argv):
    try:
        code = run(argv + ["--out", str(tmp_path)])
    except SystemExit as exc:  # argparse rejects a flag value itself
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


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
# a cheap run of each command, and its numeric flags (int-valued ones marked)
BAD_VALUE_RUNS = {
    "certify": (["--field-grid", "16", "--rho", "2", "--lambdas", "10000",
                 "--n-offsets", "4", "--samples-per-unit", "4"],
                {"--rho": float, "--lambdas": float, "--gamma": float, "--n-offsets": int,
                 "--samples-per-unit": float}),
    "cover": (["--field-grid", "16", "--rho", "1", "--lam", "160000"],
              {"--rho": float, "--lam": float, "--gamma": float}),
    "resolvent": (["--field-dim", "1", "--field-grid", "32", "--field-period", TWO_PI,
                   "--lambdas", "20 40"],
                  {"--gamma": float, "--lambdas": float, "--m": float, "--lam0": float}),
    "observe": (["--field-dim", "1", "--field-grid", "32", "--field-period", TWO_PI,
                 "--cutoff", "4", "--T-list", "0.5 1.0"],
                {"--beta": float, "--cutoff": float, "--T-list": float, "--n-nodes": int,
                 "--envelope-eps": float}),
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
