"""The demos that finish in a few seconds run end to end, so a demo left
calling a changed signature fails here, not only when a reader runs it.
Each runs in a fresh working directory, where it may write files."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
QUICK = ["minorant_construction", "segment_and_rectangle_densities",
         "observability_costs", "uncertainty_and_resolvent"]


@pytest.mark.parametrize("name", QUICK)
def test_demo_main_runs(name, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(tmp_path)
    module.main()
    assert capsys.readouterr().out.strip()
