"""The demos and the benchmark workloads call obslab through module
attributes, and the unit suite never runs them; a library deletion or
rename would break them silently. Every obslab attribute they name must
resolve."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "demos").glob("*.py")) + [ROOT / "bench" / "workloads.py"]


def _references(path: Path) -> list[tuple[str, str]]:
    """(module, attribute) for every obslab attribute the script names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, refs = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "obslab":
            for alias in node.names:
                if node.module == "obslab":
                    modules[alias.asname or alias.name] = f"obslab.{alias.name}"
                else:
                    refs.append((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            refs.append((modules[node.value.id], node.attr))
    return refs


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_obslab_reference_resolves(path):
    refs = _references(path)
    assert refs, f"{path.name} names no obslab attribute"
    missing = sorted({f"{mod}.{attr}" for mod, attr in refs
                      if not hasattr(importlib.import_module(mod), attr)})
    assert missing == []
