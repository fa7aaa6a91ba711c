"""The benchmark's tracer wraps obslab functions by (module, attribute);
a refactor that renames or removes one would silently drop its span."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402


def test_every_binding_point_resolves():
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in spans._binding_points()
               if not callable(getattr(owner, attr, None))]
    assert missing == []
