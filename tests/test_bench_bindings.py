"""The benchmark's tracer wraps obslab functions by (module, attribute)
and reads obslab constants; a refactor that renames or removes one would
silently drop its span or crash a traced run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402

from obslab import spectral  # noqa: E402


def test_every_binding_point_resolves():
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in spans._binding_points()
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_constants_read_by_the_tracer_exist():
    # _uncertainty_path labels the solver path by rank against this limit
    assert isinstance(getattr(spectral, "DENSE_RANK_LIMIT", None), int)
