"""Deterministic report serialization.

Written artifacts are byte-reproducible: JSON keys are sorted, floats are
written as repr'd Python floats, and no report object carries a timing,
so rerunning an experiment with the same config and seed reproduces the
bytes exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np

from . import __version__

_PLAIN = (type(None), bool, int, float, str)


def to_jsonable(obj):
    """Recursively convert dataclasses, arrays and numpy scalars for JSON."""
    if type(obj) in _PLAIN:
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return to_jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):  # numpy integer, float and bool scalars
        return obj.item()
    return obj


def report_envelope(kind: str, config: dict, payload: dict) -> dict:
    """Wrap a payload with the tool version and the resolved config."""
    return {
        "tool": {"name": "obslab", "version": __version__},
        "kind": kind,
        "config": config,
        "report": payload,
    }


def write_json(path, payload) -> None:
    """Write payload, converted once by to_jsonable, as sorted-key JSON."""
    text = json.dumps(to_jsonable(payload), sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


SPECTRAL_SWEEP_HEADER = ["lambda", "rank", "c", "C", "M", "residual"]


def spectral_sweep_rows(reports) -> list:
    """Rows in the shared spectral sweep schema.

    Uncertainty reports fill c and C and leave M blank; resolvent reports
    fill M and leave c and C blank.
    """
    rows = []
    for rep in reports:
        if rep.kind.startswith("uncertainty"):
            lam = rep.mask.get("params", {}).get("lam", rep.mask.get("params", {}).get("zeta", ""))
            rows.append([lam, rep.rank, rep.c, rep.value, None, rep.residual])
        else:
            rows.append([rep.extra.get("lam", ""), rep.rank, None, None, rep.value, rep.residual])
    return rows
