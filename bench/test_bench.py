"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q

The last test runs the shortest workload twice (about 25 s).
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from obslab import fields, geometry  # noqa: E402

import spans  # noqa: E402


def _small_work(tracer):
    f = fields.make_field("periodic-square", dim=2, period=1.0, grid=16, delta=0.5)
    geometry.gcc_constant(f, 1.0, direction_grid_size=8, anchor_grid_size=8, n_samples=16)
    return spans.run_cli(tracer, ["list-families"])


def test_untraced_run_after_traced_run_records_no_spans(capsys):
    originals = [getattr(owner, attr) for owner, attr, *_ in spans._binding_points()]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert _small_work(tracer) == 0
    finally:
        tracer.uninstall()
    recorded = len(tracer.spans)
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"fields.make_field", "geometry.gcc_constant", "fields.evaluate"} <= names

    assert _small_work(tracer) == 0
    assert len(tracer.spans) == recorded
    restored = [getattr(owner, attr) for owner, attr, *_ in spans._binding_points()]
    assert all(a is b for a, b in zip(originals, restored))


def test_self_time_subtracts_children_and_busy_counts_outermost():
    # [name, start, end, parent index, counts]
    records = [
        ["fields.make_field", 0.0, 10.0, -1, {}],
        ["fields.mollify", 1.0, 4.0, 0, {}],
        ["fields.evaluate", 5.0, 7.0, 0, {"points": 3}],
        ["fields.evaluate", 11.0, 12.0, -1, {"points": 5}],
    ]
    m = spans.layer_metrics(records)
    assert m["fields.build.busy_s"] == 10.0  # the nested mollify is not counted twice
    assert m["fields.evaluate.busy_s"] == 3.0
    assert m["fields.evaluate.points"] == 8
    assert m["fields.self_s"] == 11.0
    assert spans.top_self(records, 1) == [("fields.make_field", 5.0)]


def test_cg_iterations_are_counted_through_an_injected_callback():
    import scipy.sparse.linalg

    a = np.diag(np.arange(1.0, 21.0))
    seen = []
    tracer = spans.Tracer()
    tracer.install()
    try:
        x, info = scipy.sparse.linalg.cg(a, np.ones(20), callback=seen.append)
    finally:
        tracer.uninstall()
    assert info == 0
    cg = [s for s in tracer.spans if s[spans.NAME] == "linalg.cg"]
    assert len(cg) == 1 and cg[0][spans.COUNTS]["iters"] == len(seen) > 0


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cost", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec[key]]
    for m in spec[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
