"""Spans and counters recorded around obslab's layer boundaries.

The tracer wraps the public functions of each obslab module at the
module attribute where the calling layer looks them up (for example
`geometry.evaluate`, which geometry bound with `from .fields import
evaluate`), so no file of the package changes. Wrappers exist only
between `install()` and `uninstall()`; an untraced run calls the
original functions.

A span is [name, start, end, parent index, counts]. Spans stay in memory
until the run ends. Self time is a span's duration minus the time its
child spans cover (children of one span never overlap: obslab is
single-threaded at the Python level).
"""

from __future__ import annotations

import os
import time

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from obslab import cli, construct, covering, evolution, fields, geometry, reports, spectral

LAYERS = ("fields", "geometry", "covering", "spectral", "evolution", "construct",
          "reports", "cli", "linalg")
CLI_COMMANDS = ("certify", "resolvent", "uncertainty", "observe", "construct-demo")
FIELD_BUILD = ("fields.make_field", "fields.mollify", "fields.field_from_config")
REPORT_WRITE = ("reports.write_json", "reports.write_csv")

NAME, START, END, PARENT, COUNTS = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named `name`."""
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    # -- wrapping ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, count=None, adapt=None) -> None:
        """Replace owner.attr by a spanned wrapper.

        count(counts, args, kwargs, result) records counts at the boundary;
        adapt(span, args, kwargs) may rewrite the call's arguments.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                if adapt is not None:
                    args, kwargs = adapt(span, args, kwargs)
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                count(span[COUNTS], args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, count, adapt in _binding_points():
            self.patch(owner, attr, name, count, adapt)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- reduction ---------------------------------------------------------

    def dump(self) -> list:
        return [{"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
                 **({"counts": s[COUNTS]} if s[COUNTS] else {})} for s in self.spans]


# -- binding points ------------------------------------------------------------


def _count_points(counts, args, kwargs, result):
    counts["points"] = int(np.size(result))


def _count_comb_samples(counts, args, kwargs, result):
    n_t = int(round(result.meta["t_extent"] / result.meta["h_t"]))
    counts["samples"] = len(result.values) * n_t


def _count_certify(counts, args, kwargs, result):
    counts["entries"] = sum(rec["n_measured"] for rec in result.per_lambda)
    counts["failfast_measured"] = sum(rec["n_measured"] for rec in result.per_lambda
                                      if rec["stopped_early"])


def _count_compression(counts, args, kwargs, result):
    mask = args[1] if len(args) > 1 else kwargs["mask"]
    r, d = mask.rank, mask.dim
    # computed, not measured: the rank x rank complex result, the int64
    # (rank, rank, dim) difference array and the (rank, dim) index array
    counts["bytes"] = r * r * 16 + r * r * d * 8 + r * d * 8


def _count_residual(counts, args, kwargs, result):
    reps = result if isinstance(result, list) else [result]
    counts["residual"] = max(float(rep.residual) for rep in reps)


def _count_order(counts, args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    counts["order"] = int(np.shape(a)[0])


def _count_gramian(counts, args, kwargs, result):
    counts["rank"] = int(result.rank)
    counts["nodes"] = int(result.n_nodes)
    counts["key"] = [float(result.beta), float(result.T), float(result.K)]


def _count_write(counts, args, kwargs, result):
    counts["bytes"] = os.path.getsize(args[0])


def _uncertainty_path(args, kwargs):
    mask = args[1] if len(args) > 1 else kwargs["mask"]
    # read from outside: the path is chosen by rank against this limit
    path = "dense" if mask.rank <= spectral.DENSE_RANK_LIMIT else "iterative"
    return f"spectral.uncertainty.{path}"


def _inject_cg_counter(span, args, kwargs):
    """Count conjugate-gradient iterations through the solver's callback."""
    counts = span[COUNTS]
    counts["iters"] = 0
    user = kwargs.get("callback")

    def callback(xk):
        counts["iters"] += 1
        if user is not None:
            user(xk)

    return args, {**kwargs, "callback": callback}


def _binding_points():
    """(owner, attribute, span name, count, adapt) for every wrapped call.

    A function bound into several modules is wrapped at each binding.
    """
    return [
        (fields, "evaluate", "fields.evaluate", _count_points, None),
        (geometry, "evaluate", "fields.evaluate", _count_points, None),
        (fields, "make_field", "fields.make_field", None, None),
        (fields, "mollify", "fields.mollify", None, None),
        (fields, "field_from_config", "fields.field_from_config", None, None),
        (geometry, "gcc_constant", "geometry.gcc_constant", None, None),
        (covering, "gcc_constant", "geometry.gcc_constant", None, None),
        (geometry, "comb_profile", "geometry.comb_profile", _count_comb_samples, None),
        (covering, "comb_profile", "geometry.comb_profile", _count_comb_samples, None),
        (geometry, "relative_density_1d", "geometry.relative_density_1d", None, None),
        (covering, "relative_density_1d", "geometry.relative_density_1d", None, None),
        (geometry, "rectangle_density_inf", "geometry.rectangle_density_inf", None, None),
        (covering, "comb_gcc_certify", "covering.comb_gcc_certify", _count_certify, None),
        (spectral, "compression_matrix", "spectral.compression_matrix", _count_compression, None),
        (evolution, "compression_matrix", "spectral.compression_matrix", _count_compression, None),
        (spectral, "resolvent_constant", "spectral.resolvent_constant", _count_residual, None),
        (spectral, "resolvent_sweep", "spectral.resolvent_sweep", _count_residual, None),
        (spectral, "calibrate_m", "spectral.calibrate_m", None, None),
        (spectral, "uncertainty_constant", _uncertainty_path, _count_residual, None),
        (scipy.linalg, "eigh", "linalg.eigh", _count_order, None),
        (scipy.sparse.linalg, "eigsh", "linalg.eigsh", None, None),
        (scipy.sparse.linalg, "cg", "linalg.cg", None, _inject_cg_counter),
        (evolution, "cost_curve", "evolution.cost_curve", None, None),
        (evolution, "observability_gramian", "evolution.observability_gramian",
         _count_gramian, None),
        (evolution, "arb_time_shape_check", "evolution.arb_time_shape_check", None, None),
        (construct, "smooth_minorant", "construct.smooth_minorant", None, None),
        (construct, "sliding_window_min", "construct.sliding_window_min", None, None),
        (construct, "derivative_bounds", "construct.derivative_bounds", None, None),
        (reports, "write_json", "reports.write_json", _count_write, None),
        (reports, "write_csv", "reports.write_csv", _count_write, None),
    ]


def run_cli(tracer: Tracer | None, argv: list[str]) -> int:
    """obslab.cli.main(argv), inside a `cli.<command>` span when traced."""
    if tracer is None or not tracer.installed:
        return cli.main(argv)
    return tracer.call(f"cli.{argv[0]}", cli.main, argv)


# -- per-layer metrics -----------------------------------------------------------


def _self_times(spans: list) -> list[float]:
    self_s = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_s[s[PARENT]] -= s[END] - s[START]
    return self_s


def _outermost(spans: list, names) -> list[int]:
    """Indices of spans in `names` with no ancestor in `names`, so nested
    calls inside one group are not counted twice."""
    names = {names} if isinstance(names, str) else set(names)
    out = []
    for i, s in enumerate(spans):
        if s[NAME] not in names:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            out.append(i)
    return out


def _under(spans: list, i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by BENCHMARK.json name.

    Ratios whose base is 0 (the layer did not run) read 0.
    """
    self_s = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(names):
        return sum(spans[i][END] - spans[i][START] for i in _outermost(spans, names))

    def own(name):
        return sum(self_s[i] for i in by_name.get(name, ()))

    def total(name, key):
        return sum(spans[i][COUNTS].get(key, 0) for i in by_name.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    ev = "fields.evaluate"
    m[f"{ev}.calls"] = calls(ev)
    m[f"{ev}.points"] = total(ev, "points")
    m[f"{ev}.busy_s"] = busy(ev)
    m[f"{ev}.points_per_s"] = ratio(m[f"{ev}.points"], m[f"{ev}.busy_s"])
    m["fields.build.busy_s"] = busy(FIELD_BUILD)

    for name in ("geometry.gcc_constant", "geometry.comb_profile",
                 "geometry.rectangle_density_inf", "covering.comb_gcc_certify",
                 "spectral.resolvent_constant", "evolution.observability_gramian"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.self_s"] = own(name)
    m["geometry.comb_profile.samples"] = total("geometry.comb_profile", "samples")
    m["geometry.relative_density_1d.calls"] = calls("geometry.relative_density_1d")
    m["geometry.relative_density_1d.busy_s"] = busy("geometry.relative_density_1d")

    cert = "covering.comb_gcc_certify"
    entries = total(cert, "entries")
    measurements = sum(1 for name in ("geometry.comb_profile", "geometry.gcc_constant")
                       for i in by_name.get(name, ()) if _under(spans, i, cert))
    m["covering.entries"] = entries
    m["covering.measurements"] = measurements
    m["covering.cache_hit_ratio"] = ratio(entries - measurements, entries)
    m["covering.failfast_measured"] = total(cert, "failfast_measured")

    cm = "spectral.compression_matrix"
    m[f"{cm}.calls"] = calls(cm)
    m[f"{cm}.busy_s"] = busy(cm)
    m[f"{cm}.bytes"] = total(cm, "bytes")
    m["spectral.calibrate_m.busy_s"] = busy("spectral.calibrate_m")
    for path in ("dense", "iterative"):
        name = f"spectral.uncertainty.{path}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
    m["spectral.residual_max"] = max(
        [s[COUNTS]["residual"] for s in spans if "residual" in s[COUNTS]], default=0.0)

    m["linalg.eigh.calls"] = calls("linalg.eigh")
    m["linalg.eigh.order_sum"] = total("linalg.eigh", "order")
    m["linalg.eigh.busy_s"] = busy("linalg.eigh")
    m["linalg.eigsh.calls"] = calls("linalg.eigsh")
    m["linalg.eigsh.busy_s"] = busy("linalg.eigsh")
    m["linalg.cg.calls"] = calls("linalg.cg")
    m["linalg.cg.iters"] = total("linalg.cg", "iters")
    m["linalg.cg.busy_s"] = busy("linalg.cg")
    m["linalg.cg.iters_per_eigsh"] = ratio(m["linalg.cg.iters"], m["linalg.eigsh.calls"])

    og = "evolution.observability_gramian"
    keys = [tuple(spans[i][COUNTS]["key"]) for i in by_name.get(og, ())]
    m[f"{og}.rank_sum"] = total(og, "rank")
    m[f"{og}.nodes_sum"] = total(og, "nodes")
    m[f"{og}.repeat_frac"] = ratio(len(keys) - len(set(keys)), len(keys))

    for name in ("construct.smooth_minorant", "construct.sliding_window_min"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
    m["construct.derivative_bounds.busy_s"] = busy("construct.derivative_bounds")

    m["reports.write.calls"] = sum(calls(n) for n in REPORT_WRITE)
    m["reports.write.bytes"] = sum(total(n, "bytes") for n in REPORT_WRITE)
    m["reports.write.busy_s"] = busy(REPORT_WRITE)
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.busy_s"] = busy(f"cli.{cmd}")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(self_s[i] for i, s in enumerate(spans)
                                   if s[NAME].startswith(layer + "."))
    m["trace.spans"] = len(spans)
    return m


def top_self(spans: list, n: int = 5) -> list[tuple[str, float]]:
    """Span names ranked by total self time."""
    acc: dict[str, float] = {}
    for s, t in zip(spans, _self_times(spans)):
        acc[s[NAME]] = acc.get(s[NAME], 0.0) + t
    return sorted(acc.items(), key=lambda kv: -kv[1])[:n]
