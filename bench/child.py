"""One pass of one workload in a fresh process (started by run.py).

The first statements time the import of obslab, so stdlib imports only
come before it. The result, with the environment block, is written as
JSON to --result.

    python3 bench/child.py --workload NAME --seed N --trace 0|1 \
        --out DIR --result FILE [--spans FILE]
    python3 bench/child.py --setup-only --result FILE
"""

import os
import sys
import time

import obslab

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "obslab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_numpy": f"{blas.get('name')} {blas.get('version')}",
        "blas_scipy": f"{sblas.get('name')} {sblas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "obslab": obslab.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def run_pass(workload: str, seed: int, trace: bool, out: Path, ref: dict) -> dict:
    tracer = spans.Tracer() if trace else None
    ops = workloads.WORKLOADS[workload](seed, out, tracer, ref)
    failures = []
    if tracer is not None:
        tracer.install()
    try:
        cpu0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        for op in ops:
            try:
                op.check(op.run())
            except Exception as exc:  # an operation that fails is counted, not fatal
                failures.append({"op": op.label, "error": f"{type(exc).__name__}: {exc}",
                                 "traceback": traceback.format_exc(limit=4)})
        wall = time.perf_counter() - t0
        cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        if tracer is not None:
            tracer.uninstall()
    cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans)
        result["top_self"] = spans.top_self(tracer.spans)
        result["spans"] = tracer.dump()
    return result


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--spans", type=Path)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    if Path(obslab.__file__).resolve().parent != SRC / "obslab":
        print(f"imported obslab from {obslab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = {"imported_monotonic": IMPORTED}
    if not args.setup_only:
        args.out.mkdir(parents=True, exist_ok=True)
        result.update(run_pass(args.workload, args.seed, bool(args.trace), args.out,
                               workloads.load_reference()))
        result["environment"] = dict(environment(),
                                     inputs_from_seed=workloads.SEEDED[args.workload])
        if args.spans is not None and "spans" in result:
            args.spans.write_text(json.dumps(result.pop("spans")))
        result.pop("spans", None)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
