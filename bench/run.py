"""obslab benchmark: one workload, closed loop, one client, fresh processes.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each pass of the workload runs in a
fresh process (bench/child.py) that imports obslab from ./src; passes
repeat while the next one is projected to end within --seconds, and
every reported time is a median over passes. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics named in
BENCHMARK.json (traced and untraced passes alternate, so the tracing
overhead is measured in the same run). The last line of standard
output is the JSON result; a summary and the environment block come
before it, and the full result is kept in .bench_out/.

Exit codes: 0 result printed (possibly with failed operations), 1 a pass
process crashed or timed out, 2 the checkout has no obslab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
from statistics import median
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5   # fresh processes timed for setup_s per run, at least
PASS_TIMEOUT = 120  # seconds; the longest pass takes about 15 s on 2 cores


class PassFailed(Exception):
    pass


def run_child(extra: list[str], result: Path) -> dict:
    """Start child.py, wait for it, and return its result plus setup_s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    argv = [sys.executable, str(HERE / "child.py"), "--result", str(result)] + extra
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise PassFailed(f"pass timed out after {PASS_TIMEOUT} s: {' '.join(extra)}") from exc
    if proc.returncode != 0:
        raise PassFailed(f"pass exited {proc.returncode}: {' '.join(extra)}\n"
                         f"{proc.stderr[-4000:]}")
    out = json.loads(result.read_text())
    result.unlink()
    out["setup_s"] = out.pop("imported_monotonic") - started
    return out


def run_pass(args, run_dir: Path, k: int, trace: bool) -> dict:
    out = run_dir / f"pass{k}"
    extra = ["--workload", args.workload, "--seed", str(args.seed),
             "--trace", "1" if trace else "0", "--out", str(out)]
    if trace:
        extra += ["--spans", str(OUT / f"spans_{args.workload}_seed{args.seed}.json")]
    try:
        return run_child(extra, run_dir / f"pass{k}.json")
    finally:
        shutil.rmtree(out, ignore_errors=True)


def measure(args, run_dir: Path) -> tuple[list[dict], list[dict], list[float]]:
    """Passes while the next one is projected to end within --seconds (at
    least one); traced and untraced passes alternate when tracing."""
    plain, traced = [], []
    start = time.monotonic()
    k = 0
    while True:
        began = time.monotonic()
        plain.append(run_pass(args, run_dir, k, False))
        k += 1
        if args.trace:
            traced.append(run_pass(args, run_dir, k, True))
            k += 1
        now = time.monotonic()
        if now - start + (now - began) > args.seconds:
            break
    setups = [p["setup_s"] for p in plain + traced]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(["--setup-only"], run_dir / f"setup{len(setups)}.json")["setup_s"])
    return plain, traced, setups


def end_to_end(plain, setups) -> dict[str, float]:
    return {
        "wall_s": median([p["wall_s"] for p in plain]),
        "setup_s": median(setups),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
    }


def per_layer(plain, traced) -> dict[str, float]:
    names = traced[0]["layers"].keys()
    m = {name: median([t["layers"][name] for t in traced]) for name in names}
    m["process.cpu_s"] = median([p["cpu_s"] for p in plain])
    m["process.cpu_util"] = median([p["cpu_s"] / p["wall_s"] for p in plain])
    m["trace.overhead_s"] = (median([t["wall_s"] for t in traced])
                             - median([p["wall_s"] for p in plain]))
    return m


def summary(args, plain, traced, setups, attempted, failed) -> list[str]:
    walls = [p["wall_s"] for p in plain]
    rss = [p["peak_rss_mb"] for p in plain]
    lines = [
        f"workload={args.workload} seed={args.seed} trace={args.trace} closed-loop clients=1 "
        f"passes={len(plain)} untraced + {len(traced)} traced",
        f"  wall_s       {median(walls):10.4f} s   median of {len(walls)} "
        f"(min {min(walls):.4f}, max {max(walls):.4f})",
        f"  setup_s      {median(setups):10.4f} s   median of {len(setups)} "
        f"(min {min(setups):.4f}, max {max(setups):.4f})",
        f"  peak_rss_mb  {median(rss):10.2f} MB  median of {len(rss)} "
        f"(min {min(rss):.2f}, max {max(rss):.2f})",
        f"  fail_frac    {failed / attempted:10.4f} 1   {failed} failed of {attempted} operations",
    ]
    for t in traced[-1:]:
        top = ", ".join(f"{name} {sec:.3f} s" for name, sec in t["top_self"])
        lines.append(f"  largest self time (last traced pass): {top}")
    for p in plain + traced:
        for f in p["failures"]:
            lines.append(f"  FAILED {f['op']}: {f['error']}")
    return lines


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (SRC / "obslab" / "__init__.py").is_file():
        print(f"no obslab sources under {SRC}; run from the root of an obslab checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run_{args.workload}_{args.seed}_{os.getpid()}"
    run_dir.mkdir()
    try:
        plain, traced, setups = measure(args, run_dir)
    except PassFailed as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        values, names = per_layer(plain, traced), spec["per_layer"]
    else:
        values, names = end_to_end(plain, setups), spec["end_to_end"]
    missing = {m["name"] for m in names} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    environment = dict(passes[0]["environment"], seed=args.seed, workloads=workloads,
                       workload=args.workload, clients=1, loop="closed")
    for line in summary(args, plain, traced, setups, attempted, failed):
        print(line)
    print("environment " + json.dumps(environment, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, environment=environment, samples={
        "wall_s": [p["wall_s"] for p in plain], "setup_s": setups,
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        "failures": [f for p in passes for f in p["failures"]]})
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
