"""Print a sha256 for every report the benchmark operations, the CLI and the demos write.

    python3 tools/report_digest.py [--seed N] [--keep DIR] > digest.txt
    python3 tools/report_digest.py --compare DIR_A DIR_B

Run from any directory; obslab is imported from this checkout's src/.
Every operation of every bench/workloads.py workload runs once (seed N,
default 1, untraced, checked against bench/reference.json), then one CLI
run of each subcommand, option or solver path no operation reaches
(CLI_RUNS, each expected to exit 0), then each demo in demos/; the last
two each run in a fresh working directory. Each line is

    <op> TAB <file> TAB <sha256>

with one line per file the operation wrote and one for what it printed
("stdout"). A workload operation or CLI run that writes no file is also
digested by the repr of its return value ("return"). One leading line,
starting with #, names the numpy and SciPy versions and the thread count
of each loaded OpenBLAS, so that a digest difference can be traced to a
BLAS difference. Run the script on
two checkouts and diff the outputs to see which report bytes a change
moved; a seed not used while writing a change holds it to the same
numbers on fields it was not tuned on. With --keep DIR each operation's
files and printed output (stdout.txt) are also saved under DIR/<op>/,
the op label made a path, so the reports of two checkouts can be
compared value by value. The exit code is 1 if any
operation's check failed or a CLI run exited non-zero, else 0.

--compare DIR_A DIR_B reads two --keep directories and prints, for each
file in either, the largest relative difference |a - b| / max(|a|, |b|)
of any numeric leaf and where it is; then, for each kind of leaf that
moved, its largest difference (a kind is a JSON path with list indices
dropped, or a token's position in its line); then one line per
non-numeric difference (a changed string, key or shape, or a file in one
directory only). JSON files are compared leaf by leaf; CSV and printed
output token by token, each number a leaf and the text between numbers
another.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import runpy
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402  (loads SciPy's OpenBLAS for _blas_threads)

import workloads  # noqa: E402
from child import _blas_threads  # noqa: E402
from obslab import cli  # noqa: E402

SQUARE_1D = ["--field-family", "periodic-square", "--field-dim", "1",
             "--field-period", "6.283185307179586", "--field-delta", "0.3",
             "--field-mollify", "0.05"]
# a 2d field with no transpose symmetry
PRODUCT_2D = ["--field-family", "product", "--field-dim", "2", "--field-grid", "64",
              "--field-period", "6.283185307179586", "--intervals-x", "0:0.7",
              "--intervals-y", "0.1:0.8", "--field-mollify", "0.05"]
# the subcommands, options and solver paths that no workload operation runs
CLI_RUNS = {
    "cover": ["cover", "--field-family", "periodic-square", "--field-dim", "2",
              "--field-grid", "200", "--field-period", "1", "--field-delta", "0.3",
              "--rho", "0.5", "--lam", "2560000", "--out", "."],
    # the product family's covering: GCC caps on an angular grid
    "cover product": ["cover", "--field-family", "product", "--field-dim", "2",
                      "--field-grid", "500", "--field-period", "1",
                      "--intervals-x", "0:0.6", "--intervals-y", "0:0.6",
                      "--rho", "1", "--lam", "1024", "--out", "."],
    "list-families": ["list-families"],
    "observe --miller": ["observe", *SQUARE_1D, "--field-grid", "256", "--beta", "0.5",
                         "--cutoff", "24", "--T-list", "1.0 2.0 4.0",
                         "--miller", "0.01,2.0,0.1", "--out", "."],
    # a long window: 7335 trapezoid nodes at T = 20
    "observe long window": ["observe", *SQUARE_1D, "--field-grid", "256", "--beta", "1",
                            "--cutoff", "24", "--T-list", "20", "--out", "."],
    # no transpose symmetry: one real block
    "observe 2d, one real block": ["observe", *PRODUCT_2D, "--beta", "1", "--cutoff", "12",
                                   "--T-list", "0.25 1.0", "--out", "."],
    # rank 201 > DENSE_EIGH_LIMIT: one identity block, Cholesky Lanczos
    "observe one Lanczos block": ["observe", *SQUARE_1D, "--field-grid", "512", "--beta", "0.5",
                                  "--cutoff", "100", "--T-list", "0.5 1.0", "--out", "."],
    # not closed under k -> -k: one complex identity block
    "uncertainty --mask sector": ["uncertainty", "--field-family", "periodic-square",
                                  "--field-dim", "2", "--field-grid", "64",
                                  "--field-period", "6.283185307179586", "--field-delta", "0.8",
                                  "--field-mollify", "0.05", "--mask", "sector",
                                  "--angle", "0.3", "--out", "."],
    # rank 201 > DENSE_EIGH_LIMIT: one real identity block, Cholesky Lanczos
    "uncertainty 1d ball, one Lanczos block": ["uncertainty", *SQUARE_1D, "--field-grid", "512",
                                               "--mask", "ball", "--radius", "100",
                                               "--out", "."],
    # no transpose symmetry: one real block of order 2121, Cholesky Lanczos
    "uncertainty 2d ball, one real block": ["uncertainty", *PRODUCT_2D, "--mask", "ball",
                                            "--radius", "26", "--out", "."],
    # not closed under k -> -k: one complex block of order 2116, Cholesky Lanczos
    "uncertainty off-centre rectangle, one complex block": ["uncertainty", *PRODUCT_2D,
                                                            "--mask", "rectangle",
                                                            "--zetas", "-25", "--sigma", "45",
                                                            "--out", "."],
    # few wide balls (the README example): the window search off the bench seeds
    "construct-demo README": ["construct-demo", "--W", "24", "--M", "2", "--delta", "0.1",
                              "--n-balls", "24", "--seed", "11", "--out", "."],
    # a given rho: the minorant without the default's window search
    "construct-demo --rho": ["construct-demo", "--rho", "0.15", "--out", "."],
    # 1000 balls on a circle of 100: a partition of about 100 cells
    "construct-demo 1000 balls": ["construct-demo", "--W", "100", "--n-balls", "1000",
                                  "--out", "."],
    "resolvent without --fit": ["resolvent", *SQUARE_1D, "--field-grid", "2048",
                                "--gamma", "1.5", "--lambdas", "64 125 253 512", "--out", "."],
    # a truncated family on a box with a numeric origin, not the centered default
    "uncertainty e-beta --field-origin": ["uncertainty", "--field-family", "e-beta",
                                          "--field-dim", "2", "--field-grid", "64",
                                          "--field-period", "8", "--field-origin", "-3.5",
                                          "--field-beta", "0.4", "--mask", "ball",
                                          "--radius", "5", "--out", "."],
    "observe constant --field-value": ["observe", "--field-family", "constant",
                                       "--field-dim", "1", "--field-grid", "64",
                                       "--field-period", "6.283185307179586",
                                       "--field-value", "0.5", "--beta", "1", "--cutoff", "8",
                                       "--T-list", "0.5 1.0", "--out", "."],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(label: str, folder: Path, fn, keep: Path | None):
    """fn() with standard output captured; print one line per file under
    folder and one for the output, and copy both under keep when given.
    Returns fn's result and whether any file was written."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        result = fn()
    files = sorted(p for p in folder.rglob("*") if p.is_file())
    for path in files:
        print(f"{label}\t{path.relative_to(folder)}\t{_sha(path.read_bytes())}")
    print(f"{label}\tstdout\t{_sha(stdout.getvalue().encode())}")
    if keep is not None:
        dest = keep / label.replace(": ", "/").replace(" ", "_")
        shutil.copytree(folder, dest)
        (dest / "stdout.txt").write_text(stdout.getvalue())
    return result, bool(files)


def digest_workloads(scratch: Path, keep: Path | None, seed: int) -> int:
    ref = workloads.load_reference()
    failed = 0
    for name, make_ops in workloads.WORKLOADS.items():
        out = scratch / name
        out.mkdir()
        for op in make_ops(seed, out, None, ref):
            label = f"{name}: {op.label}"
            result, wrote = _run(label, out, op.run, keep)
            if not wrote:
                print(f"{label}\treturn\t{_sha(repr(result).encode())}")
            try:
                op.check(result)
            except workloads.CheckFailed as exc:
                print(f"{label}: check failed: {exc}", file=sys.stderr)
                failed += 1
            # operations share one output folder; each is digested alone
            shutil.rmtree(out)
            out.mkdir()
    return failed


def _run_in(folder: Path, label: str, fn, keep: Path | None):
    """_run with folder, made fresh, as the working directory."""
    folder.mkdir()
    here = os.getcwd()
    os.chdir(folder)
    try:
        return _run(label, folder, fn, keep)
    finally:
        os.chdir(here)


def digest_cli(scratch: Path, keep: Path | None) -> int:
    failed = 0
    for k, (name, argv) in enumerate(CLI_RUNS.items()):
        label = f"cli: {name}"
        rc, wrote = _run_in(scratch / f"cli{k}", label, lambda: cli.main(argv), keep)
        if not wrote:
            print(f"{label}\treturn\t{_sha(repr(rc).encode())}")
        if rc != 0:
            print(f"{label}: exit code {rc}", file=sys.stderr)
            failed += 1
    return failed


def digest_demos(scratch: Path, keep: Path | None) -> None:
    for demo in sorted((ROOT / "demos").glob("*.py")):
        _run_in(scratch / demo.stem, f"demo: {demo.name}",
                lambda: runpy.run_path(str(demo), run_name="__main__"), keep)


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def _leaves(obj, path=""):
    """(path, value) for every leaf of a JSON value."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _file_leaves(path: Path) -> dict:
    if path.suffix == ".json":
        return dict(_leaves(json.loads(path.read_text())))
    leaves = {}
    for n, line in enumerate(path.read_text().splitlines(), 1):
        leaves[f"line {n} text"] = NUMBER.sub("#", line)
        for i, token in enumerate(NUMBER.findall(line)):
            leaves[f"line {n} number {i}"] = float(token)
    return leaves


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(dir_a: Path, dir_b: Path) -> None:
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    for rel in sorted(files(dir_a) | files(dir_b)):
        if not (dir_a / rel).is_file() or not (dir_b / rel).is_file():
            print(f"{rel}\tonly in {dir_a if (dir_a / rel).is_file() else dir_b}")
            continue
        a, b = _file_leaves(dir_a / rel), _file_leaves(dir_b / rel)
        worst, where, by_kind, other = 0.0, "", {}, []
        for key in list(a) + [k for k in b if k not in a]:
            x, y = a.get(key), b.get(key)
            numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
            if numeric and key in a and key in b:
                diff = _relative(float(x), float(y))
                kind = re.sub(r"\[\d+\]", "[]", re.sub(r"^line \d+ ", "", key))
                by_kind[kind] = max(by_kind.get(kind, 0.0), diff)
                if diff > worst:
                    worst, where = diff, key
            elif key not in a or key not in b or x != y:
                other.append(f"{key}: {x!r} -> {y!r}" if key in a and key in b
                             else f"{key}: only in {dir_a if key in a else dir_b}")
        print(f"{rel}\tmax relative difference {worst:.3g}" + (f" at {where}" if where else ""))
        for kind, diff in sorted(by_kind.items(), key=lambda item: -item[1]):
            if diff > 0:
                print(f"{rel}\t  {diff:.3g}\t{kind}")
        for line in other:
            print(f"{rel}\tdiffers\t{line}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1, metavar="N",
                   help="seed of the workload operations (default 1)")
    p.add_argument("--keep", type=Path, metavar="DIR",
                   help="also save every report and printed output under DIR (must not exist)")
    p.add_argument("--compare", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                   help="compare the reports of two --keep directories instead of running")
    args = p.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    keep = args.keep.resolve() if args.keep else None
    if keep is not None and keep.exists():
        p.error(f"--keep {keep} exists")
    threads = " ".join(f"{lib}={n}" for lib, n in _blas_threads().items())
    print(f"# numpy {np.__version__} scipy {scipy.__version__} OpenBLAS threads {threads}")
    with tempfile.TemporaryDirectory(prefix="report_digest_") as tmp:
        failed = digest_workloads(Path(tmp), keep, args.seed)
        failed += digest_cli(Path(tmp), keep)
        digest_demos(Path(tmp), keep)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
