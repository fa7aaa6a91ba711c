"""Print a sha256 for every report the benchmark operations and the demos write.

    python3 tools/report_digest.py [--seed N] [--keep DIR] > digest.txt

Run from any directory; obslab is imported from this checkout's src/.
Every operation of every bench/workloads.py workload runs once (seed N,
default 1, untraced, checked against bench/reference.json), then each demo in
demos/ runs in a fresh working directory. Each line is

    <op> TAB <file> TAB <sha256>

with one line per file the operation wrote and one for what it printed
("stdout"). A workload operation that writes no file is also digested by
the repr of its return value ("return"). Run the script on two checkouts and diff
the outputs to see which report bytes a change moved; a seed not used
while writing a change holds it to the same numbers on fields it was
not tuned on. With --keep DIR
each operation's files and printed output (stdout.txt) are also saved
under DIR/<op>/, the op label made a path, so the reports of two
checkouts can be compared value by value. The exit code is 1 if any
operation's check failed, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import runpy
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402


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


def digest_demos(scratch: Path, keep: Path | None) -> None:
    here = os.getcwd()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        cwd = scratch / demo.stem
        cwd.mkdir()
        os.chdir(cwd)
        try:
            _run(f"demo: {demo.name}", cwd, lambda: runpy.run_path(str(demo), run_name="__main__"),
                 keep)
        finally:
            os.chdir(here)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1, metavar="N",
                   help="seed of the workload operations (default 1)")
    p.add_argument("--keep", type=Path, metavar="DIR",
                   help="also save every report and printed output under DIR (must not exist)")
    args = p.parse_args(argv)
    keep = args.keep.resolve() if args.keep else None
    if keep is not None and keep.exists():
        p.error(f"--keep {keep} exists")
    with tempfile.TemporaryDirectory(prefix="report_digest_") as tmp:
        failed = digest_workloads(Path(tmp), keep, args.seed)
        digest_demos(Path(tmp), keep)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
