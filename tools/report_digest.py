"""Print a sha256 for every report the benchmark operations and the demos write.

    python3 tools/report_digest.py > digest.txt

Run from any directory; obslab is imported from this checkout's src/.
Every operation of every bench/workloads.py workload runs once (seed 1,
untraced, checked against bench/reference.json), then each demo in
demos/ runs in a fresh working directory. Each line is

    <op> TAB <file> TAB <sha256>

with one line per file the operation wrote and one for what it printed
("stdout"). A workload operation that writes no file is also digested by
the repr of its return value ("return"). Run the script on two checkouts and diff
the outputs to see which report bytes a change moved. The exit code is 1
if any operation's check failed, else 0.
"""

from __future__ import annotations

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

SEED = 1


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(label: str, folder: Path, fn):
    """fn() with standard output captured; print one line per file under
    folder and one for the output. Returns fn's result and whether any
    file was written."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        result = fn()
    files = sorted(p for p in folder.rglob("*") if p.is_file())
    for path in files:
        print(f"{label}\t{path.relative_to(folder)}\t{_sha(path.read_bytes())}")
    print(f"{label}\tstdout\t{_sha(stdout.getvalue().encode())}")
    return result, bool(files)


def digest_workloads(scratch: Path) -> int:
    ref = workloads.load_reference()
    failed = 0
    for name, make_ops in workloads.WORKLOADS.items():
        out = scratch / name
        out.mkdir()
        for op in make_ops(SEED, out, None, ref):
            label = f"{name}: {op.label}"
            result, wrote = _run(label, out, op.run)
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


def digest_demos(scratch: Path) -> None:
    here = os.getcwd()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        cwd = scratch / demo.stem
        cwd.mkdir()
        os.chdir(cwd)
        try:
            _run(f"demo: {demo.name}", cwd, lambda: runpy.run_path(str(demo), run_name="__main__"))
        finally:
            os.chdir(here)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="report_digest_") as tmp:
        failed = digest_workloads(Path(tmp))
        digest_demos(Path(tmp))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
