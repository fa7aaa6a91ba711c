"""Write bench/reference.json: the spectral and cost values the checks pin.

    python3 bench/pin.py

Run from the root of a checkout whose outputs are trusted. The checks
compare each pinned M, c, C, lambda_min and kappa within RTOL; a change
that alters them on purpose re-pins and says why.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

# Loose against roundoff (the dense and iterative paths agree to ~1e-9),
# tight against a changed operator, mask or quadrature.
RTOL = 1e-6
PINNED = {"spectral": ("resolvent", "annulus_1d", "ball_2d"),
          "cost": ("observe_2d", "envelope_1d")}


def main() -> int:
    ref = {"rtol": RTOL}
    for workload, keys in PINNED.items():
        with tempfile.TemporaryDirectory() as tmp:
            ops = workloads.WORKLOADS[workload](0, Path(tmp), None, None)
            got = [op.check(op.run()) for op in ops]
        ref[workload] = dict(zip(keys, got))
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
