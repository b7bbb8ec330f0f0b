"""Side report: the ROADMAP baseline normal forms, rerun as single jobs.

Runs each baseline case of ROADMAP.md three times as a cold
``gha normalize`` (fresh Presentation, through ``gha.cli.main``) and prints
the median next to the figure ROADMAP.md recorded, so the trend starts
from those numbers.  Informational only: nothing here is gated.

    python3 perfbench/baseline_report.py
"""

import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 3

# (f, k, i, seconds recorded in ROADMAP.md for a cold y^k x^i)
CASES = [
    ("h^2", 3, 3, 0.056),
    ("h^2 + 1", 4, 4, 0.78),
    ("h^3 - h", 3, 3, 1.5),
    ("zeta(3)*h", 20, 20, 0.39),
]


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "gha", "__init__.py")):
        print("baseline_report: run from the root of a gha checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from common import cli

    rows = []
    print(f"{'case':28s} {'median s':>9s} {'ROADMAP s':>9s} {'ratio':>6s}  runs (s)")
    for f_text, k, i, recorded in CASES:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            code, _, err = cli(["normalize", "-f", f_text, "-e", f"y^{k}*x^{i}"])
            times.append(time.perf_counter() - t0)
            if code != 0:
                print(f"normalize failed for f = {f_text}: {err.strip()}", file=sys.stderr)
                return 1
        med = statistics.median(times)
        case = f"f = {f_text}, y^{k} x^{i}"
        runs = " ".join(f"{t:.3f}" for t in times)
        print(f"{case:28s} {med:9.3f} {recorded:9.3f} {med / recorded:6.2f}  {runs}")
        rows.append({"f": f_text, "k": k, "i": i, "median_s": med, "roadmap_s": recorded, "runs_s": times})
    print(json.dumps({"baseline": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
