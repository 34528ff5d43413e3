"""Seed-0 counts on the 21^3 reference grid, compared with the figures in ROADMAP.md.

Usage: ``python3 perfbench/roadmap_counts.py`` (one ~22 s CLI call).

The benchmark's ``sweep_simulate`` workload runs a coarser 11^3 grid, so its
counts are not comparable with the reference figures.  This script runs the
reference sweep once (``--v0/--v1/--v2 -0.9:0.9:0.09 --m 0 --init 0.5,0.3,0.2
--simulate``), checks its output like the benchmark does, and prints each
count next to the recorded one.  A difference is reported, not corrected.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import check
import run
import workloads

REFERENCE_GRID = {"start": -0.9, "stop": 0.9, "step": 0.09}
RECORDED = {"resolved": 7537, "disagree": 2325, "not_converged": 470}


def main():
    workloads.SIZES["sweep_simulate"] = REFERENCE_GRID
    spec = workloads.build("sweep_simulate", 0)
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        out = Path(tmp) / "reference.csv"
        env = dict(run.child_env(), PYTHONPATH=str(run.SRC))
        argv = [sys.executable, "-m", "ternary_dynamics", *spec["argv"], "--output", str(out)]
        subprocess.run(argv, env=env, check=True)
        result = check.check_output(spec, out)
    counts = result["counts"]
    found = {
        "resolved": counts["agreement.agree"] + counts["agreement.disagree"],
        "disagree": counts["agreement.disagree"],
        "not_converged": counts["flag.not_converged"],
    }
    for key, recorded in RECORDED.items():
        verdict = "same" if found[key] == recorded else "DIFFERENT"
        print(f"{key}: measured {found[key]}, recorded {recorded} ({verdict})")
    print(json.dumps(counts))
    if not result["ok"]:
        print(f"output check failed: {result['errors'][:3]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
