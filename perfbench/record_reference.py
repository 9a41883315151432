"""Store the current code's bounds and verdicts as the reference for some seeds.

    python3 perfbench/record_reference.py sweep_m2_4 0 1 2     # from the repository root

Runs one pass of the workload per seed (one BLAS thread, as run.py does) and
writes its points into reference.json, which later runs compare against within
1e-6.  A workload whose inputs do not depend on the seed (``ring_m8``,
``general_m4``) is recorded once, under seed 0, whatever seeds are given.
Record only from a commit whose bounds are trusted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import run

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
from oracles import REFERENCE_PATH  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    table = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            table = json.load(fh)
    seeds = args.seeds if WORKLOADS[args.workload].uses_seed else [0]
    for seed in seeds:
        opts = argparse.Namespace(workload=args.workload, seed=seed, seconds=0.0, trace=0,
                                  size="full")
        work_dir = os.path.join(run.WORK_ROOT, f"reference-{args.workload}-{seed}")
        os.makedirs(work_dir, exist_ok=True)
        try:
            result = run.run_child(opts, ["--work-dir", work_dir, "--no-reference"],
                                   time.monotonic() + run.DEADLINE_S)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        problems = [msg for p in result["points"] for msg in p["problems"]]
        if problems:
            print(f"seed {seed}: not recorded, oracles failed: {problems}", file=sys.stderr)
            return 1
        table.setdefault(args.workload, {})[str(seed)] = [
            [p["m"], p["label"], p["bound"], p["verdict"]] for p in result["points"]]
        print(f"{args.workload} seed {seed}: {len(result['points'])} points recorded")
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
