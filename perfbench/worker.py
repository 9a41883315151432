"""One benchmark run in a fresh process; started by run.py, not by hand.

Prints one JSON object on its last stdout line.  ``setup_s`` runs from the
parent's clock reading just before this process was started
(``PERFBENCH_SPAWN_T``, CLOCK_MONOTONIC) to the moment every input exists.
With ``--setup-only`` the process stops there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oracles  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CLOCK, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--no-reference", action="store_true",
                        help="skip the reference table (when recording it)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    size = workload.full_size if args.size == "full" else workload.smoke_size
    inputs = workload.setup(args.seed, size, args.work_dir)
    setup_s = time.monotonic() - float(os.environ["PERFBENCH_SPAWN_T"])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    passes, pass_s = [], []
    try:
        start = CLOCK()
        while True:
            pass_dir = os.path.join(args.work_dir, f"pass{len(passes)}")
            os.makedirs(pass_dir)
            t0 = CLOCK()
            passes.append(workload.run_pass(inputs, pass_dir))
            pass_s.append(CLOCK() - t0)
            # whole passes only: start another if it should end inside the budget
            if CLOCK() - start + pass_s[-1] > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    points, rho_in_by_m = passes[0]
    reference = None
    if args.size == "full" and not args.no_reference:
        # a workload that makes no random choice has one reference for every seed
        reference = oracles.load_reference(args.workload,
                                           args.seed if workload.uses_seed else 0)
    oracles.check(points, rho_in_by_m, inputs["devices"], reference)
    digests = [oracles.digest(p) for p, _ in passes]
    if len(set(digests)) > 1:
        points[0].problems.append(f"passes of one run disagree: {digests}")

    out = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "point_s": [p.seconds for pts, _ in passes for p in pts],
        "peak_rss_mb": peak_rss_mb,
        "digest": digests[0],
        "points": [{"m": p.m, "label": p.label, "bound": p.bound, "verdict": p.verdict,
                    "status": p.status, "problems": p.problems} for p in points],
        "passes": len(passes),
        "certified_points": sum(1 for p in points
                                if p.certified and p.device != oracles.MP_DEVICE),
    }
    if tracer is not None:
        n = len(passes)
        values = layers.metrics(tracer, sum(pass_s))
        out["per_layer"] = {k: (v if k in layers.NOT_SUMMED else v / n)
                            for k, v in values.items()}
        if args.spans_out:
            tracer.write_jsonl(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
