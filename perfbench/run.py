"""qdbench benchmark: one run of one workload, result as JSON on the last line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ring_m8 --seed 0 --seconds 30 --trace 0

Each run starts fresh child processes with one BLAS/OpenMP thread
(``OPENBLAS_NUM_THREADS=1``, ``OMP_NUM_THREADS=1``): one that builds the inputs
and runs the timed section, whole passes of the workload, for at most
``--seconds`` (always at least one pass), and ``SETUP_PROBES`` that only build
the inputs, half of them before it and half after.  Host speed on a shared
machine wanders over seconds, so spreading the set-up samples over the run
steadies their median.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer ones
from a run with every layer wrapped in spans (see layers.py); their names,
units and order come from BENCHMARK.json.  Points that
raise, end non-Optimal or fail an oracle (see oracles.py) count as failed;
``correct`` is false when any point failed or when the bounds and verdicts of
this run differ from an earlier run of the same code and seed.  The run exits
non-zero without printing a result when the checkout has no qdbench sources
or a child process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".perfbench_work"
SETUP_PROBES = 8
DEADLINE_S = 170.0
SPEC_PATH = "BENCHMARK.json"      # workload and metric names and units, at the root


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _code_hash() -> str:
    """Fingerprint of the package sources and of this benchmark's files."""
    h = hashlib.sha256()
    for root, suffixes in ((os.path.join("src", "qdbench"), (".py", ".json")), (HERE, (".py",))):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(suffixes):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def run_child(args, extra, deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PERFBENCH_SPAWN_T=repr(time.monotonic()))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{args.workload} child exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} child exited with {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def _check_repeat(workload: str, seed: int, size: str, digest: str) -> str | None:
    """Compare this run's digest with earlier runs of the same code and seed."""
    path = os.path.join(WORK_ROOT, "digests.json")
    key = f"{workload}:{seed}:{size}:{_code_hash()}"
    seen = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    if key in seen:
        return None if seen[key] == digest else (
            f"bounds and verdicts differ from an earlier run of the same code and seed "
            f"({seen[key][:12]} vs {digest[:12]})")
    seen[key] = digest
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return None


def run(args, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    run_dir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        probes = 0 if args.trace else SETUP_PROBES

        def probe_setup(k: int) -> float:
            probe_dir = os.path.join(run_dir, f"probe{k}")
            os.makedirs(probe_dir)
            return run_child(args, ["--work-dir", probe_dir, "--setup-only"],
                             deadline)["setup_s"]

        setup_s = [probe_setup(k) for k in range(probes // 2)]
        main_dir = os.path.join(run_dir, "main")
        os.makedirs(main_dir)
        extra = ["--work-dir", main_dir]
        if args.trace:
            extra += ["--spans-out",
                      os.path.join(WORK_ROOT, f"spans-{args.workload}-{args.seed}.jsonl")]
        result = run_child(args, extra, deadline)
        setup_s += [probe_setup(k) for k in range(probes // 2, probes)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setup_s.append(result["setup_s"])

    problems = [f"M={p['m']} {p['label']}: {msg}"
                for p in result["points"] for msg in p["problems"]]
    failed_points = sum(1 for p in result["points"] if p["problems"])
    repeat = _check_repeat(args.workload, args.seed, args.size, result["digest"])
    if repeat:
        problems.append(repeat)
        failed_points = len(result["points"])
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)

    if args.trace:
        values = result["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(result["pass_s"]),
            "point_s_p50": statistics.median(result["point_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "certified_points": result["certified_points"],
            "setup_s": statistics.median(setup_s),
        }
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics out of step with {SPEC_PATH}: "
                           f"{sorted(set(values) ^ {m['name'] for m in wanted})}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"{args.workload} seed={args.seed}: {result['passes']} pass(es), "
          f"{len(result['point_s'])} point samples, digest {result['digest'][:12]}",
          file=sys.stderr)
    n = result["passes"]
    return {"correct": not problems, "attempted": n * len(result["points"]),
            "failed": n * failed_points, "metrics": metrics}


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join("src", "qdbench", "__init__.py")):
        print("error: run from the root of a qdbench checkout (src/qdbench not found)",
              file=sys.stderr)
        return 2
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the same code paths at a tiny size")
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    try:
        result = run(args, spec)
    except (RuntimeError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
