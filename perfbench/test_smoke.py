"""Smoke test of the benchmark harness at a tiny size (M = 2, N = 8).

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload's code path through run.py, checks the printed metric
names against BENCHMARK.json, and checks that each oracle fires on a tampered
bound.
"""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources():
    empty = os.path.join(WORK, "smoke-no-sources")
    os.makedirs(empty, exist_ok=True)
    proc = _run("--workload", "ring_m8", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=empty)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.fixture(scope="module")
def ring_pass():
    workload = WORKLOADS["ring_m8"]
    inputs = workload.setup(0, workload.smoke_size, WORK)
    points, rho_in_by_m = workload.run_pass(inputs, None)
    oracles.check(points, rho_in_by_m, inputs["devices"])
    assert all(not p.problems for p in points)
    return points, rho_in_by_m, inputs["devices"]


def _tampered(ring_pass, index, **changes):
    points, rho_in_by_m, devices = ring_pass
    points = copy.deepcopy(points)
    for key, value in changes.items():
        setattr(points[index], key, value)
    return points, rho_in_by_m, devices


def test_classical_oracle_fires(ring_pass):
    points, rho_in, devices = _tampered(ring_pass, 1, bound=1e-3, verdict="QuantumDomain")
    assert points[1].device == oracles.MP_DEVICE
    oracles.check(points, rho_in, devices)
    assert any("classical device" in msg for msg in points[1].problems)


def test_feasible_point_oracle_fires(ring_pass):
    points, rho_in, devices = ring_pass
    true_neg = oracles.output_negativity(rho_in[points[0].m], devices[points[0].device])
    points, rho_in, devices = _tampered(ring_pass, 0, bound=true_neg + 1e-4)
    oracles.check(points, rho_in, devices)
    assert any("exceeds N(true output)" in msg for msg in points[0].problems)


def test_status_and_raise_fail_a_point(ring_pass):
    points, rho_in, devices = _tampered(ring_pass, 0, status="MaxIterations")
    points[1].error = "RuntimeError: boom"
    oracles.check(points, rho_in, devices)
    assert points[0].problems and points[1].problems


def test_reference_oracle_fires(ring_pass):
    points, rho_in, devices = ring_pass
    reference = [[p.m, p.label, p.bound, p.verdict] for p in points]
    reference[0][2] += 2e-6
    points, rho_in, devices = _tampered(ring_pass, 0)
    oracles.check(points, rho_in, devices, reference)
    assert any("reference" in msg for msg in points[0].problems)


def test_digest_sees_one_ulp(ring_pass):
    points = ring_pass[0]
    nudged, _, _ = _tampered(ring_pass, 0, bound=float(np.nextafter(points[0].bound, 1.0)))
    assert oracles.digest(points) == oracles.digest(copy.deepcopy(points))
    assert oracles.digest(points) != oracles.digest(nudged)
