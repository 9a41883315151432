"""Correctness oracles for benchmark points; all run outside the timed section.

* A point fails when it raised, when the solver status is not ``Optimal``,
  or when an oracle below rejects it.
* Classical control: a point on the entanglement-breaking ``heterodyne_mp``
  device is never ``QuantumDomain`` and its bound is at most 1e-6.
* Feasible point: for exact-data scenarios the true joint output
  tau = (id (x) Lambda)(rho_in) satisfies every benchmark constraint, so the
  bound is at most N(tau) + 1e-6.  The Kraus operators act on every block of
  rho_in directly (``KrausChannel.apply_matrix`` Hermitizes its result, which
  is wrong for the off-diagonal blocks).
* Reference: for seeds in ``reference.json`` the bounds match the stored ones
  within 1e-6 and the verdicts match exactly.
* Determinism: :func:`digest` fingerprints bounds and verdicts bit for bit;
  repeats of the same code and seed must agree.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from qdbench.blocksym import BipartiteBlockMatrix, negativity

from workloads import MP_DEVICE

TOLERANCE = 1e-6
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def output_negativity(rho_in: BipartiteBlockMatrix, channel) -> float:
    """N((id (x) Lambda)(rho_in)), applying the Kraus operators blockwise."""
    out = np.zeros_like(rho_in.blocks)
    for k in channel.kraus:
        out += k @ rho_in.blocks @ k.conj().T
    return negativity(BipartiteBlockMatrix(out, check=False), psd_tol=1e-8)


def load_reference(workload: str, seed: int):
    if not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(workload, {}).get(str(seed))


def check(points, rho_in_by_m: dict, devices: dict, reference=None) -> None:
    """Append each point's oracle failures to ``point.problems``."""
    cache = {}
    for point in points:
        if point.error:
            point.problems.append(f"raised {point.error}")
            continue
        if point.status != "Optimal":
            point.problems.append(f"solver status {point.status!r}")
        if point.device == MP_DEVICE and (point.certified or point.bound > TOLERANCE):
            point.problems.append(
                f"classical device got {point.verdict} with bound {point.bound:.3e}")
        if point.exact_data:
            key = (point.m, point.device)
            if key not in cache:
                cache[key] = output_negativity(rho_in_by_m[point.m], devices[point.device])
            if point.bound > cache[key] + TOLERANCE:
                point.problems.append(
                    f"bound {point.bound:.9e} exceeds N(true output) {cache[key]:.9e}")
    if reference is None:
        return
    if len(reference) != len(points):
        points[0].problems.append(
            f"reference has {len(reference)} points, the run {len(points)}")
        return
    for point, (m, label, bound, verdict) in zip(points, reference):
        if (m, label) != (point.m, point.label):
            point.problems.append(f"reference point is M={m} {label}")
        elif abs(point.bound - bound) > TOLERANCE or point.verdict != verdict:
            point.problems.append(
                f"reference {bound:.9e} {verdict}, got {point.bound:.9e} {point.verdict}")


def digest(points) -> str:
    rows = [[p.m, p.label, float(p.bound).hex(), p.verdict, p.status] for p in points]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()
