"""The three benchmark workloads: inputs from a seed, one timed pass, oracle data.

Each workload is closed-loop and single-process: a pass runs its points one
after another.  ``setup`` builds every input (seed state, ensemble, channels,
scenario objects, config files) and does no Gram optimization, benchmark or
SDP work; ``run_pass`` is the timed section.

Every workload runs the nominal device of the bundled ``noisy_memory`` config.
The seed drives the only random choice a workload makes: ``sweep_m2_4`` sets
the config's ``scenario.base_seed`` (homodyne sampling) from it.  ``ring_m8``
and ``general_m4`` make no random choice, so their inputs are the same for
every seed (``uses_seed = False``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

from qdbench import bench, cli, gramopt, pipeline
from qdbench.bench import QuadraturesWithErrors, Tomography
from qdbench.channels import build_channel
from qdbench.fock import noisy_coherent

from tracer import Tracer

CLOCK = time.perf_counter
MP_DEVICE = "heterodyne_mp"       # entanglement breaking: must never certify

NOMINAL = "noisy_memory"          # the bundled config every workload starts from


def _nominal_config() -> dict:
    return pipeline.load_config(pipeline.bundled_config_path(NOMINAL))


@dataclass
class Point:
    """One ``benchmark_*`` call: what a user would read, and how long it took."""

    label: str
    device: str
    exact_data: bool          # the true joint output satisfies every constraint
    m: int
    bound: float = float("nan")
    verdict: str = ""
    status: str = ""
    seconds: float = float("nan")
    error: str = ""
    problems: list = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return self.verdict == "QuantumDomain"


def device_parameters() -> dict:
    """Loss, excess noise and standard errors of the nominal device."""
    cfg = _nominal_config()
    return {"loss": float(cfg["channel_sim"]["loss"]),
            "excess": float(cfg["channel_sim"]["excess"]),
            "std_errors": {k: float(v) for k, v in cfg["scenario"]["std_errors"].items()}}


def _seed_state(dim: int):
    spec = _nominal_config()["seed_state"]
    return noisy_coherent(complex(spec["alpha_re"], spec["alpha_im"]), float(spec["excess"]),
                          dim, deficit_tol=float(spec["deficit_tol"]))


def _devices(params: dict, dim: int) -> dict:
    return {
        "loss_excess": build_channel({"kind": "loss_excess", "loss": params["loss"],
                                      "excess": params["excess"]}, dim),
        MP_DEVICE: build_channel({"kind": MP_DEVICE}, dim),
    }


def _timed(point: Point, call) -> None:
    """Run one benchmark call, filling the point; a raise fails the point."""
    t0 = CLOCK()
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - a raising point is a failed point
        point.seconds = CLOCK() - t0
        point.error = f"{type(exc).__name__}: {exc}"
        return
    point.seconds = CLOCK() - t0
    point.bound = float(result.negativity_lower_bound)
    point.verdict = result.verdict
    point.status = result.diagnostics.get("solver_status", "")


# ---------------------------------------------------------------------------
# ring_m8: benchmark_symmetric at M = 8, N = 15
# ---------------------------------------------------------------------------

class RingM8:
    name = "ring_m8"
    uses_seed = False
    full_size = {"m": 8, "cutoff": 15}
    smoke_size = {"m": 2, "cutoff": 8}

    def setup(self, seed: int, size: dict, work_dir: str) -> dict:
        m, cutoff = size["m"], size["cutoff"]
        params = device_parameters()
        seed_state = _seed_state(cutoff + 1)
        devices = _devices(params, cutoff + 1)
        mp_moments = devices[MP_DEVICE](seed_state).quadrature_moments()
        cases = [
            ("loss_excess/tomography", "loss_excess",
             Tomography(devices["loss_excess"](seed_state))),
            (f"{MP_DEVICE}/quadratures_errors_3sigma", MP_DEVICE,
             QuadraturesWithErrors(mp_moments, params["std_errors"], 3)),
        ]
        return {"m": m, "cutoff": cutoff, "devices": devices, "cases": cases,
                "states": gramopt.rotation_ensemble(seed_state, m)}

    def run_pass(self, inputs: dict, pass_dir: str):
        m, cutoff = inputs["m"], inputs["cutoff"]
        opt = gramopt.optimize_gram(inputs["states"], symmetric=True)
        points = []
        for label, device, scenario in inputs["cases"]:
            point = Point(label, device, exact_data=True, m=m)
            _timed(point, lambda: bench.benchmark_symmetric(opt.gram, scenario, m,
                                                            cutoff=cutoff))
            points.append(point)
        return points, {m: opt.rho_in}


# ---------------------------------------------------------------------------
# general_m4: benchmark_general at M = 4, N = 9 (one 40 x 40 variable)
# ---------------------------------------------------------------------------

class GeneralM4:
    name = "general_m4"
    uses_seed = False
    full_size = {"m": 4, "cutoff": 9}
    smoke_size = {"m": 2, "cutoff": 8}

    def setup(self, seed: int, size: dict, work_dir: str) -> dict:
        m, cutoff = size["m"], size["cutoff"]
        params = device_parameters()
        states = gramopt.rotation_ensemble(_seed_state(cutoff + 1), m)
        devices = _devices(params, cutoff + 1)
        cases = []
        for device, channel in devices.items():
            outputs = [channel(st) for st in states]
            scenarios = [Tomography(outputs[0])] + [
                QuadraturesWithErrors(out.quadrature_moments(), params["std_errors"], 1)
                for out in outputs[1:]]
            cases.append((f"{device}/tomography+quadratures_errors_1sigma", device, scenarios))
        return {"m": m, "cutoff": cutoff, "devices": devices, "cases": cases,
                "states": states}

    def run_pass(self, inputs: dict, pass_dir: str):
        m, cutoff = inputs["m"], inputs["cutoff"]
        opt = gramopt.optimize_gram(inputs["states"], symmetric=False)
        points = []
        for label, device, scenarios in inputs["cases"]:
            point = Point(label, device, exact_data=True, m=m)
            _timed(point, lambda: bench.benchmark_general(opt.gram, scenarios, cutoff=cutoff))
            points.append(point)
        return points, {m: opt.rho_in}


# ---------------------------------------------------------------------------
# sweep_m2_4: `qdbench sweep` on a copy of noisy_memory, in-process
# ---------------------------------------------------------------------------

class SweepM24:
    name = "sweep_m2_4"
    uses_seed = True
    full_size = {"m_values": "2,3,4", "cutoff": 15}
    smoke_size = {"m_values": "2", "cutoff": 8}

    def setup(self, seed: int, size: dict, work_dir: str) -> dict:
        with open(pipeline.bundled_config_path(NOMINAL), encoding="utf-8") as fh:
            config = json.load(fh)
        base_seed = int(_nominal_config()["scenario"]["base_seed"])
        config["scenario"]["base_seed"] = base_seed + seed % 2**32
        config["bench"]["cutoff"] = size["cutoff"]
        path = os.path.join(work_dir, "noisy_memory.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        cfg = pipeline.load_config(path)
        device = build_channel(cfg["channel_sim"], size["cutoff"] + 1)
        return {"config": path, "m_values": size["m_values"],
                "devices": {cfg["channel_sim"]["kind"]: device}}

    def run_pass(self, inputs: dict, pass_dir: str):
        """The timed call is ``qdbench.cli.main``.  Pass-through spans keep what
        the pipeline hands back (its summary, the Gram optimizations) and time
        each ``benchmark_symmetric`` call."""
        hooks = Tracer()
        hooks.patch(pipeline, "run_pipeline", "summary", _result)
        hooks.patch(pipeline, "optimize_gram", "gram", _result)
        hooks.patch(pipeline, "benchmark_symmetric", "point")
        argv = ["sweep", "--config", inputs["config"], "--m-values", inputs["m_values"],
                "--out", pass_dir]
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
        finally:
            hooks.uninstall()
        summaries = [s[4] for s in hooks.spans if s[0] == "summary" and s[4] is not None]
        grams = [s[4] for s in hooks.spans if s[0] == "gram"]
        seconds = [s[2] - s[1] for s in hooks.spans if s[0] == "point"]

        device = next(iter(inputs["devices"]))
        if code == 1 or not summaries:
            raise RuntimeError(f"qdbench sweep exited with {code}: {err.getvalue().strip()}")
        outcomes = summaries[0]["results"]
        if len(seconds) != len(outcomes):
            raise RuntimeError("the pipeline no longer calls pipeline.benchmark_symmetric "
                               "once per point; the point timer needs updating")
        points = []
        for (m, label, result), sec in zip(outcomes, seconds):
            # noisy_memory takes the interval moments from the state
            # (moment_source "state"), so only quadratures_sampled is inexact
            points.append(Point(
                label, device, exact_data=label != "quadratures_sampled", m=m,
                bound=float(result.negativity_lower_bound), verdict=result.verdict,
                status=result.diagnostics.get("solver_status", ""), seconds=sec))
        expected = 0 if any(p.certified for p in points) else 2
        if code != expected:
            points[0].problems.append(f"exit code {code}, expected {expected}")
        _check_written_bounds(os.path.join(pass_dir, "bounds.csv"), points)
        return points, {g.gram.m: g.rho_in for g in grams}


def _result(args, kwargs, result):
    return result


def _check_written_bounds(path: str, points) -> None:
    """bounds.csv must hold exactly the bounds and verdicts the pipeline returned."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    if len(rows) != len(points):
        points[0].problems.append(f"bounds.csv has {len(rows)} rows for {len(points)} points")
        return
    for row, point in zip(rows, points):
        if (int(row[0]), row[1], float(row[3]), row[4]) != (
                point.m, point.label, point.bound, point.verdict):
            point.problems.append(f"bounds.csv row {row} disagrees with the returned result")


WORKLOADS = {wl.name: wl for wl in (RingM8(), SweepM24(), GeneralM4())}
