"""End-to-end orchestration: seed state -> ensemble -> Gram -> benchmark sweep.

A single JSON configuration document drives the pipeline; every field has a
default (see DEFAULT_CONFIG).  Outputs are deterministic given the config and
seeds: CSV tables for the purity bounds and negativity bounds, a JSON record
of everything, and a gnuplot script (no image rendering here).

Exit semantics of :func:`run_pipeline`: 0 when at least one sweep point
certifies the quantum domain, 2 when everything ran but nothing was certified.
Errors raise.
"""

from __future__ import annotations

import copy
import json
import math
import os

import numpy as np

from . import __version__
from .bench import Quadratures, Tomography, benchmark_symmetric, input_negativity
from .channels import build_channel
from .fock import DensityMatrix, coherent_state, fit_dim, noisy_coherent
from .gramopt import GramMatrix, optimize_gram, rotation_ensemble
from .sampling import bin_and_estimate, sample_homodyne

__all__ = [
    "DEFAULT_CONFIG",
    "load_config",
    "bundled_config_path",
    "run_pipeline",
    "scenario_from_json_dict",
]

DEFAULT_CONFIG = {
    "seed_state": {
        "kind": "noisy_coherent",   # noisy_coherent | coherent | file
        "alpha_re": 0.00707,
        "alpha_im": -0.67175,
        "excess": 0.219,
        "dim": None,                # default: cutoff + 1
        "path": None,               # for kind == "file"
        "deficit_tol": 1e-6,
    },
    "channel_sim": {
        "kind": "identity",         # identity | loss | loss_excess | heterodyne_mp | dephasing | replace
        "loss": 0.0,
        "excess": 0.0,
        "thermal_mean": 0.0,
    },
    "ensemble": {
        "m_values": [2, 3, 4, 5, 6, 7, 8],
        # the ring angle is always 2*pi/M
    },
    "scenario": {
        "kinds": ["tomography", "quadratures", "quadratures_errors"],
        "sigma_levels": [1, 2, 3],
        "moment_source": "state",   # state | sampled
        "std_errors": {"x": 0.03, "p": 0.03, "xx": 0.04, "pp": 0.09},
        "samples_per_bin": 500,
        "angle_tolerance": 1.8,
        "base_seed": 7,
    },
    "bench": {"cutoff": 15},
    "outputs": {"dir": "out"},
    "assume_phase_covariant": True,
}

_SCENARIO_KINDS = ("tomography", "quadratures", "quadratures_sampled", "quadratures_errors")


def _check_number(value, default, field: str) -> None:
    """In a numeric field (one whose default is a number or a list of them, or
    the integer ``seed_state.dim``, where ``None`` also passes), reject
    anything but numbers, NaN and infinities (``json.load`` accepts both), and
    fractions where an integer is due, naming the field."""
    defaults = default if isinstance(default, list) else [default]
    optional = field == "seed_state.dim"
    numeric = optional or (bool(defaults) and all(type(v) in (int, float) for v in defaults))
    integer = optional or (numeric and all(type(v) is int for v in defaults))
    if not numeric:
        return
    for item in value if isinstance(value, list) else [value]:
        if item is None and optional:
            continue
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValueError(f"configuration field '{field}' must be a number, got {item!r}")
        if isinstance(item, float) and not math.isfinite(item):
            raise ValueError(f"configuration field '{field}' is not finite ({item})")
        if integer and isinstance(item, float) and not item.is_integer():
            raise ValueError(f"configuration field '{field}' must be an integer, got {item}")


def _merge_config(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ValueError(f"unknown configuration field '{here}'")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"configuration field '{here}' must be an object, got {value!r}")
            out[key] = _merge_config(base[key], value, here)
        else:
            if isinstance(base[key], list) != isinstance(value, list):
                want = "a list" if isinstance(base[key], list) else "a single value"
                raise ValueError(f"configuration field '{here}' must be {want}, got {value!r}")
            _check_number(value, base[key], here)
            out[key] = value
    return out


def _check_sweep(cfg: dict) -> None:
    """Reject a sweep without points, with too small a cutoff or ensemble, or
    with an unknown moment source, naming the field."""
    source = cfg["scenario"]["moment_source"]
    if source not in ("state", "sampled"):
        raise ValueError(f"configuration field 'scenario.moment_source' must be 'state' or "
                         f"'sampled', got {source!r}")
    if cfg["bench"]["cutoff"] < 1:
        raise ValueError(f"configuration field 'bench.cutoff' must be >= 1, "
                         f"got {cfg['bench']['cutoff']}")
    if any(m < 2 for m in cfg["ensemble"]["m_values"]):
        raise ValueError("configuration field 'ensemble.m_values' must all be >= 2")
    if any(s not in (1, 2, 3) for s in cfg["scenario"]["sigma_levels"]):
        raise ValueError("configuration field 'scenario.sigma_levels' must all be 1, 2 or 3")
    lists = ["ensemble.m_values", "scenario.kinds"]
    if "quadratures_errors" in cfg["scenario"]["kinds"]:
        lists.append("scenario.sigma_levels")
    for field in lists:
        section, key = field.split(".")
        if not cfg[section][key]:
            raise ValueError(f"configuration field '{field}' is empty: the sweep has no points")


def load_config(path_or_dict) -> dict:
    """Merge a user config (path or dict) over the defaults, rejecting unknown
    keys, strings, booleans, non-finite numbers and fractions where a number
    or an integer is due, and sweeps without points."""
    if isinstance(path_or_dict, dict):
        user = path_or_dict
    else:
        with open(path_or_dict, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    if not isinstance(user, dict):
        raise ValueError(f"a configuration must be a JSON object, got {user!r}")
    cfg = _merge_config(DEFAULT_CONFIG, user)
    _check_sweep(cfg)
    return cfg


def bundled_config_path(name: str) -> str:
    """Path of a configuration shipped with the package (configs/<name>.json)."""
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.path.join(here, "configs", f"{name}.json")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no bundled config named '{name}'")
    return path


def _build_seed(cfg: dict, dim: int) -> DensityMatrix:
    sc = cfg["seed_state"]
    d = int(sc["dim"]) if sc["dim"] else dim
    kind = sc["kind"]
    if kind == "coherent":
        state = coherent_state(complex(sc["alpha_re"], sc["alpha_im"]), d,
                               deficit_tol=float(sc["deficit_tol"]))
    elif kind == "noisy_coherent":
        state = noisy_coherent(complex(sc["alpha_re"], sc["alpha_im"]),
                               float(sc["excess"]), d,
                               deficit_tol=float(sc["deficit_tol"]))
    elif kind == "file":
        if not sc["path"]:
            raise ValueError("seed_state.path is required for seed_state.kind == 'file'")
        state = DensityMatrix.load(sc["path"], allow_sub_normalized=True)
    else:
        raise ValueError(f"seed_state.kind '{kind}' is not one of coherent|noisy_coherent|file")
    if state.dim != dim:
        state = DensityMatrix(fit_dim(state.matrix, dim, "seed state")[0],
                              allow_sub_normalized=True)
    return state


def _sampled_moments(rho_out: DensityMatrix, scen_cfg: dict):
    """Synthetic homodyne records around 0 and 90 degrees, binned to moments."""
    bin_size = int(scen_cfg["samples_per_bin"])
    tol = float(scen_cfg["angle_tolerance"])
    base_seed = int(scen_cfg["base_seed"])
    offsets = np.linspace(-0.5 * tol, 0.5 * tol, 5)
    per_offset = int(math.ceil(1.2 * bin_size / offsets.size))
    phases, values = [], []
    for a_idx, angle in enumerate((0.0, 90.0)):
        for o_idx, off in enumerate(offsets):
            phases.append(np.full(per_offset, angle + float(off)))
            values.append(sample_homodyne(rho_out, angle + float(off), per_offset,
                                          seed=base_seed + 1000 * a_idx + o_idx))
    bx, bp = bin_and_estimate(np.concatenate(phases), np.concatenate(values), [0.0, 90.0],
                              bin_size=bin_size, angle_tolerance=tol)
    moments = {"x": bx.mean, "p": bp.mean, "xx": bx.raw_second_moment,
               "pp": bp.raw_second_moment}
    errors = {"x": bx.se_mean, "p": bp.se_mean, "xx": bx.se_second, "pp": bp.se_second}
    return moments, errors


def _build_scenarios(rho_out: DensityMatrix, scen_cfg: dict):
    """Labelled measurement scenarios for the sweep."""
    kinds = scen_cfg["kinds"]
    for kind in kinds:
        if kind not in _SCENARIO_KINDS:
            raise ValueError(f"scenario.kinds entry '{kind}' not in {_SCENARIO_KINDS}")
    exact = rho_out.quadrature_moments()
    sampled = errors_sampled = None
    if "quadratures_sampled" in kinds or (
            "quadratures_errors" in kinds and scen_cfg["moment_source"] == "sampled"):
        sampled, errors_sampled = _sampled_moments(rho_out, scen_cfg)

    out = []
    for kind in kinds:
        if kind == "tomography":
            out.append(("tomography", Tomography(rho_out)))
        elif kind == "quadratures":
            out.append(("quadratures", Quadratures(exact)))
        elif kind == "quadratures_sampled":
            out.append(("quadratures_sampled", Quadratures(sampled)))
        elif kind == "quadratures_errors":
            if scen_cfg["moment_source"] == "sampled":
                moments, errs = sampled, errors_sampled
            else:
                moments, errs = exact, {k: float(v) for k, v in scen_cfg["std_errors"].items()}
            for s in scen_cfg["sigma_levels"]:
                out.append((f"quadratures_errors_{int(s)}sigma",
                            Quadratures(moments, errs, int(s))))
    return out


def scenario_from_json_dict(payload: dict):
    """Scenario files: {"kind": ..., ...} as accepted by the bench CLI."""
    if not isinstance(payload, dict):
        raise ValueError(f"a scenario must be a JSON object, got {payload!r}")
    kind = payload.get("kind")
    try:
        if kind == "tomography":
            return Tomography(DensityMatrix.from_json_dict(payload["rho_out"],
                                                           allow_sub_normalized=True))
        if kind == "quadratures":
            return Quadratures(payload["moments"])
        if kind == "quadratures_errors":
            return Quadratures(payload["moments"], payload["std_errors"],
                               payload.get("sigma_level", 1))
    except KeyError as exc:
        raise ValueError(f"{kind} scenario file has no field {exc}") from None
    raise ValueError(f"unknown scenario kind {kind!r}")


def _format_float(x) -> str:
    return repr(float(x))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, (str, int)) else _format_float(c)
                              for c in row) + "\n")


_PLOT_SCRIPT = """# gnuplot script for the negativity-bound sweep
set datafile separator ','
set key outside
set xlabel 'number of test states M'
set ylabel 'negativity lower bound'
set grid
plot for [scen in scenarios] 'bounds.csv' \\
    using 1:(strcol(2) eq scen ? $4 : 1/0) every ::1 with linespoints title scen, \\
    'input_negativity.csv' using 1:2 every ::1 with linespoints title 'input state'
"""


def run_pipeline(config, out_dir: str | None = None) -> dict:
    """Execute the full sweep; returns a summary dict including ``exit_code``."""
    cfg = load_config(config)
    if not cfg["assume_phase_covariant"]:
        raise ValueError(
            "the pipeline benchmarks in the phase-symmetric standard form, which is only "
            "valid for phase-covariant devices; set assume_phase_covariant or use "
            "benchmark_general from the library directly")

    cutoff = int(cfg["bench"]["cutoff"])
    dim = cutoff + 1

    seed = _build_seed(cfg, dim)
    channel = build_channel(cfg["channel_sim"], dim)
    rho_out = channel(seed)
    scenarios = _build_scenarios(rho_out, cfg["scenario"])

    m_values = [int(m) for m in cfg["ensemble"]["m_values"]]

    purity_rows = []
    input_neg_rows = []
    grams: dict[int, GramMatrix] = {}
    for m in m_values:
        states = rotation_ensemble(seed, m)
        res = optimize_gram(states, symmetric=True)
        grams[m] = res.gram
        purity_rows.append((m, res.purity, res.purity_upper_bound))
        input_neg_rows.append((m, input_negativity(res.rho_in)))

    outcomes = [(m, label, benchmark_symmetric(grams[m], scen, m, cutoff=cutoff))
                for m in m_values for label, scen in scenarios]

    bound_rows = [(m, label, cutoff, r.negativity_lower_bound, r.verdict)
                  for m, label, r in outcomes]
    certified = any(r.certified for _, _, r in outcomes)

    artifacts = {}
    if out_dir is None:
        out_dir = cfg["outputs"]["dir"]
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        bounds_path = os.path.join(out_dir, "bounds.csv")
        _write_csv(bounds_path, ["M", "scenario", "N", "bound", "verdict"], bound_rows)
        purity_path = os.path.join(out_dir, "purity.csv")
        _write_csv(purity_path, ["M", "lower", "upper"], purity_rows)
        ineg_path = os.path.join(out_dir, "input_negativity.csv")
        _write_csv(ineg_path, ["M", "negativity"], input_neg_rows)
        results_path = os.path.join(out_dir, "results.json")
        payload = {
            "version": __version__,
            "config": cfg,
            "purity": [{"M": m, "lower": lo, "upper": hi} for m, lo, hi in purity_rows],
            "input_negativity": [{"M": m, "negativity": v} for m, v in input_neg_rows],
            "bounds": [dict(r.to_json_dict(), scenario=label)
                       for _, label, r in outcomes],
        }
        with open(results_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        plot_path = os.path.join(out_dir, "bounds.gp")
        scen_list = " ".join(sorted({label for _, label, _ in outcomes}))
        with open(plot_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"scenarios = '{scen_list}'\n")
            fh.write(_PLOT_SCRIPT)
        artifacts = {"bounds": bounds_path, "purity": purity_path,
                     "input_negativity": ineg_path, "results": results_path,
                     "plot_script": plot_path}

    return {
        "exit_code": 0 if certified else 2,
        "certified": certified,
        "bounds": bound_rows,
        "purity": purity_rows,
        "input_negativity": input_neg_rows,
        "artifacts": artifacts,
        "results": outcomes,
    }
