"""Where the traced run hooks into qdbench, and the per-layer metrics it reports.

Layers are the package's modules.  Each hook names the lookup its caller
performs: ``pipeline`` binds ``benchmark_symmetric``, ``optimize_gram``,
``build_channel``, ``sample_homodyne`` and ``bin_and_estimate`` with
``from ... import``, and ``gramopt`` binds ``fidelity`` the same way, so those
are wrapped in the importing module.  ``sdp.solve`` (reached through
``SDPProblem.solve``), ``scipy.linalg.cho_factor/cho_solve`` and
``numpy.linalg.eigh/eigvalsh`` are looked up as attributes at call time.

Spans named ``linalg.*`` belong to the layer of their nearest enclosing
non-``linalg`` span; the ``sdp.cho_*`` and ``sdp.eigh_*`` metrics count only
those inside ``sdp.solve``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import scipy.linalg

from tracer import Tracer, calibrate_overhead


def _solution_info(args, kwargs, result):
    if result is None:
        return None
    return {"iterations": int(result.iterations), "status": result.status.value}


def _first_dim(args, kwargs, result):
    return int(np.shape(args[0])[0])


def _length(args, kwargs, result):
    return len(result) if result is not None else 0


def install(tracer: Tracer) -> None:
    from qdbench import bench, cli, gramopt, pipeline, sdp

    tracer.patch(sdp, "solve", "sdp.solve", _solution_info)
    tracer.patch(sdp.SDPProblem, "canonicalize", "sdp.canonicalize")
    tracer.patch(sdp.SDPProblem, "add_psd_constraint", "sdp.add_psd_constraint")
    tracer.patch(scipy.linalg, "cho_factor", "linalg.cho_factor", _first_dim)
    tracer.patch(scipy.linalg, "cho_solve", "linalg.cho_solve")
    tracer.patch(np.linalg, "eigh", "linalg.eigh")
    tracer.patch(np.linalg, "eigvalsh", "linalg.eigvalsh")

    for owner in (bench, pipeline):
        tracer.patch(owner, "benchmark_symmetric", "bench.benchmark")
    tracer.patch(bench, "benchmark_general", "bench.benchmark")
    tracer.patch(pipeline, "input_negativity", "bench.input_negativity")
    for fn in ("symmetry_check", "to_standard_form", "negativity_stform", "negativity"):
        tracer.patch(bench, fn, "blocksym." + fn)
    tracer.patch(gramopt, "from_standard_form", "blocksym.from_standard_form")

    for owner in (gramopt, pipeline):
        tracer.patch(owner, "optimize_gram", "gramopt.optimize_gram")
    tracer.patch(gramopt, "fidelity", "fock.fidelity")

    tracer.patch(pipeline, "build_channel", "channels.build_channel")
    tracer.patch(pipeline, "sample_homodyne", "sampling.sample_homodyne", _length)
    tracer.patch(pipeline, "bin_and_estimate", "sampling.bin_and_estimate")
    tracer.patch(pipeline, "run_pipeline", "pipeline.run_pipeline")
    tracer.patch(cli, "main", "cli.main")


# reported as measured over the run; every other metric is divided by the passes
NOT_SUMMED = {"sdp.cho_factor_per_iter", "sdp.schur_rows_max", "trace.coverage"}


def _layer_self_times(tracer: Tracer) -> dict:
    """Self time per span name, with ``linalg.*`` spans folded into the
    nearest enclosing span of another kind (kept as is at the root)."""
    selfs = tracer.self_times()
    owner = {}
    out = defaultdict(float)
    for i, span in enumerate(tracer.spans):
        name, parent = span[0], span[3]
        if name.startswith("linalg.") and parent >= 0:
            name = owner[parent]
        owner[i] = name
        out[name] += selfs[i]
    return out


def metrics(tracer: Tracer, traced_wall_s: float) -> dict:
    """Per-layer metric values (name -> number) from the spans of a traced run;
    run.py checks the names against the ``per_layer`` list of BENCHMARK.json."""
    spans = tracer.spans
    totals = tracer.totals()
    layer_self = _layer_self_times(tracer)

    def total(name, key="total_s"):
        return totals.get(name, {}).get(key, 0)

    solves = [s[4] for s in spans if s[0] == "sdp.solve" and s[4] is not None]
    iterations = sum(info["iterations"] for info in solves)
    cho_sizes, cho_s, cho_solve_s, eig_calls, eig_s = [], 0.0, 0.0, 0, 0.0
    for i, span in enumerate(spans):
        name = span[0]
        if not name.startswith("linalg.") or not tracer.has_ancestor(i, "sdp.solve"):
            continue
        seconds = span[2] - span[1]
        if name == "linalg.cho_factor":
            cho_sizes.append(span[4])
            cho_s += seconds
        elif name == "linalg.cho_solve":
            cho_solve_s += seconds
        else:
            eig_calls += 1
            eig_s += seconds
    n_spans = len(spans)
    values = {
        "sdp.solve_calls": total("sdp.solve", "calls"),
        "sdp.iterations": iterations,
        "sdp.nonoptimal": sum(1 for info in solves if info["status"] != "Optimal"),
        "sdp.solve_s": total("sdp.solve"),
        "sdp.solve_self_s": total("sdp.solve", "self_s"),
        "sdp.canonicalize_s": total("sdp.canonicalize"),
        "sdp.add_psd_constraint_s": total("sdp.add_psd_constraint"),
        "sdp.cho_factor_calls": len(cho_sizes),
        "sdp.cho_factor_s": cho_s,
        "sdp.cho_factor_per_iter": len(cho_sizes) / iterations if iterations else 0.0,
        "sdp.cho_solve_s": cho_solve_s,
        "sdp.schur_rows_max": max(cho_sizes, default=0),
        "sdp.schur_gflop_computed": sum(m**3 / 3.0 for m in cho_sizes) / 1e9,
        "sdp.schur_mb_computed": sum(8.0 * m * m for m in cho_sizes) / 1e6,
        "sdp.eigh_calls": eig_calls,
        "sdp.eigh_s": eig_s,
        "bench.calls": total("bench.benchmark", "calls"),
        "bench.build_s": layer_self["bench.benchmark"],
        "blocksym.calls": sum(rec["calls"] for name, rec in totals.items()
                              if name.startswith("blocksym.")),
        "gramopt.optimize_gram_calls": total("gramopt.optimize_gram", "calls"),
        "gramopt.optimize_gram_s": total("gramopt.optimize_gram"),
        "gramopt.self_s": layer_self["gramopt.optimize_gram"],
        "fock.fidelity_calls": total("fock.fidelity", "calls"),
        "fock.fidelity_s": total("fock.fidelity"),
        "channels.build_channel_s": total("channels.build_channel"),
        "sampling.sample_homodyne_s": total("sampling.sample_homodyne"),
        "sampling.records": sum(s[4] or 0 for s in spans if s[0] == "sampling.sample_homodyne"),
        "sampling.bin_and_estimate_s": total("sampling.bin_and_estimate"),
        "pipeline.self_s": layer_self["pipeline.run_pipeline"],
        "cli.main_s": layer_self["cli.main"],
        "trace.wall_s": traced_wall_s,
        "trace.coverage": tracer.root_seconds() / traced_wall_s,
        "trace.spans": n_spans,
        "trace.overhead_s": n_spans * calibrate_overhead(),
    }
    return values
