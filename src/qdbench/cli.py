"""Command-line interface.

Subcommands:

* ``sweep``          full pipeline from a JSON config (exit 0 certified, 2 not)
* ``gram``           ensemble -> Gram matrix + purity bound table
* ``bench``          Gram + scenario file -> negativity bound (exit 0/2)
* ``sample``         synthetic homodyne records -> CSV
* ``stdform-check``  validate a bipartite matrix against the standard-form identities
* ``fidelity``       Uhlmann fidelity of two density-matrix files

Exit codes: 0 success/certified, 2 ran-but-inconclusive, 1 error (usage
errors included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np


def _cmd_sweep(args) -> int:
    from .pipeline import bundled_config_path, load_config, run_pipeline

    config = args.config
    if config.startswith("bundled:"):
        config = bundled_config_path(config.split(":", 1)[1])
    cfg = load_config(config)
    if args.cutoff is not None:
        cfg["bench"]["cutoff"] = args.cutoff
    if args.m_values:
        cfg["ensemble"]["m_values"] = args.m_values
    summary = run_pipeline(cfg, out_dir=args.out)
    for m, label, _, bound, verdict in summary["bounds"]:
        print(f"M={m:<3d} {label:<28s} bound={bound:+.6e}  {verdict}")
    print(f"certified: {summary['certified']}  (outputs in {args.out or 'config outputs.dir'})")
    return summary["exit_code"]


def _cmd_gram(args) -> int:
    from .fock import DensityMatrix
    from .gramopt import optimize_gram, rotation_ensemble

    seed = DensityMatrix.load(args.seed_file, allow_sub_normalized=True)
    rows = []
    for m in args.m_values:
        states = rotation_ensemble(seed, m)
        res = optimize_gram(states, symmetric=not args.general)
        rows.append((m, res.purity, res.purity_upper_bound))
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, f"gram_m{m}.json"), "w", encoding="utf-8") as fh:
                json.dump(res.gram.to_json_dict(), fh)
        print(f"M={m}: purity={res.purity:.8f}  upper_bound={res.purity_upper_bound:.8f}  "
              f"h={res.h_value:.8f}")
    if args.out:
        from .pipeline import _write_csv
        _write_csv(os.path.join(args.out, "purity.csv"), ["M", "lower", "upper"], rows)
    return 0


def _cmd_bench(args) -> int:
    from .bench import benchmark_symmetric
    from .gramopt import GramMatrix
    from .pipeline import scenario_from_json_dict

    with open(args.gram, "r", encoding="utf-8") as fh:
        gram = GramMatrix.from_json_dict(json.load(fh))
    with open(args.scenario, "r", encoding="utf-8") as fh:
        scenario = scenario_from_json_dict(json.load(fh))
    result = benchmark_symmetric(gram, scenario, gram.m, cutoff=args.cutoff)
    print(f"M={result.m} scenario={result.scenario_tag} N={result.cutoff} "
          f"bound={result.negativity_lower_bound:+.6e} verdict={result.verdict}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if result.certified else 2


def _cmd_sample(args) -> int:
    from .fock import DensityMatrix
    from .sampling import sample_homodyne, write_records_csv

    rho = DensityMatrix.load(args.state, allow_sub_normalized=True)
    values = sample_homodyne(rho, args.phase, args.n, args.seed)
    write_records_csv(np.full(values.size, args.phase), values, args.out)
    print(f"wrote {values.size} records to {args.out}")
    return 0


def _cmd_stdform_check(args) -> int:
    from .blocksym import (BipartiteBlockMatrix, from_standard_form, partial_transpose,
                           pt_rearrange, symmetry_check, to_standard_form)
    from .fock import trace_norm

    with open(args.input, "r", encoding="utf-8") as fh:
        tau = BipartiteBlockMatrix.from_json_dict(json.load(fh))
    dev = symmetry_check(tau)
    print(f"symmetry deviation: {dev:.3e}")
    if dev > args.tol:
        print("FAIL: matrix is not phase symmetric at the requested tolerance")
        return 1
    e = to_standard_form(tau, tol=args.tol)
    back = from_standard_form(e)
    rt = float(np.max(np.abs(back.blocks - tau.blocks)))
    sum_err = float(np.max(np.abs(e.sum(axis=0) - tau.blocks[0, 0])))
    pt_full = partial_transpose(tau).full_matrix()
    tn_direct = float(np.sum(np.abs(np.linalg.eigvalsh(pt_full))))
    tn_st = float(sum(trace_norm(block) for block in pt_rearrange(e)))
    print(f"round-trip error:        {rt:.3e}")
    print(f"block-sum identity:      {sum_err:.3e}")
    print(f"trace-norm identity:     {abs(tn_st - tn_direct):.3e}")
    ok = rt <= 1e-10 and sum_err <= 1e-10 and abs(tn_st - tn_direct) <= 1e-9
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_fidelity(args) -> int:
    from .fock import DensityMatrix, fidelity

    rho0 = DensityMatrix.load(args.state0, allow_sub_normalized=True)
    rho1 = DensityMatrix.load(args.state1, allow_sub_normalized=True)
    print(f"{fidelity(rho0, rho1):.12f}")
    return 0


def _m_values(text: str) -> list:
    """The comma-separated ensemble sizes of ``--m-values``."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with 1: argparse's 2 is this CLI's "inconclusive"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdbench",
        description="Quantum-domain benchmarking for continuous-variable devices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True,
                   help="JSON config path, or bundled:<name> for a shipped config")
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--m-values", type=_m_values, help="comma-separated ensemble sizes")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gram", help="optimize the Gram matrix for a rotation ensemble")
    p.add_argument("--seed-file", required=True, help="density-matrix JSON of the seed state")
    p.add_argument("--m-values", type=_m_values, default="2,3,4",
                   help="comma-separated ensemble sizes")
    p.add_argument("--general", action="store_true",
                   help="use the unsymmetrized optimizer; its Gram is not circulant, so "
                        "'qdbench bench' rejects it (it is meant for benchmark_general "
                        "in the library); on rotation ensembles its Gram gave 2.6-2.8%% "
                        "lower benchmark_general bounds than the symmetric one")
    p.add_argument("--out", default=None, help="output directory for gram/purity files")
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("bench", help="negativity bound from a Gram matrix and scenario file")
    p.add_argument("--gram", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--cutoff", type=int, default=15)
    p.add_argument("--out", default=None, help="write the result JSON here")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("sample", help="synthetic homodyne records to CSV")
    p.add_argument("--state", required=True)
    p.add_argument("--phase", type=float, default=0.0)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("stdform-check",
                       help="validate a bipartite matrix against the standard-form identities")
    p.add_argument("--input", required=True, help="bipartite matrix JSON {m, dim, re, im}")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_stdform_check)

    p = sub.add_parser("fidelity", help="Uhlmann fidelity of two density-matrix files")
    p.add_argument("state0")
    p.add_argument("state1")
    p.set_defaults(func=_cmd_fidelity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
