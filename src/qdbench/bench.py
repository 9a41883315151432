"""The benchmarking verdict: certified lower bounds on output-state negativity.

Given the purification Gram matrix of the test ensemble and whatever is known
about the device's output (full tomography, or quadrature moments with or
without error bars), the negativity of the joint register/output state is
bounded from below by minimizing

    Tr(tau_minus)   over   { tau_minus >= 0,  tau^{T_A} + tau_minus >= 0 }

jointly over all output states tau compatible with the data.  A strictly
positive minimum certifies that no measure-and-prepare channel can reproduce
the observations: the device is in the quantum domain.

``benchmark_symmetric`` solves the problem in the block-circulant standard
form (M blocks of size (N+1) instead of an M(N+1)-dimensional matrix), valid
for rotation-generated ensembles with circulant Gram matrices;
``benchmark_general`` keeps the full bipartite variable and accepts one
measurement scenario per test state.  Each keeps its own variables and
partial-transpose constraint; their index maps (the partial-transpose
rearrangement, the circulant trace weights, the sub-block functional) come
from ``blocksym``.  Both encode the measurement data with one scenario
encoder, ``_add_scenario_rows``, driven by two closures (the coefficients of
<op, block> and an entrywise pin of the block; exact moments are intervals of
zero width), the Gram overlaps with one encoder, ``_add_gram_rows``, and
build their verdict with one constructor, ``_result``.  Only the standard
form asks for conjugation-invariant scenario rows: the general form's Gram
rows have imaginary parts, so dropping its <p> row would relax the problem.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .blocksym import (BipartiteBlockMatrix, block_functional, negativity,
                       negativity_stform, pt_sources, symmetry_check, to_standard_form,
                       trace_weights)
from .fock import DensityMatrix, fit_dim, moment_operators, real_frame
from .gramopt import GramMatrix
from .sdp import (SDPConfig, SDPProblem, SDPStatus, block_swap_matrix, mask_matrix)

__all__ = [
    "Tomography",
    "Quadratures",
    "QuadraturesWithErrors",
    "BenchmarkResult",
    "benchmark_symmetric",
    "benchmark_general",
    "input_negativity",
]

MOMENT_KEYS = ("x", "p", "xx", "pp")
QUARTER_TURN = np.array([1, 1j, -1, -1j])  # i^n for n mod 4, exact


def _finite_moments(values, what: str) -> dict:
    if not isinstance(values, dict):
        raise ValueError(f"{what}s must be an object with keys {MOMENT_KEYS}, got {values!r}")
    out = {}
    for k in MOMENT_KEYS:
        if k not in values:
            raise ValueError(f"{what} '{k}' is missing")
        if isinstance(values[k], bool) or not isinstance(values[k], numbers.Real):
            raise ValueError(f"{what} '{k}' must be a number, got {values[k]!r}")
        out[k] = float(values[k])
        if not math.isfinite(out[k]):
            raise ValueError(f"{what} '{k}' is not finite ({out[k]})")
    return out


def _validate_moments(moments, std_errors, sigma_level):
    moments = _finite_moments(moments, "moment")
    if std_errors is None:
        errs = {k: 0.0 for k in MOMENT_KEYS}
    else:
        errs = _finite_moments(std_errors, "standard error")
        if any(v < 0 for v in errs.values()):
            raise ValueError("standard errors must be nonnegative")
    s = float(sigma_level)
    for first, second in (("x", "xx"), ("p", "pp")):
        hi_second = moments[second] + s * errs[second]
        lo_first = max(0.0, abs(moments[first]) - s * errs[first])
        if hi_second < lo_first**2 - 1e-12:
            raise ValueError(
                f"unphysical moments: <{second}> = {moments[second]} (+{s} sigma) is below "
                f"the square of <{first}> = {moments[first]}")
    return moments, errs


@dataclass(frozen=True)
class Tomography:
    """Fully known output state for the seed (numerically, up to the cutoff)."""

    rho_out: DensityMatrix
    tag = "tomography"


@dataclass(frozen=True)
class Quadratures:
    """First and raw second moments of x and p for the seed output.

    With ``std_errors``, each moment is constrained to
    [m - sigma_level * se, m + sigma_level * se]; without, it is exact.  No
    covariance between the moment estimates is modeled.
    """

    moments: dict
    std_errors: dict | None = None
    sigma_level: int = 1

    def __post_init__(self):
        if isinstance(self.sigma_level, bool) or self.sigma_level not in (1, 2, 3):
            raise ValueError("sigma_level must be 1, 2 or 3")
        cleaned, errs = _validate_moments(self.moments, self.std_errors, self.sigma_level)
        object.__setattr__(self, "moments", cleaned)
        if self.std_errors is not None:
            object.__setattr__(self, "std_errors", errs)

    @property
    def tag(self) -> str:
        return "quadratures" if self.std_errors is None else "quadratures_errors"

    def intervals(self) -> dict:
        """(low, high) of each moment; exact moments are intervals of zero width."""
        errs = self.std_errors or dict.fromkeys(MOMENT_KEYS, 0.0)
        s = self.sigma_level
        return {k: (self.moments[k] - s * errs[k], self.moments[k] + s * errs[k])
                for k in MOMENT_KEYS}


QuadraturesWithErrors = Quadratures


@dataclass
class BenchmarkResult:
    negativity_lower_bound: float
    verdict: str                      # "QuantumDomain" | "Inconclusive"
    m: int
    cutoff: int
    scenario_tag: str
    diagnostics: dict
    optimized_state: object = field(default=None, repr=False)

    @property
    def certified(self) -> bool:
        return self.verdict == "QuantumDomain"

    def to_json_dict(self) -> dict:
        return {
            "M": self.m,
            "scenario": self.scenario_tag,
            "N": self.cutoff,
            "bound": self.negativity_lower_bound,
            "verdict": self.verdict,
            "stop_reason": self.diagnostics.get("stop_reason"),
            "iterations": self.diagnostics.get("solver_iterations"),
            "residuals": {
                "primal": self.diagnostics.get("primal_residual"),
                "dual": self.diagnostics.get("dual_residual"),
            },
            "schur_rows": self.diagnostics.get("schur_rows"),
            "factor_failures": self.diagnostics.get("factor_failures"),
        }


def _prepare_tomography_state(rho_out: DensityMatrix, d: int) -> np.ndarray:
    """Match the tomography matrix to the working dimension d, renormalizing
    what truncation loses."""
    target, lost = fit_dim(rho_out.matrix, d, "tomography state")
    return target / (1.0 - lost)


def _cutoff_guard(cutoff: int, scenario) -> None:
    """Reject N < 4 <n>, <n> read from the tomography state or the upper moment bounds."""
    if isinstance(scenario, Tomography):
        n_est = scenario.rho_out.mean_photon()
    else:
        interval = scenario.intervals()
        n_est = max(0.0, (interval["xx"][1] + interval["pp"][1] - 1.0) / 2.0)
    if cutoff < 4.0 * n_est:
        raise ValueError(
            f"cutoff N = {cutoff} is too small for the observed mean photon number "
            f"~{n_est:.3f} (need N >= 4 <n>)")


def _add_scenario_rows(prob: SDPProblem, scenario, d: int, on_block, pin,
                       suffix: str = "", real: bool = False):
    """Constrain one seed-output block according to its measurement scenario.

    ``on_block(op)`` returns the coefficient dict of the functional
    <op, block>, and ``pin(target, label)`` fixes the block entrywise, so the
    same rows serve every formulation.  Exact moments are the zero-width case
    of the interval rows, which ``add_interval`` turns into equalities.

    With ``real``, every row is made invariant under complex conjugation
    where that is exact.  The caller's other rows, cones and objective must
    have real symmetric coefficients, and every diagonal phase
    U = diag(e^{i n theta}) must map its feasible set onto itself.  Then for
    a feasible X the conjugate X-bar is feasible with <p> negated (p is the
    one imaginary antisymmetric operator), so Re X is feasible with <p> = 0
    and the same objective: when the <p> interval admits 0, its row is
    dropped without moving the optimum.  When only the <x> interval admits 0,
    the rows are written in the frame of the quarter turn U = diag(i^n), in
    which a block's <x>, <p>, <xx>, <pp> are the caller's -<p>, <x>, <pp>,
    <xx>, and the <p> row of that frame is dropped.  Tomography is pinned in
    the frame of :func:`fock.real_frame`.  Returns the phases of U (a solved
    block is U E U^dagger), or None for the caller's frame.
    """
    if isinstance(scenario, Tomography):
        target, phase = _prepare_tomography_state(scenario.rho_out, d), None
        if real:
            target, phase = real_frame(target)
        pin(target, f"tomography{suffix}")
        return phase
    if not isinstance(scenario, Quadratures):
        raise TypeError(f"unknown measurement scenario {scenario!r}")
    interval = scenario.intervals()
    phase = None
    if real and not _admits_zero(interval["p"]) and _admits_zero(interval["x"]):
        phase = QUARTER_TURN[np.arange(d) % 4]
        p_lo, p_hi = interval["p"]
        interval = {"x": (-p_hi, -p_lo), "p": interval["x"],
                    "xx": interval["pp"], "pp": interval["xx"]}
    ops = moment_operators(d)
    for key in MOMENT_KEYS:
        if real and key == "p" and _admits_zero(interval["p"]):
            continue
        prob.add_interval(on_block(ops[key]), *interval[key], label=f"moment-{key}{suffix}")
    return phase


def _admits_zero(interval) -> bool:
    return interval[0] <= 0.0 <= interval[1]


def _result(sol, cfg: SDPConfig, m: int, cutoff: int, tag: str, state) -> BenchmarkResult:
    """Verdict and diagnostics of a solved benchmark; raises on infeasibility.

    Only an ``Optimal`` solve whose bound exceeds the solver tolerance by 1e-6
    can certify: any other outcome reports its bound with the verdict
    ``Inconclusive``.
    """
    if sol.status in (SDPStatus.PRIMAL_INFEASIBLE, SDPStatus.DUAL_INFEASIBLE):
        raise RuntimeError(
            f"benchmark constraints are infeasible ({sol.status.value}): the scenario "
            f"'{tag}' data and Gram matrix admit no joint state at cutoff {cutoff}")
    bound = float(sol.objective)
    return BenchmarkResult(
        negativity_lower_bound=bound,
        verdict="QuantumDomain" if sol.optimal and bound > cfg.tol + 1e-6 else "Inconclusive",
        m=m,
        cutoff=cutoff,
        scenario_tag=tag,
        diagnostics={
            "solver_status": sol.status.value,
            "solver_iterations": sol.iterations,
            "stop_reason": sol.stop_reason,
            "primal_residual": sol.primal_residual,
            "dual_residual": sol.dual_residual,
            "duality_gap": sol.duality_gap,
            "schur_rows": sol.schur_rows,
            "factor_failures": sol.factor_failures,
        },
        optimized_state=state,
    )


def _add_gram_rows(prob: SDPProblem, traces, gram: GramMatrix, scenarios) -> None:
    """Block-trace consistency: for each ((k, l), C, is_complex) of ``traces``,
    with Z_kl = sum_v Tr(C_v X_v), the row <(C + C^dagger)/2, X> = Re Z_kl
    and, where ``is_complex``, the row <(C - C^dagger)/2i, X> = Im Z_kl.
    Z_kk is skipped where scenario k is tomography, whose rows pin its trace."""
    for (k, l), coeffs, is_complex in traces:
        if k == l and isinstance(scenarios[k], Tomography):
            continue
        z = complex(gram.z[k, l])
        prob.add_equality({v: (c + c.conj().T) / 2 for v, c in coeffs.items()}, z.real)
        if is_complex:
            prob.add_equality({v: (c - c.conj().T) / 2j for v, c in coeffs.items()}, z.imag)


def benchmark_symmetric(gram: GramMatrix, seed_scenario, m: int, cutoff: int = 15,
                        *, solver_config: SDPConfig | None = None) -> BenchmarkResult:
    """Minimum compatible negativity for a rotation-generated ensemble.

    Variables are the standard-form blocks E_k of the output state and the
    blocks F_k of the negative-part witness; the partial-transpose constraint
    appears as Etilde_k + F_k >= 0 with Etilde the entry rearrangement of the
    E blocks.  Constraints: the scenario pins sum_k E_k (the seed output),
    block traces reproduce the Gram matrix, total trace is 1.

    Returns a certified lower bound on the negativity of the true joint
    output state, and the verdict derived from it.

    The scenario is encoded with ``real`` (see :func:`_add_scenario_rows`),
    whose conditions hold here: the partial-transpose masks, the Gram rows
    (real diagonal coefficients) and the objective are real symmetric, and a
    diagonal phase commutes with the masks while the Gram rows and the
    objective read only diagonals and traces.  The E_k are returned in the
    caller's frame.
    """
    if m != gram.m:
        raise ValueError(f"gram has M = {gram.m}, requested M = {m}")
    circ_dev = gram.circulant_deviation()
    if circ_dev > 1e-8:
        raise ValueError(
            f"Gram matrix is not circulant (deviation {circ_dev:.3e}); use benchmark_general "
            f"or a rotation-generated ensemble")
    _cutoff_guard(cutoff, seed_scenario)
    d = cutoff + 1
    cfg = solver_config or SDPConfig()

    prob = SDPProblem()
    e_names = [f"E{k}" for k in range(m)]
    f_names = [f"F{k}" for k in range(m)]
    for name in e_names + f_names:
        prob.add_variable(name, d)
    prob.set_objective({name: np.eye(d) for name in f_names})

    sources = pt_sources(m, d)
    identity = sp.identity(d * d, format="csr")
    for k in range(m):
        terms = []
        for src in range(m):
            mask = (sources[k] == src).astype(float)
            if mask.any():
                terms.append((e_names[src], mask_matrix(mask)))
        terms.append((f_names[k], identity))
        prob.add_psd_constraint(terms, label=f"pt-sector-{k}")

    def pin(target, label):
        prob.add_entry_equalities(e_names, target, label=label)

    phase = _add_scenario_rows(prob, seed_scenario, d,
                               lambda op: {name: op for name in e_names}, pin, real=True)
    # Z_{0,t} at every circulant distance t from the trace weights W; t and
    # M - t are conjugate duplicates, and Z_{0,t} is real where 2t = 0 mod M
    # (an index rule: W keeps imaginary parts of order 1e-15 there).
    weights = trace_weights(m, d)
    _add_gram_rows(prob, [((0, t), {e_names[k]: np.diag(weights[t, k]) for k in range(m)},
                           2 * t % m != 0) for t in range(m // 2 + 1)],
                   gram, [seed_scenario])

    sol = prob.solve(cfg)
    e_stack = np.stack([sol.variables[name] for name in e_names])
    if phase is not None:
        e_stack = phase.conj()[:, None] * e_stack * phase
    return _result(sol, cfg, m, cutoff, seed_scenario.tag, e_stack)


def benchmark_general(gram: GramMatrix, scenarios, cutoff: int = 15,
                      *, solver_config: SDPConfig | None = None) -> BenchmarkResult:
    """Minimum compatible negativity without the symmetry reduction.

    ``scenarios`` holds one measurement scenario per test state, constraining
    the corresponding diagonal block of the output matrix.  On a rotation
    ensemble it agrees with :func:`benchmark_symmetric` where the 2 pi / M
    rotation maps the scenarios onto each other: tomography at any M, moment
    boxes at M = 2, or at M = 4 with equal x/p and xx/pp widths.  At M = 3 the
    rotated outputs' <xx>, <pp> read the seed's free <xp + px>, so they differ.
    """
    m = gram.m
    if len(scenarios) != m:
        raise ValueError(f"need one scenario per test state: got {len(scenarios)} for M = {m}")
    d = cutoff + 1
    if m * d > 160:
        raise ValueError(
            f"general benchmark size M*(N+1) = {m * d} exceeds the guard 160; use the "
            f"symmetric path or a lower cutoff")
    for sc in scenarios:
        _cutoff_guard(cutoff, sc)
    cfg = solver_config or SDPConfig()
    n_full = m * d

    prob = SDPProblem()
    prob.add_variable("tau", n_full)
    prob.add_variable("tau_minus", n_full)
    prob.set_objective({"tau_minus": np.eye(n_full)})
    prob.add_psd_constraint(
        [("tau", block_swap_matrix(m, d)), ("tau_minus", sp.identity(n_full**2, format="csr"))],
        label="pt-plus-witness")

    for k, sc in enumerate(scenarios):
        def pin(target, label):
            prob.add_entry_equalities(["tau"], target / m, offset=k * d, label=label)

        _add_scenario_rows(prob, sc, d, lambda op: {"tau": block_functional(op, k, k, m)},
                           pin, suffix=f"-{k}")
    # Z_lk = Tr(tau_kl), read in sub-block (l, k) of the full matrix
    _add_gram_rows(prob, [((l, k), {"tau": block_functional(np.eye(d), k, l, m)}, k != l)
                          for k in range(m) for l in range(k, m)], gram, scenarios)

    sol = prob.solve(cfg)
    return _result(sol, cfg, m, cutoff, "+".join(sc.tag for sc in scenarios),
                   BipartiteBlockMatrix.from_full(sol.variables["tau"], m, check=False))


def input_negativity(rho_in: BipartiteBlockMatrix) -> float:
    """Negativity of the optimized input matrix, via the standard form when
    the phase symmetry holds and directly otherwise."""
    if symmetry_check(rho_in) <= 1e-8:
        return negativity_stform(to_standard_form(rho_in))
    return negativity(rho_in)
