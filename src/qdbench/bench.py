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
measurement scenario per test state.  Each keeps its own variables,
partial-transpose constraint and Gram rows.  Both encode the measurement data
with one scenario encoder, ``_add_scenario_rows``, driven by two closures (the
coefficients of <op, block> and an entrywise pin of the block; exact moments
are intervals of zero width), and build their verdict with one constructor,
``_result``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocksym import (BipartiteBlockMatrix, StandardForm, negativity,
                       negativity_stform, symmetry_check, to_standard_form)
from .fock import DensityMatrix, fit_dim, quadratures
from .gramopt import GramMatrix
from .sdp import (BlockSwapMap, HadamardMaskMap, ScalarMap, SDPConfig,
                  SDPProblem, SDPStatus)

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


def _finite_moments(values, what: str) -> dict:
    out = {k: float(values[k]) for k in MOMENT_KEYS}
    for k, v in out.items():
        if not math.isfinite(v):
            raise ValueError(f"{what} '{k}' is not finite ({v})")
    return out


def _validate_moments(moments, std_errors=None, sigma_level=0):
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
    tag: str = "tomography"

    def mean_photon_estimate(self) -> float:
        return self.rho_out.mean_photon()


@dataclass(frozen=True)
class Quadratures:
    """First and raw second moments of x and p for the seed output."""

    moments: dict
    tag: str = "quadratures"

    def __post_init__(self):
        cleaned, _ = _validate_moments(self.moments)
        object.__setattr__(self, "moments", cleaned)

    def mean_photon_estimate(self) -> float:
        return max(0.0, (self.moments["xx"] + self.moments["pp"] - 1.0) / 2.0)


@dataclass(frozen=True)
class QuadraturesWithErrors:
    """Quadrature moments with symmetric two-sided error intervals.

    Each moment is constrained to [m - sigma_level * se, m + sigma_level * se];
    no covariance between the moment estimates is modeled.
    """

    moments: dict
    std_errors: dict
    sigma_level: int = 1
    tag: str = "quadratures_errors"

    def __post_init__(self):
        if self.sigma_level not in (1, 2, 3):
            raise ValueError("sigma_level must be 1, 2 or 3")
        cleaned, errs = _validate_moments(self.moments, self.std_errors, self.sigma_level)
        object.__setattr__(self, "moments", cleaned)
        object.__setattr__(self, "std_errors", errs)

    def mean_photon_estimate(self) -> float:
        s = self.sigma_level
        hi = (self.moments["xx"] + s * self.std_errors["xx"]
              + self.moments["pp"] + s * self.std_errors["pp"] - 1.0) / 2.0
        return max(0.0, hi)


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
            "residuals": {
                "primal": self.diagnostics.get("primal_residual"),
                "dual": self.diagnostics.get("dual_residual"),
            },
        }


def _prepare_tomography_state(rho_out: DensityMatrix, d: int) -> np.ndarray:
    """Match the tomography matrix to the working dimension d, renormalizing
    what truncation loses."""
    target, lost = fit_dim(rho_out.matrix, d, "tomography state")
    return target / (1.0 - lost)


def _cutoff_guard(cutoff: int, scenario) -> None:
    n_est = scenario.mean_photon_estimate()
    if cutoff < 4.0 * n_est:
        raise ValueError(
            f"cutoff N = {cutoff} is too small for the observed mean photon number "
            f"~{n_est:.3f} (need N >= 4 <n>)")


def _add_scenario_rows(prob: SDPProblem, scenario, d: int, on_block, pin,
                       suffix: str = "") -> None:
    """Constrain one seed-output block according to its measurement scenario.

    ``on_block(op)`` returns the coefficient dict of the functional
    <op, block>, and ``pin(target, label)`` fixes the block entrywise, so the
    same rows serve every formulation.  Exact moments are the zero-width case
    of the interval rows, which ``add_interval`` turns into equalities.
    """
    if isinstance(scenario, Tomography):
        pin(_prepare_tomography_state(scenario.rho_out, d), f"tomography{suffix}")
        return
    if isinstance(scenario, Quadratures):
        width = dict.fromkeys(MOMENT_KEYS, 0.0)
    elif isinstance(scenario, QuadraturesWithErrors):
        width = {key: scenario.sigma_level * scenario.std_errors[key] for key in MOMENT_KEYS}
    else:
        raise TypeError(f"unknown measurement scenario {scenario!r}")
    x, p = quadratures(d)
    ops = {"x": x.matrix, "p": p.matrix,
           "xx": x.matrix @ x.matrix, "pp": p.matrix @ p.matrix}
    for key in MOMENT_KEYS:
        mid = scenario.moments[key]
        prob.add_interval(on_block(ops[key]), mid - width[key], mid + width[key],
                          label=f"moment-{key}{suffix}")


def _result(sol, cfg: SDPConfig, verdict_margin, m: int, cutoff: int, tag: str,
            state) -> BenchmarkResult:
    """Verdict and diagnostics of a solved benchmark; raises on infeasibility.

    Only an ``Optimal`` solve can certify: any other status reports its bound
    with the verdict ``Inconclusive``.
    """
    if sol.status in (SDPStatus.PRIMAL_INFEASIBLE, SDPStatus.DUAL_INFEASIBLE):
        raise RuntimeError(
            f"benchmark constraints are infeasible ({sol.status.value}): the scenario "
            f"'{tag}' data and Gram matrix admit no joint state at cutoff {cutoff}")
    bound = float(sol.objective)
    margin = (cfg.tol + 1e-6) if verdict_margin is None else verdict_margin
    return BenchmarkResult(
        negativity_lower_bound=bound,
        verdict="QuantumDomain" if sol.optimal and bound > margin else "Inconclusive",
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
        },
        optimized_state=state,
    )


def _gram_rows_symmetric(prob: SDPProblem, e_names, zeta, d: int,
                         skip_trace_row: bool) -> None:
    """Block-trace consistency in the standard form.

    With g(dist) = sum_{m,j} omega^{dist (m - j)} [E_m]_{jj}, the block traces
    equal the Gram entries exactly when g(dist) = conj(zeta_dist) for every
    circulant distance; distances dist and M-dist are conjugate duplicates.
    """
    m = len(e_names)
    omega = np.exp(2j * np.pi / m)
    j_idx = np.arange(d)
    for dist in range(0, m // 2 + 1):
        target = np.conj(zeta[dist])
        if dist == 0 and skip_trace_row:
            continue
        coeff = {e_names[mm]: np.diag(np.real(omega ** (dist * (mm - j_idx)))).astype(complex)
                 for mm in range(m)}
        prob.add_equality(coeff, float(target.real), label=f"gram-re-{dist}")
        if dist == 0 or (m % 2 == 0 and dist == m // 2):
            continue  # g(dist) is real by construction there
        coeff_im = {e_names[mm]: np.diag(np.imag(omega ** (dist * (mm - j_idx)))).astype(complex)
                    for mm in range(m)}
        prob.add_equality(coeff_im, float(target.imag), label=f"gram-im-{dist}")


def benchmark_symmetric(gram: GramMatrix, seed_scenario, m: int, cutoff: int = 15,
                        *, solver_config: SDPConfig | None = None,
                        verdict_margin: float | None = None) -> BenchmarkResult:
    """Minimum compatible negativity for a rotation-generated ensemble.

    Variables are the standard-form blocks E_k of the output state and the
    blocks F_k of the negative-part witness; the partial-transpose constraint
    appears as Etilde_k + F_k >= 0 with Etilde the entry rearrangement of the
    E blocks.  Constraints: the scenario pins sum_k E_k (the seed output),
    block traces reproduce the Gram matrix, total trace is 1.

    Returns a certified lower bound on the negativity of the true joint
    output state, and the verdict derived from it.
    """
    if m != gram.m:
        raise ValueError(f"gram has M = {gram.m}, requested M = {m}")
    if m < 1:
        raise ValueError("M must be positive")
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

    j_idx = np.arange(d)[:, None]
    l_idx = np.arange(d)[None, :]
    for k in range(m):
        terms = []
        src = np.mod(j_idx + l_idx - k, m)
        for mm in range(m):
            mask = (src == mm).astype(float)
            if mask.any():
                terms.append((e_names[mm], HadamardMaskMap(mask)))
        terms.append((f_names[k], ScalarMap(d, 1.0)))
        prob.add_psd_constraint(terms, label=f"pt-sector-{k}")

    def pin(target, label):
        prob.add_entry_equalities({name: 1.0 for name in e_names}, target, label=label)

    _add_scenario_rows(prob, seed_scenario, d,
                       lambda op: {name: op for name in e_names}, pin)
    _gram_rows_symmetric(prob, e_names, gram.circulant_profile(), d,
                         skip_trace_row=isinstance(seed_scenario, Tomography))

    sol = prob.solve(cfg)
    e_stack = np.stack([sol.variables[name] for name in e_names])
    return _result(sol, cfg, verdict_margin, m, cutoff, seed_scenario.tag,
                   StandardForm(e_stack, check=False))


def benchmark_general(gram: GramMatrix, scenarios, cutoff: int = 15,
                      *, solver_config: SDPConfig | None = None,
                      verdict_margin: float | None = None) -> BenchmarkResult:
    """Minimum compatible negativity without the symmetry reduction.

    ``scenarios`` holds one measurement scenario per test state, constraining
    the corresponding diagonal block of the output matrix.  Agrees with
    :func:`benchmark_symmetric` when both apply.
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
        [("tau", BlockSwapMap(m, d)), ("tau_minus", ScalarMap(n_full, 1.0))],
        label="pt-plus-witness")

    def embed(op: np.ndarray, k: int) -> np.ndarray:
        big = np.zeros((n_full, n_full), dtype=complex)
        big[k * d:(k + 1) * d, k * d:(k + 1) * d] = op
        return big

    for k, sc in enumerate(scenarios):
        def pin(target, label):
            prob.fix_diagonal_subblock("tau", k * d, target / m, label=label)

        _add_scenario_rows(prob, sc, d, lambda op: {"tau": embed(m * op, k)}, pin,
                           suffix=f"-{k}")

    for k in range(m):
        for l in range(k, m):
            if k == l:
                if isinstance(scenarios[k], Tomography):
                    continue  # trace already pinned by tomography rows
                prob.add_subblock_trace_equality("tau", k, k, d, gram.z[k, k].real,
                                                 scale=float(m), label=f"gram-{k}-{k}")
            else:
                # Tr(block_kl) = Z_lk, block_kl = M * tau_sub(k, l)
                prob.add_subblock_trace_equality("tau", k, l, d, complex(gram.z[l, k]),
                                                 scale=float(m), label=f"gram-{k}-{l}")

    sol = prob.solve(cfg)
    return _result(sol, cfg, verdict_margin, m, cutoff, "+".join(sc.tag for sc in scenarios),
                   BipartiteBlockMatrix.from_full(sol.variables["tau"], m, check=False))


def input_negativity(rho_in: BipartiteBlockMatrix, psd_tol: float = 1e-9) -> float:
    """Negativity of the optimized input matrix, via the standard form when
    the phase symmetry holds and directly otherwise."""
    if symmetry_check(rho_in) <= 1e-8:
        return negativity_stform(to_standard_form(rho_in), psd_tol=psd_tol)
    return negativity(rho_in, psd_tol=psd_tol)
