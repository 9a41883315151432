"""Choosing purifications: Gram-matrix optimization and CPTP-order tests.

Given test states rho_0 .. rho_{M-1}, the benchmark works with purifications
|G_k> whose pairwise overlaps Z_kl = <G_k|G_l> form the Gram matrix.  The
overlaps are free parameters constrained only through the input-side bipartite
matrix rho_in, whose diagonal blocks are the test states and whose block
traces are the overlaps: Tr(block_kl) = Z_lk.

``optimize_gram`` maximizes the linear surrogate

    h = sum_{k>l} (Re Z_kl + Im Z_kl)

over all positive semidefinite rho_in compatible with the test states.  This
is a practical, SDP-representable stand-in for the Gram purity.

``cptp_reachable`` tests the partial order on Gram matrices induced by
channels: states with Gram G can be mapped by some channel onto states with
Gram D exactly when G = P o D (Hadamard product) for a PSD P with unit
diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocksym import (BipartiteBlockMatrix, block_functional, from_standard_form,
                       trace_weights)
from .fock import (DensityMatrix, fidelity, matrix_from_json, matrix_to_json, real_frame,
                   rotation)
from .sdp import SDPConfig, SDPProblem, SDPStatus

__all__ = [
    "GramMatrix",
    "GramOptResult",
    "CPTPOrderResult",
    "optimize_gram",
    "gram_purity",
    "purity_upper_bound",
    "cptp_reachable",
    "rotation_ensemble",
    "is_rotation_generated",
]

GRAM_PSD_TOL = 1e-9
GRAM_DIAG_TOL = 1e-10


def _circulant(zeta: np.ndarray) -> np.ndarray:
    """The circulant matrix with first column zeta: Z[a, b] = zeta[(a - b) mod M]."""
    m = len(zeta)
    return zeta[np.mod(np.subtract.outer(np.arange(m), np.arange(m)), m)]


class GramMatrix:
    """Hermitian PSD matrix of purification overlaps Z_kl = <G_k|G_l>.

    Proper purification Grams have unit diagonal; ``require_unit_diagonal``
    can be dropped for raw block-trace matrices (e.g. reduced matrices of
    unnormalized grids), in which case only Hermiticity/PSD are enforced.
    """

    __slots__ = ("m", "z")

    def __init__(self, z: np.ndarray, require_unit_diagonal: bool = True):
        z = np.asarray(z, dtype=complex)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValueError(f"Gram matrix must be square, got {z.shape}")
        herm = float(np.max(np.abs(z - z.conj().T)))
        if herm > 1e-10:
            raise ValueError(f"Gram matrix is not Hermitian (deviation {herm:.3e})")
        z = (z + z.conj().T) / 2.0
        min_eig = float(np.linalg.eigvalsh(z)[0])
        if min_eig < -GRAM_PSD_TOL * max(1.0, float(np.max(np.abs(np.diag(z).real)))):
            raise ValueError(f"Gram matrix is not PSD (min eigenvalue {min_eig:.3e})")
        if require_unit_diagonal:
            diag_err = float(np.max(np.abs(np.diag(z) - 1.0)))
            if diag_err > GRAM_DIAG_TOL:
                raise ValueError(f"Gram diagonal deviates from 1 by {diag_err:.3e}")
            if float(np.max(np.abs(z))) > 1.0 + GRAM_PSD_TOL:
                raise ValueError("Gram entries must have modulus <= 1")
        self.m = z.shape[0]
        self.z = z

    @property
    def rho_a(self) -> np.ndarray:
        """Reduced register state: rho_A[k,l] = Z_lk / M."""
        return self.z.T / self.m

    @classmethod
    def from_rho_a(cls, rho_a: np.ndarray, require_unit_diagonal: bool = True) -> "GramMatrix":
        rho_a = np.asarray(rho_a, dtype=complex)
        return cls(rho_a.T * rho_a.shape[0], require_unit_diagonal=require_unit_diagonal)

    def circulant_deviation(self) -> float:
        """Largest entry of Z minus the circulant matrix with Z's first column."""
        return float(np.max(np.abs(self.z - _circulant(self.z[:, 0]))))

    def to_json_dict(self) -> dict:
        return matrix_to_json(self.z, m=self.m)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "GramMatrix":
        return cls(matrix_from_json(payload, "Gram", "m"))

    def __repr__(self):
        return f"GramMatrix(m={self.m})"


def gram_purity(gram: GramMatrix) -> float:
    """P = (1/M^2) sum_kl |Z_kl|^2 = Tr(rho_A^2)."""
    return float(np.sum(np.abs(gram.z) ** 2)) / gram.m**2


def purity_upper_bound(test_states) -> float:
    """(1/M^2) sum_kl F(rho_k, rho_l): pairwise-fidelity bound on the Gram purity."""
    m = len(test_states)
    total = float(m)  # diagonal terms F(rho, rho) = 1
    for k in range(m):
        for l in range(k + 1, m):
            total += 2.0 * fidelity(test_states[k], test_states[l])
    return total / m**2


def rotation_ensemble(seed: DensityMatrix, m: int) -> list:
    """Test states rho_k = U^k rho_0 U^{-k}, U = rotation(2 pi / M)."""
    if m < 1:
        raise ValueError("ensemble size must be >= 1")
    u = rotation(2.0 * np.pi / m, seed.dim)
    states = [seed]
    current = seed.matrix
    for _ in range(m - 1):
        current = u @ current @ u.conj().T
        states.append(DensityMatrix(current, allow_sub_normalized=True))
    return states


def is_rotation_generated(states) -> bool:
    """True when rho_k = U^k rho_0 U^{-k} within 1e-8 for all k."""
    m = len(states)
    u = rotation(2.0 * np.pi / m, states[0].dim)
    current = states[0].matrix
    for k in range(1, m):
        current = u @ current @ u.conj().T
        if float(np.max(np.abs(states[k].matrix - current))) > 1e-8:
            return False
    return True


@dataclass
class GramOptResult:
    gram: GramMatrix
    rho_in: BipartiteBlockMatrix
    h_value: float
    purity: float
    purity_upper_bound: float
    diagnostics: dict

    def __post_init__(self):
        if self.purity > self.purity_upper_bound + 1e-6:
            raise ValueError(
                f"achieved purity {self.purity:.8f} exceeds the pairwise-fidelity bound "
                f"{self.purity_upper_bound:.8f}")


def _check_gram_solution(sol) -> None:
    """The block-diagonal input is always feasible, so anything short of an
    accurate iterate is a solver failure.  Degenerate instances (orthogonal
    supports, pure states) may stop just shy of the target tolerance; those
    near-converged iterates are accepted."""
    if sol.status is SDPStatus.OPTIMAL:
        return
    if max(sol.primal_residual, sol.dual_residual) <= 1e-6:
        return
    raise RuntimeError(
        f"Gram optimization solver failed with status {sol.status.value} "
        f"(residuals {sol.primal_residual:.2e}/{sol.dual_residual:.2e}; "
        f"the block-diagonal input is always feasible)")


def _solve_general(states, weights, config) -> tuple:
    """Maximize sum_{k>l} Re(weights[k,l] * Z_kl) over compatible rho_in: with
    C the :func:`blocksym.block_functional` of Z_kl = Tr(block_lk), the term
    is <(w C + (w C)^dagger)/2, rho_in>.

    Returns (z, rho_in_blocks, objective_value, solution).
    """
    m = len(states)
    d = states[0].dim

    prob = SDPProblem()
    prob.add_variable("rho_in", m * d)

    eye = np.eye(d)
    c = sum(weights[k, l] * block_functional(eye, l, k, m) for k in range(m) for l in range(k))
    prob.set_objective({"rho_in": (c + c.conj().T) / 2}, maximize=True)

    for k, st in enumerate(states):
        prob.add_entry_equalities(["rho_in"], st.matrix / m, offset=k * d,
                                  label=f"test-state-{k}")

    sol = prob.solve(config)
    _check_gram_solution(sol)
    blocks = BipartiteBlockMatrix.from_full(sol.variables["rho_in"], m, check=False).blocks
    z = np.einsum("lkii->kl", blocks)  # Z_kl = Tr block_lk
    return z, blocks, sol.objective, sol


def _solve_symmetric(states, weights, config) -> tuple:
    """Symmetric-sector version: variables are the standard-form blocks E_k,
    and a circulant weight matrix is read from its column 0.

    With W the :func:`blocksym.trace_weights`, Z_{t,0} = conj(sum_{k,j}
    W[t, k, j] [E_k]_{jj}), so the objective sum_{t>0} (M - t) Re(weights[t, 0]
    Z_{t,0}) reads only the diagonals of the E_k.  The seed is pinned in the
    frame of :func:`fock.real_frame`: conjugating every E_k by its diagonal
    phase U maps the feasible set onto itself, and a phase-covariant seed lets
    ``sdp.solve`` work over real symmetric blocks.  The E_k are returned in
    the caller's frame.
    """
    m = len(states)
    d = states[0].dim
    seed, phase = real_frame(states[0].matrix)
    trace_w = trace_weights(m, d)

    coeff = np.zeros((m, d))
    for t in range(1, m):
        coeff += (m - t) * np.real(np.conj(weights[t, 0]) * trace_w[t])
    prob = SDPProblem()
    for k in range(m):
        prob.add_variable(f"E{k}", d)
    prob.set_objective({f"E{k}": np.diag(coeff[k]).astype(complex) for k in range(m)},
                       maximize=True)
    prob.add_entry_equalities([f"E{k}" for k in range(m)], seed, label="seed-state")
    sol = prob.solve(config)
    _check_gram_solution(sol)
    e = np.stack([sol.variables[f"E{k}"] for k in range(m)])
    diags = np.real(np.einsum("kjj->kj", e))
    zeta = np.conj(np.sum(trace_w * diags, axis=(1, 2)))
    z = _circulant(zeta)
    if phase is not None:
        e = phase.conj()[:, None] * e * phase
    blocks = from_standard_form(e).blocks
    return z, blocks, sol.objective, sol


def optimize_gram(test_states, symmetric: bool = False, *,
                  solver_config: SDPConfig | None = None) -> GramOptResult:
    """Choose purification overlaps for the given test states.

    Maximizes h = sum_{k>l} (Re Z_kl + Im Z_kl) over all PSD input matrices
    whose diagonal blocks are exactly the test states.  With ``symmetric``
    set (valid only for rotation-generated ensembles, verified to 1e-8), the
    variable is parameterized in the standard form, cutting the free
    parameters from O(M^2) blocks to M blocks.
    """
    m = len(test_states)
    if m < 2:
        raise ValueError("need at least 2 test states")
    dims = {st.dim for st in test_states}
    if len(dims) != 1:
        raise ValueError(f"test states have mixed dimensions {dims}")
    config = solver_config or SDPConfig()

    if symmetric and not is_rotation_generated(test_states):
        raise ValueError("symmetric optimization requires a rotation-generated ensemble "
                         "(rho_k = U^k rho_0 U^-k within 1e-8)")
    solve = _solve_symmetric if symmetric else _solve_general
    # weights 1 - i: Re((1 - i) Z_kl) = Re Z_kl + Im Z_kl, the h objective
    z, blocks, h_value, sol = solve(test_states, np.full((m, m), 1.0 - 1.0j), config)
    diagnostics = {
        "solver_status": sol.status.value,
        "solver_iterations": sol.iterations,
        "primal_residual": sol.primal_residual,
        "dual_residual": sol.dual_residual,
    }

    # Clean tiny numerical diagonal drift before validation.
    z = z.copy()
    np.fill_diagonal(z, 1.0)
    gram = GramMatrix(z)
    rho_in = BipartiteBlockMatrix(blocks, check=False)
    return GramOptResult(
        gram=gram,
        rho_in=rho_in,
        h_value=float(h_value),
        purity=gram_purity(gram),
        purity_upper_bound=purity_upper_bound(test_states),
        diagnostics=diagnostics,
    )


@dataclass
class CPTPOrderResult:
    feasible: bool
    witness: np.ndarray | None
    slack: float
    reason: str

    def __bool__(self):
        return self.feasible


def cptp_reachable(g: GramMatrix, d: GramMatrix) -> CPTPOrderResult:
    """Feasibility of G = P o D with P PSD and unit diagonal.

    Feasible exactly when a channel maps states realizing Gram G onto states
    realizing Gram D.  Entries of P are pinned wherever D_kl != 0; remaining
    entries are completed by maximizing the minimum eigenvalue of P (a small
    SDP).  Returns the witness P when feasible.
    """
    if g.m != d.m:
        raise ValueError(f"Gram size mismatch: {g.m} vs {d.m}")
    m = g.m
    zero_tol, tol = 1e-12, 1e-9

    p_fixed = np.eye(m, dtype=complex)
    free_mask = np.zeros((m, m), dtype=bool)
    for k in range(m):
        for l in range(k + 1, m):
            dv, gv = d.z[k, l], g.z[k, l]
            if abs(dv) <= zero_tol:
                if abs(gv) > tol:
                    return CPTPOrderResult(
                        False, None, -np.inf,
                        f"entry ({k},{l}): D is zero but G = {gv:.3e} != 0")
                free_mask[k, l] = free_mask[l, k] = True
            else:
                val = gv / dv
                p_fixed[k, l] = val
                p_fixed[l, k] = np.conj(val)

    if not free_mask.any():
        min_eig = float(np.linalg.eigvalsh(p_fixed)[0])
        if min_eig >= -tol:
            return CPTPOrderResult(True, p_fixed, min_eig, "determined entrywise; PSD")
        return CPTPOrderResult(False, None, min_eig,
                               f"determined entrywise; min eigenvalue {min_eig:.3e} < 0")

    # Complete the free entries: maximize t s.t. P >= t I  via  Q = P - t I >= 0.
    prob = SDPProblem()
    prob.add_variable("Q", m)
    prob.add_variable("t_pos", 1)
    prob.add_variable("t_neg", 1)
    prob.set_objective({"t_pos": np.eye(1), "t_neg": -np.eye(1)}, maximize=True)
    for k in range(m):
        prob.add_equality({"Q": np.diag(np.eye(m)[k]), "t_pos": np.eye(1), "t_neg": -np.eye(1)},
                          1.0)
    for k in range(m):
        for l in range(k + 1, m):
            if free_mask[k, l]:
                continue
            # Re Q_kl and Im Q_kl are <C, Q> for C = (E + E^T) / 2 and i (E - E^T) / 2.
            e = np.zeros((m, m))
            e[k, l] = 1.0
            prob.add_equality({"Q": (e + e.T) / 2}, p_fixed[k, l].real)
            prob.add_equality({"Q": 0.5j * (e - e.T)}, p_fixed[k, l].imag)
    sol = prob.solve()
    if sol.status is not SDPStatus.OPTIMAL:
        return CPTPOrderResult(False, None, -np.inf,
                               f"completion solver status {sol.status.value}")
    t_star = float(np.real(sol.variables["t_pos"][0, 0] - sol.variables["t_neg"][0, 0]))
    if t_star < -tol:
        return CPTPOrderResult(False, None, t_star,
                               f"best completion has min eigenvalue {t_star:.3e} < 0")
    witness = sol.variables["Q"] + t_star * np.eye(m)
    return CPTPOrderResult(True, witness, t_star, "completed by SDP")
