"""Truncated Fock-space linear algebra: operators, canonical states, fidelity.

Operators are plain (D, D) numpy arrays; ``DensityMatrix`` is the one
validated type.  Conventions used throughout the package:

* Quadratures are scaled so the vacuum has Var(x) = Var(p) = 1/2, i.e.
  x = (a + a^dag)/sqrt(2) and p = (a - a^dag)/(i sqrt(2)).
* Phase-space rotations are U(theta) = exp(-i theta n) with n the number
  operator.  Flipping this sign silently transposes the index conventions of
  the block-circulant standard form in :mod:`qdbench.blocksym`, so it is fixed
  here once and for all.
"""

from __future__ import annotations

import json
import logging
import math

import numpy as np

log = logging.getLogger(__name__)

# Validation tolerances for density matrices (see DensityMatrix).
HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-9
TRACE_TOL = 1e-9

__all__ = [
    "DensityMatrix",
    "TruncationError",
    "fit_dim",
    "real_frame",
    "number_operator",
    "rotation",
    "destroy",
    "quadratures",
    "displacement",
    "moment_operators",
    "coherent_state",
    "noisy_coherent",
    "fidelity",
    "trace_norm",
    "hermitian_part_error",
    "matrix_to_json",
    "matrix_from_json",
]


class TruncationError(ValueError):
    """Raised when a state cannot be represented faithfully at the cutoff."""

    def __init__(self, message, deficit=None):
        super().__init__(message)
        self.deficit = deficit


def fit_dim(mat: np.ndarray, dim: int, what: str):
    """Zero-pad or truncate a square matrix to ``dim`` x ``dim``.

    Returns ``(matrix, lost_trace)``: ``lost_trace`` is 1 - Tr of the
    truncated matrix, and 0.0 when the matrix is padded or already fits.
    Raises :class:`TruncationError`, naming ``what``, when truncation loses
    more than 1e-6 of the trace.
    """
    n = mat.shape[0]
    if n == dim:
        return mat, 0.0
    if n < dim:
        out = np.zeros((dim, dim), dtype=complex)
        out[:n, :n] = mat
        return out, 0.0
    trunc = mat[:dim, :dim]
    lost = 1.0 - float(np.real(np.trace(trunc)))
    if lost > 1e-6:
        raise TruncationError(
            f"{what} loses trace {lost:.3e} when truncated to {dim} levels; "
            f"raise the cutoff", deficit=lost)
    return trunc, lost


def real_frame(rho: np.ndarray):
    """(U rho U^dagger, phases of U) for U = diag(e^{i n theta}), theta the
    phase of the first nonzero superdiagonal entry of rho, when that makes
    rho real to 1e-14; else (rho, None).

    A phase-covariant state (a coherent or displaced thermal state of any
    amplitude phase) is real in this frame, and a problem that reads it only
    through entrywise pins, diagonals and traces is mapped onto itself by the
    diagonal unitary U."""
    sup = np.diagonal(rho, 1)
    nonzero = np.flatnonzero(sup)
    theta = float(np.angle(sup[nonzero[0]])) if nonzero.size else 0.0
    phase = np.exp(1j * theta * np.arange(rho.shape[0]))
    rotated = phase[:, None] * rho * phase.conj()
    if np.max(np.abs(rotated.imag)) <= 1e-14:
        return rotated.real, phase
    return rho, None


def hermitian_part_error(a: np.ndarray) -> float:
    """Max-norm deviation of ``a`` from its Hermitian part."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def matrix_to_json(mat: np.ndarray, **sizes) -> dict:
    """JSON form of a complex matrix: the ``sizes`` fields, then its real and
    imaginary parts as nested lists."""
    return {**sizes, "re": mat.real.tolist(), "im": mat.imag.tolist()}


def matrix_from_json(payload, what: str, *size_keys) -> np.ndarray:
    """Complex matrix of :func:`matrix_to_json`, whose side is the product of
    the ``size_keys`` fields; a missing or malformed field raises a
    ValueError naming ``what``."""
    try:
        n = math.prod(int(payload[key]) for key in size_keys)
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except KeyError as exc:
        raise ValueError(f"{what} JSON has no field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed {what} JSON: {exc}") from None
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"{what} JSON arrays must be {n}x{n}, got {re.shape} and {im.shape}")
    return re + 1j * im


class DensityMatrix:
    """A validated quantum state on the truncated Fock space.

    Validation rejects NaN and infinite entries, and enforces Hermiticity
    (max deviation <= 1e-10), positive semidefiniteness (min eigenvalue >=
    -1e-9; eigenvalues in (-1e-9, 0) are clipped to zero with a logged
    warning, since numerically reconstructed states are PSD only
    approximately) and unit trace (|Tr - 1| <= 1e-9).

    ``allow_sub_normalized=True`` admits matrices whose trace falls short of
    one because of Fock-space truncation; the shortfall is recorded in
    ``trace_deficit``.
    """

    __slots__ = ("dim", "matrix", "trace_deficit")

    def __init__(self, matrix: np.ndarray, allow_sub_normalized: bool = False):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {matrix.shape}")
        bad = [(int(i), int(j)) for i, j in np.argwhere(~np.isfinite(matrix))]
        if bad:
            more = f" and {len(bad) - 4} more" if len(bad) > 4 else ""
            raise ValueError(f"density matrix has non-finite entries at "
                             f"{', '.join(map(str, bad[:4]))}{more}")
        herm_err = hermitian_part_error(matrix)
        if herm_err > HERMITICITY_TOL:
            raise ValueError(f"density matrix is not Hermitian (deviation {herm_err:.3e})")
        matrix = (matrix + matrix.conj().T) / 2.0

        w, v = np.linalg.eigh(matrix)
        min_eig = float(w[0])
        if min_eig < -PSD_TOL:
            raise ValueError(f"density matrix is not PSD (min eigenvalue {min_eig:.3e})")
        if min_eig < 0.0:
            if min_eig < -1e-13:  # below plain rounding noise: worth telling the user
                log.warning("clipping %d slightly negative eigenvalue(s) (min %.3e) to zero",
                            int(np.sum(w < 0)), min_eig)
            w = np.clip(w, 0.0, None)
            matrix = (v * w) @ v.conj().T
            matrix = (matrix + matrix.conj().T) / 2.0

        tr = float(np.real(np.trace(matrix)))
        deficit = 1.0 - tr
        if abs(deficit) > TRACE_TOL and not allow_sub_normalized:
            raise ValueError(f"density matrix trace {tr!r} is not 1 within {TRACE_TOL:.1e}")
        if allow_sub_normalized and deficit < -TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} exceeds 1")

        self.dim = matrix.shape[0]
        self.matrix = matrix
        self.trace_deficit = deficit

    def expectation(self, operator: np.ndarray) -> float:
        """Real expectation value Tr(rho O) of a Hermitian operator."""
        return float(np.real(np.trace(self.matrix @ operator)))

    def mean_photon(self) -> float:
        return self.expectation(number_operator(self.dim))

    def quadrature_moments(self) -> dict:
        """First and raw second moments of x and p (vacuum variance 1/2 units)."""
        return {key: self.expectation(op) for key, op in moment_operators(self.dim).items()}

    def to_json_dict(self) -> dict:
        return matrix_to_json(self.matrix, dim=self.dim)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def from_json_dict(cls, payload: dict, allow_sub_normalized: bool = False) -> "DensityMatrix":
        return cls(matrix_from_json(payload, "density-matrix", "dim"),
                   allow_sub_normalized=allow_sub_normalized)

    @classmethod
    def load(cls, path, allow_sub_normalized: bool = False) -> "DensityMatrix":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return cls.from_json_dict(payload, allow_sub_normalized=allow_sub_normalized)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, trace_deficit={self.trace_deficit:.2e})"


def number_operator(dim: int) -> np.ndarray:
    """diag(0, 1, ..., D-1)."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def rotation(theta: float, dim: int) -> np.ndarray:
    """Phase-space rotation U(theta) = exp(-i theta n), diagonal in Fock basis."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return np.diag(np.exp(-1j * theta * np.arange(dim)))


def destroy(dim: int) -> np.ndarray:
    """Annihilation operator a with a|n> = sqrt(n)|n-1>."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)


def quadratures(dim: int):
    """Quadrature pair (x, p) with vacuum variance 1/2 each.

    Returns the truncated-matrix operators; the canonical commutator
    [x, p] = i holds exactly on the interior levels only (the top Fock level
    carries the usual truncation artifact).
    """
    if dim < 2:
        raise ValueError("quadratures need at least 2 Fock levels")
    a = destroy(dim)
    x = (a + a.conj().T) / math.sqrt(2.0)
    p = (a - a.conj().T) / (1j * math.sqrt(2.0))
    return x, p


def moment_operators(dim: int) -> dict:
    """The operators of the moments "x", "p", "xx" = x^2 and "pp" = p^2."""
    x, p = quadratures(dim)
    return {"x": x, "p": p, "xx": x @ x, "pp": p @ p}


def displacement(alpha: complex, dim: int) -> np.ndarray:
    """Displacement D(alpha) = exp(alpha a^dag - conj(alpha) a), exactly unitary.

    Built by exponentiating the truncated generator through a Hermitian
    eigendecomposition, so the result is unitary at any cutoff even though it
    only approximates the infinite-dimensional displacement.
    """
    a = destroy(dim)
    k = alpha * a.conj().T - np.conj(alpha) * a
    h = -1j * k  # Hermitian
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    return (v * np.exp(1j * w)) @ v.conj().T


def _coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    n = np.arange(dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim, dtype=float)))))
    if alpha == 0:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        return amps
    log_mod = -abs(alpha) ** 2 / 2.0 + n * math.log(abs(alpha)) - log_fact / 2.0
    return np.exp(log_mod) * np.exp(1j * n * np.angle(alpha))


def _check_truncation(alpha: complex, dim: int, deficit: float, deficit_tol: float) -> None:
    if abs(alpha) ** 2 > dim / 4.0:
        raise TruncationError(
            f"|alpha|^2 = {abs(alpha)**2:.4g} exceeds the truncation guard D/4 = {dim / 4.0:.4g} "
            f"(trace deficit {deficit:.3e})", deficit=deficit)
    if deficit > deficit_tol:
        raise TruncationError(
            f"truncation at D = {dim} leaves trace deficit {deficit:.3e} > {deficit_tol:.1e}",
            deficit=deficit)


def coherent_state(alpha: complex, dim: int, deficit_tol: float = 1e-8) -> DensityMatrix:
    """Pure coherent state |alpha><alpha| truncated at ``dim`` Fock levels.

    The amplitude guard |alpha|^2 <= D/4 and the trace-deficit bound
    ``deficit_tol`` are both enforced; violation raises TruncationError with
    the computed deficit.  The truncated amplitudes are kept verbatim (no
    renormalization), so the recorded deficit is exactly the lost tail weight.
    """
    amps = _coherent_amplitudes(alpha, dim)
    deficit = 1.0 - float(np.sum(np.abs(amps) ** 2))
    _check_truncation(alpha, dim, deficit, deficit_tol)
    return DensityMatrix(np.outer(amps, amps.conj()), allow_sub_normalized=True)


def noisy_coherent(alpha: complex, excess: float, dim: int,
                   deficit_tol: float = 1e-8) -> DensityMatrix:
    """Displaced thermal state: coherent amplitude ``alpha`` plus isotropic noise.

    ``excess`` is the thermal mean photon number nu >= 0; the state has
    quadrature variances (1 + 2 nu)/2 in both x and p and mean photon number
    |alpha|^2 + nu (up to truncation tails).
    """
    if excess < 0:
        raise ValueError("excess noise must be nonnegative")
    if excess == 0:
        return coherent_state(alpha, dim, deficit_tol=deficit_tol)
    nu = float(excess)
    n = np.arange(dim)
    therm = np.exp(n * math.log(nu / (1.0 + nu)) - math.log(1.0 + nu))
    deficit_th = 1.0 - float(np.sum(therm))
    _check_truncation(alpha, dim, deficit_th, deficit_tol)
    d = displacement(alpha, dim)
    rho = (d * therm) @ d.conj().T
    return DensityMatrix(rho, allow_sub_normalized=True)


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(matrix)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho0: DensityMatrix, rho1: DensityMatrix) -> float:
    """Uhlmann fidelity F = [Tr sqrt(sqrt(rho0) rho1 sqrt(rho0))]^2.

    The matrix square roots come from Hermitian eigendecompositions; the
    outer trace is evaluated as the nuclear norm of sqrt(rho1) sqrt(rho0),
    which avoids the sqrt-of-noise blowup that eigenvalues of the triple
    product suffer near zero.  Symmetric in its arguments to ~1e-12.
    """
    if rho0.dim != rho1.dim:
        raise ValueError(f"dimension mismatch: {rho0.dim} vs {rho1.dim}")
    s0 = _psd_sqrt(rho0.matrix)
    s1 = _psd_sqrt(rho1.matrix)
    root = float(np.sum(np.linalg.svd(s1 @ s0, compute_uv=False)))
    return min(root ** 2, 1.0 + 1e-12)


def trace_norm(a) -> float:
    """Sum of singular values; for Hermitian input, the sum of |eigenvalues|."""
    mat = np.asarray(a, dtype=complex)
    if mat.size == 0:
        return 0.0
    if hermitian_part_error(mat) <= 1e-12 * max(1.0, float(np.max(np.abs(mat)))):
        return float(np.sum(np.abs(np.linalg.eigvalsh(mat))))
    return float(np.sum(np.linalg.svd(mat, compute_uv=False)))

